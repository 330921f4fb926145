"""Multi-view visualization corpora: loading, splitting, encoding, and sampling.

A corpus is a list of multi-view visualizations (data stories or
dashboards), each an ordered list of at least three charts. Training
quadruples pair every window of three consecutive charts with negatives
drawn from other visualizations, preferring the same dataset, then the same
domain, then anywhere.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import grammar, semantics
from .encoder import EncoderConfig
from .facts import ChartFact, FactParseError, fact_from_dict, fact_to_dict, validate_fact
from .semantics import VectorStore

log = logging.getLogger(__name__)

MIN_CHARTS = 3

DOMAINS = (
    "economy",
    "sports",
    "society",
    "health",
    "politics",
    "industry",
    "recreation",
    "food",
    "education",
    "ecology",
)

KINDS = ("data-story", "dashboard")

NEGATIVE_POLICIES = ("same-dataset-first", "any")


class CorpusError(ValueError):
    """Raised for malformed or invalid corpus files."""


@dataclass(frozen=True)
class MultiViewVis:
    id: str
    dataset_id: str
    domain: str
    kind: str
    charts: tuple[tuple[str, ChartFact], ...]  # (chart_id, fact), in order


@dataclass(frozen=True)
class Corpus:
    """Visualizations in order. `facts_checked` records that every fact has
    passed validate_fact, as corpus_from_dict and split_corpus ensure;
    encode_corpus checks the facts of any other corpus."""

    visualizations: tuple[MultiViewVis, ...]
    facts_checked: bool = field(default=False, compare=False)

    def __len__(self) -> int:
        return len(self.visualizations)

    @property
    def chart_count(self) -> int:
        return sum(len(v.charts) for v in self.visualizations)

    def dataset_ids(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for vis in self.visualizations:
            seen.setdefault(vis.dataset_id, None)
        return tuple(seen)


# Each id is one cell of the index TSV, so it may not split a line or a cell.
_ID_BREAKS = frozenset("\t\r\n")


def _check_id_cell(value: str, where: str) -> None:
    if not _ID_BREAKS.isdisjoint(value):
        raise CorpusError(f"{where}: {value!r} contains a tab, CR or LF")


@dataclass(frozen=True)
class _Locations:
    """The names that messages give a corpus's parts: its visualization
    list, a visualization's two id keys and chart list, and the suffix of a
    chart's location that names its fact."""

    visualizations: str = "visualizations"
    id: str = "id"
    dataset_id: str = "dataset_id"
    charts: str = "charts"
    fact: str = ".fact"


# import_calliope's output named after its source: stories[i] is
# visualizations[i], and stories[i].facts[j], which holds the fact's keys
# itself, is its charts[j].
_CALLIOPE_LOCATIONS = _Locations("stories", "story_id", "dataset", "facts", "")


def _vis_from_dict(
    obj: dict, where: str, strict: bool, names: _Locations
) -> Optional[MultiViewVis]:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: expected an object")
    required = ("id", "dataset_id", "domain", "kind", "charts")
    unknown = set(obj) - set(required)
    if unknown:
        raise CorpusError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise CorpusError(f"{where}: missing keys {missing}")
    for key, name in (("id", names.id), ("dataset_id", names.dataset_id)):
        if not isinstance(obj[key], str):
            raise CorpusError(f"{where}.{name}: expected a string")
        _check_id_cell(obj[key], f"{where}.{name}")
    if not isinstance(obj["charts"], list):
        raise CorpusError(f"{where}.{names.charts}: expected a list")
    if obj["domain"] not in DOMAINS:
        raise CorpusError(f"{where}: unknown domain {obj['domain']!r}")
    if obj["kind"] not in KINDS:
        raise CorpusError(f"{where}: unknown kind {obj['kind']!r}")

    charts: list[tuple[str, ChartFact]] = []
    seen_ids: set[str] = set()
    problems: list[str] = []
    for pos, chart_obj in enumerate(obj["charts"]):
        cwhere = f"{where}.{names.charts}[{pos}]"
        if not isinstance(chart_obj, dict):
            raise CorpusError(f"{cwhere}: expected an object")
        if set(chart_obj) != {"chart_id", "fact"}:
            raise CorpusError(f"{cwhere}: expected exactly 'chart_id' and 'fact'")
        chart_id = chart_obj["chart_id"]
        if not isinstance(chart_id, str) or not chart_id:
            raise CorpusError(f"{cwhere}: chart_id must be a non-empty string")
        _check_id_cell(chart_id, f"{cwhere}.chart_id")
        if chart_id in seen_ids:
            raise CorpusError(f"{cwhere}: duplicate chart id {chart_id!r}")
        seen_ids.add(chart_id)
        try:
            fact = fact_from_dict(chart_obj["fact"], where=f"{cwhere}{names.fact}")
        except FactParseError as exc:
            problems.append(str(exc))
            continue
        report = validate_fact(fact)
        if not report.ok:
            details = "; ".join(f"{v.field}: {v.message}" for v in report.violations)
            problems.append(f"{cwhere}: invalid fact ({details})")
            continue
        charts.append((chart_id, fact))

    if problems:
        if strict:
            more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
            raise CorpusError(f"{where} ({obj['id']!r}): invalid charts: {problems[0]}{more}")
        for problem in problems:
            log.warning("dropping chart: %s", problem)

    if len(charts) < MIN_CHARTS:
        message = (
            f"{where} ({obj['id']!r}): {len(charts)} valid charts, "
            f"minimum chart number is {MIN_CHARTS}"
        )
        if strict:
            raise CorpusError(message)
        log.warning("dropping visualization: %s", message)
        return None

    return MultiViewVis(
        id=obj["id"],
        dataset_id=obj["dataset_id"],
        domain=obj["domain"],
        kind=obj["kind"],
        charts=tuple(charts),
    )


def corpus_from_dict(obj: dict, strict: bool = True, names: _Locations = _Locations()) -> Corpus:
    if not isinstance(obj, dict) or set(obj) != {"visualizations"}:
        raise CorpusError("corpus must be an object with a 'visualizations' list")
    if not isinstance(obj["visualizations"], list):
        raise CorpusError("visualizations: expected a list")
    visualizations: list[MultiViewVis] = []
    vis_ids: set[str] = set()
    chart_ids: dict[str, str] = {}
    for i, vis_obj in enumerate(obj["visualizations"]):
        vis = _vis_from_dict(vis_obj, f"{names.visualizations}[{i}]", strict, names)
        if vis is None:
            continue
        if vis.id in vis_ids:
            raise CorpusError(f"duplicate visualization id {vis.id!r}")
        vis_ids.add(vis.id)
        for chart_id, _ in vis.charts:
            if chart_id in chart_ids:
                raise CorpusError(
                    f"chart id {chart_id!r} appears in both {chart_ids[chart_id]!r} "
                    f"and {vis.id!r}; chart ids must be globally unique"
                )
            chart_ids[chart_id] = vis.id
        visualizations.append(vis)
    return Corpus(tuple(visualizations), facts_checked=True)


def corpus_from_calliope(obj: dict, strict: bool = True) -> Corpus:
    """corpus_from_dict of import_calliope's output, with every location in
    its messages named as in the Calliope source."""
    return corpus_from_dict(import_calliope(obj), strict, _CALLIOPE_LOCATIONS)


def load_corpus(path: str, strict: bool = True) -> Corpus:
    """Load and validate a corpus JSON file.

    Strict mode (the default) rejects the whole file on any invalid chart;
    lenient mode drops offending charts (and visualizations that fall below
    the three-chart minimum) with warnings.
    """
    return corpus_from_dict(read_json(path), strict=strict)


def read_json(path: str, error: type[Exception] = CorpusError):
    """The decoded JSON of a UTF-8 file. Raises `error`, naming the file, for
    text that is not UTF-8 or not JSON, an integer longer than Python
    converts, or nesting deeper than the decoder goes."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not a UTF-8 text file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except ValueError as exc:  # an integer longer than int() converts
            raise error(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise error(f"{path}: invalid JSON: nested too deeply") from None


def corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "visualizations": [
            {
                "id": vis.id,
                "dataset_id": vis.dataset_id,
                "domain": vis.domain,
                "kind": vis.kind,
                "charts": [
                    {"chart_id": chart_id, "fact": fact_to_dict(fact)}
                    for chart_id, fact in vis.charts
                ],
            }
            for vis in corpus.visualizations
        ]
    }


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corpus_to_dict(corpus), fh, ensure_ascii=False, indent=1)
        fh.write("\n")


def split_corpus(corpus: Corpus, test_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Split at the dataset level; all visualizations of one dataset land on
    the same side. Deterministic for a fixed seed."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    datasets = list(corpus.dataset_ids())
    if len(datasets) < 2:
        raise CorpusError("corpus too small to split: need at least two datasets")

    by_dataset: dict[str, list[MultiViewVis]] = {d: [] for d in datasets}
    for vis in corpus.visualizations:
        by_dataset[vis.dataset_id].append(vis)

    rng = np.random.default_rng(seed)
    order = [datasets[i] for i in rng.permutation(len(datasets))]
    target = test_fraction * len(corpus.visualizations)
    test_sets: set[str] = set()
    test_count = 0
    for dataset in order:
        if test_count >= target or len(test_sets) == len(datasets) - 1:
            break
        test_sets.add(dataset)
        test_count += len(by_dataset[dataset])

    train_vis = tuple(v for v in corpus.visualizations if v.dataset_id not in test_sets)
    test_vis = tuple(v for v in corpus.visualizations if v.dataset_id in test_sets)
    if not train_vis or not test_vis:
        raise CorpusError("split left one side empty; adjust test_fraction")
    checked = corpus.facts_checked
    return Corpus(train_vis, facts_checked=checked), Corpus(test_vis, facts_checked=checked)


@dataclass(frozen=True)
class EncodedCorpus:
    """Every chart of a corpus encoded once, as columns in corpus order.

    The charts of one visualization occupy consecutive rows.
    """

    chart_ids: tuple[str, ...]
    vis_ids: tuple[str, ...]
    dataset_ids: tuple[str, ...]
    domains: tuple[str, ...]
    positions: np.ndarray  # (N,) position of each chart in its visualization
    rule_ids: np.ndarray  # (N, 16) derivation rule ids, -1 as padding
    semantics: np.ndarray  # (N, rows, cols) semantic blocks

    def __len__(self) -> int:
        return len(self.chart_ids)

    def rows(self, selected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Model inputs of the selected rows: rule ids (B, 16) with -1 as
        padding, and semantic blocks (B, rows, cols)."""
        return self.rule_ids[selected], self.semantics[selected]


def encode_corpus(corpus: Corpus, store: VectorStore, config: EncoderConfig) -> EncodedCorpus:
    """Encode every chart of the corpus exactly once, in corpus order.
    Raises GrammarError for an invalid fact, unless corpus.facts_checked
    says every fact has passed validate_fact already."""
    rule_ids = np.full((corpus.chart_count, grammar.MAX_SEQUENCE_LENGTH), -1, dtype=np.int8)
    tokens = []
    columns = []
    memo: dict = {}  # (text, location) -> tokens, for this call only
    derive = grammar._rule_ids if corpus.facts_checked else grammar.derive_rules
    for vis in corpus.visualizations:
        for position, (chart_id, fact) in enumerate(vis.charts):
            ids = derive(fact)
            rule_ids[len(columns), : len(ids)] = ids
            tokens.append(semantics.extract_tokens(fact, memo))
            columns.append((chart_id, vis.id, vis.dataset_id, vis.domain, position))
    blocks = semantics.encode_semantics(tokens, store, config.semantic_mode, config.use_locations)
    chart_ids, vis_ids, dataset_ids, domains, positions = list(zip(*columns)) or [()] * 5
    return EncodedCorpus(
        chart_ids, vis_ids, dataset_ids, domains, np.array(positions, dtype=np.int64),
        rule_ids, blocks,
    )


@dataclass(frozen=True)
class SampleSet:
    """Training quadruples as rows (prev, mid, next, negative) of an encoded corpus."""

    encoded: EncodedCorpus
    quads: np.ndarray  # (S, 4) int

    def __len__(self) -> int:
        return len(self.quads)

    def batch(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Model inputs of the given samples: every prev chart, then every
        mid, next and negative chart."""
        return self.encoded.rows(self.quads[samples].T.ravel())


def build_samples(
    train: Corpus,
    store: VectorStore,
    negatives_per_window: int = 1,
    policy: str = "same-dataset-first",
    seed: int = 0,
    config: EncoderConfig = EncoderConfig(),
) -> SampleSet:
    """Construct training quadruples from every three-chart window.

    For each visualization with charts c_1..c_n, windows are
    (c_{i-1}, c_i, c_{i+1}) for i = 2..n-1. Negatives come from other
    visualizations; under same-dataset-first they prefer the same dataset,
    then the same domain, then anywhere. Each tier lists its charts in
    chart-id order, and a window draws from it without replacement. Chart
    ids are globally unique, so no quadruple repeats.
    """
    if not train.visualizations:
        raise CorpusError("empty training corpus")
    if policy not in NEGATIVE_POLICIES:
        raise ValueError(f"unknown negative policy {policy!r}")
    if negatives_per_window < 1:
        raise ValueError("negatives_per_window must be >= 1")
    if len(train.visualizations) < 2:
        raise CorpusError(
            "no eligible negatives: need at least two visualizations"
        )

    encoded = encode_corpus(train, store, config)
    by_id = np.array(
        sorted(range(len(encoded)), key=encoded.chart_ids.__getitem__), dtype=np.int64
    )
    dataset_ids = np.array(encoded.dataset_ids)[by_id]
    domains = np.array(encoded.domains)[by_id]

    rng = np.random.default_rng(seed)
    quads: list[tuple[int, int, int, int]] = []
    lo = 0
    for vis in train.visualizations:
        hi = lo + len(vis.charts)
        # Negative candidates of this visualization, best tier first.
        other = (by_id < lo) | (by_id >= hi)
        same_dataset = dataset_ids == vis.dataset_id
        same_domain = domains == vis.domain
        if policy == "any":
            tiers = [by_id[other]]
        else:
            tiers = [
                by_id[same_dataset & other],
                by_id[~same_dataset & same_domain],
                by_id[~same_dataset & ~same_domain],
            ]
        for mid in range(lo + 1, hi - 1):
            needed = negatives_per_window
            for tier in tiers:
                want = min(needed, len(tier))
                if want == 0:
                    continue
                picks = np.sort(rng.choice(len(tier), size=want, replace=False))
                quads.extend((mid - 1, mid, mid + 1, neg) for neg in tier[picks].tolist())
                needed -= want
        lo = hi
    return SampleSet(encoded=encoded, quads=np.array(quads, dtype=np.int64).reshape(-1, 4))


_CALLIOPE_AGGREGATIONS = {
    "count": "count",
    "cnt": "count",
    "sum": "sum",
    "total": "sum",
    "avg": "average",
    "average": "average",
    "mean": "average",
    "min": "minimum",
    "minimum": "minimum",
    "max": "maximum",
    "maximum": "maximum",
}

_CALLIOPE_FIELD_TYPES = {
    "temporal": "temporal",
    "time": "temporal",
    "date": "temporal",
    "numerical": "numerical",
    "numeric": "numerical",
    "number": "numerical",
    "categorical": "categorical",
    "category": "categorical",
    "string": "categorical",
    "geographical": "geographical",
    "geo": "geographical",
    "geographic": "geographical",
}


def _calliope_field_type(raw: str, where: str) -> str:
    try:
        return _CALLIOPE_FIELD_TYPES[str(raw).lower()]
    except KeyError:
        raise CorpusError(f"{where}: unknown field type {raw!r}") from None


def _calliope_meta(fact_type: str, raw, where: str):
    if raw in (None, "", []):
        return None
    if fact_type == "trend":
        direction = str(raw).lower().replace(" ", "-")
        return {"kind": "trend", "direction": direction}
    if fact_type == "categorization":
        try:
            count = int(str(raw).split()[0])
        except (IndexError, ValueError):
            raise CorpusError(f"{where}.meta: expected a category count, got {raw!r}") from None
        return {"kind": "categorization", "count": count}
    if fact_type == "difference":
        return {"kind": "difference", "relation": str(raw).lower()}
    if fact_type == "rank":
        entries = raw if isinstance(raw, list) else [p for p in str(raw).split(",") if p]
        return {"kind": "rank", "top3": [str(e).strip() for e in entries][:3]}
    if fact_type == "extreme":
        return {"kind": "extreme", "extreme": str(raw).lower()}
    if fact_type == "association":
        return {"kind": "association", "sign": str(raw).lower()}
    log.warning("%s: dropping meta %r for fact type %r", where, raw, fact_type)
    return None


def _calliope_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise CorpusError(f"{where}: expected a list")
    return value


def _calliope_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise CorpusError(f"{where}: expected an object")
    return value


def _calliope_part(item: dict, key: str, where: str) -> Optional[dict]:
    """The object of a single-element list (or a bare object) under key, or
    None when it is absent or empty."""
    raw = item.get(key)
    if isinstance(raw, list):
        raw, where = (raw[0] if raw else None), f"{where}.{key}[0]"
    else:
        where = f"{where}.{key}"
    return _calliope_object(raw, where) if raw else None


def import_calliope(obj: dict) -> dict:
    """Convert a story-list export (5-part facts plus chart/meta) into the
    native corpus layout. The expected input shape is documented in the
    README; unknown aggregations or field types, and a value of the wrong
    JSON type, are rejected with the location of the value."""
    if not isinstance(obj, dict) or "stories" not in obj:
        raise CorpusError("expected a top-level object with a 'stories' list")
    visualizations = []
    for s_idx, story in enumerate(_calliope_list(obj["stories"], "stories")):
        where = f"stories[{s_idx}]"
        _calliope_object(story, where)
        charts = []
        for c_idx, item in enumerate(_calliope_list(story.get("facts", []), f"{where}.facts")):
            cwhere = f"{where}.facts[{c_idx}]"
            _calliope_object(item, cwhere)
            subspace = []
            filters = _calliope_list(item.get("subspace", []), f"{cwhere}.subspace")
            for f_idx, f in enumerate(filters):
                _calliope_object(f, f"{cwhere}.subspace[{f_idx}]")
                subspace.append(
                    {
                        "field": str(f.get("field", "")),
                        "value": str(f.get("value", "")),
                        "field_type": _calliope_field_type(
                            f.get("type", f.get("field_type", "categorical")), cwhere
                        ),
                    }
                )
            breakdown = None
            raw_breakdown = _calliope_part(item, "breakdown", cwhere)
            if raw_breakdown:
                breakdown = {
                    "field": str(raw_breakdown.get("field", raw_breakdown)),
                    "field_type": _calliope_field_type(
                        raw_breakdown.get("type", "categorical"), cwhere
                    ),
                }
            measure = None
            raw_measure = _calliope_part(item, "measure", cwhere)
            if raw_measure:
                agg_raw = str(raw_measure.get("aggregate", "sum")).lower()
                if agg_raw not in _CALLIOPE_AGGREGATIONS:
                    raise CorpusError(f"{cwhere}: unknown aggregation {agg_raw!r}")
                measure = {
                    "field": str(raw_measure.get("field", "")),
                    "aggregation": _CALLIOPE_AGGREGATIONS[agg_raw],
                }
            focus = None
            raw_focus = _calliope_part(item, "focus", cwhere)
            if raw_focus:
                focus = {
                    "field": str(raw_focus.get("field", "")),
                    "field_type": _calliope_field_type(
                        raw_focus.get("type", "categorical"), cwhere
                    ),
                    "value": str(raw_focus.get("value", "")),
                }
            fact_type = str(item.get("fact_type", item.get("type", ""))).lower()
            charts.append(
                {
                    "chart_id": item.get("chart_id", f"{story.get('story_id', s_idx)}-c{c_idx}"),
                    "fact": {
                        "type_c": str(item.get("chart", "table")).lower(),
                        "type_f": fact_type,
                        "subspace": subspace,
                        "breakdown": breakdown,
                        "measure": measure,
                        "focus": focus,
                        "meta": _calliope_meta(fact_type, item.get("meta"), cwhere),
                    },
                }
            )
        visualizations.append(
            {
                "id": str(story.get("story_id", f"story-{s_idx}")),
                "dataset_id": str(story.get("dataset", f"dataset-{s_idx}")),
                "domain": str(story.get("topic", story.get("domain", "society"))).lower(),
                "kind": str(story.get("kind", "data-story")),
                "charts": charts,
            }
        )
    return {"visualizations": visualizations}
