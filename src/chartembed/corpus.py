"""Multi-view visualization corpora: loading, splitting, encoding, and sampling.

A corpus is a list of multi-view visualizations (data stories or
dashboards), each an ordered list of at least three charts. Training
quadruples pair every window of three consecutive charts with negatives
drawn from other visualizations, preferring the same dataset, then the same
domain, then anywhere.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import logging
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import grammar, semantics
from .encoder import EncoderConfig, check_setting
from .facts import (
    META_VARIANTS, ChartFact, FactParseError, Where, fact_from_dict, fact_to_dict, location,
    validate_fact,
)
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

# The rules of build_samples' and split_corpus' settings (see check_setting).
SAMPLING_RULES = {
    "negatives_per_window": (int, ">= 1", lambda v: v >= 1),
    "policy": (str, f"one of {list(NEGATIVE_POLICIES)}", lambda v: v in NEGATIVE_POLICIES),
    "seed": (int, ">= 0", lambda v: v >= 0),
    "test_fraction": (float, "in (0, 1)", lambda v: 0 < v < 1),
}


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


_CHART_KEYS = frozenset({"chart_id", "fact"})


def _check_id_cell(value: str, where: Where) -> None:
    if not _ID_BREAKS.isdisjoint(value):
        raise CorpusError(f"{location(where)}: {value!r} contains a tab, CR or LF")


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
    # Chart locations are joined into text only for an error message.
    listed = (where, "." + names.charts)
    for pos, chart_obj in enumerate(obj["charts"]):
        if not isinstance(chart_obj, dict):
            raise CorpusError(f"{location((listed, pos))}: expected an object")
        if chart_obj.keys() != _CHART_KEYS:
            raise CorpusError(f"{location((listed, pos))}: expected exactly 'chart_id' and 'fact'")
        chart_id = chart_obj["chart_id"]
        if not isinstance(chart_id, str) or not chart_id:
            raise CorpusError(f"{location((listed, pos))}: chart_id must be a non-empty string")
        _check_id_cell(chart_id, (listed, pos, ".chart_id"))
        if chart_id in seen_ids:
            raise CorpusError(f"{location((listed, pos))}: duplicate chart id {chart_id!r}")
        seen_ids.add(chart_id)
        try:
            fact = fact_from_dict(chart_obj["fact"], where=(listed, pos, names.fact))
        except FactParseError as exc:
            problems.append(str(exc))
            continue
        report = validate_fact(fact)
        if not report.ok:
            details = "; ".join(f"{v.field}: {v.message}" for v in report.violations)
            problems.append(f"{location((listed, pos))}: invalid fact ({details})")
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


@contextlib.contextmanager
def _cyclic_gc_paused():
    """Pause Python's cyclic collector, then restore the caller's state, also
    on an exception. The readers and the encoder it guards build only acyclic
    objects (decoded dicts and lists, frozen facts, token tuples), which
    reference counting frees; the collector would only rescan the growing
    corpus at every threshold. The state is process-wide: another thread's
    cyclic garbage waits until the call ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_cyclic_gc_paused()
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


@_cyclic_gc_paused()
def load_corpus(path: str, strict: bool = True) -> Corpus:
    """Load and validate a corpus JSON file.

    Strict mode (the default) rejects the whole file on any invalid chart;
    lenient mode drops offending charts (and visualizations that fall below
    the three-chart minimum) with warnings.
    """
    return corpus_from_dict(read_json(path), strict=strict)


# A string decoded from strict UTF-8 holds a surrogate only through a JSON
# escape \uD800..\uDFFF that no other escape pairs with, so a text without
# `\ud` or `\uD` needs no search. UTF-8 cannot encode a lone surrogate, so
# every writer of the corpus would fail on it.
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _lone_surrogate(obj) -> Optional[str]:
    """The JSON path and code point of the first string, value or key, that
    holds a lone surrogate, in document order. A loop, not recursion: the
    document may nest as deep as the decoder goes."""
    stack = [("", obj)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, str):
            found = _SURROGATE.search(value)
            if found:
                code = ord(found.group())
                return f"{where or 'the top-level value'}: lone surrogate U+{code:04X}"
        elif isinstance(value, dict):
            for key, item in reversed(value.items()):
                path = f"{where}.{key}" if where else key
                stack += [(path, item), (f"a key of {where or 'the top-level object'}", key)]
        elif isinstance(value, list):
            stack += [(f"{where}[{i}]", item) for i, item in reversed(list(enumerate(value)))]
    return None


@_cyclic_gc_paused()
def read_json(path: str, error: type[Exception] = CorpusError):
    """The decoded JSON of a UTF-8 file. Raises `error`, naming the file, for
    text that is not UTF-8 or not JSON, an integer longer than Python
    converts, nesting deeper than the decoder goes, or a string that holds a
    lone surrogate (named by its JSON path)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            obj = json.loads(text)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not a UTF-8 text file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except ValueError as exc:  # an integer longer than int() converts
            raise error(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise error(f"{path}: invalid JSON: nested too deeply") from None
    if "\\ud" in text or "\\uD" in text:
        found = _lone_surrogate(obj)
        if found is not None:
            raise error(f"{path}: {found}, which UTF-8 cannot encode")
    return obj


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
    for name, value in (("test_fraction", test_fraction), ("seed", seed)):
        check_setting(name, value, SAMPLING_RULES[name], ValueError)
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

    def rows(self, selected: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        """Model inputs of the selected rows: rule ids (B, 16) with -1 as
        padding, and semantic blocks (B, rows, cols); views for a slice."""
        return self.rule_ids[selected], self.semantics[selected]


@_cyclic_gc_paused()
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


class _Tier:
    """Negative candidates in chart-id order: the ranks `base` (sorted) but
    those in `skip` (sorted, a subset of base), drawn from by position."""

    def __init__(self, base: np.ndarray, skip: np.ndarray):
        self.base = base
        self.size = len(base) - len(skip)
        # The i-th skipped rank has i skipped ranks and gaps[i] tier ranks
        # before it, so position j of the tier lies past the skips with gaps <= j.
        self.gaps = np.searchsorted(base, skip) - np.arange(len(skip))

    def ranks(self, positions: np.ndarray) -> np.ndarray:
        return self.base[positions + np.searchsorted(self.gaps, positions, side="right")]


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
    chart-id order, and a window draws from it without replacement, as
    `rng.choice(len(tier), size, replace=False)` would; a run of one-chart
    draws is one `rng.integers` call, which takes the same numbers. Chart
    ids are globally unique, so no quadruple repeats.
    """
    for name, value in (("negatives_per_window", negatives_per_window), ("policy", policy),
                        ("seed", seed)):
        check_setting(name, value, SAMPLING_RULES[name], ValueError)
    if not train.visualizations:
        raise CorpusError("empty training corpus")
    if len(train.visualizations) < 2:
        raise CorpusError(
            "no eligible negatives: need at least two visualizations"
        )

    encoded = encode_corpus(train, store, config)
    by_id = np.array(
        sorted(range(len(encoded)), key=encoded.chart_ids.__getitem__), dtype=np.int64
    )
    rank = np.empty_like(by_id)
    rank[by_id] = np.arange(len(by_id))
    bounds = np.cumsum([0] + [len(vis.charts) for vis in train.visualizations]).tolist()
    own = [np.sort(rank[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    parts: dict[tuple[str, str], list[np.ndarray]] = {}
    for vis, ranks in zip(train.visualizations, own):
        parts.setdefault(("dataset", vis.dataset_id), []).append(ranks)
        parts.setdefault(("domain", vis.domain), []).append(ranks)
    group = {key: np.sort(np.concatenate(ranks)) for key, ranks in parts.items()}
    everything = np.arange(len(by_id))

    @functools.cache
    def other_datasets(dataset_id: str, domain: str, same_domain: bool) -> _Tier:
        dataset, charts = group["dataset", dataset_id], group["domain", domain]
        if same_domain:
            return _Tier(charts, np.intersect1d(dataset, charts, assume_unique=True))
        return _Tier(everything, np.union1d(dataset, charts))

    def tiers(vis: MultiViewVis, ranks: np.ndarray):
        """The visualization's negative tiers, best first, each built when asked for."""
        if policy == "any":
            yield _Tier(everything, ranks)
            return
        yield _Tier(group["dataset", vis.dataset_id], ranks)
        yield other_datasets(vis.dataset_id, vis.domain, True)
        yield other_datasets(vis.dataset_id, vis.domain, False)

    # Every draw in the order the windows make them: (tier size, charts taken).
    plan, stream = [], []
    for vis, ranks, lo in zip(train.visualizations, own, bounds):
        draws, needed = [], negatives_per_window
        for tier in tiers(vis, ranks):
            want = min(needed, tier.size)
            if want:
                draws.append((tier, want))
                needed -= want
            if not needed:
                break
        windows = max(0, len(vis.charts) - 2)
        stream += [(tier.size, want) for tier, want in draws] * windows
        plan.append((lo, windows, draws))

    rng = np.random.default_rng(seed)
    picks = [np.zeros(0, dtype=np.int64)]
    for several, run in itertools.groupby(stream, key=lambda draw: draw[1] > 1):
        if several:
            picks += [np.sort(rng.choice(size, size=want, replace=False)) for size, want in run]
        else:
            picks.append(rng.integers(0, [size for size, _ in run]))
    picks = np.concatenate(picks)

    mids, negatives, at = [], [], 0
    for lo, windows, draws in plan:
        width = sum(want for _, want in draws)
        block = picks[at : at + windows * width].reshape(windows, width)
        at += windows * width
        column = 0
        for tier, want in draws:
            block[:, column : column + want] = tier.ranks(block[:, column : column + want])
            column += want
        mids.append(np.repeat(np.arange(lo + 1, lo + 1 + windows), width))
        negatives.append(by_id[block.ravel()])
    mid = np.concatenate(mids)
    quads = np.column_stack((mid - 1, mid, mid + 1, np.concatenate(negatives)))
    return SampleSet(encoded=encoded, quads=quads)


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
    variant = META_VARIANTS.get(fact_type)
    if variant is None or variant.field is None:
        log.warning("%s: dropping meta %r for fact type %r", where, raw, fact_type)
        return None
    if variant.payload is int:
        try:
            value = int(str(raw).split()[0])
        except (IndexError, ValueError):
            raise CorpusError(f"{where}.meta: expected a category count, got {raw!r}") from None
    elif variant.payload is tuple:
        entries = raw if isinstance(raw, list) else [p for p in str(raw).split(",") if p]
        value = [str(e).strip() for e in entries][:3]
    else:
        value = str(raw).lower()
        if fact_type == "trend":
            value = value.replace(" ", "-")
    return {"kind": variant.kind, variant.field: value}


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
                    "field": str(raw_breakdown.get("field", "")),
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
