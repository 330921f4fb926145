"""Fixed 60-rule grammar over chart-fact structure.

Every valid chart fact admits exactly one leftmost derivation over this
grammar, walked in the canonical seven-part order. The derivation is a
sequence of 8 to 13 rule ids; the encoder reads it padded to 16 ids with -1
(see corpus.EncodedCorpus).
"""

from __future__ import annotations

from dataclasses import dataclass

from .facts import (
    Aggregation,
    ChartFact,
    ChartType,
    FactType,
    FieldType,
    MetaAssociation,
    MetaCategorization,
    MetaDifference,
    MetaExtreme,
    MetaInfo,
    MetaNone,
    MetaRank,
    MetaTrend,
    validate_fact,
)

RULE_COUNT = 60
MAX_SEQUENCE_LENGTH = 16


class GrammarError(ValueError):
    """Raised for invalid facts or ill-formed rule sequences."""


@dataclass(frozen=True)
class Rule:
    id: int
    lhs: str
    rhs: str


def _build_rules() -> tuple[Rule, ...]:
    rules: list[Rule] = []

    def add(lhs: str, rhs: str) -> None:
        rules.append(Rule(len(rules), lhs, rhs))

    add("Root", "ChartType FactType Subspace Breakdown Measure Focus Meta")
    for ct in ChartType:
        add("ChartType", ct.value)
    for ft in FactType:
        add("FactType", ft.value)
    add("Subspace", "<empty>")
    add("Subspace", "Filter")
    add("Subspace", "Filter Filter+")
    for field_type in FieldType:
        add("Filter", field_type.value)
    add("Breakdown", "<absent>")
    add("Breakdown", "BreakdownField")
    add("BreakdownField", FieldType.TEMPORAL.value)
    add("BreakdownField", FieldType.CATEGORICAL.value)
    for agg in Aggregation:
        add("Measure", agg.value)
    add("Focus", "<absent>")
    add("Focus", "FocusField")
    for field_type in FieldType:
        add("FocusField", field_type.value)
    add("Meta", "<none>")
    add("Meta", "trend increasing")
    add("Meta", "trend decreasing")
    add("Meta", "trend no-trend")
    add("Meta", "categorization count")
    add("Meta", "difference lower")
    add("Meta", "difference higher")
    add("Meta", "rank top3")
    add("Meta", "extreme max")
    add("Meta", "extreme min")
    add("Meta", "association positive")
    add("Meta", "association negative")
    assert len(rules) == RULE_COUNT
    return tuple(rules)


RULES: tuple[Rule, ...] = _build_rules()

ROOT_RULE = 0
_CHART_TYPE_BASE = 1
_FACT_TYPE_BASE = 16
SUBSPACE_EMPTY, SUBSPACE_SINGLE, SUBSPACE_MULTI = 26, 27, 28
_FILTER_BASE = 29
BREAKDOWN_ABSENT, BREAKDOWN_PRESENT = 33, 34
BREAKDOWN_TEMPORAL, BREAKDOWN_CATEGORICAL = 35, 36
_MEASURE_BASE = 37
FOCUS_ABSENT, FOCUS_PRESENT = 42, 43
_FOCUS_FIELD_BASE = 44
META_BASE = 48

_CHART_TYPE_ID = {ct: _CHART_TYPE_BASE + i for i, ct in enumerate(ChartType)}
_FACT_TYPE_ID = {ft: _FACT_TYPE_BASE + i for i, ft in enumerate(FactType)}
_FIELD_TYPE_OFFSET = {ft: i for i, ft in enumerate(FieldType)}
_AGGREGATION_ID = {agg: _MEASURE_BASE + i for i, agg in enumerate(Aggregation)}

_META_LABELS = tuple(RULES[META_BASE + i].rhs for i in range(12))
_META_LABEL_ID = {label: META_BASE + i for i, label in enumerate(_META_LABELS)}


def meta_label(meta: MetaInfo) -> str:
    """The rule-level label of a meta variant (payload collapsed for
    categorization and rank, whose descriptors are unbounded)."""
    if isinstance(meta, MetaNone):
        return "<none>"
    if isinstance(meta, MetaTrend):
        return f"trend {meta.direction.value}"
    if isinstance(meta, MetaCategorization):
        return "categorization count"
    if isinstance(meta, MetaDifference):
        return f"difference {meta.relation.value}"
    if isinstance(meta, MetaRank):
        return "rank top3"
    if isinstance(meta, MetaExtreme):
        return f"extreme {meta.extreme.value}"
    if isinstance(meta, MetaAssociation):
        return f"association {meta.sign.value}"
    raise TypeError(f"unknown meta variant {type(meta).__name__}")


def derive_rules(fact: ChartFact) -> tuple[int, ...]:
    """Leftmost derivation of the fact's structure, in canonical order."""
    report = validate_fact(fact)
    if not report.ok:
        details = "; ".join(f"{v.field}: {v.message}" for v in report.violations)
        raise GrammarError(f"cannot derive an invalid fact: {details}")
    return _rule_ids(fact)


def _rule_ids(fact: ChartFact) -> tuple[int, ...]:
    """derive_rules without the validity check, for a fact that has passed
    validate_fact."""
    ids = [ROOT_RULE, _CHART_TYPE_ID[fact.type_c], _FACT_TYPE_ID[fact.type_f]]

    n_filters = len(fact.subspace)
    if n_filters == 0:
        ids.append(SUBSPACE_EMPTY)
    elif n_filters == 1:
        ids.append(SUBSPACE_SINGLE)
    else:
        ids.append(SUBSPACE_MULTI)
    for filt in fact.subspace:
        ids.append(_FILTER_BASE + _FIELD_TYPE_OFFSET[filt.field_type])

    if fact.breakdown is None:
        ids.append(BREAKDOWN_ABSENT)
    else:
        ids.append(BREAKDOWN_PRESENT)
        ids.append(
            BREAKDOWN_TEMPORAL
            if fact.breakdown.field_type is FieldType.TEMPORAL
            else BREAKDOWN_CATEGORICAL
        )

    # An absent measure means no aggregation beyond counting rows.
    agg = fact.measure.aggregation if fact.measure else Aggregation.COUNT
    ids.append(_AGGREGATION_ID[agg])

    if fact.focus is None:
        ids.append(FOCUS_ABSENT)
    else:
        ids.append(FOCUS_PRESENT)
        ids.append(_FOCUS_FIELD_BASE + _FIELD_TYPE_OFFSET[fact.focus.field.field_type])

    ids.append(_META_LABEL_ID[meta_label(fact.meta)])
    return tuple(ids)


def grammar_dump() -> str:
    """Stable debug listing: one `id<TAB>lhs<TAB>rhs` line per rule."""
    return "\n".join(f"{r.id}\t{r.lhs}\t{r.rhs}" for r in RULES) + "\n"
