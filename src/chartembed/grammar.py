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
    META_VARIANTS,
    MetaInfo,
    meta_payload,
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


def _meta_label(variant, value) -> str:
    """The label of a meta kind's table entry and payload value. The label
    of a count or a string tuple names the field, whose values are
    unbounded."""
    if variant.field is None:
        return "<none>"
    if variant.payload in (int, tuple):
        return f"{variant.kind} {variant.field}"
    return f"{variant.kind} {value.value}"


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
    for variant in META_VARIANTS.values():
        for value in variant.members or (None,):
            add("Meta", _meta_label(variant, value))
    assert len(rules) == RULE_COUNT
    return tuple(rules)


RULES: tuple[Rule, ...] = _build_rules()

_RULE_ID = {(rule.lhs, rule.rhs): rule.id for rule in RULES}
assert len(_RULE_ID) == RULE_COUNT

ROOT_RULE = 0
SUBSPACE_EMPTY, SUBSPACE_SINGLE, SUBSPACE_MULTI = (
    _RULE_ID["Subspace", rhs] for rhs in ("<empty>", "Filter", "Filter Filter+")
)
BREAKDOWN_ABSENT, BREAKDOWN_PRESENT = (_RULE_ID["Breakdown", rhs] for rhs in ("<absent>", "BreakdownField"))
BREAKDOWN_TEMPORAL, BREAKDOWN_CATEGORICAL = (
    _RULE_ID["BreakdownField", ft.value] for ft in (FieldType.TEMPORAL, FieldType.CATEGORICAL)
)
FOCUS_ABSENT, FOCUS_PRESENT = (_RULE_ID["Focus", rhs] for rhs in ("<absent>", "FocusField"))
META_BASE = next(rule.id for rule in RULES if rule.lhs == "Meta")

_CHART_TYPE_ID = {ct: _RULE_ID["ChartType", ct.value] for ct in ChartType}
_FACT_TYPE_ID = {ft: _RULE_ID["FactType", ft.value] for ft in FactType}
_FILTER_ID = {ft: _RULE_ID["Filter", ft.value] for ft in FieldType}
_AGGREGATION_ID = {agg: _RULE_ID["Measure", agg.value] for agg in Aggregation}
_FOCUS_FIELD_ID = {ft: _RULE_ID["FocusField", ft.value] for ft in FieldType}

_META_LABEL_ID = {rule.rhs: rule.id for rule in RULES[META_BASE:]}


def meta_label(meta: MetaInfo) -> str:
    """The rule-level label of a meta variant."""
    return _meta_label(*meta_payload(meta))


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
        ids.append(_FILTER_ID[filt.field_type])

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
        ids.append(_FOCUS_FIELD_ID[fact.focus.field.field_type])

    ids.append(_META_LABEL_ID[meta_label(fact.meta)])
    return tuple(ids)


def grammar_dump() -> str:
    """Stable debug listing: one `id<TAB>lhs<TAB>rhs` line per rule."""
    return "\n".join(f"{r.id}\t{r.lhs}\t{r.rhs}" for r in RULES) + "\n"
