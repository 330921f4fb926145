"""The meta-variant table of facts.py, which parsing, serialization, the
grammar's Meta rules and semantic text all read."""

from __future__ import annotations

import json

import pytest

from chartembed.facts import (
    META_KIND_FOR_FACT_TYPE,
    META_NONE,
    META_VARIANTS,
    AssociationSign,
    ChartFact,
    ChartType,
    DifferenceRelation,
    ExtremeKind,
    FactType,
    MetaAssociation,
    MetaCategorization,
    MetaDifference,
    MetaExtreme,
    MetaNone,
    MetaRank,
    MetaTrend,
    TrendDirection,
    fact_from_dict,
    fact_to_dict,
)
from chartembed.grammar import META_BASE, RULES, derive_rules, meta_label
from chartembed.semantics import meta_texts, split_words

from reference import meta_words

# Every meta kind with every member of its enum, and two values of a
# count or a string tuple.
META_VALUES = (
    META_NONE,
    *(MetaTrend(d) for d in TrendDirection),
    MetaCategorization(1),
    MetaCategorization(12),
    *(MetaDifference(r) for r in DifferenceRelation),
    MetaRank(("north",)),
    MetaRank(("Top One", "b", "c")),
    *(MetaExtreme(e) for e in ExtremeKind),
    *(MetaAssociation(s) for s in AssociationSign),
)

_FACT_TYPE_OF_KIND = {kind: ft for ft, kind in META_KIND_FOR_FACT_TYPE.items() if kind}


def _fact(meta) -> ChartFact:
    return ChartFact(ChartType.TABLE, _FACT_TYPE_OF_KIND.get(meta.kind, FactType.VALUE), meta=meta)


def _snapshot_meta_labels(data_dir) -> list[str]:
    lines = (data_dir / "grammar_dump.txt").read_text(encoding="utf-8").splitlines()
    return [rhs for _, lhs, rhs in (line.split("\t") for line in lines) if lhs == "Meta"]


def test_table_lists_every_kind_in_order():
    assert {kind: (v.cls, v.field, v.payload) for kind, v in META_VARIANTS.items()} == {
        "none": (MetaNone, None, None),
        "trend": (MetaTrend, "direction", TrendDirection),
        "categorization": (MetaCategorization, "count", int),
        "difference": (MetaDifference, "relation", DifferenceRelation),
        "rank": (MetaRank, "top3", tuple),
        "extreme": (MetaExtreme, "extreme", ExtremeKind),
        "association": (MetaAssociation, "sign", AssociationSign),
    }
    assert list(META_VARIANTS) == [
        "none", "trend", "categorization", "difference", "rank", "extreme", "association",
    ]
    assert {meta.kind for meta in META_VALUES} == set(META_VARIANTS)


@pytest.mark.parametrize("meta", META_VALUES, ids=repr)
def test_every_value_round_trips(meta):
    fact = _fact(meta)
    assert fact_from_dict(json.loads(json.dumps(fact_to_dict(fact)))) == fact


@pytest.mark.parametrize("meta", META_VALUES, ids=repr)
def test_label_names_a_meta_rule(meta):
    (rule,) = [r for r in RULES[META_BASE:] if r.rhs == meta_label(meta)]
    assert derive_rules(_fact(meta))[-1] == rule.id


@pytest.mark.parametrize("meta", META_VALUES, ids=repr)
def test_texts_match_the_reference_words(meta):
    assert [w for text in meta_texts(meta) for w in split_words(text)] == meta_words(meta)


def test_meta_rules_are_the_labels_in_snapshot_order(data_dir):
    labels = list(dict.fromkeys(meta_label(meta) for meta in META_VALUES))
    assert [r.rhs for r in RULES[META_BASE:]] == labels == _snapshot_meta_labels(data_dir)
    assert {r.lhs for r in RULES[META_BASE:]} == {"Meta"}


def test_an_unknown_variant_is_a_type_error():
    class MetaOther:
        kind = "other"

    def serialize(meta):
        return fact_to_dict(ChartFact(ChartType.TABLE, FactType.VALUE, meta=meta))

    for convert in (meta_label, meta_texts, serialize):
        with pytest.raises(TypeError, match="^unknown meta variant MetaOther$"):
            convert(MetaOther())
