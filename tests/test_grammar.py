from __future__ import annotations

import numpy as np
import pytest

from chartembed.corpus import Corpus, MultiViewVis, encode_corpus
from chartembed.encoder import EncoderConfig
from chartembed.factgen import random_fact
from chartembed.facts import (
    Aggregation,
    AssociationSign,
    ChartFact,
    ChartType,
    ExtremeKind,
    FactType,
    FieldRef,
    FieldType,
    Filter,
    Focus,
    MeasureSpec,
    MetaAssociation,
    MetaExtreme,
)
from chartembed.grammar import (
    MAX_SEQUENCE_LENGTH,
    RULE_COUNT,
    RULES,
    GrammarError,
    derive_rules,
    grammar_dump,
)
from chartembed.semantics import VectorStore
from reference import (
    MAX_DERIVATION_LENGTH,
    MIN_DERIVATION_LENGTH,
    decode_skeleton,
    fact_skeleton,
    one_hot,
)


def test_rule_table_has_sixty_rules():
    assert len(RULES) == RULE_COUNT == 60
    assert [r.id for r in RULES] == list(range(60))


def test_rule_group_cardinalities():
    by_lhs: dict[str, int] = {}
    for rule in RULES:
        by_lhs[rule.lhs] = by_lhs.get(rule.lhs, 0) + 1
    assert by_lhs == {
        "Root": 1,
        "ChartType": 15,
        "FactType": 10,
        "Subspace": 3,
        "Filter": 4,
        "Breakdown": 2,
        "BreakdownField": 2,
        "Measure": 5,
        "Focus": 2,
        "FocusField": 4,
        "Meta": 12,
    }


def test_grammar_dump_matches_snapshot(data_dir):
    expected = (data_dir / "grammar_dump.txt").read_text(encoding="utf-8")
    assert grammar_dump() == expected


def test_example_fact_derivation(example_fact):
    seq = derive_rules(example_fact)
    assert len(seq) == 11
    steps = [(RULES[i].lhs, RULES[i].rhs) for i in seq]
    assert steps == [
        ("Root", "ChartType FactType Subspace Breakdown Measure Focus Meta"),
        ("ChartType", "vertical bar chart"),
        ("FactType", "difference"),
        ("Subspace", "Filter Filter+"),
        ("Filter", "geographical"),
        ("Filter", "geographical"),
        ("Breakdown", "BreakdownField"),
        ("BreakdownField", "categorical"),
        ("Measure", "sum"),
        ("Focus", "<absent>"),
        ("Meta", "difference lower"),
    ]


def test_minimal_fact_derivation(minimal_fact):
    seq = derive_rules(minimal_fact)
    assert len(seq) == MIN_DERIVATION_LENGTH == 8
    steps = [RULES[i].lhs for i in seq]
    assert steps == [
        "Root", "ChartType", "FactType", "Subspace", "Breakdown", "Measure",
        "Focus", "Meta",
    ]
    # Absent measure maps onto the count rule.
    assert RULES[seq[5]].rhs == "count"


def test_maximal_fact_derivation():
    fact = ChartFact(
        type_c=ChartType.SCATTER,
        type_f=FactType.ASSOCIATION,
        subspace=(
            Filter("a", "1", FieldType.TEMPORAL),
            Filter("b", "2", FieldType.NUMERICAL),
            Filter("c", "3", FieldType.GEOGRAPHICAL),
        ),
        breakdown=FieldRef("year", FieldType.TEMPORAL),
        measure=MeasureSpec("score", Aggregation.AVERAGE),
        focus=Focus(FieldRef("year", FieldType.TEMPORAL), "2020"),
        meta=MetaAssociation(AssociationSign.POSITIVE),
    )
    assert len(derive_rules(fact)) == MAX_DERIVATION_LENGTH == 13


def test_derivation_length_bounds_on_random_facts():
    rng = np.random.default_rng(4)
    for _ in range(200):
        seq = derive_rules(random_fact(rng))
        assert MIN_DERIVATION_LENGTH <= len(seq) <= MAX_DERIVATION_LENGTH <= MAX_SEQUENCE_LENGTH


def test_derive_rejects_invalid_fact():
    fact = ChartFact(
        type_c=ChartType.LINE, type_f=FactType.TREND, meta=MetaExtreme(ExtremeKind.MAX)
    )
    with pytest.raises(GrammarError, match="invalid fact"):
        derive_rules(fact)


def encoded_rule_ids(facts):
    """The model's (N, 16) rule-id input for the facts, via encode_corpus."""
    charts = tuple((f"c{i}", fact) for i, fact in enumerate(facts))
    corpus = Corpus((MultiViewVis("v", "d", "economy", "data-story", charts),))
    rule_ids, _ = encode_corpus(corpus, VectorStore({}), EncoderConfig()).rows(
        np.arange(len(facts))
    )
    return rule_ids


def test_encode_corpus_rejects_an_invalid_fact_of_a_built_corpus():
    # A corpus built directly has not been through corpus_from_dict's
    # check, so encode_corpus derives its facts through derive_rules.
    fact = ChartFact(
        type_c=ChartType.LINE, type_f=FactType.TREND, meta=MetaExtreme(ExtremeKind.MAX)
    )
    with pytest.raises(GrammarError, match="invalid fact"):
        encoded_rule_ids([fact])


def test_one_hot_shape_and_padding(example_fact):
    seq = derive_rules(example_fact)
    # The rule ids the model reads stand for a 16x60 one-hot schema.
    matrix = one_hot(encoded_rule_ids([example_fact])[0])
    assert matrix.shape == (16, 60)
    assert matrix.sum() == len(seq)
    for row in range(16):
        if row < len(seq):
            assert matrix[row].sum() == 1.0
            assert matrix[row, seq[row]] == 1.0
        else:
            assert not matrix[row].any()
    assert set(np.unique(matrix)) <= {0.0, 1.0}


def test_encoded_corpus_rows_match_one_hot_on_random_facts():
    rng = np.random.default_rng(12)
    facts = [random_fact(rng) for _ in range(300)]
    rule_ids = encoded_rule_ids(facts)
    assert rule_ids.shape == (len(facts), 16)
    for fact, row in zip(facts, rule_ids):
        seq = derive_rules(fact)
        assert row.tolist() == list(seq) + [-1] * (16 - len(seq))
        # The rule ids stand for exactly the one-hot schema of the derivation.
        assert np.array_equal(one_hot(row)[: len(seq)], one_hot(seq))
        assert not one_hot(row)[len(seq) :].any()


def test_decode_roundtrip_on_example(example_fact):
    seq = derive_rules(example_fact)
    assert decode_skeleton(seq) == fact_skeleton(example_fact)


def test_decode_roundtrip_on_random_facts():
    rng = np.random.default_rng(8)
    for _ in range(200):
        fact = random_fact(rng)
        assert decode_skeleton(derive_rules(fact)) == fact_skeleton(fact)


def test_decode_rejects_truncated_sequence(example_fact):
    seq = derive_rules(example_fact)
    with pytest.raises(GrammarError, match="ill-formed"):
        decode_skeleton(seq[:-1])


def test_decode_rejects_trailing_rules(example_fact):
    seq = derive_rules(example_fact)
    with pytest.raises(GrammarError, match="ill-formed"):
        decode_skeleton(seq + (0,))


def test_decode_rejects_wrong_start(example_fact):
    seq = derive_rules(example_fact)
    with pytest.raises(GrammarError, match="ill-formed"):
        decode_skeleton((5,) + seq[1:])
