from __future__ import annotations

import json

import numpy as np
import pytest

from chartembed.factgen import random_fact
from chartembed.facts import (
    Aggregation,
    ChartFact,
    ChartType,
    ExtremeKind,
    FactParseError,
    FactType,
    FieldRef,
    FieldType,
    Filter,
    Focus,
    MeasureSpec,
    MetaCategorization,
    MetaExtreme,
    MetaRank,
    fact_from_dict,
    fact_to_dict,
    validate_fact,
)


def test_example_fact_is_valid(example_fact):
    report = validate_fact(example_fact)
    assert report.ok
    assert report.violations == ()


def test_meta_incompatible_with_fact_type():
    fact = ChartFact(
        type_c=ChartType.LINE,
        type_f=FactType.TREND,
        meta=MetaExtreme(ExtremeKind.MAX),
    )
    report = validate_fact(fact)
    assert not report.ok
    assert any(v.rule == "meta-compatibility" for v in report.violations)
    assert any("meta incompatible with fact type" in v.message for v in report.violations)


def test_meta_none_is_always_legal():
    for type_f in FactType:
        fact = ChartFact(type_c=ChartType.PIE, type_f=type_f)
        assert validate_fact(fact).ok


def test_numerical_breakdown_rejected():
    fact = ChartFact(
        type_c=ChartType.LINE,
        type_f=FactType.VALUE,
        breakdown=FieldRef("Score", FieldType.NUMERICAL),
    )
    report = validate_fact(fact)
    assert any(v.rule == "breakdown-field-type" for v in report.violations)
    assert any("temporal or categorical" in v.message for v in report.violations)


def test_subspace_cap_and_empty_strings():
    filt = Filter("f", "v", FieldType.CATEGORICAL)
    fact = ChartFact(ChartType.MAP, FactType.VALUE, subspace=(filt,) * 4)
    assert any(v.rule == "subspace-size" for v in validate_fact(fact).violations)

    fact = ChartFact(
        ChartType.MAP, FactType.VALUE,
        subspace=(Filter("", "", FieldType.CATEGORICAL),),
    )
    rules = {v.rule for v in validate_fact(fact).violations}
    assert "filter-nonempty" in rules


def test_measure_field_required_unless_count():
    fact = ChartFact(
        ChartType.PIE, FactType.VALUE, measure=MeasureSpec("", Aggregation.SUM)
    )
    assert any(v.rule == "measure-field-required" for v in validate_fact(fact).violations)
    fact = ChartFact(
        ChartType.PIE, FactType.VALUE, measure=MeasureSpec("", Aggregation.COUNT)
    )
    assert validate_fact(fact).ok


def test_focus_requires_nonempty_value():
    fact = ChartFact(
        ChartType.PIE, FactType.VALUE,
        focus=Focus(FieldRef("Year", FieldType.TEMPORAL), ""),
    )
    assert any(v.rule == "focus-nonempty" for v in validate_fact(fact).violations)


def test_meta_payload_bounds():
    fact = ChartFact(ChartType.PIE, FactType.CATEGORIZATION, meta=MetaCategorization(0))
    assert any(v.rule == "meta-categorization-count" for v in validate_fact(fact).violations)
    fact = ChartFact(ChartType.PIE, FactType.RANK, meta=MetaRank(("a", "b", "c", "d")))
    assert any(v.rule == "meta-rank-top3" for v in validate_fact(fact).violations)


def test_validation_is_pure(example_fact):
    assert validate_fact(example_fact) == validate_fact(example_fact)


EXAMPLE_JSON = """
{
  "type_c": "vertical bar chart",
  "type_f": "difference",
  "subspace": [
    {"field": "Country", "value": "China", "field_type": "geographical"},
    {"field": "City", "value": "Guizhou", "field_type": "geographical"}
  ],
  "breakdown": {"field": "Location", "field_type": "categorical"},
  "measure": {"field": "Population", "aggregation": "sum"},
  "focus": null,
  "meta": {"kind": "difference", "relation": "lower"}
}
"""


def test_parse_example_json(example_fact):
    assert fact_from_dict(json.loads(EXAMPLE_JSON)) == example_fact


def test_parse_minimal_fact(minimal_fact):
    obj = {
        "type_c": "table",
        "type_f": "value",
        "subspace": [],
        "breakdown": None,
        "measure": None,
        "focus": None,
        "meta": None,
    }
    assert fact_from_dict(obj) == minimal_fact


def test_unknown_chart_type_rejected():
    obj = json.loads(EXAMPLE_JSON)
    obj["type_c"] = "3d chart"
    with pytest.raises(FactParseError, match="unknown value '3d chart'"):
        fact_from_dict(obj)


def test_unknown_key_rejected():
    obj = json.loads(EXAMPLE_JSON)
    obj["extra"] = 1
    with pytest.raises(FactParseError, match="unknown keys"):
        fact_from_dict(obj)


def test_missing_key_rejected():
    obj = json.loads(EXAMPLE_JSON)
    del obj["meta"]
    with pytest.raises(FactParseError, match="missing required keys"):
        fact_from_dict(obj)


def test_serialize_canonical_key_order(example_fact):
    keys = list(fact_to_dict(example_fact))
    assert keys == ["type_c", "type_f", "subspace", "breakdown", "measure", "focus", "meta"]


def test_serialize_is_deterministic(example_fact):
    assert json.dumps(fact_to_dict(example_fact)) == json.dumps(fact_to_dict(example_fact))


def test_roundtrip_on_randomized_facts():
    rng = np.random.default_rng(99)
    for _ in range(100):
        fact = random_fact(rng)
        assert validate_fact(fact).ok
        assert fact_from_dict(json.loads(json.dumps(fact_to_dict(fact)))) == fact


def test_fact_to_dict_meta_none_is_null(minimal_fact):
    assert fact_to_dict(minimal_fact)["meta"] is None
