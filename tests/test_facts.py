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


_FULL_FACT = {
    "type_c": "line chart", "type_f": "trend",
    "subspace": [{"field": "Year", "value": "2020", "field_type": "temporal"}],
    "breakdown": {"field": "Month", "field_type": "temporal"},
    "measure": {"field": "Sales", "aggregation": "sum"},
    "focus": {"field": "Region", "field_type": "categorical", "value": "West"},
    "meta": {"kind": "trend", "direction": "increasing"},
}
_DELETE = object()
_CHART_TYPES = (
    "['vertical bar chart', 'horizontal bar chart', 'grouped bar chart', 'stacked bar chart', "
    "'line chart', 'area chart', 'pie chart', 'donut chart', 'scatter plot', 'bubble chart', "
    "'treemap', 'map', 'radial bar chart', 'progress chart', 'table']"
)
_FACT_TYPES = (
    "['trend', 'categorization', 'difference', 'rank', 'extreme', 'association', "
    "'proportion', 'distribution', 'outlier', 'value']"
)
_FIELD_TYPES = "['temporal', 'numerical', 'categorical', 'geographical']"
_AGGREGATIONS = "['count', 'sum', 'average', 'minimum', 'maximum']"
_DIRECTIONS = "['increasing', 'decreasing', 'no-trend']"


# Error texts are a contract: these are frozen, byte for byte.
@pytest.mark.parametrize("path, value, message", [
    (("color",), "red", "fact: unknown keys ['color']"),
    (("meta",), _DELETE, "fact: missing required keys ['meta']"),
    (("subspace", 0, "op"), "=", "fact.subspace[0]: unknown keys ['op']"),
    (("subspace", 0, "value"), _DELETE, "fact.subspace[0]: missing required keys ['value']"),
    (("breakdown", "field_type"), _DELETE, "fact.breakdown: missing required keys ['field_type']"),
    (("measure", "unit"), "usd", "fact.measure: unknown keys ['unit']"),
    (("focus", "value"), _DELETE, "fact.focus: missing required keys ['value']"),
    (("meta", "extra"), 1, "fact.meta: unknown keys ['extra']"),
    (("meta", "direction"), _DELETE, "fact.meta: missing required keys ['direction']"),
    (("meta", "kind"), "spiral",
     "fact.meta.kind: unknown value 'spiral', expected one of ['none', 'trend', "
     "'categorization', 'difference', 'rank', 'extreme', 'association']"),
    (("type_c",), "3d chart", f"fact.type_c: unknown value '3d chart', expected one of {_CHART_TYPES}"),
    (("type_f",), "Trend", f"fact.type_f: unknown value 'Trend', expected one of {_FACT_TYPES}"),
    (("measure", "aggregation"), "median",
     f"fact.measure.aggregation: unknown value 'median', expected one of {_AGGREGATIONS}"),
    (("meta", "direction"), "up", f"fact.meta.direction: unknown value 'up', expected one of {_DIRECTIONS}"),
    # Enum values that are not strings.
    (("subspace", 0, "field_type"), ["temporal"],
     f"fact.subspace[0].field_type: unknown value ['temporal'], expected one of {_FIELD_TYPES}"),
    (("breakdown", "field_type"), {"x": 1},
     f"fact.breakdown.field_type: unknown value {{'x': 1}}, expected one of {_FIELD_TYPES}"),
    (("type_c",), 3, f"fact.type_c: unknown value 3, expected one of {_CHART_TYPES}"),
    (("type_f",), True, f"fact.type_f: unknown value True, expected one of {_FACT_TYPES}"),
    (("measure", "aggregation"), None,
     f"fact.measure.aggregation: unknown value None, expected one of {_AGGREGATIONS}"),
    (("meta", "direction"), [], f"fact.meta.direction: unknown value [], expected one of {_DIRECTIONS}"),
])
def test_parse_error_texts_are_frozen(path, value, message):
    obj = json.loads(json.dumps(_FULL_FACT))
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    with pytest.raises(FactParseError) as info:
        fact_from_dict(obj)
    assert str(info.value) == message
    fact_from_dict(_FULL_FACT)  # the undamaged fact parses
