"""Chart fact data model.

A chart fact is the declarative, seven-part description of a single chart:
chart type, fact type, a subspace of data filters, an optional breakdown
field, an optional aggregated measure, an optional focus item, and
fact-type-specific meta descriptors. All values are immutable; validation
and the round trip through JSON-ready dicts are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

MAX_SUBSPACE_FILTERS = 3


class FieldType(Enum):
    TEMPORAL = "temporal"
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"
    GEOGRAPHICAL = "geographical"


class ChartType(Enum):
    VERTICAL_BAR = "vertical bar chart"
    HORIZONTAL_BAR = "horizontal bar chart"
    GROUPED_BAR = "grouped bar chart"
    STACKED_BAR = "stacked bar chart"
    LINE = "line chart"
    AREA = "area chart"
    PIE = "pie chart"
    DONUT = "donut chart"
    SCATTER = "scatter plot"
    BUBBLE = "bubble chart"
    TREEMAP = "treemap"
    MAP = "map"
    RADIAL_BAR = "radial bar chart"
    PROGRESS = "progress chart"
    TABLE = "table"


class FactType(Enum):
    TREND = "trend"
    CATEGORIZATION = "categorization"
    DIFFERENCE = "difference"
    RANK = "rank"
    EXTREME = "extreme"
    ASSOCIATION = "association"
    PROPORTION = "proportion"
    DISTRIBUTION = "distribution"
    OUTLIER = "outlier"
    VALUE = "value"


class Aggregation(Enum):
    COUNT = "count"
    SUM = "sum"
    AVERAGE = "average"
    MINIMUM = "minimum"
    MAXIMUM = "maximum"


class TrendDirection(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NO_TREND = "no-trend"


class DifferenceRelation(Enum):
    LOWER = "lower"
    HIGHER = "higher"


class ExtremeKind(Enum):
    MAX = "max"
    MIN = "min"


class AssociationSign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class Filter:
    """A single field=value selector inside the subspace."""

    field: str
    value: str
    field_type: FieldType


@dataclass(frozen=True)
class FieldRef:
    """A named column with its field type."""

    name: str
    field_type: FieldType


@dataclass(frozen=True)
class MeasureSpec:
    """An aggregated measure; the field may be empty only for count."""

    field: str
    aggregation: Aggregation


@dataclass(frozen=True)
class Focus:
    """The highlighted data item or group."""

    field: FieldRef
    value: str


@dataclass(frozen=True)
class MetaNone:
    kind = "none"


@dataclass(frozen=True)
class MetaTrend:
    direction: TrendDirection
    kind = "trend"


@dataclass(frozen=True)
class MetaCategorization:
    count: int
    kind = "categorization"


@dataclass(frozen=True)
class MetaDifference:
    relation: DifferenceRelation
    kind = "difference"


@dataclass(frozen=True)
class MetaRank:
    top3: tuple[str, ...]
    kind = "rank"


@dataclass(frozen=True)
class MetaExtreme:
    extreme: ExtremeKind
    kind = "extreme"


@dataclass(frozen=True)
class MetaAssociation:
    sign: AssociationSign
    kind = "association"


MetaInfo = Union[
    MetaNone,
    MetaTrend,
    MetaCategorization,
    MetaDifference,
    MetaRank,
    MetaExtreme,
    MetaAssociation,
]

META_NONE = MetaNone()


class MetaVariant(NamedTuple):
    """One meta kind: its class, and the name and type of its one payload
    field. The type is an Enum class, int (a count) or tuple (of strings);
    field and type are None for "none"."""

    kind: str
    cls: type
    field: Optional[str]
    payload: Optional[type]

    @property
    def members(self) -> tuple:
        """The members of an enum payload; empty for any other payload."""
        return () if self.payload in (None, int, tuple) else tuple(self.payload)


def _variant(cls: type) -> MetaVariant:
    hints = get_type_hints(cls)
    if not hints:
        return MetaVariant(cls.kind, cls, None, None)
    ((field, hint),) = hints.items()
    return MetaVariant(cls.kind, cls, field, get_origin(hint) or hint)


# Every meta kind, in MetaInfo's order. Parsing, serialization, the grammar's
# Meta rules, semantic text and generation all read this table, so a new
# kind needs its class in MetaInfo, its enum and its META_KIND_FOR_FACT_TYPE
# entry.
META_VARIANTS: dict[str, MetaVariant] = {cls.kind: _variant(cls) for cls in get_args(MetaInfo)}
_VARIANT_OF_CLASS = {variant.cls: variant for variant in META_VARIANTS.values()}


def meta_payload(meta: MetaInfo) -> tuple[MetaVariant, Any]:
    """A meta value's table entry and its payload (None for "none")."""
    variant = _VARIANT_OF_CLASS.get(type(meta))
    if variant is None:
        raise TypeError(f"unknown meta variant {type(meta).__name__}")
    return variant, None if variant.field is None else getattr(meta, variant.field)


# Fact types that may carry a non-none meta variant, and which one.
META_KIND_FOR_FACT_TYPE: dict[FactType, Optional[str]] = {
    FactType.TREND: "trend",
    FactType.CATEGORIZATION: "categorization",
    FactType.DIFFERENCE: "difference",
    FactType.RANK: "rank",
    FactType.EXTREME: "extreme",
    FactType.ASSOCIATION: "association",
    FactType.PROPORTION: None,
    FactType.DISTRIBUTION: None,
    FactType.OUTLIER: None,
    FactType.VALUE: None,
}


@dataclass(frozen=True)
class ChartFact:
    """The seven-part declarative description of one chart."""

    type_c: ChartType
    type_f: FactType
    subspace: tuple[Filter, ...] = ()
    breakdown: Optional[FieldRef] = None
    measure: Optional[MeasureSpec] = None
    focus: Optional[Focus] = None
    meta: MetaInfo = META_NONE


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the offending field and the rule it violates."""

    field: str
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class FactParseError(ValueError):
    """Raised when chart-fact JSON is malformed or violates the schema."""


def validate_fact(fact: ChartFact) -> ValidationReport:
    """Check every chart-fact invariant; violations are data, not failures."""
    out: list[Violation] = []

    def bad(where: str, rule: str, message: str) -> None:
        out.append(Violation(where, rule, message))

    if len(fact.subspace) > MAX_SUBSPACE_FILTERS:
        bad(
            "subspace",
            "subspace-size",
            f"subspace holds {len(fact.subspace)} filters, at most "
            f"{MAX_SUBSPACE_FILTERS} are allowed",
        )
    for i, filt in enumerate(fact.subspace):
        if not filt.field:
            bad(f"subspace[{i}].field", "filter-nonempty", "filter field is empty")
        if not filt.value:
            bad(f"subspace[{i}].value", "filter-nonempty", "filter value is empty")

    if fact.breakdown is not None:
        if not fact.breakdown.name:
            bad("breakdown.name", "fieldref-nonempty", "breakdown field name is empty")
        if fact.breakdown.field_type not in (
            FieldType.TEMPORAL,
            FieldType.CATEGORICAL,
        ):
            bad(
                "breakdown.field_type",
                "breakdown-field-type",
                "breakdown must be temporal or categorical",
            )

    if fact.measure is not None:
        if fact.measure.aggregation is not Aggregation.COUNT and not fact.measure.field:
            bad(
                "measure.field",
                "measure-field-required",
                f"aggregation {fact.measure.aggregation.value} requires a field",
            )

    if fact.focus is not None:
        if not fact.focus.field.name:
            bad("focus.field.name", "fieldref-nonempty", "focus field name is empty")
        if not fact.focus.value:
            bad("focus.value", "focus-nonempty", "focus value is empty")

    allowed_kind = META_KIND_FOR_FACT_TYPE[fact.type_f]
    if fact.meta.kind != "none" and fact.meta.kind != allowed_kind:
        bad(
            "meta",
            "meta-compatibility",
            f"meta incompatible with fact type: {fact.meta.kind!r} meta on "
            f"{fact.type_f.value!r} fact",
        )
    if isinstance(fact.meta, MetaCategorization) and fact.meta.count < 1:
        bad("meta.count", "meta-categorization-count", "category count must be >= 1")
    if isinstance(fact.meta, MetaRank):
        if not 1 <= len(fact.meta.top3) <= 3:
            bad("meta.top3", "meta-rank-top3", "rank meta needs 1..3 entries")
        elif any(not v for v in fact.meta.top3):
            bad("meta.top3", "meta-rank-top3", "rank entries must be non-empty")

    return ValidationReport(tuple(out))


def _keys(*names: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """The keys an object must hold exactly: in order, and as a set."""
    return names, frozenset(names)


_FACT_KEYS = _keys("type_c", "type_f", "subspace", "breakdown", "measure", "focus", "meta")
_FILTER_KEYS = _keys("field", "value", "field_type")
_FIELDREF_KEYS = _keys("field", "field_type")
_MEASURE_KEYS = _keys("field", "aggregation")
_FOCUS_KEYS = _keys("field", "field_type", "value")
_META_KEYS = {
    kind: _keys("kind") if v.field is None else _keys("kind", v.field)
    for kind, v in META_VARIANTS.items()
}


# A location in decoded JSON, joined into text only for an error message: a
# string, or a tuple of a location and its steps, each a suffix such as
# ".measure" or a list index.
Where = Union[str, tuple]


def location(where: Where) -> str:
    if isinstance(where, str):
        return where
    base, *steps = where
    return location(base) + "".join(f"[{step}]" if isinstance(step, int) else step for step in steps)


def _expect_keys(obj: dict, keys: tuple[tuple[str, ...], frozenset[str]], where: Where) -> None:
    required, exact = keys
    if obj.keys() == exact:
        return
    unknown = set(obj) - exact
    if unknown:
        raise FactParseError(f"{location(where)}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FactParseError(f"{location(where)}: missing required keys {missing}")


# value -> member of every enum that fact JSON names.
_MEMBERS = {
    cls: {m.value: m for m in cls}
    for cls in (FieldType, ChartType, FactType, Aggregation,
                *(v.payload for v in META_VARIANTS.values() if v.members))
}


def _parse_enum(cls: type, text: Any, where: Where):
    if isinstance(text, str):
        member = _MEMBERS[cls].get(text)
        if member is not None:
            return member
    try:
        return cls(text)
    except ValueError:
        raise FactParseError(
            f"{location(where)}: unknown value {text!r}, expected one of "
            f"{[m.value for m in cls]}"
        ) from None


def _parse_str(value: Any, where: Where) -> str:
    if not isinstance(value, str):
        raise FactParseError(f"{location(where)}: expected a string, got {type(value).__name__}")
    return value


def _parse_filter(obj: Any, where: Where) -> Filter:
    if not isinstance(obj, dict):
        raise FactParseError(f"{location(where)}: expected an object")
    _expect_keys(obj, _FILTER_KEYS, where)
    return Filter(
        field=_parse_str(obj["field"], (where, ".field")),
        value=_parse_str(obj["value"], (where, ".value")),
        field_type=_parse_enum(FieldType, obj["field_type"], (where, ".field_type")),
    )


def _parse_fieldref(obj: Any, where: Where) -> FieldRef:
    if not isinstance(obj, dict):
        raise FactParseError(f"{location(where)}: expected an object or null")
    _expect_keys(obj, _FIELDREF_KEYS, where)
    return FieldRef(
        name=_parse_str(obj["field"], (where, ".field")),
        field_type=_parse_enum(FieldType, obj["field_type"], (where, ".field_type")),
    )


def _parse_meta(obj: Any, where: Where) -> MetaInfo:
    if obj is None:
        return META_NONE
    if not isinstance(obj, dict):
        raise FactParseError(f"{location(where)}: expected an object or null")
    kind = _parse_str(obj.get("kind", ""), (where, ".kind"))
    if kind not in _META_KEYS:
        raise FactParseError(
            f"{location(where)}.kind: unknown value {kind!r}, expected one of {list(_META_KEYS)}"
        )
    _expect_keys(obj, _META_KEYS[kind], where)
    variant = META_VARIANTS[kind]
    if variant.field is None:
        return META_NONE
    value, at = obj[variant.field], (where, "." + variant.field)
    if variant.payload is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise FactParseError(f"{location(at)}: expected an integer")
        return variant.cls(value)
    if variant.payload is tuple:
        if not isinstance(value, list):
            raise FactParseError(f"{location(at)}: expected a list of strings")
        return variant.cls(tuple(_parse_str(v, (at, i)) for i, v in enumerate(value)))
    return variant.cls(_parse_enum(variant.payload, value, at))


def fact_from_dict(obj: Any, where: Where = "fact") -> ChartFact:
    """Build a ChartFact from decoded JSON, rejecting unknown keys. `where`
    names obj in error messages."""
    if not isinstance(obj, dict):
        raise FactParseError(f"{location(where)}: expected an object")
    _expect_keys(obj, _FACT_KEYS, where)

    subspace_raw = obj["subspace"]
    if not isinstance(subspace_raw, list):
        raise FactParseError(f"{location(where)}.subspace: expected a list")
    subspace = tuple(
        _parse_filter(f, (where, ".subspace", i)) for i, f in enumerate(subspace_raw)
    )

    breakdown = None
    if obj["breakdown"] is not None:
        breakdown = _parse_fieldref(obj["breakdown"], (where, ".breakdown"))

    measure = None
    if obj["measure"] is not None:
        mobj = obj["measure"]
        if not isinstance(mobj, dict):
            raise FactParseError(f"{location(where)}.measure: expected an object or null")
        _expect_keys(mobj, _MEASURE_KEYS, (where, ".measure"))
        measure = MeasureSpec(
            field=_parse_str(mobj["field"], (where, ".measure.field")),
            aggregation=_parse_enum(
                Aggregation, mobj["aggregation"], (where, ".measure.aggregation")
            ),
        )

    focus = None
    if obj["focus"] is not None:
        fobj = obj["focus"]
        if not isinstance(fobj, dict):
            raise FactParseError(f"{location(where)}.focus: expected an object or null")
        _expect_keys(fobj, _FOCUS_KEYS, (where, ".focus"))
        focus = Focus(
            field=FieldRef(
                name=_parse_str(fobj["field"], (where, ".focus.field")),
                field_type=_parse_enum(
                    FieldType, fobj["field_type"], (where, ".focus.field_type")
                ),
            ),
            value=_parse_str(fobj["value"], (where, ".focus.value")),
        )

    return ChartFact(
        type_c=_parse_enum(ChartType, obj["type_c"], (where, ".type_c")),
        type_f=_parse_enum(FactType, obj["type_f"], (where, ".type_f")),
        subspace=subspace,
        breakdown=breakdown,
        measure=measure,
        focus=focus,
        meta=_parse_meta(obj["meta"], (where, ".meta")),
    )


def _meta_to_obj(meta: MetaInfo) -> Optional[dict]:
    variant, value = meta_payload(meta)
    if variant.field is None:
        return None
    if variant.payload is tuple:
        value = list(value)
    elif variant.payload is not int:
        value = value.value
    return {"kind": variant.kind, variant.field: value}


def fact_to_dict(fact: ChartFact) -> dict:
    """Plain-dict form with keys in canonical seven-part order."""
    return {
        "type_c": fact.type_c.value,
        "type_f": fact.type_f.value,
        "subspace": [
            {"field": f.field, "value": f.value, "field_type": f.field_type.value}
            for f in fact.subspace
        ],
        "breakdown": (
            None
            if fact.breakdown is None
            else {
                "field": fact.breakdown.name,
                "field_type": fact.breakdown.field_type.value,
            }
        ),
        "measure": (
            None
            if fact.measure is None
            else {
                "field": fact.measure.field,
                "aggregation": fact.measure.aggregation.value,
            }
        ),
        "focus": (
            None
            if fact.focus is None
            else {
                "field": fact.focus.field.name,
                "field_type": fact.focus.field.field_type.value,
                "value": fact.focus.value,
            }
        ),
        "meta": _meta_to_obj(fact.meta),
    }
