"""Seeded generation of random valid chart facts, for diagnostics and tests."""

from __future__ import annotations

import numpy as np

from .facts import (
    Aggregation,
    ChartFact,
    ChartType,
    FactType,
    FieldRef,
    FieldType,
    Filter,
    Focus,
    META_KIND_FOR_FACT_TYPE,
    META_NONE,
    META_VARIANTS,
    MeasureSpec,
)

_FIELD_WORDS = (
    "year", "month", "region", "country", "city", "category", "product",
    "brand", "sector", "channel", "team", "school", "species", "station",
)
_VALUE_WORDS = (
    "north", "south", "east", "west", "alpha", "beta", "gamma", "delta",
    "2018", "2019", "2020", "urban", "rural", "online", "retail",
)
_MEASURE_WORDS = (
    "population", "revenue", "sales", "count", "score", "ratio", "weight",
    "emissions", "income", "attendance",
)


def _pick(rng: np.random.Generator, pool: tuple):
    return pool[int(rng.integers(len(pool)))]


def random_fact(rng: np.random.Generator) -> ChartFact:
    """Draw one uniformly varied fact that always passes validation."""
    type_c = list(ChartType)[int(rng.integers(len(ChartType)))]
    type_f = list(FactType)[int(rng.integers(len(FactType)))]

    subspace = tuple(
        Filter(
            field=_pick(rng, _FIELD_WORDS),
            value=_pick(rng, _VALUE_WORDS),
            field_type=list(FieldType)[int(rng.integers(len(FieldType)))],
        )
        for _ in range(int(rng.integers(0, 4)))
    )

    breakdown = None
    if rng.random() < 0.6:
        breakdown = FieldRef(
            name=_pick(rng, _FIELD_WORDS),
            field_type=FieldType.TEMPORAL if rng.random() < 0.5 else FieldType.CATEGORICAL,
        )

    measure = None
    if rng.random() < 0.8:
        aggregation = list(Aggregation)[int(rng.integers(len(Aggregation)))]
        field = "" if aggregation is Aggregation.COUNT and rng.random() < 0.5 else _pick(rng, _MEASURE_WORDS)
        measure = MeasureSpec(field=field, aggregation=aggregation)

    focus = None
    if rng.random() < 0.4:
        focus = Focus(
            field=FieldRef(
                name=_pick(rng, _FIELD_WORDS),
                field_type=list(FieldType)[int(rng.integers(len(FieldType)))],
            ),
            value=_pick(rng, _VALUE_WORDS),
        )

    meta = META_NONE
    allowed = META_KIND_FOR_FACT_TYPE[type_f]
    if allowed is not None and rng.random() < 0.7:
        variant = META_VARIANTS[allowed]
        if variant.payload is int:
            value = int(rng.integers(1, 30))
        elif variant.payload is tuple:
            value = tuple(_pick(rng, _VALUE_WORDS) for _ in range(int(rng.integers(1, 4))))
        else:
            value = _pick(rng, variant.members)
        meta = variant.cls(value)

    return ChartFact(
        type_c=type_c,
        type_f=type_f,
        subspace=subspace,
        breakdown=breakdown,
        measure=measure,
        focus=focus,
        meta=meta,
    )
