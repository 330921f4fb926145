"""The index TSV writer against the per-cell reference writer.

`save_index` formats blocks of rows whose cells are all ±0 or 1e-6 < |x| <
1e17 with a numpy kernel, and any other row with one `%` of a template; its
bytes must equal `reference.save_index`, which formats one cell at a time,
and `load_index` must read back every bit.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from chartembed.encoder import init_params
from chartembed.evaluation import EmbeddingIndex, build_index, load_index, save_index

SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
LARGEST = float(np.finfo(np.float64).max)
# Signed zero, the smallest subnormal, the normal and float range ends, and
# both sides of every switch between %g's fixed and exponent notation.
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, SMALLEST_NORMAL, -SMALLEST_NORMAL, LARGEST, -LARGEST,
    1e-5, 1e-4, 9.999999999999999e-5, 1e16, 9.999999999999999e16, 1e17, -1e17,
    1.0, 0.1, 123456789.12345679, 2.0**53, 2.0**53 + 2,
]


def index_of(vectors, ids=None):
    n = len(vectors)
    ids = ids or [f"c{i:05d}" for i in range(n)]
    return EmbeddingIndex(
        ids, [f"s{i % 7}" for i in range(n)], [i % 5 for i in range(n)],
        [f"d{i % 3}" for i in range(n)], np.asarray(vectors, dtype=np.float64).reshape(n, -1),
    )


def assert_writes_reference_bytes(index, tmp_path):
    got, expected = tmp_path / "got.tsv", tmp_path / "expected.tsv"
    save_index(index, str(got))
    reference.save_index(index, str(expected))
    assert got.read_bytes() == expected.read_bytes()
    if not np.isfinite(index.vectors).all():
        return  # load_index rejects a non-finite cell
    back = load_index(str(got))
    assert back.ids == index.ids
    assert back.story_ids == index.story_ids and back.dataset_ids == index.dataset_ids
    assert np.array_equal(back.positions, index.positions)
    assert back.vectors.shape == index.vectors.shape
    assert back.vectors.tobytes() == index.vectors.tobytes()  # -0.0 included


def test_fixture_index(tmp_path, fixture_corpus, store, base_config):
    assert_writes_reference_bytes(build_index(fixture_corpus, init_params(0, base_config), store), tmp_path)


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(20).integers(0, 2**64, size=210_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:200_000]
    assert len(values) == 200_000
    assert_writes_reference_bytes(index_of(values.reshape(400, 500)), tmp_path)


def test_special_values(tmp_path):
    assert_writes_reference_bytes(index_of(np.array(SPECIAL).reshape(2, -1)), tmp_path)
    # One value per row, so each is a row's last cell too.
    assert_writes_reference_bytes(index_of(np.array(SPECIAL).reshape(-1, 1)), tmp_path)


@pytest.mark.parametrize("ids", [
    ["100%", "%s", "%d%%", "a%(x)s"],
    ["café", "图表", "\U0001f4c8 chart", "%é"],
])
def test_ids_are_cells_not_format_strings(tmp_path, ids):
    assert_writes_reference_bytes(index_of(np.arange(8.0).reshape(4, 2), ids), tmp_path)


def test_empty_index_writes_the_header_only(tmp_path):
    index = EmbeddingIndex((), (), (), (), np.zeros((0, 0)))
    assert_writes_reference_bytes(index, tmp_path)
    save_index(index, str(tmp_path / "empty.tsv"))
    assert (tmp_path / "empty.tsv").read_bytes() == b"chart_id\tstory_id\tposition\tdataset_id\n"


def in_range(values):
    values = np.asarray(values, dtype=np.float64)
    a = np.abs(values)
    return values[((a > 1e-6) & (a < 1e17)) | (a == 0.0)]


def test_dense_in_range_sample(tmp_path):
    # Random 53-bit mantissas at decimal exponents -7..18, both signs; the
    # cells outside the kernel's range are dropped, so every row takes it.
    rng = np.random.default_rng(15)
    n = 260_000
    mantissas = rng.integers(2**52, 2**53, size=n).astype(np.float64) * 2.0**-52
    values = mantissas * 10.0 ** rng.integers(-7, 19, size=n) * rng.choice([-1.0, 1.0], size=n)
    values = in_range(values)[:200_000]
    assert len(values) == 200_000
    assert_writes_reference_bytes(index_of(values.reshape(400, 500)), tmp_path)


def halfway_ties():
    """Doubles j * 2**e, odd j, inside the kernel's range whose exact decimal
    value has 18 significant digits: each lies halfway between two 17-digit
    numbers."""
    ties = []
    for e in range(-40, 45):
        for j in range(1, 2**10, 2):
            x = math.ldexp(j, e)
            if 1e-6 < x < 1e17 and len(Decimal(x).as_tuple().digits) == 18:
                ties.append(x)
    return ties


def powers_of_ten_and_neighbours():
    cells = []
    for k in range(-7, 18):
        p = float(f"1e{k}")
        cells += [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, np.inf))]
    return cells


def test_planted_ties_and_powers_of_ten(tmp_path):
    ties = halfway_ties()
    # Both roundings of a tie occur: the 17th digit is even for some, odd for others.
    kept = {int(Decimal(x).as_tuple().digits[16]) % 2 for x in ties}
    assert len(ties) > 100 and kept == {0, 1}
    cells = ties + powers_of_ten_and_neighbours()
    cells += [0.0, -0.0, 9.99999999999999999e-5, 2.0**-25] + [j * 2.0**-n for n in range(1, 40) for j in (1, 3, 5, 7)]
    cells = np.concatenate([cells, -np.array(cells)])
    assert_writes_reference_bytes(index_of(cells.reshape(-1, 1)), tmp_path)
    width = 10
    padded = np.concatenate([cells, np.zeros(-len(cells) % width)])
    assert_writes_reference_bytes(index_of(padded.reshape(-1, width)), tmp_path)


@pytest.mark.parametrize("value, text", [
    (2.0**-25, "2.9802322387695312e-08"),  # a tie, kept even
    (2.0**-20, "9.5367431640625e-07"),
    (9.99999999999999999e-5, "0.0001"),
    (1e-6, "9.9999999999999995e-07"),  # the double 1e-6 lies below 10**-6
    (float(np.nextafter(1e-6, 1.0)), "1.0000000000000002e-06"),
    (-0.0, "-0"),
    (1e16, "10000000000000000"),
    (123.5, "123.5"),
    (-1e-5, "-1.0000000000000001e-05"),
])
def test_planted_cells_read_as_percent_g(tmp_path, value, text):
    path = tmp_path / "index.tsv"
    save_index(index_of([[value, 1.5]]), str(path))
    assert path.read_text(encoding="utf-8").splitlines()[1].split("\t")[4:] == [text, "1.5"]


@pytest.mark.parametrize("outside", [
    np.nan, np.inf, -np.inf, 1e-7, -5e-324, 1e-6, 1e17, -1e17, LARGEST, 2.0**-25,
])
def test_rows_that_mix_in_range_and_other_cells(tmp_path, outside):
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((40, 30))
    vectors[[0, 7, 39], [5, 29, 0]] = outside
    assert_writes_reference_bytes(index_of(vectors), tmp_path)


_ROW_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1e-6, 1e17, 2.0**-25, 0.5, 1e16]
) | st.integers(-7, 17).map(lambda k: float(f"1e{k}"))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.lists(_ROW_FLOATS, min_size=dim, max_size=dim), min_size=1, max_size=12)
))
def test_arbitrary_float_rows(tmp_path_factory, rows):
    assert_writes_reference_bytes(index_of(rows), tmp_path_factory.mktemp("rows"))
