"""The index TSV writer against the per-cell reference writer.

`save_index` formats each row with one `%` of a template; its bytes must
equal `reference.save_index`, which formats one cell at a time, and
`load_index` must read back every bit.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference

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
