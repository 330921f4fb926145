"""The index TSV reader against the per-line reference reader.

`load_index` reads a file or a pipe in chunks of whole lines and proves
the cells that `save_index` prints with a numpy kernel; a chunk with any
other cell or an irregular line, and a last line without a newline, are
read one line at a time. On every input it must give what
`reference.load_index` gives: the same ids, story ids, positions, dataset
ids and vector bits, or an `EvaluationError` with the same text.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from chartembed import evaluation
from chartembed.evaluation import EmbeddingIndex, EvaluationError, load_index, save_index

HEADER = b"chart_id\tstory_id\tposition\tdataset_id"


def index_text(rows: list[list[bytes]]) -> bytes:
    """An index file whose row i holds the cells rows[i]."""
    dim = len(rows[0]) if rows else 1
    lines = [HEADER + b"".join(b"\tv%d" % (j + 1) for j in range(dim))]
    for i, cells in enumerate(rows):
        lines.append(b"c%05d\ts%d\t%d\td%d\t" % (i, i % 3, i % 5, i % 2) + b"\t".join(cells))
    return b"\n".join(lines) + b"\n"


def assert_reads_like_reference(path) -> None:
    path = str(path)
    try:
        expected = reference.load_index(path)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as got:
            load_index(path)
        assert str(got.value) == str(exc)
        return
    got = load_index(path)
    assert got.ids == expected.ids
    assert got.story_ids == expected.story_ids and got.dataset_ids == expected.dataset_ids
    assert got.positions.tobytes() == expected.positions.tobytes()
    assert got.vectors.shape == expected.vectors.shape
    assert got.vectors.tobytes() == expected.vectors.tobytes()  # -0.0 included


def check_bytes(tmp_path, data: bytes) -> None:
    path = tmp_path / "index.tsv"
    path.write_bytes(data)
    assert_reads_like_reference(path)


def g17(x: float) -> bytes:
    return b"%.17g" % x


def powers_of_ten() -> list[float]:
    """Every power of ten from 1e-22 to 1e16 and both of its neighbours."""
    values = []
    for k in range(-22, 17):
        p = float(f"1e{k}")
        values += [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, np.inf))]
    return values


_RNG = np.random.default_rng(17)
_RANDOM = (_RNG.standard_normal(40) * 10.0 ** _RNG.integers(-25, 20, size=40)).tolist()

# Cells as text: the writer's, other formats of the same values, and
# spellings that float() or numpy read differently or reject.
PLANTED = (
    [g17(x) for x in powers_of_ten()]
    + [g17(-x) for x in powers_of_ten()]
    + [b"0", b"-0", b"1e-6", g17(1e-6), b"1e-22", b"-1e-22", b"9.9999999999999997e-23"]
    # 17-digit integers above 2**53, some not the writer's digits of any double
    + [b"9007199254740993", b"12345678901234567", b"99999999999999999", b"-36028797018963971"]
    + [b"%.15g" % x for x in _RANDOM] + [b"%.3f" % x for x in _RANDOM]
    + [b"%e" % x for x in _RANDOM] + [repr(x).encode() for x in _RANDOM] + [g17(x) for x in _RANDOM]
    + [b"1.", b".5", b"+1", b" 1", b"1 ", b"1_0", b"1E5", b"1e5", b"1e+05", b"1e-5", b"1e-05",
       b"1.5e-12", b"-2.5e-9", b"1e-022", b"5e-324", b"1e-23", b"0.000001", b"0.00001234",
       b"00.5", b"-.5", b"1..5", b"1.2.3", b"--1", b"1-", b"e-05", b"1e-", b"0x1p3", b"nan",
       b"-inf", b"1e999", b"", b"\xd9\xa3", b"\xef\xbc\x91", b"%.30f" % 0.1, b"%.40f" % -1e-22,
       b"123456789012345678901234567890.5", b"1" * 24, b"1" * 25, b"0." + b"0" * 21 + b"1"]
    # the layouts of writer templates with leading or all-zero digits
    + [b"007", b"-007", b"00", b"-00", b"000.0", b"0.0", b"-0.000", b"-0.0000", b"0e-05",
       b"0.05", b"-0.0012", b"0.00001", b"%.20f" % 1e-5, b"%.20f" % -0.25]
)


def test_numpy_shifts_a_word_by_64_to_zero():
    # The reader's funnel shifts assume it for cells that start on a word.
    words = np.array([0x0123456789ABCDEF] * 2, dtype=np.uint64)
    shifts = np.array([64, 0], dtype=np.uint64)
    assert (words << shifts).tolist() == [0, 0x0123456789ABCDEF]
    assert (words >> shifts).tolist() == [0, 0x0123456789ABCDEF]


@pytest.mark.parametrize("cell", PLANTED, ids=[repr(c)[2:-1] for c in PLANTED])
def test_planted_cell(tmp_path, cell):
    # The cell alone in a row between two proven rows, then first and last.
    check_bytes(tmp_path, index_text([[b"0.5", b"-1.25"], [b"0.25", cell], [b"2", b"3"]]))
    check_bytes(tmp_path, index_text([[cell, b"0.5"], [b"1", cell]]))


def test_planted_cells_together(tmp_path):
    numeric = []
    for cell in PLANTED:
        try:
            if np.isfinite(np.array([cell.decode()], dtype=np.float64)).all():
                numeric.append(cell)
        except (ValueError, UnicodeDecodeError):
            pass
    width = 7
    numeric += [b"0"] * (-len(numeric) % width)
    rows = [numeric[i : i + width] for i in range(0, len(numeric), width)]
    check_bytes(tmp_path, index_text(rows))
    check_bytes(tmp_path, index_text([[cell] for cell in numeric]))


def test_writer_cells_are_proven(tmp_path, monkeypatch):
    """Every file that save_index writes with cells of ±0 or 1e-22 <= |x| <
    1e17 is read by the kernel, never one line at a time, and its bytes are
    the reference writer's."""
    rng = np.random.default_rng(23)
    n = 60_000
    mantissas = rng.integers(2**52, 2**53, size=n).astype(np.float64) * 2.0**-52
    values = mantissas * 10.0 ** rng.integers(-22, 17, size=n) * rng.choice([-1.0, 1.0], size=n)
    values = values[(np.abs(values) >= 1e-22) & (np.abs(values) < 1e17)][:50_000]
    planted = [x for x in powers_of_ten() if x >= 1e-22] + [0.0, -0.0, 0.5, 1.0, 100.0]
    values = np.concatenate([values, planted, -np.array(planted)])
    values = np.concatenate([values, np.zeros(-len(values) % 50)]).reshape(-1, 50)
    n = len(values)
    index = EmbeddingIndex([f"c{i}" for i in range(n)], ["s"] * n, [0] * n, ["d"] * n, values)
    path, expected = tmp_path / "index.tsv", tmp_path / "expected.tsv"
    save_index(index, str(path))
    reference.save_index(index, str(expected))
    assert path.read_bytes() == expected.read_bytes()

    def unproven(*args):
        raise AssertionError("a cell of the writer's was not proven")

    monkeypatch.setattr(evaluation, "_read_lines", unproven)
    back = load_index(str(path))
    assert back.vectors.tobytes() == index.vectors.tobytes()


@pytest.mark.parametrize("name, data", [
    ("crlf", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"\n", b"\r\n")),
    ("crlf on one line", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"1\n", b"1\r\n")),
    ("lone cr in a cell", index_text([[b"0.5", b"1\r5"], [b"2", b"3"]])),
    ("lone cr ends a line", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"1\n", b"1\r")),
    ("no final newline", index_text([[b"0.5", b"1"], [b"2", b"3"]])[:-1]),
    ("non-UTF-8 byte in a cell", index_text([[b"0.5", b"1\xff"], [b"2", b"3"]])),
    ("non-UTF-8 byte in an id", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"c00001", b"c\xe900001")),
    ("UTF-8 ids", index_text([[b"0.5", b"1"]]).replace(b"c00000", "图表é".encode())),
    ("duplicate id", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"c00001", b"c00000")),
    ("blank line", index_text([[b"0.5", b"1"], [b"2", b"3"]]) + b"\n"),
    ("missing cell", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"\t3\n", b"\n")),
    ("extra cell", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"\t3\n", b"\t3\t4\n")),
    ("control byte", index_text([[b"0.5", b"1"], [b"2", b"3"]]).replace(b"\t3\n", b"\x01\t3\n")),
    ("position past int64", index_text([[b"0.5", b"1"]]).replace(b"\t0\td0", b"\t" + b"9" * 30 + b"\td0")),
    ("position with spaces", index_text([[b"0.5", b"1"]]).replace(b"\t0\td0", b"\t 4 \td0")),
    ("header only", HEADER + b"\tv1\n"),
    ("header without vector columns", HEADER + b"\n" + b"a\ts\t0\td\n"),
    ("header without newline", HEADER + b"\tv1"),
    ("lone cr ends the header", HEADER + b"\tv1\ra\ts\t0\td\t1\nb\ts\t0\td\t2\n"),
    ("crlf header, lf rows", HEADER + b"\tv1\r\na\ts\t0\td\t1\n"),
    ("lone cr line endings only", HEADER + b"\tv1\ra\ts\t0\td\t1\rb\ts\t0\td\t2"),
    ("non-UTF-8 byte in the header", HEADER.replace(b"story", b"st\xffory") + b"\tv1\n"),
    ("bad header", index_text([[b"0.5"]]).replace(b"chart_id", b"chart")),
    ("empty file", b""),
])
def test_file_level_cases(tmp_path, name, data):
    check_bytes(tmp_path, data)


@pytest.mark.parametrize("chunk", [1, 7, 40, 97])
def test_rows_split_across_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(evaluation, "_READ_BYTES", chunk)
    rows = [[g17(x) for x in _RANDOM[i : i + 4]] for i in range(0, 40, 4)]
    rows[5][2] = b"1e5"  # an unproven row between proven ones
    check_bytes(tmp_path, index_text(rows))
    check_bytes(tmp_path, index_text(rows)[:-1])
    check_bytes(tmp_path, index_text(rows).replace(b"\n", b"\r\n"))


def read_through_pipe(data: bytes, read):
    """read(path) of a path that is a pipe holding `data`, which cannot seek."""
    r, w = os.pipe()
    try:
        with os.fdopen(w, "wb") as fh:
            fh.write(data)  # within the pipe's buffer: no writer thread needed
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)


_PIPED = index_text([[b"0.5", b"1"], [b"2", b"3"]])
_PIPE_CASES = [
    ("proven", _PIPED),
    ("crlf", _PIPED.replace(b"\n", b"\r\n")),
    ("nan row", _PIPED.replace(b"\t3\n", b"\tnan\n")),
    ("unproven row", _PIPED.replace(b"\t3\n", b"\t1e5\n")),
    ("bad row after a proven one", _PIPED.replace(b"\t3\n", b"\tx\n")),
    ("no final newline", _PIPED[:-1]),
    ("non-UTF-8 byte", _PIPED.replace(b"\t3\n", b"\t3\xff\n")),
]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("data", [data for _, data in _PIPE_CASES], ids=[name for name, _ in _PIPE_CASES])
def test_pipe_reads_like_reference(tmp_path, data):
    """A stream that cannot seek back gives the result and error text of a
    regular file."""
    path = tmp_path / "index.tsv"
    path.write_bytes(data)
    try:
        expected = reference.load_index(str(path))
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as got:
            read_through_pipe(data, load_index)
        assert str(got.value).split(":", 1)[1] == str(exc).split(":", 1)[1]
        return
    got = read_through_pipe(data, load_index)
    assert got.ids == expected.ids and got.positions.tobytes() == expected.positions.tobytes()
    assert got.vectors.tobytes() == expected.vectors.tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_writer_file_through_a_pipe_is_proven(tmp_path, monkeypatch):
    """A pipe is read in chunks as a regular file is: a file that save_index
    writes never reaches the line reader."""
    monkeypatch.setattr(evaluation, "_READ_BYTES", 4096)
    n = 40
    values = np.random.default_rng(5).standard_normal((n, 16))
    index = EmbeddingIndex([f"c{i}" for i in range(n)], ["s"] * n, list(range(n)), ["d"] * n, values)
    path = tmp_path / "index.tsv"
    save_index(index, str(path))

    def unproven(*args):
        raise AssertionError("a chunk of the writer's was read line by line")

    monkeypatch.setattr(evaluation, "_read_lines", unproven)
    back = read_through_pipe(path.read_bytes(), load_index)
    assert back.ids == index.ids and back.vectors.tobytes() == index.vectors.tobytes()


def test_only_the_declined_chunk_is_read_line_by_line(tmp_path, monkeypatch):
    """One unproven cell in the last row of a file read in small chunks:
    only the lines of that row's chunk reach the line reader, numbered as
    in the file."""
    monkeypatch.setattr(evaluation, "_READ_BYTES", 200)
    rows = [[g17(x) for x in row] for row in np.random.default_rng(3).standard_normal((12, 4))]
    rows[-1][2] = b"1e5"
    data = index_text(rows)
    calls = []
    read_lines = evaluation._read_lines

    def recorded(path, lines, first_lineno, dim):
        calls.append((lines, first_lineno))
        return read_lines(path, lines, first_lineno, dim)

    monkeypatch.setattr(evaluation, "_read_lines", recorded)
    check_bytes(tmp_path, data)
    [(lines, first_lineno)] = calls
    assert data.endswith(lines) and lines.count(b"\n") < len(rows) // 2
    assert data.count(b"\n") - lines.count(b"\n") + 1 == first_lineno


_FORMATS = [g17, lambda x: b"%.15g" % x, lambda x: b"%.3f" % x, lambda x: b"%e" % x,
            lambda x: repr(x).encode()]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Any double, or one in the writer's range, where real indexes are.
_DOUBLES = (
    st.integers(0, 2**64 - 1).map(from_bits)
    | st.floats(1e-22, 1e17, exclude_max=True)
    | st.floats(-1e17, -1e-22, exclude_min=True)
)


@st.composite
def cell_texts(draw):
    return draw(st.sampled_from(_FORMATS))(draw(_DOUBLES))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.lists(cell_texts(), min_size=dim, max_size=dim), min_size=1, max_size=8)
))
def test_random_cells(tmp_path_factory, rows):
    check_bytes(tmp_path_factory.mktemp("cells"), index_text(rows))


@settings(max_examples=200, deadline=None)
@given(st.lists(_DOUBLES, min_size=1, max_size=6), st.data())
def test_one_byte_changed_in_a_writer_cell(tmp_path_factory, values, data):
    """A writer cell with one byte replaced reads as the reference reads it,
    whether or not the kernel proves it."""
    cells = [g17(x) for x in values]
    j = data.draw(st.integers(0, len(cells) - 1))
    i = data.draw(st.integers(0, len(cells[j])))
    byte = data.draw(st.sampled_from(b"0123456789.-+eE \x00\x7f") | st.integers(0, 255))
    cells[j] = cells[j][:i] + bytes([byte]) + cells[j][i + 1 :]
    check_bytes(tmp_path_factory.mktemp("changed"), index_text([cells, [g17(-x) for x in values]]))
