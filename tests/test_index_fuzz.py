"""Damaged index files through `eval` and `nearest`.

Each mutation of a valid `embed` output must either run (exit 0, empty
stderr) or exit 1 or 2 with exactly one `error:` line. No exception may
escape `main`: from the console script that would be a traceback.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartembed.cli import main
from chartembed.corpus import Corpus, load_corpus, save_corpus


@pytest.fixture(scope="module")
def embedded(tmp_path_factory, fixture_corpus_path, fixture_vectors_path):
    """(directory, index bytes, an anchor id) for `embed` of an untrained
    model over four fixture visualizations in two datasets."""
    folder = tmp_path_factory.mktemp("fuzz")
    corpus = folder / "corpus.json"
    save_corpus(Corpus(load_corpus(fixture_corpus_path).visualizations[:4]), str(corpus))
    checkpoint, index = folder / "model.ckpt", folder / "index.tsv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(corpus), fixture_vectors_path, str(checkpoint),
                     "--epochs", "0", "--test-fraction", "0"]) == 0
        assert main(["embed", str(checkpoint), str(corpus), str(index),
                     "--vectors", fixture_vectors_path]) == 0
    data = index.read_bytes()
    anchor = data.split(b"\n")[1].split(b"\t")[0].decode()
    return folder, data, anchor


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(folder, data: bytes, anchor: str):
    """Run eval and nearest on `data`; return their (exit code, stdout, stderr)."""
    path = folder / "mutated.tsv"
    path.write_bytes(data)
    results = []
    for argv in (["eval", str(path)], ["nearest", str(path), anchor, "--k", "3"]):
        code, out, err = run(argv)
        if code == 0:
            assert err == "", (argv, err)
        else:
            assert code in (1, 2), (argv, code)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        results.append((code, out, err))
    return results


def set_cell(data: bytes, line: int, field: int, value: bytes) -> bytes:
    lines = data.split(b"\n")
    cells = lines[line].split(b"\t")
    cells[field] = value
    lines[line] = b"\t".join(cells)
    return b"\n".join(lines)


def with_line(data: bytes, line: int, edit) -> bytes:
    lines = data.split(b"\n")
    lines[line] = edit(lines[line])
    return b"\n".join(lines)


# (name, mutation, eval's exit code, nearest's exit code, a phrase of the error)
_TABLE = [
    ("empty file", lambda d, a: b"", 1, 1, "not an embedding index"),
    ("header only", lambda d, a: d.split(b"\n")[0] + b"\n", 1, 1, ""),
    ("cut mid-row", lambda d, a: d[: len(d) // 2], 1, 1, "fields"),
    ("cut after a row", lambda d, a: b"\n".join(d.split(b"\n")[:6]) + b"\n", 0, 0, ""),
    ("no final newline", lambda d, a: d.rstrip(b"\n"), 0, 0, ""),
    ("blank line", lambda d, a: d + b"\n", 1, 1, "fields"),
    ("nan cell", lambda d, a: set_cell(d, 2, 7, b"nan"), 1, 1, "non-finite"),
    ("inf cell", lambda d, a: set_cell(d, 3, 4, b"-inf"), 1, 1, "non-finite"),
    ("cell past float64", lambda d, a: set_cell(d, 3, 9, b"1e999"), 1, 1, "non-finite"),
    ("huge finite cells", lambda d, a: set_cell(set_cell(d, 1, 4, b"1e308"), 2, 4, b"-1e308"),
     0, 0, ""),
    ("position past int64", lambda d, a: set_cell(d, 2, 2, b"9" * 40), 1, 1, "int64"),
    ("position below int64", lambda d, a: set_cell(d, 2, 2, b"-9223372036854775809"),
     1, 1, "int64"),
    ("position at int64 max", lambda d, a: set_cell(d, 2, 2, b"9223372036854775807"), 0, 0, ""),
    ("float position", lambda d, a: set_cell(d, 2, 2, b"2.0"), 1, 1, "not an integer"),
    ("non-numeric cell", lambda d, a: set_cell(d, 4, 5, b"0x1p3"), 1, 1, "non-numeric"),
    ("empty cell", lambda d, a: set_cell(d, 4, 5, b""), 1, 1, "non-numeric"),
    ("missing cell", lambda d, a: with_line(d, 3, lambda l: l.rsplit(b"\t", 1)[0]), 1, 1, "fields"),
    ("extra cell", lambda d, a: with_line(d, 3, lambda l: l + b"\t0.5"), 1, 1, "fields"),
    ("tab in an id", lambda d, a: with_line(d, 3, lambda l: b"x\t" + l), 1, 1, "fields"),
    ("duplicate row", lambda d, a: d + d.split(b"\n")[1] + b"\n", 1, 1, "duplicate chart id"),
    ("non-UTF-8 id", lambda d, a: with_line(d, 4, lambda l: b"\xff" + l), 1, 1, "UTF-8"),
    ("non-UTF-8 header", lambda d, a: b"\xfe" + d, 1, 1, "UTF-8"),
    ("bad header", lambda d, a: d.replace(b"chart_id", b"chart", 1), 1, 1, "not an embedding"),
    ("unknown anchor", lambda d, a: d.replace(a.encode(), b"renamed", 1), 0, 1, "unknown anchor"),
]


@pytest.mark.parametrize("name, mutate, eval_code, nearest_code, phrase", _TABLE,
                         ids=[case[0] for case in _TABLE])
def test_index_mutations(embedded, name, mutate, eval_code, nearest_code, phrase):
    folder, data, anchor = embedded
    results = check_contract(folder, mutate(data, anchor), anchor)
    assert [code for code, _, _ in results] == [eval_code, nearest_code]
    assert all(phrase in err for code, _, err in results if code)


def test_crlf_line_endings_read_as_lf(embedded):
    folder, data, anchor = embedded
    assert check_contract(folder, data.replace(b"\n", b"\r\n"), anchor) == check_contract(
        folder, data, anchor
    )


_CELLS = [b"nan", b"inf", b"-inf", b"1e999", b"1e308", b"-1e308", b"9" * 40, b"-" + b"9" * 40,
          b"", b" ", b"x", b"1_0", b"\xff", b"\t", b"\r", b"0"]
_BYTES = st.sampled_from(b"\t\n\r\x00\xff\xc3-+.e9 ") | st.integers(0, 255)


@st.composite
def mutations(draw, data: bytes):
    """One of: a cut, a byte flip, an inserted run of bytes or a replaced
    cell, aimed at the start of a line, where the ids and positions are, or
    anywhere; or a repeated line."""
    lines = data.split(b"\n")
    line = draw(st.integers(0, len(lines) - 2))
    start = sum(len(l) + 1 for l in lines[:line])
    offset = draw(st.integers(start, start + 60) | st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["cut", "flip", "insert", "cell", "repeat"]))
    if kind == "cut":
        return data[:offset]
    if kind == "flip":
        return data[:offset] + bytes([draw(_BYTES)]) + data[offset + 1 :]
    if kind == "insert":
        return data[:offset] + bytes(draw(st.lists(_BYTES, min_size=1, max_size=4))) + data[offset:]
    if kind == "cell":
        return set_cell(data, line, draw(st.integers(0, 8)), draw(st.sampled_from(_CELLS)))
    return b"\n".join(lines[: line + 1] + lines[line:])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_index_mutations_keep_the_exit_contract(embedded, data):
    folder, index, anchor = embedded
    check_contract(folder, data.draw(mutations(index)), anchor)
