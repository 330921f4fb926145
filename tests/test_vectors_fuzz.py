"""Damaged word-vector files through `train` and `embed`.

Each mutation of the fixture store must either run (exit 0, empty stderr)
or exit 1 or 2 with exactly one `error:` line. No exception may escape
`main`: from the console script that would be a traceback.
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
def setup(tmp_path_factory, fixture_corpus_path, fixture_vectors_path):
    """(directory, store bytes): the directory holds a four-visualization
    corpus and the untrained checkpoint that `train --epochs 0` writes from
    the intact store."""
    folder = tmp_path_factory.mktemp("vectors-fuzz")
    save_corpus(Corpus(load_corpus(fixture_corpus_path).visualizations[:4]), str(folder / "corpus.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(folder / "corpus.json"), fixture_vectors_path,
                     str(folder / "model.ckpt"), "--epochs", "0", "--test-fraction", "0"]) == 0
    with open(fixture_vectors_path, "rb") as fh:
        return folder, fh.read()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_contract(folder, data: bytes):
    """Run train and embed on the store `data`; return their exit codes and
    standard errors."""
    vectors = folder / "mutated.txt"
    vectors.write_bytes(data)
    corpus = str(folder / "corpus.json")
    results = []
    for argv in (
        ["train", corpus, str(vectors), str(folder / "out.ckpt"), "--epochs", "0",
         "--test-fraction", "0"],
        ["embed", str(folder / "model.ckpt"), corpus, str(folder / "index.tsv"),
         "--vectors", str(vectors)],
    ):
        code, err = run(argv)
        if code == 0:
            assert err == "", (argv, err)
        else:
            assert code in (1, 2), (argv, code)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        results.append((code, err))
    return results


def with_line(data: bytes, line: int, edit) -> bytes:
    lines = data.split(b"\n")
    lines[line] = edit(lines[line])
    return b"\n".join(lines)


def set_field(data: bytes, line: int, field: int, value: bytes) -> bytes:
    def edit(text):
        fields = text.split(b" ")
        fields[field] = value
        return b" ".join(fields)
    return with_line(data, line, edit)


# (name, mutation, a phrase of the error); train and embed both exit 1.
_TABLE = [
    ("cut mid-line", lambda d: d[: len(d) // 2], "components"),
    ("cut after the first word", lambda d: d[: d.index(b" ") + 1], "got 2 fields"),
    ("missing component", lambda d: with_line(d, 3, lambda l: l.rsplit(b" ", 1)[0]),
     "expected a word and 100 components, got 100 fields"),
    ("extra component", lambda d: with_line(d, 5, lambda l: l + b" 0.5"), "got 102 fields"),
    ("word only", lambda d: with_line(d, 2, lambda l: l.split(b" ")[0]), "got 1 fields"),
    ("double space", lambda d: with_line(d, 4, lambda l: l.replace(b" ", b"  ", 1)), "fields"),
    ("tab separator", lambda d: with_line(d, 4, lambda l: l.replace(b" ", b"\t", 1)), "fields"),
    ("nan component", lambda d: set_field(d, 6, 17, b"nan"), "non-finite component"),
    ("inf component", lambda d: set_field(d, 0, 1, b"-inf"), "non-finite component"),
    ("component past float64", lambda d: set_field(d, 9, 100, b"1e999"), "non-finite component"),
    ("non-numeric component", lambda d: set_field(d, 7, 30, b"0x1p3"),
     "could not convert string to float: '0x1p3'"),
    ("empty component", lambda d: set_field(d, 7, 30, b""), "could not convert string to float: ''"),
    ("byte flip to a letter", lambda d: set_field(d, 8, 2, b"0.1z3"), "could not convert"),
    ("non-UTF-8 word", lambda d: with_line(d, 10, lambda l: b"\xff" + l), "not a UTF-8 text file"),
    ("non-UTF-8 component", lambda d: set_field(d, 11, 5, b"0.\xe95"), "not a UTF-8 text file"),
]


@pytest.mark.parametrize("name, mutate, phrase", _TABLE, ids=[case[0] for case in _TABLE])
def test_vector_mutations(setup, name, mutate, phrase):
    folder, data = setup
    results = check_contract(folder, mutate(data))
    assert [code for code, _ in results] == [1, 1]
    assert all(phrase in err for _, err in results)


@pytest.mark.parametrize("name, mutate", [
    ("repeated word", lambda d: d + d.split(b"\n")[3] + b"\n"),
    ("repeated word in other case", lambda d: d + d.split(b"\n")[3].upper() + b"\n"),
    ("blank lines", lambda d: b"\n\n" + d.replace(b"\n", b"\n\n", 3)),
    ("CRLF line ends", lambda d: d.replace(b"\n", b"\r\n")),
    ("no final newline", lambda d: d.rstrip(b"\n")),
    ("cut after a line", lambda d: b"\n".join(d.split(b"\n")[:20]) + b"\n"),
    ("empty file", lambda d: b""),
])
def test_vector_files_that_load(setup, name, mutate):
    folder, data = setup
    assert [code for code, _ in check_contract(folder, mutate(data))] == [0, 0]


_CELLS = [b"nan", b"inf", b"-inf", b"1e999", b"", b"x", b"1_0", b"\xff", b"\t", b"\r", b"0", b"-0",
          # Either side of the plain-decimal form that the loader checks
          # without converting.
          b"1E5", b"+1.5", b".5", b"5.", b"1e99", b"1e-100", b"1e308", b"1" * 21,
          "\u0663".encode("utf-8")]
_BYTES = st.sampled_from(b" \t\n\r\x00\xff\xc3-+.e9") | st.integers(0, 255)


@st.composite
def mutations(draw, data: bytes):
    """One of: a cut, a byte flip, an inserted run of bytes or a replaced
    field, aimed at the start of a line, where the word is, or anywhere; or
    a repeated line."""
    lines = data.split(b"\n")
    line = draw(st.integers(0, len(lines) - 2))
    start = sum(len(l) + 1 for l in lines[:line])
    offset = draw(st.integers(start, start + 40) | st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["cut", "flip", "insert", "field", "repeat"]))
    if kind == "cut":
        return data[:offset]
    if kind == "flip":
        return data[:offset] + bytes([draw(_BYTES)]) + data[offset + 1 :]
    if kind == "insert":
        return data[:offset] + bytes(draw(st.lists(_BYTES, min_size=1, max_size=4))) + data[offset:]
    if kind == "field":
        return set_field(data, line, draw(st.integers(0, 100)), draw(st.sampled_from(_CELLS)))
    return b"\n".join(lines[: line + 1] + lines[line:])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_vector_mutations_keep_the_exit_contract(setup, data):
    folder, store = setup
    check_contract(folder, data.draw(mutations(store)))
