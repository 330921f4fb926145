"""The package's word-vector loader against the eager reference loader.

`load_vector_store` checks a line of plain decimals by its form and
converts it on its word's first lookup; `reference.load_vector_store`
converts every line as it reads it. On every file both must raise the same
exception with the same message, or give stores of the same size whose
lookups return bit-identical arrays, for every word of the file in any
case, on the first lookup and on later ones.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from chartembed.semantics import _PLAIN_LINE, WORD_DIM, load_vector_store


def outcome(loader, path):
    try:
        return loader(path), None
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return None, (type(exc), str(exc))


def assert_agree(path, data: bytes):
    """Both loaders on the file `data`; returns the package's store or None."""
    path.write_bytes(data)
    store, error = outcome(load_vector_store, str(path))
    expected, expected_error = outcome(reference.load_vector_store, str(path))
    assert error == expected_error
    if error is not None:
        return None
    assert len(store) == len(expected)
    text = data.decode("utf-8")
    words = [line.split(" ")[0] for line in re.split(r"\r\n|\r|\n", text)]
    words += [w.upper() for w in words] + [w.title() for w in words] + ["not-a-stored-word"]
    for word in words + words:  # the second pass reads the converted entries
        assert (word in store) == (word in expected)
        got, want = store.lookup(word), expected.lookup(word)
        assert got.dtype == want.dtype and got.shape == want.shape == (WORD_DIM,)
        assert got.tobytes() == want.tobytes(), word
    return store


def line(word: str, cells) -> str:
    cells = list(cells)
    return word + " " + " ".join(cells + ["0.25"] * (WORD_DIM - len(cells)))


def repr_line(rng, word: str, scale: float = 1.0) -> str:
    return word + " " + " ".join(repr(float(x)) for x in rng.standard_normal(WORD_DIM) * scale)


_RNG = np.random.default_rng(16)

# Cells on either side of the plain-decimal form: each is tried at the start,
# the middle and the end of a line.
_BOUNDARY_CELLS = [
    "0", "-0", "00012", "1e5", "1E5", "1e+05", "1e-05", "1e99", "1e-99", "1e-100", "1e308",
    "1e400", "+1.5", ".5", "5.", "-.5", "1" * 20, "1" * 21, "9" * 400, "9" * 20 + "." + "9" * 20 + "e99",
    "0." + "1" * 21, "1e123", "1e-", "1e", "--1", "1.2.3", "٣", "1_0", "nan", "inf",
    "-Infinity", "", "0x1p3", "1 ", " 1",
]

_TABLE = [
    ("fixture store", None),
    ("shortest-repr decimals", "\n".join(repr_line(_RNG, f"w{i}") for i in range(6)) + "\n"),
    ("tiny and huge repr values", "\n".join(
        [repr_line(_RNG, "tiny", 1e-7), repr_line(_RNG, "huge", 1e30),
         repr_line(_RNG, "subnormal", 1e-310)]) + "\n"),
    ("CRLF and lone CR line ends", line("a", []) + "\r\n" + line("b", ["1"]) + "\r" + line("c", [])),
    ("blank lines", "\n\n" + line("a", []) + "\n\n\n" + line("b", ["2"]) + "\n\n"),
    ("no final newline", line("a", []) + "\n" + line("b", ["-3"])),
    ("repeated word, plain first", line("dup", ["1"]) + "\n" + line("DUP", ["1.5", "+2"]) + "\n"),
    ("repeated word, converted first", line("dup", ["+1"]) + "\n" + line("Dup", ["2"]) + "\n"),
    ("repeated word, later line bad", line("dup", ["1"]) + "\n" + line("DUP", ["nan"]) + "\n"),
    ("repeated word, later line short", line("dup", ["1"]) + "\n" + "DUP 1 2\n"),
    ("bad line after a plain one", line("a", []) + "\n" + line("b", ["x"]) + "\n"),
    ("plain line after a bad one", line("b", ["1e999"]) + "\n" + line("a", []) + "\n"),
    ("tab separator", line("a", []).replace(" ", "\t", 1) + "\n"),
    ("tab inside the word", "a\tb " + line("", [])[1:] + "\n"),
    ("trailing space", line("a", []) + " \n"),
    ("double space", line("a", []).replace(" ", "  ", 2) + "\n"),
    ("word only", "a\n"),
    ("space first", " " + line("a", []) + "\n"),
    ("word that reads as a number", line("-0.5", []) + "\n"),
    ("non-ASCII word", line("café", []) + "\n" + line("İstanbul", []) + "\n"),
    ("empty file", ""),
]


def cell_line(cell: str, at: int) -> str:
    cells = ["0.5"] * WORD_DIM
    cells[at] = cell
    return "w " + " ".join(cells) + "\n"


_TABLE += [
    (f"cell {cell!r} at {at}", cell_line(cell, at))
    for cell in _BOUNDARY_CELLS
    for at in (0, 50, WORD_DIM - 1)
]


@pytest.mark.parametrize("name, text", _TABLE, ids=[case[0] for case in _TABLE])
def test_loaders_agree(tmp_path, fixture_vectors_path, name, text):
    if text is None:
        with open(fixture_vectors_path, encoding="utf-8") as fh:
            text = fh.read()
    assert_agree(tmp_path / "vectors.txt", text.encode("utf-8"))


def test_non_utf8_files_agree(tmp_path):
    for data in (b"\xff" + line("a", []).encode(), line("a", []).encode() + b"\n\xe9 1\n"):
        assert assert_agree(tmp_path / "vectors.txt", data) is None


def test_plain_lines_stay_text_until_looked_up(tmp_path, fixture_vectors_path):
    """The fixture store's lines are all plain decimals: none is converted
    at load, and a lookup converts only its own word, once."""
    store = load_vector_store(fixture_vectors_path)
    kept = store._vectors
    assert kept and all(isinstance(value, str) for value in kept.values())
    word = next(iter(kept))
    first = store.lookup(word.upper())
    assert isinstance(kept[word], np.ndarray) and store.lookup(word) is first
    assert sum(isinstance(value, str) for value in kept.values()) == len(kept) - 1


def test_plain_decimals_read_finite_below_the_bound():
    """The largest and smallest values the form admits are finite, so a
    plain line needs no finiteness check."""
    cells = ["9" * 20 + "." + "9" * 20 + "e99", "-" + "9" * 20 + "e+99", "0." + "0" * 19 + "1e-99"]
    assert all(_PLAIN_LINE.fullmatch(line("w", [cell])) for cell in cells)
    values = np.array(cells, dtype=np.float64)
    assert np.isfinite(values).all() and np.abs(values).max() < 1e120
    assert not _PLAIN_LINE.fullmatch(line("w", ["1" * 21]))
    assert not _PLAIN_LINE.fullmatch(line("w", ["1e100"]))


_CELLS = st.sampled_from(_BOUNDARY_CELLS + ["0.5", "-1.25", "3", "1e-7", "2.5E+3"])
_CHARS = st.sampled_from(list("0123456789.-+eE \t\r\n٣_x"))


@st.composite
def stores(draw):
    """A few lines of shortest-repr decimals with repeated or case-changed
    words, then cells replaced, then characters inserted, deleted or
    replaced anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = draw(st.lists(st.sampled_from(["a", "B", "b", "word", "W0rd", "-1"]),
                          min_size=1, max_size=4))
    lines = [repr_line(rng, w, draw(st.sampled_from([1.0, 1e-5, 1e25]))) for w in words]
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        cells = lines[at].split(" ")
        cells[draw(st.integers(1, WORD_DIM))] = draw(_CELLS)
        lines[at] = " ".join(cells)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n\n"]))
    return draw(edited(text))


@st.composite
def edited(draw, text: str):
    """The text with up to two characters inserted, deleted or replaced."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        offset = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            text = text[:offset] + "".join(draw(st.lists(_CHARS, min_size=1, max_size=3))) + text[offset:]
        elif kind == "delete":
            text = text[:offset] + text[offset + draw(st.integers(1, 3)) :]
        else:
            text = text[:offset] + draw(_CHARS) + text[offset + 1 :]
    return text


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("agree")


@settings(max_examples=300, deadline=None)
@given(stores())
def test_random_stores_agree(folder, text):
    assert_agree(folder / "vectors.txt", text.encode("utf-8"))



def _digits(most: int):
    return st.text("0123456789", max_size=most)


# Decimals on both sides of each bound of the form: digits before and after
# the point (20), exponent digits (2), signs.
_DECIMAL_CELLS = st.tuples(
    st.sampled_from(["", "", "-", "+"]),
    _digits(21),
    st.one_of(st.just(""), _digits(21).map(lambda d: "." + d)),
    st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), st.sampled_from(["", "-", "+"]),
                                     _digits(3)).map("".join)),
).map("".join)


@st.composite
def plain_line_candidates(draw):
    """A line of a `stores()` file, or a word and 99 to 101 cells of which up
    to four are boundary cells or decimals near the bounds; then characters
    edited."""
    if draw(st.booleans()):
        return draw(st.sampled_from(re.split(r"\r\n|\r|\n", draw(stores()))))
    count = draw(st.sampled_from([WORD_DIM - 1, WORD_DIM, WORD_DIM, WORD_DIM + 1]))
    cells = ["0.5"] * count
    for _ in range(draw(st.integers(0, 4))):
        cells[draw(st.integers(0, count - 1))] = draw(st.one_of(_CELLS, _DECIMAL_CELLS))
    word = draw(st.sampled_from(["w", "W0rd", "-1", "café", ""]))
    return draw(edited(word + " " + " ".join(cells)))


@settings(max_examples=1000, deadline=None)
@given(plain_line_candidates())
def test_plain_line_accepts_the_reference_language(text):
    """`_PLAIN_LINE`'s empty alternatives accept exactly the lines that the
    reference spelling with `?` accepts."""
    assert bool(_PLAIN_LINE.fullmatch(text)) == bool(reference.PLAIN_LINE.fullmatch(text))


@pytest.mark.parametrize("at", [0, 50, WORD_DIM - 1])
def test_plain_line_agrees_on_the_boundary_cells(at):
    for cell in _BOUNDARY_CELLS:
        text = cell_line(cell, at).rstrip("\n")
        assert bool(_PLAIN_LINE.fullmatch(text)) == bool(reference.PLAIN_LINE.fullmatch(text)), cell
