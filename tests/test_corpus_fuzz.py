"""Damaged corpus files through `train` and `embed`.

Each mutation of a valid corpus must either run (exit 0, empty stderr) or
exit 1 or 2 with exactly one `error:` line. No exception may escape `main`:
from the console script that would be a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartembed.cli import main
from chartembed.corpus import Corpus, corpus_to_dict, load_corpus


@pytest.fixture(scope="module")
def setup(tmp_path_factory, fixture_corpus_path, fixture_vectors_path):
    """(directory, corpus object): the directory holds the untrained
    checkpoint that `train --epochs 0` writes for the four-visualization
    corpus, in two datasets."""
    folder = tmp_path_factory.mktemp("corpus-fuzz")
    obj = corpus_to_dict(Corpus(load_corpus(fixture_corpus_path).visualizations[:4]))
    (folder / "corpus.json").write_text(json.dumps(obj), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(folder / "corpus.json"), fixture_vectors_path,
                     str(folder / "model.ckpt"), "--epochs", "0", "--test-fraction", "0"]) == 0
    return folder, obj


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_contract(folder, vectors: str, data: bytes):
    """Run train and embed on the corpus `data`; return their exit codes and
    standard errors."""
    corpus = folder / "mutated.json"
    corpus.write_bytes(data)
    results = []
    for argv in (
        ["train", str(corpus), vectors, str(folder / "out.ckpt"), "--epochs", "0",
         "--test-fraction", "0"],
        ["embed", str(folder / "model.ckpt"), str(corpus), str(folder / "index.tsv"),
         "--vectors", vectors],
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


def dumped(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def edited(edit):
    """A mutation that applies `edit` to a copy of the corpus object."""
    def mutate(obj):
        obj = copy.deepcopy(obj)
        result = edit(obj)
        return dumped(obj if result is None else result)
    return mutate


def chart(obj, vis=0, pos=1):
    return obj["visualizations"][vis]["charts"][pos]


def replace_text(old: bytes, new: bytes):
    def mutate(obj):
        data = dumped(obj)
        assert old in data
        return data.replace(old, new, 1)
    return mutate


# (name, mutation of the corpus object, a phrase of the error); train and
# embed both exit 1.
_TABLE = [
    ("empty file", lambda o: b"", "invalid JSON at line 1"),
    ("cut mid-file", lambda o: dumped(o)[: len(dumped(o)) // 2], "invalid JSON"),
    ("cut before the last brace", lambda o: dumped(o)[:-1], "invalid JSON"),
    ("byte flip in a key", replace_text(b'"chart_id"', b'"chart_iD"'),
     "visualizations[0].charts[0]: expected exactly 'chart_id' and 'fact'"),
    ("byte flip to a brace", replace_text(b'":', b'"{'), "invalid JSON"),
    ("byte flip in an enum value", replace_text(b'"trend"', b'"trenD"'),
     "fact.type_f: unknown value 'trenD'"),
    ("non-UTF-8 byte", replace_text(b'"Zone"', b'"Z\xffne"'), "not a UTF-8 text file"),
    ("UTF-8 byte-order mark", lambda o: b"\xef\xbb\xbf" + dumped(o), "invalid JSON"),
    ("top level a list", lambda o: dumped([o]), "corpus must be an object"),
    ("visualizations an object", edited(lambda o: {"visualizations": {}}),
     "visualizations: expected a list"),
    ("visualization a list", edited(lambda o: o["visualizations"].__setitem__(1, [])),
     "visualizations[1]: expected an object"),
    ("visualization key unknown", edited(lambda o: o["visualizations"][0].__setitem__("title", "x")),
     "visualizations[0]: unknown keys ['title']"),
    ("visualization key missing", edited(lambda o: o["visualizations"][1].__delitem__("domain")),
     "visualizations[1]: missing keys ['domain']"),
    ("id null", edited(lambda o: o["visualizations"][0].__setitem__("id", None)),
     "visualizations[0].id: expected a string"),
    ("dataset id a number", edited(lambda o: o["visualizations"][2].__setitem__("dataset_id", 7)),
     "visualizations[2].dataset_id: expected a string"),
    ("charts a string", edited(lambda o: o["visualizations"][0].__setitem__("charts", "c0")),
     "visualizations[0].charts: expected a list"),
    ("chart id a number", edited(lambda o: chart(o).__setitem__("chart_id", 3)),
     "visualizations[0].charts[1]: chart_id must be a non-empty string"),
    ("fact a list", edited(lambda o: chart(o).__setitem__("fact", [])), "fact: expected an object"),
    ("subspace an object", edited(lambda o: chart(o)["fact"].__setitem__("subspace", {})),
     "fact.subspace: expected a list"),
    ("field a number", edited(lambda o: chart(o)["fact"]["measure"].__setitem__("field", 5)),
     "fact.measure.field: expected a string, got int"),
    ("meta count a string", edited(lambda o: chart(o, 0, 4)["fact"]["meta"].__setitem__("count", "3")),
     "fact.meta.count: expected an integer"),
    ("NaN chart type", edited(lambda o: chart(o)["fact"].__setitem__("type_c", float("nan"))),
     "fact.type_c: unknown value nan"),
    ("NaN meta count", edited(lambda o: chart(o, 0, 4)["fact"]["meta"].__setitem__("count", float("nan"))),
     "fact.meta.count: expected an integer"),
    ("Infinity focus value",
     edited(lambda o: chart(o)["fact"]["focus"].__setitem__("value", float("inf"))),
     "fact.focus.value: expected a string, got float"),
    ("-Infinity filter value",
     edited(lambda o: chart(o)["fact"]["subspace"][0].__setitem__("value", float("-inf"))),
     "fact.subspace[0].value: expected a string, got float"),
    ("duplicate chart id in a visualization",
     edited(lambda o: chart(o, 0, 2).__setitem__("chart_id", chart(o, 0, 1)["chart_id"])),
     "visualizations[0].charts[2]: duplicate chart id"),
    ("duplicate chart id across visualizations",
     edited(lambda o: chart(o, 1, 0).__setitem__("chart_id", chart(o, 0, 0)["chart_id"])),
     "chart ids must be globally unique"),
    ("duplicate visualization id",
     edited(lambda o: o["visualizations"][1].__setitem__("id", o["visualizations"][0]["id"])),
     "duplicate visualization id"),
    ("deeply nested JSON", lambda o: b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
]


@pytest.mark.parametrize("name, mutate, phrase", _TABLE, ids=[case[0] for case in _TABLE])
def test_corpus_mutations(setup, fixture_vectors_path, name, mutate, phrase):
    folder, obj = setup
    results = check_contract(folder, fixture_vectors_path, mutate(obj))
    assert [code for code, _ in results] == [1, 1]
    assert all(phrase in err for _, err in results), results


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_an_integer_past_the_digit_limit_names_the_file(setup, fixture_vectors_path):
    folder, obj = setup
    data = edited(lambda o: chart(o, 0, 4)["fact"]["meta"].__setitem__("count", 7))(obj)
    data = data.replace(b'"count": 7', b'"count": ' + b"1" * 5000, 1)
    results = check_contract(folder, fixture_vectors_path, data)
    assert [code for code, _ in results] == [1, 1]
    assert all(f"error: {folder / 'mutated.json'}: invalid JSON: Exceeds the limit" in err
               for _, err in results), results


@pytest.mark.parametrize("name, mutate", [
    ("indented", lambda o: json.dumps(o, indent=2).encode()),
    ("CRLF line ends", lambda o: json.dumps(o, indent=1).replace("\n", "\r\n").encode()),
    ("ASCII escapes", lambda o: json.dumps(o, ensure_ascii=True).encode()),
    ("visualizations reordered", edited(lambda o: o["visualizations"].reverse())),
])
def test_corpus_files_that_load(setup, fixture_vectors_path, name, mutate):
    folder, obj = setup
    assert [code for code, _ in check_contract(folder, fixture_vectors_path, mutate(obj))] == [0, 0]


_VALUES = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), None, True, False, 0, -1, 2.5, 10**30, "", "x",
    "\t", "trend", [], {}, [1], {"kind": "none"},
])
_BYTES = st.sampled_from(b'{}[]",:\\ \xff\xc3-+.e9') | st.integers(0, 255)


def _paths(node, path=()):
    """Every (container path, key) of a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from _paths(child, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutations(draw, obj: dict):
    """One of: a cut, a byte flip or an inserted run of bytes; a value
    replaced by another JSON value, NaN or an infinity; a key deleted; or a
    list element repeated, which repeats its ids."""
    kind = draw(st.sampled_from(["cut", "flip", "insert", "value", "delete", "repeat"]))
    if kind in ("cut", "flip", "insert"):
        data = dumped(obj)
        offset = draw(st.integers(0, len(data) - 1))
        if kind == "cut":
            return data[:offset]
        if kind == "flip":
            return data[:offset] + bytes([draw(_BYTES)]) + data[offset + 1 :]
        return data[:offset] + bytes(draw(st.lists(_BYTES, min_size=1, max_size=4))) + data[offset:]
    obj = copy.deepcopy(obj)
    path, key = draw(st.sampled_from(list(_paths(obj))))
    parent = _at(obj, path)
    if kind == "value":
        parent[key] = draw(_VALUES)
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key], parent[key]]
    return dumped(obj)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_corpus_mutations_keep_the_exit_contract(setup, fixture_vectors_path, data):
    folder, obj = setup
    check_contract(folder, fixture_vectors_path, data.draw(mutations(obj)))
