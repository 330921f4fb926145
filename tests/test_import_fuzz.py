"""Damaged Calliope exports through `import`.

Each mutation of the sample export must either convert (exit 0, empty
stderr) or exit 1 or 2 with exactly one `error:` line. No exception may
escape `main`: from the console script that would be a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_corpus_fuzz import _BYTES, _VALUES, _at, _paths

from chartembed.cli import main


@pytest.fixture(scope="module")
def source(data_dir):
    return json.loads((data_dir / "calliope_sample.json").read_text(encoding="utf-8"))


def check_contract(folder, data: bytes):
    """Run import on the export `data`; return its exit code and stderr."""
    export = folder / "export.json"
    export.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["import", str(export), str(folder / "corpus.json")])
    if code == 0:
        assert err.getvalue() == "", err.getvalue()
    else:
        assert code in (1, 2), code
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code, err.getvalue()


def dumped(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def edited(edit):
    """A mutation that applies `edit` to a copy of the export object."""
    def mutate(obj):
        obj = copy.deepcopy(obj)
        result = edit(obj)
        return dumped(obj if result is None else result)
    return mutate


def fact(obj, story=0, pos=1):
    return obj["stories"][story]["facts"][pos]


def same_chart_id(obj, facts) -> None:
    for story, pos in facts:
        fact(obj, story, pos)["chart_id"] = "same"


def replace_text(old: bytes, new: bytes):
    def mutate(obj):
        data = dumped(obj)
        assert old in data
        return data.replace(old, new, 1)
    return mutate


# (name, mutation of the export object, exit code, a phrase of the error)
_TABLE = [
    ("empty file", lambda o: b"", 1, "invalid JSON at line 1"),
    ("cut mid-file", lambda o: dumped(o)[: len(dumped(o)) // 2], 1, "invalid JSON"),
    ("cut before the last brace", lambda o: dumped(o)[:-1], 1, "invalid JSON"),
    ("byte flip in a key", replace_text(b'"fact_type"', b'"fact_typE"'), 1,
     "stories[0].facts[0].type_f: unknown value ''"),
    ("byte flip to a brace", replace_text(b'":', b'"{'), 1, "invalid JSON"),
    ("byte flip in a chart type", replace_text(b'"line chart"', b'"line chert"'), 1,
     "stories[0].facts[0].type_c: unknown value 'line chert'"),
    ("non-UTF-8 byte", replace_text(b'"Norway"', b'"N\xffrway"'), 1, "not a UTF-8 text file"),
    ("top level a list", lambda o: dumped([o]), 1, "expected a top-level object with a 'stories' list"),
    ("no stories key", edited(lambda o: {"story": o["stories"]}), 1, "'stories' list"),
    ("stories an object", edited(lambda o: {"stories": {}}), 1, "stories: expected a list"),
    ("story a list", edited(lambda o: o["stories"].__setitem__(1, [])), 1,
     "stories[1]: expected an object"),
    ("facts a string", edited(lambda o: o["stories"][0].__setitem__("facts", "f")), 1,
     "stories[0].facts: expected a list"),
    ("fact a number", edited(lambda o: o["stories"][0]["facts"].__setitem__(1, 7)), 1,
     "stories[0].facts[1]: expected an object"),
    ("subspace an object", edited(lambda o: fact(o).__setitem__("subspace", {})), 1,
     "stories[0].facts[1].subspace: expected a list"),
    ("filter a string", edited(lambda o: fact(o)["subspace"].__setitem__(0, "Norway")), 1,
     "stories[0].facts[1].subspace[0]: expected an object"),
    ("breakdown a number", edited(lambda o: fact(o).__setitem__("breakdown", 5)), 1,
     "stories[0].facts[1].breakdown: expected an object"),
    ("measure a list of lists", edited(lambda o: fact(o).__setitem__("measure", [[1]])), 1,
     "stories[0].facts[1].measure[0]: expected an object"),
    ("aggregate a list", edited(lambda o: fact(o)["measure"][0].__setitem__("aggregate", ["sum"])), 1,
     "unknown aggregation"),
    ("field type a number", edited(lambda o: fact(o)["breakdown"][0].__setitem__("type", 3)), 1,
     "stories[0].facts[1]: unknown field type 3"),
    ("breakdown without a field", edited(lambda o: fact(o)["breakdown"][0].__delitem__("field")), 1,
     "stories[0].facts[1]: invalid fact (breakdown.name: breakdown field name is empty)"),
    ("story id a number", edited(lambda o: o["stories"][0].__setitem__("story_id", 5)), 0, ""),
    ("chart id a number", edited(lambda o: fact(o).__setitem__("chart_id", 5)), 1,
     "stories[0].facts[1]: chart_id must be a non-empty string"),
    ("chart id a list", edited(lambda o: fact(o).__setitem__("chart_id", ["a"])), 1,
     "stories[0].facts[1]: chart_id must be a non-empty string"),
    ("NaN chart type", edited(lambda o: fact(o).__setitem__("chart", float("nan"))), 1,
     "stories[0].facts[1].type_c: unknown value 'nan'"),
    ("NaN trend meta", edited(lambda o: fact(o, 0, 0).__setitem__("meta", float("nan"))), 1,
     "stories[0].facts[0].meta.direction: unknown value 'nan'"),
    ("Infinity category count", edited(lambda o: fact(o).update(fact_type="categorization", meta=float("inf"))),
     1, "stories[0].facts[1].meta: expected a category count, got inf"),
    ("-Infinity filter value",
     edited(lambda o: fact(o)["subspace"][0].__setitem__("value", float("-inf"))), 0, ""),
    ("duplicate story id",
     edited(lambda o: o["stories"][1].__setitem__("story_id", o["stories"][0]["story_id"])), 1,
     "duplicate visualization id"),
    ("duplicate fact id in a story",
     edited(lambda o: same_chart_id(o, [(0, 0), (0, 1)])), 1,
     "stories[0].facts[1]: duplicate chart id 'same'"),
    ("duplicate fact id across stories",
     edited(lambda o: same_chart_id(o, [(0, 0), (1, 0)])), 1,
     "chart ids must be globally unique"),
    ("story id with a tab", edited(lambda o: o["stories"][0].__setitem__("story_id", "a\tb")), 1,
     "stories[0].story_id: 'a\\tb' contains a tab"),
    ("deeply nested JSON", lambda o: b"[" * 100_000 + b"]" * 100_000, 1, "nested too deeply"),
]


@pytest.mark.parametrize("name, mutate, code, phrase", _TABLE, ids=[case[0] for case in _TABLE])
def test_export_mutations(tmp_path, source, name, mutate, code, phrase):
    got, err = check_contract(tmp_path, mutate(source))
    assert got == code, err
    assert phrase in err, err


def test_the_sample_converts(tmp_path, source):
    assert check_contract(tmp_path, dumped(source)) == (0, "")


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_export_mutations_keep_the_exit_contract(tmp_path_factory, source, data):
    check_contract(tmp_path_factory.mktemp("import"), data.draw(mutations(source)))
