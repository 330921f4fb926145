"""Damaged checkpoints through `embed`.

A checkpoint is the magic, a 4-byte header length, the JSON header, an
8-byte value count and the float64 payload. Each mutation of a valid one
must either run (exit 0, empty stderr) or exit 1 or 2 with exactly one
`error:` line. No exception may escape `main`: from the console script that
would be a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartembed.cli import main
from chartembed.corpus import Corpus, load_corpus, save_corpus
from chartembed.encoder import CHECKPOINT_MAGIC, CheckpointError, load_checkpoint

MAGIC = len(CHECKPOINT_MAGIC)


@pytest.fixture(scope="module")
def setup(tmp_path_factory, fixture_corpus_path, fixture_vectors_path):
    """(directory, checkpoint bytes): the untrained checkpoint that `train
    --epochs 0` writes for a four-visualization corpus, which the directory
    holds."""
    folder = tmp_path_factory.mktemp("checkpoint-fuzz")
    save_corpus(Corpus(load_corpus(fixture_corpus_path).visualizations[:4]), str(folder / "corpus.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(folder / "corpus.json"), fixture_vectors_path,
                     str(folder / "model.ckpt"), "--epochs", "0", "--test-fraction", "0"]) == 0
    return folder, (folder / "model.ckpt").read_bytes()


def check_contract(folder, vectors: str, data: bytes):
    """Run embed with the checkpoint `data`; return its exit code and
    standard error."""
    checkpoint = folder / "mutated.ckpt"
    checkpoint.write_bytes(data)
    argv = ["embed", str(checkpoint), str(folder / "corpus.json"), str(folder / "index.tsv"),
            "--vectors", vectors]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == "", err.getvalue()
    else:
        assert code in (1, 2), code
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code, err.getvalue()


def header_end(data: bytes) -> int:
    (length,) = struct.unpack("<I", data[MAGIC : MAGIC + 4])
    return MAGIC + 4 + length


def with_header(data: bytes, edit) -> bytes:
    """The checkpoint with its header replaced by `edit(header)`, bytes or
    a JSON object, and the header length to match."""
    end = header_end(data)
    header = edit(json.loads(data[MAGIC + 4 : end]))
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return data[:MAGIC] + struct.pack("<I", len(header)) + header + data[end:]


def with_config(key, value):
    def edit(header):
        header["config"][key] = value
        return header
    return lambda d: with_header(d, edit)


def with_value(index: int, value: float):
    def mutate(data: bytes) -> bytes:
        start = header_end(data) + 8
        at = start + 8 * (index % ((len(data) - start) // 8))
        return data[:at] + struct.pack("<d", value) + data[at + 8 :]
    return mutate


def with_count(delta: int):
    def mutate(data: bytes) -> bytes:
        end = header_end(data)
        (count,) = struct.unpack("<Q", data[end : end + 8])
        return data[:end] + struct.pack("<Q", (count + delta) % 2**64) + data[end + 8 :]
    return mutate


def with_length(length: int):
    return lambda d: d[:MAGIC] + struct.pack("<I", length) + d[MAGIC + 4 :]


def ends_inside(part: str) -> str:
    return f"error: truncated checkpoint: the file ends inside the {part}"


# (name, mutation, a phrase of the error); embed exits 1.
_TABLE = [
    ("empty file", lambda d: b"", ends_inside("magic")),
    ("cut inside the magic", lambda d: d[:2], ends_inside("magic")),
    ("cut inside the header length", lambda d: d[: MAGIC + 2], ends_inside("header length")),
    ("cut inside the header", lambda d: d[: header_end(d) - 5], ends_inside("header")),
    ("cut inside the value count", lambda d: d[: header_end(d) + 3], ends_inside("value count")),
    ("cut inside the payload", lambda d: d[: len(d) // 2], ends_inside("payload")),
    ("cut one byte short", lambda d: d[:-1], ends_inside("payload")),
    ("magic flipped", lambda d: b"C2V3" + d[MAGIC:], "expected magic b'C2V2', found b'C2V3'"),
    ("magic lower case", lambda d: d[:MAGIC].lower() + d[MAGIC:], "found b'c2v2'"),
    ("magic zeroed", lambda d: bytes(MAGIC) + d[MAGIC:], "expected magic"),
    ("header length too long", with_length(2**32 - 1), ends_inside("header")),
    ("header length too short", lambda d: with_length(header_end(d) - MAGIC - 4 - 1)(d),
     "corrupt checkpoint header"),
    ("header length zero", with_length(0), "corrupt checkpoint header"),
    ("header brace flipped", lambda d: d[: MAGIC + 4] + b"[" + d[MAGIC + 5 :],
     "corrupt checkpoint header"),
    ("header byte not UTF-8", lambda d: d[: MAGIC + 6] + b"\xff" + d[MAGIC + 7 :],
     "corrupt checkpoint header"),
    ("header key flipped", lambda d: d.replace(b'"format_version"', b'"format_versioN"', 1),
     "checkpoint version mismatch: format None"),
    ("header a list", lambda d: with_header(d, lambda h: [h]), "version mismatch: format None"),
    ("header deeply nested", lambda d: with_header(d, lambda h: b"[" * 100_000 + b"]" * 100_000),
     "corrupt checkpoint header: nested too deeply"),
    ("header integer past the digit limit",
     lambda d: with_header(d, lambda h: json.dumps(h).replace('"format_version": 2',
                                                             '"format_version": ' + "2" * 5000).encode()),
     "corrupt checkpoint header: Exceeds the limit"),
    ("format version a string", lambda d: with_header(d, lambda h: {**h, "format_version": "2"}),
     "format '2'"),
    ("config missing", lambda d: with_header(d, lambda h: {**h, "config": None}),
     "invalid config block: expected an object"),
    ("config a list", lambda d: with_header(d, lambda h: {**h, "config": list(h["config"])}),
     "invalid config block: expected an object"),
    ("dropout a string", with_config("dropout", "0.1"), 'dropout: expected a number, got "0.1"'),
    ("dropout NaN", with_config("dropout", float("nan")), "dropout: expected a finite number, got nan"),
    ("dropout infinite", with_config("dropout", float("inf")), "dropout: expected a finite number, got inf"),
    ("dropout out of range", with_config("dropout", 1.5), "dropout: must be in [0, 1), got 1.5"),
    ("dropout past the float range", with_config("dropout", 10**400),
     "dropout: expected a finite number, got 1000"),
    ("semantic mode a number", with_config("semantic_mode", 3),
     "semantic_mode: expected a string, got 3"),
    ("semantic mode a list", with_config("semantic_mode", ["none"]),
     'semantic_mode: expected a string, got ["none"]'),
    ("switch a string", with_config("use_fc", "true"), 'use_fc: expected true or false, got "true"'),
    ("switch a number", with_config("zero_schema", 0), "zero_schema: expected true or false, got 0"),
    ("switch null", with_config("use_locations", None),
     "use_locations: expected true or false, got null"),
    ("kernel size a float", with_config("kernel_size", 3.0), "kernel_size must be 3, got 3.0"),
    ("output dim NaN", with_config("output_dim", float("nan")), "output_dim must be 540, got NaN"),
    ("value count one more", with_count(1), "checkpoint shape mismatch"),
    ("value count wrapped", with_count(2**63), "checkpoint shape mismatch"),
    ("NaN payload value", with_value(0, float("nan")), "non-finite value in conv1.weight"),
    ("infinite payload value", with_value(-1, float("inf")), "non-finite value in conv3.running_var"),
    ("negative infinite payload value", with_value(1000, float("-inf")), "non-finite value"),
    ("one trailing byte", lambda d: d + b"\0", "bytes follow the payload"),
    ("one trailing value", lambda d: d + struct.pack("<d", 1.0), "bytes follow the payload"),
]


@pytest.mark.parametrize("name, mutate, phrase", _TABLE, ids=[case[0] for case in _TABLE])
def test_checkpoint_mutations(setup, fixture_vectors_path, name, mutate, phrase):
    folder, data = setup
    code, err = check_contract(folder, fixture_vectors_path, mutate(data))
    assert code == 1 and phrase in err, err


@pytest.mark.parametrize("name, mutate", [
    ("extras a number", lambda d: with_header(d, lambda h: {**h, "extras": 5})),
    ("extras absent", lambda d: with_header(d, lambda h: {k: v for k, v in h.items() if k != "extras"})),
    ("header with spaces", lambda d: with_header(d, lambda h: json.dumps(h, indent=2).encode())),
    ("other dropout", with_config("dropout", 0)),
    ("payload value changed", with_value(7, 0.5)),
])
def test_checkpoints_that_load(setup, fixture_vectors_path, name, mutate):
    folder, data = setup
    assert check_contract(folder, fixture_vectors_path, mutate(data)) == (0, "")


def test_a_huge_header_length_reads_no_more_than_the_file(setup, fixture_vectors_path):
    """A header length of 4 GiB is found truncated without asking for the
    memory: under a 2 GiB address-space limit, `embed` still exits 1 with
    one line instead of a MemoryError traceback."""
    resource = pytest.importorskip("resource")
    folder, data = setup
    checkpoint = folder / "huge-header.ckpt"
    checkpoint.write_bytes(with_length(2**32 - 1)(data))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "chartembed.cli", "embed", str(checkpoint),
         str(folder / "corpus.json"), str(folder / "index.tsv"), "--vectors", fixture_vectors_path],
        preexec_fn=limit, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == [ends_inside("header")]


def load_outcome(path: str):
    """The parameter bytes and config that load_checkpoint reads, or its error."""
    try:
        params, config = load_checkpoint(path)
    except CheckpointError as exc:
        return str(exc)
    return params.values.dtype, params.values.tobytes(), config


# (name, mutation, a phrase of the error or None)
_PIPE_CASES = [
    ("valid", lambda d: d, None),
    ("cut inside the payload", lambda d: d[: len(d) // 2], "ends inside the payload"),
    ("cut one byte short", lambda d: d[:-1], "ends inside the payload"),
    ("one trailing byte", lambda d: d + b"\0", "bytes follow the payload"),
    ("NaN payload value", with_value(0, float("nan")), "non-finite value in conv1.weight"),
]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("name, mutate, phrase", _PIPE_CASES, ids=[case[0] for case in _PIPE_CASES])
def test_a_pipe_loads_like_a_file(setup, tmp_path, name, mutate, phrase):
    """The payload arrives from a pipe in pieces; load_checkpoint reads the
    same values, or raises the same error, as from a file."""
    data = mutate(setup[1])
    (tmp_path / "model.ckpt").write_bytes(data)
    expected = load_outcome(str(tmp_path / "model.ckpt"))
    if phrase is None:
        assert not isinstance(expected, str), expected
    else:
        assert phrase in expected
    fifo = tmp_path / "pipe.ckpt"
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        got = load_outcome(str(fifo))
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert got == expected


_BYTES = st.sampled_from(b'{}[]",:\\ \x00\x7f\xf0\xff-e9') | st.integers(0, 255)


@st.composite
def mutations(draw, data: bytes):
    """One of: a cut, a byte flip or an inserted run of bytes, aimed at the
    magic, the header length, the header, the value count or the payload;
    an exponent of the payload set to all ones (an infinity or a NaN); or
    bytes appended."""
    end = header_end(data)
    kind = draw(st.sampled_from(["cut", "flip", "insert", "non-finite", "append"]))
    if kind == "non-finite":
        at = end + 8 + 8 * draw(st.integers(0, (len(data) - end - 8) // 8 - 1))
        value = np.frombuffer(data[at : at + 8], "<u8")[0] | np.uint64(0x7FF0 << 48)
        return data[:at] + value.tobytes() + data[at + 8 :]
    if kind == "append":
        return data + bytes(draw(st.lists(_BYTES, min_size=1, max_size=9)))
    offset = draw(st.integers(0, end + 16) | st.integers(0, len(data) - 1))
    if kind == "cut":
        return data[:offset]
    if kind == "flip":
        return data[:offset] + bytes([draw(_BYTES)]) + data[offset + 1 :]
    return data[:offset] + bytes(draw(st.lists(_BYTES, min_size=1, max_size=4))) + data[offset:]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_checkpoint_mutations_keep_the_exit_contract(setup, fixture_vectors_path, data):
    folder, checkpoint = setup
    check_contract(folder, fixture_vectors_path, data.draw(mutations(checkpoint)))
