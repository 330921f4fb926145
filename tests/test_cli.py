from __future__ import annotations

import json
import logging
import os
import platform
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import chartembed
from chartembed.cli import main
from chartembed.corpus import CorpusError, load_corpus
from chartembed.encoder import (
    OUTPUT_DIM,
    CheckpointError,
    EncoderConfig,
    _read_header,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from chartembed.evaluation import load_index


def checkpoint_extras(path):
    """The extras block (training hyperparameters) of a checkpoint's header."""
    with open(path, "rb") as fh:
        return _read_header(fh).get("extras")


@pytest.fixture(scope="module")
def trained(tmp_path_factory, fixture_corpus_path, fixture_vectors_path):
    """One short training run shared by the CLI tests that need a model."""
    out = tmp_path_factory.mktemp("cli") / "model.ckpt"
    code = main(
        [
            "train", fixture_corpus_path, fixture_vectors_path, str(out),
            "--epochs", "2", "--seed", "3", "--test-fraction", "0",
        ]
    )
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def index_path(trained, tmp_path_factory, fixture_corpus_path, fixture_vectors_path):
    out = tmp_path_factory.mktemp("cli-index") / "index.tsv"
    code = main(
        ["embed", trained, fixture_corpus_path, str(out), "--vectors", fixture_vectors_path]
    )
    assert code == 0
    return str(out)


def test_validate_ok(fixture_corpus_path, capsys):
    assert main(["validate", fixture_corpus_path]) == 0
    assert "10 visualizations" in capsys.readouterr().out


def test_validate_two_chart_story(tmp_path, capsys):
    bad = {
        "visualizations": [
            {
                "id": "v0",
                "dataset_id": "d",
                "domain": "economy",
                "kind": "data-story",
                "charts": [
                    {
                        "chart_id": f"c{i}",
                        "fact": {
                            "type_c": "table", "type_f": "value", "subspace": [],
                            "breakdown": None, "measure": None, "focus": None,
                            "meta": None,
                        },
                    }
                    for i in range(2)
                ],
            }
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "minimum chart number" in capsys.readouterr().err


def _vis(**overrides):
    vis = {"id": "v0", "dataset_id": "d", "domain": "economy", "kind": "data-story",
           "charts": []}
    vis.update(overrides)
    return vis


@pytest.mark.parametrize(
    "corpus,message",
    [
        ({"visualizations": 5}, "visualizations: expected a list"),
        ({"visualizations": "abc"}, "visualizations: expected a list"),
        ({"visualizations": ["x"]}, "visualizations[0]: expected an object"),
        ({"visualizations": [5]}, "visualizations[0]: expected an object"),
        ({"visualizations": [_vis(charts="abc")]}, "visualizations[0].charts: expected a list"),
        ({"visualizations": [_vis(charts={"c": 1})]}, "visualizations[0].charts: expected a list"),
        ({"visualizations": [_vis(charts=[5])]}, "visualizations[0].charts[0]: expected an object"),
        ({"visualizations": [_vis(charts=["c0"])]}, "visualizations[0].charts[0]: expected an object"),
        ({"visualizations": [_vis(id=["v0"])]}, "visualizations[0].id: expected a string"),
        ({"visualizations": [_vis(dataset_id=3)]}, "visualizations[0].dataset_id: expected a string"),
    ],
)
def test_validate_reports_json_type_errors(tmp_path, capsys, corpus, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"violation: {message}"]
    with pytest.raises(CorpusError, match=re.escape(message)):
        load_corpus(str(path))


def _chart(chart_id):
    fact = {"type_c": "table", "type_f": "value", "subspace": [], "breakdown": None,
            "measure": None, "focus": None, "meta": None}
    return {"chart_id": chart_id, "fact": fact}


@pytest.mark.parametrize("char", ["\t", "\r", "\n"])
@pytest.mark.parametrize("field", ["id", "dataset_id", "chart_id"])
def test_ids_that_would_split_an_index_line_are_rejected(
    tmp_path, capsys, fixture_vectors_path, field, char
):
    # Each id is one cell of the index TSV that `embed` writes.
    bad = f"bad{char}id"
    vis = _vis(charts=[_chart(f"c{i}") for i in range(3)])
    if field == "chart_id":
        vis["charts"][1]["chart_id"] = bad
        where = "visualizations[0].charts[1].chart_id"
    else:
        vis[field] = bad
        where = f"visualizations[0].{field}"
    message = f"{where}: {bad!r} contains a tab, CR or LF"
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"visualizations": [vis]}), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        load_corpus(str(path))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"violation: {message}"]
    assert main(["train", str(path), fixture_vectors_path, str(tmp_path / "m.ckpt")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/corpus.json"]) == 2


def test_train_outputs(trained):
    params, config = load_checkpoint(trained)
    assert config.embedding_dim == OUTPUT_DIM == 540
    extras = checkpoint_extras(trained)
    assert extras["epochs"] == 2 and extras["seed"] == 3
    with open(trained + ".history.csv", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "epoch,interp_term,pair_term,l1,l2,total,wall_ms"
    assert len(lines) == 3
    with open(trained + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "train"
    assert set(manifest["inputs"]) == {"corpus", "vectors"}
    for block in manifest["inputs"].values():
        assert len(block["sha256"]) == 64


def test_train_manifest_records_environment(trained):
    with open(trained + ".manifest.json", encoding="utf-8") as fh:
        env = json.load(fh)["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["threads"] == {
        name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }


def test_train_zero_epochs_writes_initial_params(
    tmp_path, fixture_corpus_path, fixture_vectors_path
):
    out = tmp_path / "zero.ckpt"
    code = main(
        [
            "train", fixture_corpus_path, fixture_vectors_path, str(out),
            "--epochs", "0", "--seed", "11", "--test-fraction", "0",
        ]
    )
    assert code == 0
    params, config = load_checkpoint(str(out))
    assert config == EncoderConfig(dropout=0.1)
    assert np.array_equal(params.values, init_params(11, config).values)


def test_train_bad_vectors_path(tmp_path, fixture_corpus_path):
    out = tmp_path / "model.ckpt"
    code = main(["train", fixture_corpus_path, "/nonexistent/vectors.txt", str(out)])
    assert code == 2


def test_train_reproducible_checkpoints(
    tmp_path, fixture_corpus_path, fixture_vectors_path
):
    args = ["--epochs", "2", "--seed", "9", "--test-fraction", "0"]
    out_a = tmp_path / "a.ckpt"
    out_b = tmp_path / "b.ckpt"
    assert main(["train", fixture_corpus_path, fixture_vectors_path, str(out_a)] + args) == 0
    assert main(["train", fixture_corpus_path, fixture_vectors_path, str(out_b)] + args) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_split_writes_corpora(tmp_path, fixture_corpus_path, fixture_vectors_path):
    out = tmp_path / "model.ckpt"
    code = main(
        [
            "train", fixture_corpus_path, fixture_vectors_path, str(out),
            "--epochs", "1", "--test-fraction", "0.2",
        ]
    )
    assert code == 0
    train_corpus = load_corpus(str(out) + ".train-corpus.json")
    test_corpus = load_corpus(str(out) + ".test-corpus.json")
    assert len(train_corpus) + len(test_corpus) == 10
    assert not set(train_corpus.dataset_ids()) & set(test_corpus.dataset_ids())


def test_config_file_flags_win(tmp_path, fixture_corpus_path, fixture_vectors_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": 1, "seed": 21}), encoding="utf-8")
    out = tmp_path / "model.ckpt"
    code = main(
        [
            "train", fixture_corpus_path, fixture_vectors_path, str(out),
            "--config", str(config_path), "--seed", "22", "--test-fraction", "0",
        ]
    )
    assert code == 0
    extras = checkpoint_extras(str(out))
    assert extras["epochs"] == 1  # from the config file
    assert extras["seed"] == 22  # flag beats config file


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize(
    "config, flags, key, code",
    [
        ('{"epochs": true}', [], "epochs", 2),
        ('{"batch": 2.7}', [], "batch", 2),
        ('{"lr": "0.02"}', [], "lr", 2),
        ('{"learning_rate": 0.5}', [], "learning_rate", 2),
        ('{"seed": 1.9}', [], "seed", 2),
        ('{"test_fraction": "0"}', [], "test_fraction", 2),
        ('{"negatives": false}', [], "negatives", 2),
        ('{"policy": 3}', [], "policy", 2),
        ('{"dropout": null}', [], "dropout", 2),
        ('{"margin": Infinity}', [], "margin", 2),
        ('{"alpha": NaN}', [], "alpha", 2),
        (None, ["--lr", "inf"], "lr", 2),
        (None, ["--alpha", "nan"], "alpha", 2),
        (None, ["--beta=-inf"], "beta", 2),
        (None, ["--test-fraction", "1.5"], "test_fraction", 2),
    ],
)
def test_bad_hyperparameters_name_the_key(
    tmp_path, fixture_corpus_path, fixture_vectors_path, capsys, command, config, flags, key, code
):
    args = [command, fixture_corpus_path, fixture_vectors_path]
    if command == "train":
        args.append(str(tmp_path / "model.ckpt"))
    else:
        args += ["--variants", "full"]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        args += ["--config", str(path)]
    assert main(args + flags) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err


_RANGE_CASES = [
    (None, ["--batch", "0"], "batch"),
    ('{"batch": 0}', [], "batch"),
    (None, ["--negatives", "0"], "negatives"),
    ('{"negatives": 0}', [], "negatives"),
    (None, ["--test-fraction", "1.5"], "test_fraction"),
    ('{"test_fraction": 1.5}', [], "test_fraction"),
    ('{"test_fraction": -0.1}', [], "test_fraction"),
    ('{"epochs": -1}', [], "epochs"),
    (None, ["--seed", "-1"], "seed"),
    (None, ["--lr", "0"], "lr"),
    (None, ["--margin", "0"], "margin"),
    (None, ["--alpha", "-1"], "alpha"),
    ('{"beta": -0.5}', [], "beta"),
    (None, ["--dropout", "1"], "dropout"),
    ('{"policy": "nearest"}', [], "policy"),
]


@pytest.mark.parametrize(
    "command, config, flags, key",
    [
        (command, *case)
        for command in ("train", "ablate")
        for case in _RANGE_CASES
        if not (command == "ablate" and case[1][:1] == ["--negatives"])  # not an ablate flag
    ],
)
def test_out_of_range_options_exit_usage(
    tmp_path, fixture_corpus_path, fixture_vectors_path, capsys, command, config, flags, key
):
    args = [command, fixture_corpus_path, fixture_vectors_path]
    args += [str(tmp_path / "model.ckpt")] if command == "train" else ["--variants", "full"]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        args += ["--config", str(path)]
    assert main(args + flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: must be "), err
    assert not (tmp_path / "model.ckpt").exists()


def test_embed_row_count(index_path, fixture_corpus):
    index = load_index(index_path)
    assert len(index) == fixture_corpus.chart_count
    with open(index_path, encoding="utf-8") as fh:
        header = fh.readline().split("\t")
    assert header[:4] == ["chart_id", "story_id", "position", "dataset_id"]
    assert len(header) == 4 + 540


def test_embed_byte_identical_reruns(
    tmp_path, trained, fixture_corpus_path, fixture_vectors_path
):
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    for out in (out_a, out_b):
        code = main(
            ["embed", trained, fixture_corpus_path, str(out), "--vectors", fixture_vectors_path]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_embed_empty_corpus(tmp_path, trained, fixture_vectors_path):
    corpus = tmp_path / "empty.json"
    corpus.write_text('{"visualizations": []}', encoding="utf-8")
    out = tmp_path / "index.tsv"
    code = main(
        ["embed", trained, str(corpus), str(out), "--vectors", fixture_vectors_path]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("chart_id\tstory_id")


def test_embed_manifest(index_path):
    with open(index_path + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "embed"


def test_embed_bad_vectors_dimension(tmp_path, trained, fixture_corpus_path):
    vectors = tmp_path / "short.txt"
    vectors.write_text("word 1.0 2.0 3.0\n", encoding="utf-8")
    out = tmp_path / "index.tsv"
    code = main(
        ["embed", trained, fixture_corpus_path, str(out), "--vectors", str(vectors)]
    )
    assert code == 1


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e400", "abc"])
def test_train_rejects_non_finite_word_vector(
    tmp_path, fixture_corpus_path, fixture_vectors_path, capsys, component
):
    problem = ("could not convert string to float: 'abc'" if component == "abc"
               else "non-finite component")
    # The first component of the first fixture word, which the corpus uses.
    lines = open(fixture_vectors_path, encoding="utf-8").read().splitlines()
    word, _, rest = lines[0].split(" ", 2)
    lines[0] = f"{word} {component} {rest}"
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "model.ckpt"
    assert main(["train", fixture_corpus_path, str(vectors), str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {vectors}:1: {problem}"]
    assert not out.exists()
    # The same damage on a later line that repeats the first word.
    lines[0] = f"{word} 0.5 {rest}"
    lines.append(f"{word.upper()} {component} {rest}")
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", fixture_corpus_path, str(vectors), str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {vectors}:{len(lines)}: {problem}"]
    assert not out.exists()


def test_embed_truncated_checkpoint(
    tmp_path, trained, fixture_corpus_path, fixture_vectors_path, capsys
):
    blob = open(trained, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    cuts = [
        ("magic", 2),
        ("header length", 6),
        ("header", 8 + header_len // 2),
        ("value count", 8 + header_len + 4),
        ("payload", len(blob) - 8),
        ("payload", len(blob) - 4),
    ]
    path = tmp_path / "cut.ckpt"
    for part, cut in cuts:
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match=f"inside the {part}"):
            load_checkpoint(str(path))
        if cut < 8 + header_len:
            with pytest.raises(CheckpointError, match=f"inside the {part}"):
                checkpoint_extras(str(path))
        code = main(
            ["embed", str(path), fixture_corpus_path, str(tmp_path / "index.tsv"),
             "--vectors", fixture_vectors_path]
        )
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and part in err[0]


def _embed_error(checkpoint, corpus_path, vectors_path, out, capsys) -> str:
    """The single stderr line of an `embed` that must fail with exit 1 and
    write no index."""
    code = main(["embed", str(checkpoint), corpus_path, str(out), "--vectors", vectors_path])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()
    return err[0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c.update(kernel_size=3.0), "kernel_size must be 3, got 3.0"),
        (lambda c: c.update(conv_channels=[60, 30, 15, 8.0]),
         "conv_channels must be [60, 30, 15, 8], got [60, 30, 15, 8.0]"),
        (lambda c: c.update(output_dim="540"), 'output_dim must be 540, got "540"'),
        (lambda c: c.update(bn_eps=-1.0), "bn_eps must be 1e-05, got -1.0"),
        (lambda c: c.update(use_fc="yes"), "use_fc must be true or false, got 'yes'"),
        (lambda c: c.pop("dropout"), "missing keys ['dropout']"),
        (lambda c: c.update(extra=1), "unknown keys ['extra']"),
        # Each architecture value must equal the constant as JSON text.
        (lambda c: c.update(conv_channels=[60, 20, 10, 8]),
         "conv_channels must be [60, 30, 15, 8], got [60, 20, 10, 8]"),
        (lambda c: c.update(conv_channels=[59, 30, 15, 8]),
         "conv_channels must be [60, 30, 15, 8], got [59, 30, 15, 8]"),
        (lambda c: c.update(conv_channels=[60]), "conv_channels must be [60, 30, 15, 8], got [60]"),
        (lambda c: c.update(conv_channels=[60, True, 15, 8]),
         "conv_channels must be [60, 30, 15, 8], got [60, true, 15, 8]"),
        (lambda c: c.update(kernel_size=5), "kernel_size must be 3, got 5"),
        (lambda c: c.update(kernel_size=4), "kernel_size must be 3, got 4"),
        (lambda c: c.update(sequence_length=17), "sequence_length must be 16, got 17"),
        (lambda c: c.update(semantic_slots=24), "semantic_slots must be 25, got 24"),
        (lambda c: c.update(output_dim=True), "output_dim must be 540, got true"),
        (lambda c: c.update(output_dim=0), "output_dim must be 540, got 0"),
        (lambda c: c.update(bn_momentum=1.5), "bn_momentum must be 0.1, got 1.5"),
        (lambda c: c.update(bn_momentum=float("nan")), "bn_momentum must be 0.1, got NaN"),
        (lambda c: c.update(bn_eps=1e-6), "bn_eps must be 1e-05, got 1e-06"),
        (lambda c: c.update(bn_eps=0.0), "bn_eps must be 1e-05, got 0.0"),
        (lambda c: c.update(bn_eps=float("inf")), "bn_eps must be 1e-05, got Infinity"),
    ],
    ids=["kernel-float", "channel-float", "dim-string", "eps-negative", "flag-string",
         "missing-key", "unknown-key", "channels-narrower", "channels-first-59",
         "channels-one-layer", "channel-bool", "kernel-5", "kernel-even", "length-17",
         "slots-24", "dim-true", "dim-zero", "momentum-above-1", "momentum-nan",
         "eps-smaller", "eps-zero", "eps-infinite"],
)
def test_embed_rejects_bad_config_block(
    tmp_path, trained, fixture_corpus_path, fixture_vectors_path, capsys, edit, message
):
    blob = open(trained, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8 : 8 + header_len])
    edit(header["config"])
    text = json.dumps(header).encode("utf-8")
    path = tmp_path / "edited.ckpt"
    path.write_bytes(blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + header_len :])
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(str(path))
    err = _embed_error(path, fixture_corpus_path, fixture_vectors_path, tmp_path / "i.tsv", capsys)
    assert f"invalid config block: {message}" in err


@pytest.mark.parametrize("name", ["fc2.weight", "conv1.running_var"])
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_embed_rejects_non_finite_payload(
    tmp_path, trained, fixture_corpus_path, fixture_vectors_path, capsys, name, value
):
    params, _ = load_checkpoint(trained)
    params.views[name][1] = value
    path = tmp_path / "bad.ckpt"
    save_checkpoint(params, path=str(path))
    with pytest.raises(CheckpointError, match=f"non-finite value in {name}"):
        load_checkpoint(str(path))
    err = _embed_error(path, fixture_corpus_path, fixture_vectors_path, tmp_path / "i.tsv", capsys)
    assert name in err


def test_c2v1_checkpoint_rejected(
    tmp_path, trained, fixture_corpus_path, fixture_vectors_path, capsys
):
    # The previous format: magic C2V1, format version 1 and 598,675 values,
    # the conv biases among them. It is not converted; retrain.
    blob = open(trained, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8 : 8 + header_len])
    header["format_version"] = 1
    old = json.dumps(header).encode("utf-8")
    path = tmp_path / "old.ckpt"
    path.write_bytes(
        b"C2V1" + struct.pack("<I", len(old)) + old
        + struct.pack("<Q", 598_675) + np.zeros(598_675).astype("<f8").tobytes()
    )
    message = "checkpoint version mismatch: expected magic b'C2V2', found b'C2V1'"
    for read in (load_checkpoint, checkpoint_extras):
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            read(str(path))
    err = _embed_error(path, fixture_corpus_path, fixture_vectors_path, tmp_path / "i.tsv", capsys)
    assert err.endswith(message), err


def _cli_process_env() -> dict:
    path = [str(pathlib.Path(chartembed.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _run_cli(*args) -> subprocess.CompletedProcess:
    """The CLI in its own process, so that numpy's warnings reach stderr as
    a user would see them."""
    return subprocess.run(
        [sys.executable, "-m", "chartembed.cli", *args],
        capture_output=True, text=True, env=_cli_process_env(), timeout=300,
    )


def test_overflow_keeps_one_line_error(
    tmp_path, trained, fixture_corpus_path, fixture_vectors_path
):
    # Training on huge word vectors overflows the embeddings.
    vectors = tmp_path / "huge.txt"
    with open(fixture_vectors_path, encoding="utf-8") as fh:
        vectors.write_text(
            "".join(line.split()[0] + " 1e300" * (len(line.split()) - 1) + "\n" for line in fh),
            encoding="utf-8",
        )
    run = _run_cli("train", fixture_corpus_path, str(vectors), str(tmp_path / "m.ckpt"),
                   "--epochs", "1", "--test-fraction", "0")
    assert run.returncode == 1
    assert run.stderr.splitlines() == [run.stderr.strip()]
    assert run.stderr.startswith("error: training diverged")

    # A finite checkpoint whose fc layers overflow in inference.
    params, _ = load_checkpoint(trained)
    params.views["fc1.weight"][...] *= 1e200
    params.views["fc2.weight"][...] *= 1e200
    checkpoint = tmp_path / "overflow.ckpt"
    save_checkpoint(params, path=str(checkpoint))
    out = tmp_path / "index.tsv"
    run = _run_cli("embed", str(checkpoint), fixture_corpus_path, str(out),
                   "--vectors", fixture_vectors_path)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [run.stderr.strip()]
    assert run.stderr.startswith("error: non-finite embedding")
    assert not out.exists()


def test_nearest_rows(index_path, capsys):
    assert main(["nearest", index_path, "s00c0", "--k", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    rank, chart_id, distance = rows[0].split("\t")
    assert rank == "1"
    assert chart_id.startswith("s0")
    float(distance)


def test_nearest_unknown_anchor(index_path):
    assert main(["nearest", index_path, "nope"]) == 1


def test_nearest_k_exceeds_candidates(index_path, capsys):
    assert main(["nearest", index_path, "s00c0", "--k", "999"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 9  # the dataset holds two five-chart stories


def _overflowing_index(tmp_path) -> str:
    """An index whose squared differences overflow float64."""
    path = tmp_path / "big.tsv"
    path.write_text(
        "chart_id\tstory_id\tposition\tdataset_id\tv1\n"
        "a\ts\t0\tds\t1e308\nb\ts\t1\tds\t-1e308\nc\ts\t2\tds\t0\n",
        encoding="utf-8",
    )
    return str(path)


def test_nearest_overflow_prints_only_the_ranking(tmp_path):
    # The differences overflow float64; the distances are infinite, and
    # numpy must not warn on stderr.
    run = _run_cli("nearest", _overflowing_index(tmp_path), "a", "--k", "2")
    assert run.returncode == 0
    assert run.stderr == ""
    assert run.stdout.splitlines() == ["1\tb\tinf", "2\tc\tinf"]


def test_eval_text_and_json(index_path, capsys):
    assert main(["eval", index_path]) == 0
    out = capsys.readouterr().out
    assert "co-occurrence" in out
    assert main(["eval", index_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"top2", "top3", "cooccurrence", "n_anchors"}
    assert len(payload["details"]) == 50


def test_eval_json_writes_an_infinite_distance_as_null(tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    assert main(["eval", _overflowing_index(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [(d["anchor"], d["distance"], d["excluded"]) for d in payload["details"]] == [
        ("a", None, False), ("b", None, False), ("c", None, False),
    ]


def test_eval_gap_flags(index_path, capsys):
    assert main(["eval", index_path, "--gap2", "1", "--gap3", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap2"] == 1 and payload["gap3"] == 4


@pytest.mark.parametrize(
    "flags, key",
    [
        (["eval", "--gap2", "5", "--gap3", "2"], "gap2"),
        (["eval", "--gap2", "-1"], "gap2"),
        (["eval", "--gap3", "-4"], "gap3"),
        (["nearest", "s00c0", "--k", "0"], "k"),
        (["nearest", "s00c0", "--k", "-3"], "k"),
    ],
)
def test_query_options_out_of_range_exit_usage(index_path, capsys, flags, key):
    command, *rest = flags
    assert main([command, index_path, *rest]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: must be "), err
    assert captured.out == ""


def test_eval_empty_index(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("chart_id\tstory_id\tposition\tdataset_id\n", encoding="utf-8")
    assert main(["eval", str(path)]) == 1


def test_ablate_single_variant(tmp_path, fixture_corpus_path, fixture_vectors_path, capsys):
    out = tmp_path / "ablation.csv"
    args = [
        "ablate", fixture_corpus_path, fixture_vectors_path,
        "--variants", "full", "--epochs", "1", "--seed", "0",
        "--out", str(out),
    ]
    # peak_bytes is filled only when memory is traced.
    for flags, traced in (([], False), (["--trace-memory"], True)):
        assert main(args + flags) == 0
        assert "full" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "variant,top2,top3,cooccurrence,wall_ms,peak_bytes"
        assert len(lines) == 2
        peak = lines[1].split(",")[5]
        assert (peak.isdigit() and int(peak) > 0) if traced else peak == "", peak
        manifest = json.loads(open(str(out) + ".manifest.json", encoding="utf-8").read())
        assert manifest["config"]["trace_memory"] is traced


def test_ablate_unknown_variant(fixture_corpus_path, fixture_vectors_path):
    code = main(
        ["ablate", fixture_corpus_path, fixture_vectors_path, "--variants", "bogus"]
    )
    assert code == 2


def test_gradcheck_ok(capsys):
    assert main(["gradcheck", "--seed", "0", "--coords", "60"]) == 0
    assert "gradients OK" in capsys.readouterr().out


def test_gradcheck_injected_fault():
    assert main(["gradcheck", "--seed", "0", "--coords", "60", "--inject-fault"]) == 1


def test_gradcheck_rejects_nonpositive_coords(capsys):
    for coords in ("0", "-3"):
        assert main(["gradcheck", "--coords", coords]) == 2
        assert capsys.readouterr().err == "error: --coords must be at least 1\n"


@pytest.mark.parametrize("epsilon, message", [
    ("0", "epsilon: must be > 0, got 0.0"),
    ("-1e-5", "epsilon: must be > 0, got -1e-05"),
    ("nan", "epsilon: expected a finite number, got nan"),
    ("inf", "epsilon: expected a finite number, got inf"),
])
def test_gradcheck_rejects_bad_epsilon(capsys, epsilon, message):
    assert main(["gradcheck", "--coords", "5", f"--epsilon={epsilon}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_gradcheck_epsilon_warning(capsys):
    main(["gradcheck", "--seed", "0", "--coords", "10", "--epsilon", "1e-2"])
    assert "outside the reliable" in capsys.readouterr().err


def test_embedding_dim_is_fixed(capsys):
    # The store format fixes the word-vector width; no flag sets it.
    for command in (["train", "c", "v", "out"], ["embed", "ckpt", "c", "out"], ["ablate", "c", "v"]):
        with pytest.raises(SystemExit) as info:
            main(command + ["--embedding-dim", "100"])
        assert info.value.code == 2
        assert "unrecognized arguments: --embedding-dim 100" in capsys.readouterr().err


def test_embed_vectors_env_fallback(
    monkeypatch, trained, tmp_path, fixture_corpus_path, fixture_vectors_path
):
    out = tmp_path / "index.tsv"
    monkeypatch.delenv("CHARTEMBED_VECTORS", raising=False)
    assert main(["embed", trained, fixture_corpus_path, str(out)]) == 2
    monkeypatch.setenv("CHARTEMBED_VECTORS", fixture_vectors_path)
    assert main(["embed", trained, fixture_corpus_path, str(out)]) == 0
    assert load_index(str(out)).ids


def test_import_calliope(tmp_path, data_dir):
    out = tmp_path / "imported.json"
    code = main(["import", str(data_dir / "calliope_sample.json"), str(out)])
    assert code == 0
    corpus = load_corpus(str(out))
    assert len(corpus) == 3


@pytest.mark.parametrize("source, message", [
    ({"stories": 5}, "stories: expected a list"),
    ({"stories": [{"facts": 3}]}, "stories[0].facts: expected a list"),
    ("xstoriesx", "expected a top-level object with a 'stories' list"),
    ({"stories": [5]}, "stories[0]: expected an object"),
    ({"stories": [{"facts": [7]}]}, "stories[0].facts[0]: expected an object"),
    ({"stories": [{"facts": [{"subspace": [3]}]}]},
     "stories[0].facts[0].subspace[0]: expected an object"),
    ({"stories": [{"facts": [{"measure": 4}]}]}, "stories[0].facts[0].measure: expected an object"),
    ({"stories": [{"facts": [{"fact_type": "categorization", "meta": "x"}]}]},
     "stories[0].facts[0].meta: expected a category count, got 'x'"),
])
def test_import_names_the_location_of_a_wrong_json_type(tmp_path, capsys, source, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(source), encoding="utf-8")
    assert main(["import", str(bad), str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out.json").exists()


def calliope_fact(chart_id, fact_type="trend"):
    return {"chart_id": chart_id, "chart": "line chart", "fact_type": fact_type,
            "measure": [{"field": "Sales", "aggregate": "sum"}],
            "breakdown": [{"field": "Year", "type": "temporal"}]}


@pytest.mark.parametrize("story, message", [
    ({"facts": [{"chart_id": 5, "chart": "line chart", "fact_type": "trend"}]},
     "stories[0].facts[0]: chart_id must be a non-empty string"),
    ({"story_id": "a\tb", "facts": []}, "stories[0].story_id: 'a\\tb' contains a tab, CR or LF"),
    ({"dataset": "d\n", "facts": []}, "stories[0].dataset: 'd\\n' contains a tab, CR or LF"),
    ({"facts": [calliope_fact("c\r1")]},
     "stories[0].facts[0].chart_id: 'c\\r1' contains a tab, CR or LF"),
    ({"story_id": "s", "facts": [calliope_fact("c0"), calliope_fact("c1"), calliope_fact("c1")]},
     "stories[0].facts[2]: duplicate chart id 'c1'"),
    ({"story_id": "s", "facts": [calliope_fact("c0"), calliope_fact("c1")]},
     "stories[0] ('s'): 2 valid charts, minimum chart number is 3"),
])
def test_import_names_the_calliope_location_of_an_invalid_corpus(tmp_path, capsys, story, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"stories": [story]}), encoding="utf-8")
    assert main(["import", str(bad), str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_lenient_import_names_dropped_charts_by_calliope_location(tmp_path, caplog):
    source = tmp_path / "story.json"
    facts = [calliope_fact("c0"), calliope_fact("c1", "bogus"), calliope_fact("c2"), calliope_fact("c3")]
    source.write_text(json.dumps({"stories": [{"story_id": "s", "facts": facts}]}), encoding="utf-8")
    out = tmp_path / "out.json"
    with caplog.at_level(logging.WARNING, logger="chartembed.corpus"):
        assert main(["import", str(source), str(out), "--lenient"]) == 0
    dropped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dropping chart")]
    assert len(dropped) == 1
    assert dropped[0].startswith("dropping chart: stories[0].facts[1].type_f: unknown value 'bogus'")
    assert [c for c, _ in load_corpus(str(out)).visualizations[0].charts] == ["c0", "c2", "c3"]


def test_invalid_charts_are_one_error_line(tmp_path, capsys, fixture_corpus_path, fixture_vectors_path):
    corpus = json.loads(pathlib.Path(fixture_corpus_path).read_text(encoding="utf-8"))
    for chart in corpus["visualizations"][0]["charts"][1:3]:
        chart["fact"]["type_f"] = "bogus"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corpus), encoding="utf-8")
    assert main(["train", str(bad), fixture_vectors_path, str(tmp_path / "m.ckpt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(
        "error: visualizations[0] ('story-00'): invalid charts: "
        "visualizations[0].charts[1].fact.type_f: unknown value 'bogus', "
    )
    assert err[0].endswith(" (and 1 more)")


def test_import_of_an_unknown_fact_type_is_one_error_line(tmp_path, capsys):
    facts = [calliope_fact("c0"), calliope_fact("c1", "bogus"), calliope_fact("c2")]
    source = tmp_path / "story.json"
    source.write_text(json.dumps({"stories": [{"story_id": "s", "facts": facts}]}), encoding="utf-8")
    assert main(["import", str(source), str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(
        "error: stories[0] ('s'): invalid charts: stories[0].facts[1].type_f: unknown value 'bogus', "
    )
    assert not err[0].endswith("more)")


def test_grammar_dump_command(capsys, data_dir):
    assert main(["grammar"]) == 0
    out = capsys.readouterr().out
    assert out == (data_dir / "grammar_dump.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command, code", [("import", 1), ("config", 2)])
@pytest.mark.parametrize("content, message", [
    (b'{"stories": [}', "invalid JSON at line 1: Expecting value"),
    (b'{\n  "epochs": 1,\n}', "invalid JSON at line 3: Expecting property name enclosed in double quotes"),
    (b"", "invalid JSON at line 1: Expecting value"),
    ("{\"caf\u00e9\": 1}".encode("latin-1"), "not a UTF-8 text file: 'utf-8' codec can't decode byte 0xe9"),
])
def test_json_inputs_name_the_file_in_decode_errors(
    tmp_path, capsys, fixture_corpus_path, fixture_vectors_path, command, code, content, message
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "import":
        argv = ["import", str(bad), str(tmp_path / "out.json")]
    else:
        argv = ["train", fixture_corpus_path, fixture_vectors_path, str(tmp_path / "m.ckpt"),
                "--config", str(bad)]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}"), err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "m.ckpt").exists()


def test_import_unknown_format(tmp_path, data_dir):
    out = tmp_path / "imported.json"
    code = main(
        ["import", str(data_dir / "calliope_sample.json"), str(out), "--format", "vega"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        # An output path in a directory that does not exist: an I/O failure.
        (["train", "{corpus}", "{vectors}", "{missing}", "--epochs", "0", "--test-fraction", "0"], 2),
        (["embed", "{model}", "{corpus}", "{missing}", "--vectors", "{vectors}"], 2),
        (["import", "{calliope}", "{missing}"], 2),
        (["ablate", "{corpus}", "{vectors}", "--variants", "full", "--epochs", "0",
          "--out", "{missing}"], 2),
        # An input that is not UTF-8: a domain failure, but a usage failure
        # for a config file.
        (["validate", "{latin1}"], 1),
        (["train", "{latin1}", "{vectors}", "{out}"], 1),
        (["train", "{corpus}", "{latin1}", "{out}"], 1),
        (["train", "{corpus}", "{vectors}", "{out}", "--config", "{latin1}"], 2),
    ],
)
def test_file_failures_end_in_one_line_not_a_traceback(
    tmp_path, capsys, trained, data_dir, fixture_corpus_path, fixture_vectors_path, argv, code
):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("caf\u00e9 au lait\n".encode("latin-1"))
    paths = {
        "corpus": fixture_corpus_path,
        "vectors": fixture_vectors_path,
        "model": trained,
        "calliope": str(data_dir / "calliope_sample.json"),
        "missing": str(tmp_path / "missing" / "out"),
        "latin1": str(latin1),
        "out": str(tmp_path / "m.ckpt"),
    }
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    # validate reports a file that is not a corpus as its one violation.
    prefix = "violation: " if argv[0] == "validate" else "error: "
    assert len(err) == 1 and err[0].startswith(prefix), err
    if "{latin1}" in argv:
        assert err[0].startswith(f"{prefix}{latin1}: not a UTF-8 text file: "), err


def test_closed_stdout_is_one_error_line(index_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "chartembed.cli", "eval", index_path, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_process_env(),
    )
    proc.stdout.close()  # before the child has even imported numpy
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 2
    assert err == "error: standard output closed\n"
