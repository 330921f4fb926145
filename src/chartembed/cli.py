"""Command-line surface.

Subcommands wire the modules into reproducible workflows: validate, train,
embed, nearest, eval, ablate, gradcheck, and import. Exit codes are stable:
0 success, 1 domain failure, 2 usage or I/O failure. The commands raise, and
`main` alone turns an exception into an exit code and one `error:` line.
Every mutating command
writes a run manifest (config snapshot, seeds, input digests) next to its
primary output, and all randomness flows from the single --seed flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .corpus import (
    SAMPLING_RULES,
    Corpus,
    CorpusError,
    MultiViewVis,
    SampleSet,
    build_samples,
    corpus_from_calliope,
    encode_corpus,
    load_corpus,
    read_json,
    save_corpus,
    split_corpus,
)
from .encoder import (
    EncoderConfig,
    check_setting,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import (
    ABLATION_VARIANTS,
    QUERY_RULES,
    ablation_csv,
    build_index,
    compute_metrics,
    load_index,
    metrics_json,
    nearest,
    render_ablation_table,
    render_metrics,
    run_ablation,
    save_index,
)
from .factgen import random_fact
from .learning import (
    HYPER_RULES,
    HyperParams,
    TrainingDivergedError,
    grad_check,
    history_csv,
    train,
)
from .semantics import VectorStore, extract_tokens, load_vector_store

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

GRADCHECK_THRESHOLD = 1e-4
GRADCHECK_SAMPLES = 3


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _environment() -> dict:
    """The software that a run's bytes depend on. Checkpoints are
    bit-reproducible only at a fixed BLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without build information
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def _write_manifest(
    path: str,
    command: str,
    config: dict,
    inputs: dict[str, str],
    outputs: list[str],
    wall_ms: float,
) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": {
            name: {"path": p, "sha256": _sha256(p)} for name, p in inputs.items()
        },
        "outputs": outputs,
        "wall_ms": wall_ms,
        "environment": _environment(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=1)
        fh.write("\n")


VECTORS_ENV = "CHARTEMBED_VECTORS"


def _resolve_vectors(explicit: Optional[str]) -> Optional[str]:
    """Explicit path wins; the CHARTEMBED_VECTORS environment key is the
    fallback."""
    return explicit or os.environ.get(VECTORS_ENV)


# The HyperParams field and help text of each flag that train and ablate share.
_HYPER_FLAGS = {
    "alpha": ("alpha", "pair-distance weight"),
    "beta": ("beta", "hinge-loss weight"),
    "margin": ("margin", "hinge margin"),
    "lr": ("learning_rate", "learning rate"),
    "batch": ("batch_size", "batch size"),
    "epochs": ("epochs", "epochs"),
    "dropout": ("dropout", "dropout rate"),
    "seed": ("seed", "master seed"),
}

# The rule of each key that a --config file or a flag may set (see check_setting).
_CONFIG_TYPES = {
    **{flag: HYPER_RULES[field] for flag, (field, _) in _HYPER_FLAGS.items()},
    "test_fraction": HYPER_RULES["dropout"],  # a fraction in [0, 1), as dropout is
    "negatives": SAMPLING_RULES["negatives_per_window"],
    "policy": SAMPLING_RULES["policy"],
}

# The options of nearest (k), eval (gap2, gap3) and gradcheck (epsilon, coords).
_QUERY_TYPES = {
    **QUERY_RULES,
    "epsilon": (float, "> 0", lambda v: v > 0),
    "coords": (int, ">= 1", lambda v: v >= 1),
}


class UsageError(Exception):
    """A bad flag, option value or config file: exit code 2."""


def _checked(name: str, value, types: dict = _CONFIG_TYPES):
    """The value of key `name` of `types`, as a float for a float key."""
    return check_setting(name, value, types[name], UsageError)


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    obj = read_json(path, UsageError)
    if not isinstance(obj, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(obj) - set(_CONFIG_TYPES))
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r}; known: {sorted(_CONFIG_TYPES)}")
    return {name: _checked(name, value) for name, value in obj.items()}


def _resolve(args: argparse.Namespace, file_config: dict, name: str, default):
    """Flag wins over config file, config file over default."""
    value = getattr(args, name, None)
    if value is not None:
        return _checked(name, value)
    return file_config.get(name, default)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        corpus = load_corpus(args.corpus, strict=True)
    except CorpusError as exc:
        for line in str(exc).splitlines():
            print(f"violation: {line.strip()}", file=sys.stderr)
        return EXIT_DOMAIN
    print(
        f"ok: {len(corpus)} visualizations, {corpus.chart_count} charts, "
        f"{len(corpus.dataset_ids())} datasets"
    )
    return EXIT_OK


def _hyper_from(args: argparse.Namespace, file_config: dict) -> HyperParams:
    """HyperParams with the values that a flag or the config file sets."""
    values = {field: _resolve(args, file_config, name, None)
              for name, (field, _) in _HYPER_FLAGS.items()}
    return HyperParams(**{field: v for field, v in values.items() if v is not None})


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    file_config = _load_config_file(args.config)
    hyper = _hyper_from(args, file_config)
    test_fraction = _resolve(args, file_config, "test_fraction", 0.1)
    negatives = _resolve(args, file_config, "negatives", 1)
    policy = _resolve(args, file_config, "policy", "same-dataset-first")
    store = load_vector_store(args.vectors)
    corpus = load_corpus(args.corpus, strict=not args.lenient)

    outputs = [args.out]
    if test_fraction > 0.0:
        train_corpus, test_corpus = split_corpus(corpus, test_fraction, hyper.seed)
        save_corpus(train_corpus, args.out + ".train-corpus.json")
        save_corpus(test_corpus, args.out + ".test-corpus.json")
        outputs += [args.out + ".train-corpus.json", args.out + ".test-corpus.json"]
    else:
        train_corpus = corpus
    config = EncoderConfig(dropout=hyper.dropout)
    sample_set = build_samples(train_corpus, store, negatives, policy, hyper.seed, config)
    log.info("built %d training samples", len(sample_set))
    params, history = train(sample_set, hyper, init_params(hyper.seed, config))

    hyper_dict = {name: getattr(hyper, field) for name, (field, _) in _HYPER_FLAGS.items()}
    hyper_dict.update(test_fraction=test_fraction, negatives=negatives, policy=policy,
                      samples=len(sample_set))
    save_checkpoint(params, path=args.out, extras=hyper_dict)
    with open(args.out + ".history.csv", "w", encoding="utf-8") as fh:
        fh.write(history_csv(history))
    outputs.append(args.out + ".history.csv")
    _write_manifest(
        args.out + ".manifest.json",
        "train",
        hyper_dict,
        {"corpus": args.corpus, "vectors": args.vectors},
        outputs,
        (time.perf_counter() - started) * 1000.0,
    )
    if history:
        print(
            f"trained {hyper.epochs} epochs over {len(sample_set)} samples; "
            f"final loss {history[-1].total:.6f}"
        )
    else:
        print(f"wrote initial parameters (0 epochs) for {len(sample_set)} samples")
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    vectors = _resolve_vectors(args.vectors)
    if not vectors:
        raise UsageError(f"no vector store given (use --vectors or set {VECTORS_ENV})")
    params, _ = load_checkpoint(args.checkpoint)
    store = load_vector_store(vectors)
    corpus = load_corpus(args.corpus, strict=True)
    index = build_index(corpus, params, store)
    save_index(index, args.out)
    _write_manifest(
        args.out + ".manifest.json",
        "embed",
        {"checkpoint": args.checkpoint},
        {"corpus": args.corpus, "vectors": vectors, "checkpoint": args.checkpoint},
        [args.out],
        (time.perf_counter() - started) * 1000.0,
    )
    print(f"embedded {len(index)} charts -> {args.out}")
    return EXIT_OK


def cmd_nearest(args: argparse.Namespace) -> int:
    k = _checked("k", args.k, _QUERY_TYPES)
    ranked = nearest(load_index(args.index), args.anchor, scope=args.scope, k=k)
    for rank, (chart_id, distance) in enumerate(ranked, start=1):
        print(f"{rank}\t{chart_id}\t{distance:.6f}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    gap2 = _checked("gap2", args.gap2, _QUERY_TYPES)
    gap3 = _checked("gap3", args.gap3, _QUERY_TYPES)
    if gap2 > gap3:
        raise UsageError(f"gap2: must be <= gap3 ({gap3}), got {gap2}")
    report = compute_metrics(load_index(args.index), gap2=gap2, gap3=gap3)
    if args.json:
        print(json.dumps(metrics_json(report), indent=1, allow_nan=False))
    else:
        print(render_metrics(report), end="")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.variants == "all":
        variants = list(ABLATION_VARIANTS)
    else:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    unknown = [v for v in variants if v not in ABLATION_VARIANTS]
    if unknown or not variants:
        raise UsageError(f"unknown variants {unknown}; choose from {list(ABLATION_VARIANTS)}")
    file_config = _load_config_file(args.config)
    hyper = _hyper_from(args, file_config)
    test_fraction = _resolve(args, file_config, "test_fraction", 0.0)
    store = load_vector_store(args.vectors)
    corpus = load_corpus(args.corpus, strict=True)

    if test_fraction > 0.0:
        train_corpus, eval_corpus = split_corpus(corpus, test_fraction, hyper.seed)
    else:
        train_corpus = eval_corpus = corpus
    results = run_ablation(
        train_corpus, eval_corpus, store, hyper, variants, hyper.seed,
        trace_memory=args.trace_memory,
    )

    print(render_ablation_table(results), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ablation_csv(results))
        _write_manifest(
            args.out + ".manifest.json",
            "ablate",
            {
                "variants": variants,
                "seed": hyper.seed,
                "epochs": hyper.epochs,
                "test_fraction": test_fraction,
                "trace_memory": args.trace_memory,
            },
            {"corpus": args.corpus, "vectors": args.vectors},
            [args.out],
            (time.perf_counter() - started) * 1000.0,
        )
    failed = [r.variant for r in results if r.metrics is None]
    if failed:
        print(f"warning: failed variants: {failed}", file=sys.stderr)
    return EXIT_OK


def _gradcheck_batch(seed: int, config: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """A batch of GRADCHECK_SAMPLES quadruples of random charts, so the check
    covers the batch-norm terms that couple samples.

    Charts without words are not drawn: with the schema zeroed (the
    no-fact-schema variant) such a chart is an all-zero input, whose fc1
    units all sit exactly on the ReLU kink, where central differences do not
    approximate the gradient.
    """
    rng = np.random.default_rng(seed)
    facts: list = []
    while len(facts) < 4 * GRADCHECK_SAMPLES:
        fact = random_fact(rng)
        if extract_tokens(fact):
            facts.append(fact)
    charts = tuple((f"c{i}", fact) for i, fact in enumerate(facts))
    corpus = Corpus((MultiViewVis("gradcheck", "gradcheck", "economy", "data-story", charts),))
    encoded = encode_corpus(corpus, VectorStore({}), config)  # OOV vectors for every word
    quads = np.arange(4 * GRADCHECK_SAMPLES).reshape(GRADCHECK_SAMPLES, 4)
    return SampleSet(encoded, quads).batch(np.arange(GRADCHECK_SAMPLES))


def cmd_gradcheck(args: argparse.Namespace) -> int:
    seed = _checked("seed", args.seed)
    coords = _checked("coords", args.coords, _QUERY_TYPES)
    epsilon = _checked("epsilon", args.epsilon, _QUERY_TYPES)
    if not 1e-7 <= epsilon <= 1e-3:
        print(
            f"warning: epsilon {epsilon:g} is outside the reliable central-"
            "difference window [1e-7, 1e-3]; expect larger reported error",
            file=sys.stderr,
        )
    config = EncoderConfig()
    params = init_params(seed, config)
    batch = _gradcheck_batch(seed, config)
    hyper = HyperParams(seed=seed)
    error = grad_check(
        batch,
        params,
        hyper,
        epsilon=epsilon,
        n_coords=coords,
        seed=seed,
        corrupt=args.inject_fault,
    )
    print(f"max relative error: {error:.3e} over {coords} coordinates")
    if error < GRADCHECK_THRESHOLD:
        print("gradients OK")
        return EXIT_OK
    print(f"error: gradient check failed (threshold {GRADCHECK_THRESHOLD:g})", file=sys.stderr)
    return EXIT_DOMAIN


def cmd_grammar(args: argparse.Namespace) -> int:
    from .grammar import grammar_dump

    print(grammar_dump(), end="")
    return EXIT_OK


def cmd_import(args: argparse.Namespace) -> int:
    if args.format != "calliope":
        raise UsageError(f"unknown import format {args.format!r}")
    corpus = corpus_from_calliope(read_json(args.input), strict=not args.lenient)
    save_corpus(corpus, args.out)
    print(f"imported {len(corpus)} visualizations -> {args.out}")
    return EXIT_OK


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    """The hyperparameter flags that train and ablate share."""
    for name, (field, text) in _HYPER_FLAGS.items():
        p.add_argument(f"--{name}", type=_CONFIG_TYPES[name][0],
                       help=f"{text} (default {getattr(HyperParams, field)})")
    p.add_argument("--config", help="JSON config file; flags win on conflict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartembed",
        description="Chart embeddings: train, index, retrieve, and evaluate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="strict-mode corpus validation")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("corpus")
    p.add_argument("vectors", help="word-vector store (text format)")
    p.add_argument("out", help="checkpoint output path")
    _add_training_flags(p)
    p.add_argument("--test-fraction", dest="test_fraction", type=float,
                   help="held-out fraction, split by dataset; 0 trains on all (default 0.1)")
    p.add_argument("--negatives", type=int, help="negatives per window (default 1)")
    p.add_argument("--policy", choices=["same-dataset-first", "any"],
                   help="negative sampling policy (default same-dataset-first)")
    p.add_argument("--lenient", action="store_true", help="drop invalid charts instead of failing")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a corpus with a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("out", help="embedding index output path (TSV)")
    p.add_argument("--vectors", help=f"word-vector store (or set ${VECTORS_ENV})")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("nearest", help="retrieve nearest charts from an index")
    p.add_argument("index")
    p.add_argument("anchor")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--scope", choices=["same-dataset", "all"], default="same-dataset")
    p.set_defaults(func=cmd_nearest)

    p = sub.add_parser("eval", help="retrieval metrics over an index")
    p.add_argument("index")
    p.add_argument("--gap2", type=int, default=2, help="position gap for top-2 (default 2)")
    p.add_argument("--gap3", type=int, default=3, help="position gap for top-3 (default 3)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate ablation variants")
    p.add_argument("corpus")
    p.add_argument("vectors")
    p.add_argument("--variants", default="all",
                   help="comma-separated variant names, or 'all'")
    _add_training_flags(p)
    p.add_argument("--test-fraction", dest="test_fraction", type=float,
                   help="eval on a held-out split; 0 evaluates on the training corpus (default 0)")
    p.add_argument("--out", help="write the results CSV here")
    p.add_argument("--trace-memory", dest="trace_memory", action="store_true",
                   help="trace allocations to fill the peak_bytes column; slows the run, "
                        "so wall_ms overstates the time")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="compare analytic vs numeric gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--coords", type=int, default=200)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one gradient to prove the check can fail")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("grammar", help="print the 60-rule table (stable debug dump)")
    p.set_defaults(func=cmd_grammar)

    p = sub.add_parser("import", help="convert an external export to the corpus schema")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--format", default="calliope", help="input layout (only 'calliope')")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_import)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # The one place where an exception becomes an exit code. Every domain
    # error of the package is a ValueError, as are invalid JSON and text
    # that is not UTF-8.
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
