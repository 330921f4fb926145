"""chartembed benchmark.

    python3 perfbench/run.py --workload train|index|ablate --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
`src/` of that checkout; nothing is installed. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a traced run with `--trace 1`. `--workload all` runs every workload twice
with the same seed, each in its own process, and checks that the two runs
agree on the reproducibility digests. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: results differ in the last bits between thread
# counts, and one thread keeps timings steady on a shared two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("train", "index", "ablate")
SETUP_REPEATS = 3


def _import_program():
    """Import chartembed from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import chartembed
        import pipeline
    except ImportError as exc:
        sys.exit(f"error: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(chartembed.__file__).resolve().parent != ROOT / "src" / "chartembed":
        sys.exit(f"error: imported chartembed from {chartembed.__file__}, not this checkout")
    missing = [p for p in (pipeline.FIXTURE_CORPUS, pipeline.FIXTURE_VECTORS) if not p.is_file()]
    if missing:
        sys.exit(f"error: missing fixture files {[str(p) for p in missing]}")
    return pipeline


def _environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _fingerprint(env: dict) -> str:
    """Digest of the program and benchmark sources plus the environment."""
    digest = hashlib.sha256(json.dumps(env, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "chartembed").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_digests(key: str, digests: dict, tally) -> None:
    """Compare with the digests an earlier run of the same seed and sources wrote."""
    record_path = OUT / "digests.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    earlier = record.setdefault(key, digests)
    for name, value in digests.items():
        tally.op(
            earlier.get(name) == value,
            f"{name} digest {value[:12]} differs from an earlier same-seed run ({str(earlier.get(name))[:12]})",
        )
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


# name -> unit; the timings are the median over rounds
ROUND_TIMINGS = {
    "time_to_first_step_s": "s",
    "train_quads_per_s": "quads/s",
    "embed_charts_per_s": "charts/s",
    "eval_anchors_per_s": "anchors/s",
    "ablate_s": "s",
}
QUALITY = ("top2", "top3", "cooccurrence")


def measure(pipeline, w, seed: int, seconds: float, work: Path, tally):
    """End-to-end metrics; returns ({name: (value, unit)}, {name: samples}, digests).

    Set-up runs SETUP_REPEATS times, then rounds repeat while the next one
    fits in `seconds` (at least one), all with the speedometer running, so
    every time is at the reference speed (see speed.py). Each timing is the
    median over rounds, except the nearest p99, which is the lowest round's.
    """
    setups = []
    rounds = []
    with speed.Speedometer() as meter:
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            inp = pipeline.set_up(w, seed, work)
            setups.append(meter.seconds(started, perf_counter(), "setup"))
        started = perf_counter()
        while True:
            round_started = perf_counter()
            rounds.append(pipeline.run_round(w, inp, seed, tally, clock=meter))
            took = perf_counter() - round_started
            if perf_counter() - started + took > seconds:
                break
    for later in rounds[1:]:
        for name, value in later.digests.items():
            tally.op(value == rounds[0].digests[name], f"{name} digest differs between rounds")

    metrics = {"setup_s": (statistics.median(setups), "s")}
    samples = {"setup_s": f"median of {len(setups)}"}
    for name, unit in ROUND_TIMINGS.items():
        values = [r.values[name] for r in rounds]
        metrics[name] = (statistics.median(values), unit)
        samples[name] = f"median of {len(rounds)} rounds: " + " ".join(f"{v:.4g}" for v in values)
    # Per round. The p99 is the lowest round's: a query walks the whole
    # index, so it also slows when other tenants crowd the caches, which the
    # probe loop does not see. Those spells only add time, and they decide
    # the ~20 slowest queries of the rounds they hit.
    p50 = [float(np.percentile(r.latencies, 50)) for r in rounds]
    p99 = [float(np.percentile(r.latencies, 99)) for r in rounds]
    queries = f"{min(len(r.latencies) for r in rounds)}+ queries per round"
    metrics["nearest_ms_p50"] = (statistics.median(p50), "ms")
    metrics["nearest_ms_p99"] = (min(p99), "ms")
    for name, rule, values in (("nearest_ms_p50", "median", p50), ("nearest_ms_p99", "lowest", p99)):
        samples[name] = f"{rule} of {len(rounds)} rounds ({queries}): " + " ".join(
            f"{v:.4g}" for v in values
        )
    for name in QUALITY:
        values = [r.values[name] for r in rounds]
        metrics[name] = (values[0], "ratio")
        samples[name] = f"equal in {len(rounds)} rounds: " + " ".join(f"{v:.4g}" for v in values)
        tally.op(len(set(values)) == 1, f"{name} differs between rounds: {values}")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    samples["peak_rss_mb"] = "1"
    samples["ablate_s"] += f" ({len(inp.variants)} variants)"
    print(f"speedometer: {meter.probes()} probes, median {1e6 * meter.median_probe():.1f} us"
          f" (reference {1e6 * speed.REFERENCE_S:.0f} us)")
    return metrics, samples, rounds[0].digests


def trace(pipeline, spans, w, seed: int, work: Path, tally, spans_path: Path):
    """Per-layer metrics from a traced round between two untraced ones."""
    inp = pipeline.set_up(w, seed, work)
    plain_s = []

    def plain_round():
        started = perf_counter()
        result = pipeline.run_round(w, inp, seed, tally)
        plain_s.append(perf_counter() - started)
        return result

    plain = plain_round()
    rec = spans.SpanRecorder(candidates=inp.candidates)
    rec.install()
    try:
        root = rec.begin("bench.round")
        traced = pipeline.run_round(w, inp, seed, tally, section=rec.span)
        rec.end(root)
    finally:
        rec.uninstall()
    plain_round()
    for name, value in traced.digests.items():
        tally.op(value == plain.digests[name], f"{name} digest differs between traced and untraced rounds")

    table = spans.SpanTable(rec)
    variant_s = {v: traced.variant_s.get(v, 0.0) for v in pipeline.evaluation.ABLATION_VARIANTS}
    metrics = spans.layer_metrics(table, rec, inp.distinct_charts, variant_s)
    _, start, end, _, _ = rec.spans[root]
    metrics["trace.overhead_s"] = (end - start - statistics.mean(plain_s), "s")
    metrics["trace.uncovered_s"] = (table.uncovered_s(root), "s")
    metrics.update(pipeline.scaling_probes(inp, seed))
    rec.write(spans_path)
    samples = {name: "1 round" for name in metrics}
    samples["trace.overhead_s"] = "1 traced round - mean of 2 untraced"
    for name in ("corpus.build_samples.scaling_exp", "evaluation.compute_metrics.scaling_exp"):
        samples[name] = "best of 3 at each size"
    return metrics, samples, traced.digests, rec.absent


def run_one(args) -> int:
    pipeline = _import_program()
    import spans

    env = _environment()
    w = pipeline.WORKLOADS[args.workload]
    tally = pipeline.Tally()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    absent: list[str] = []
    try:
        if args.trace:
            metrics, samples, digests, absent = trace(
                pipeline, spans, w, args.seed, work, tally,
                OUT / f"spans-{w.name}-seed{args.seed}.jsonl",
            )
        else:
            metrics, samples, digests = measure(pipeline, w, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _check_digests(f"{w.name}/seed{args.seed}/{_fingerprint(env)}", digests, tally)

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"{'metric':45} {'value':>14}  {'unit':10} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:45} {value:14.6g}  {unit:10} {samples[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload twice with the same seed, each run in its own process."""
    ok = True
    for name in WORKLOAD_NAMES:
        digests = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            digests.append(next(l for l in lines if l.startswith("digests ")))
            ok = ok and result["correct"]
        same = len(digests) == 2 and digests[0] == digests[1]
        print(f"== {name}: digests of the two runs {'agree' if same else 'DIFFER'}")
        ok = ok and same
    print(f"== all workloads {'correct' if ok else 'NOT correct'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
