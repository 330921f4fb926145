"""Measure how strongly each stage's time follows the machine's speed.

    python3 perfbench/calibrate.py --workload train|index|ablate --seconds 150

Run from the root of a source checkout. With the speedometer running, it
sets up a workload and runs one round, again and again for `--seconds`. For
set-up and for each stage it fits the slope of log(time) against log(median
probe time) over the rounds: the exponent in `speed.SENSITIVITY`. A fit needs rounds
at different speeds: the probe range it prints should be well above 1 (on a
machine without slow phases there is nothing to correct, and nothing to fit).
Nothing is checked and no result line is printed.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import run  # pins BLAS threads before numpy does any work
import speed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seconds", type=float, default=150.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    pipeline = run._import_program()
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "calibrate"
    work.mkdir(exist_ok=True)
    w = pipeline.WORKLOADS[args.workload]
    rounds: list[dict[str, tuple[float, float]]] = []
    with speed.Speedometer() as meter:
        started = perf_counter()
        while perf_counter() - started < args.seconds:
            meter.log.clear()
            set_up_started = perf_counter()
            inp = pipeline.set_up(w, args.seed, work)
            meter.seconds(set_up_started, perf_counter(), "setup")
            pipeline.run_round(w, inp, args.seed, pipeline.Tally(), clock=meter)
            work_s, probes = defaultdict(float), defaultdict(list)
            for stage, seconds, probe in meter.log:
                work_s[stage] += seconds
                probes[stage].append(probe)
            rounds.append({s: (work_s[s], float(np.median(probes[s]))) for s in work_s})
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(rounds)} rounds of {args.workload}")
    print(f"{'stage':12} {'fit':>6} {'now':>6} {'probe max/min':>14} {'corr':>6}")
    for stage, now in speed.SENSITIVITY.items():
        t, p = np.log(np.array([r[stage] for r in rounds])).T
        slope = np.polyfit(p, t, 1)[0] if len(rounds) > 2 else float("nan")
        corr = np.corrcoef(p, t)[0, 1] if len(rounds) > 2 else float("nan")
        print(f"{stage:12} {slope:6.2f} {now:6.2f} {np.exp(p.max() - p.min()):14.2f} {corr:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
