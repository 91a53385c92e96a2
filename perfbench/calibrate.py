"""Check that the speed correction passes a known change of work at full size.

    python3 perfbench/calibrate.py [--pairs N]

Every time run.py reports is a job's wall time divided by the slowdown that
speed.py probes on the job's CPU while the job runs. If a job's own cache
footprint moved that divisor, a change in the program would partly cancel
itself in the corrected times. This script measures how much.

For each kind of fixed extra work in job.py ("cpu": interpreter work on a
few cache lines; "copy": copies of a 32 MiB buffer, which sweep the caches)
it runs N adjacent pairs of one job, plain (A) and with the extra work (B),
in alternating order. The two jobs of a pair run within seconds of each
other, so (raw_B - raw_A) / s_A estimates the extra work's cost at the
reference speed, with the divisor s_A of a job the extra work cannot
touch. The corrected difference corr_B - corr_A is what the benchmark
would report. Their ratio is the share of the change that comes through;
s_B / s_A is how far the extra work moved the divisor. Run it from the
root of a checkout.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run
from speed import pin_to_one_cpu

JOB = ("enumerate", ("enumerate", "--m", "6", "--forbid", "F32,C5_3_MINUS", "--out", "enum.txt"))
EXTRA = {"cpu": 8_000_000, "copy": 250}  # each about 1 s on a quiet core


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=16)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    run.OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="calibrate-", dir=run.OUT_DIR))
    env = run.job_env(run_dir)
    deadline = time.monotonic() + 3600
    try:
        for i in range(3):  # fill the bytecode cache
            run.spawn("import", ["--help"], run_dir, env, False, deadline, f"w{i}")
        print("kind  pair  raw_A   raw_B   s_A    s_B    extra_ref  corr_diff")
        for kind, rounds in EXTRA.items():
            cost, shown, moved = [], [], []
            for i in range(args.pairs):
                order = (None, (kind, rounds)) if i % 2 == 0 else ((kind, rounds), None)
                got = {}
                for extra in order:
                    res, _ = run.spawn(*JOB, run_dir, env, False, deadline, "job", extra)
                    if res.error is not None:
                        print(f"error: {kind} pair {i}: {res.error}", file=sys.stderr)
                        return 1
                    got[extra is not None] = res
                a, b = got[False], got[True]
                cost.append((b.wall - a.wall) / a.slowdown)
                shown.append(b.corrected_wall - a.corrected_wall)
                moved.append(b.slowdown / a.slowdown)
                print(f"{kind:5} {i:4}  {a.wall:6.3f}  {b.wall:6.3f}  {a.slowdown:5.3f}  "
                      f"{b.slowdown:5.3f}  {cost[-1]:9.3f}  {shown[-1]:9.3f}", flush=True)
            share = statistics.median(shown) / statistics.median(cost)
            print(f"# {kind}: extra work {statistics.median(cost):.3f} s at reference speed, "
                  f"corrected rise {statistics.median(shown):.3f} s, share {share:.3f}, "
                  f"s_B/s_A median {statistics.median(moved):.3f} "
                  f"[{min(moved):.3f}, {max(moved):.3f}]", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
