"""Record reference.json: digests of every seed-independent job output.

    python3 perfbench/record.py

Runs one pass of each workload at seed 0 and stores, per job, the SHA-256
of its standard output and of each file it writes. Seeded jobs are checked
against values computed by workloads.py and solution.py instead, so they
must pass here too. Re-record only at a commit whose outputs are known to
be right, since run.py counts every later difference as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    reference = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    env = run.job_env(run_dir)
    try:
        for name, make in workloads.WORKLOADS.items():
            pass_dir = run_dir / name
            pass_dir.mkdir()
            for idx, job in enumerate(make(0, pass_dir)):
                deadline = time.monotonic() + 3600
                res, stdout = run.spawn(job.name, job.argv, pass_dir, env, False, deadline, f"job{idx}")
                error = res.error
                if error is None and job.ref is None:
                    error = job.check(stdout, pass_dir)
                if error is not None:
                    print(f"error: {name} job {idx} ({job.name}): {error}", file=sys.stderr)
                    return 1
                if job.ref is not None:
                    reference[job.ref] = workloads.digests(job, stdout, pass_dir)
                print(f"{name}\t{job.name}\t{res.wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    text = json.dumps(reference, indent=2, sort_keys=True) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
