"""turan3 benchmark: drive the real CLI pipelines and report their metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; turan3 is imported from ./src. The
load is a closed loop with one client: each job is a fresh interpreter
started after the previous one exited, with TURAN3_CACHE_DIR removed, so
every job starts cold as a fresh CLI invocation does. Passes over the
workload's jobs repeat until --seconds have been measured. Every reported
time is corrected for the host's CPU speed, probed on the jobs' CPU while
they run (speed.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with traced ones (spans around the calls into each module, recorded
by spans.py) and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Raw samples, run metadata and spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads
from speed import SpeedProbe, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
TIMED_OUT = "killed at the run's deadline"
WARMUP_SPAWNS = 10  # import-only spawns before measuring; the first may compile bytecode

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
JOB_NAMES = ("enumerate", "emit-sdp", "round", "verify", "construct", "partition", "is_family_free")
DERIVED_UNITS = {
    "graphs.contains_sub.found_ratio": "ratio",
    "enumeration.enumerate_free.redundant_calls": "count",
    "enumeration.accept_ratio": "ratio",
    "density.table_nonzeros": "count",
    "sdp.emit_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in spans.TRACED:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    for job in JOB_NAMES:
        units[f"cli.{job}.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class JobRun:
    name: str
    wall: float  # seconds from spawn to exit, as measured
    setup: float | None  # seconds from spawn until turan3.cli was imported
    slowdown: float  # mean probe time during the job over speed.PROBE_REF_S
    rss_mb: float | None
    error: str | None
    trace: dict | None = None

    @property
    def corrected_wall(self) -> float:
        return self.wall / self.slowdown


@dataclass
class PassRun:
    traced: bool
    jobs: list[JobRun] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(j.corrected_wall for j in self.jobs)

    @property
    def raw_wall(self) -> float:
        return sum(j.wall for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(j.error is not None for j in self.jobs)

    @property
    def cut(self) -> bool:
        """Whether the run's own deadline, not the program, stopped the pass."""
        return any(j.error == TIMED_OUT for j in self.jobs)


def job_env(run_dir: Path) -> dict[str, str]:
    # Jobs start cold (no pair-density cache) but, like an installed package,
    # import from cached bytecode, which the warm-up spawns write.
    drop = {"TURAN3_CACHE_DIR", "PYTHONDONTWRITEBYTECODE"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["TMPDIR"] = str(run_dir)
    return env


def spawn(name: str, argv, pass_dir: Path, env, trace: bool, deadline: float, tag: str,
          extra=None):
    """Run job.py once; return (JobRun without error check, stdout text).

    `extra` is job.py's optional fixed extra work, used by calibrate.py."""
    spec = {"name": name, "argv": list(argv), "trace": trace}
    if extra is not None:
        spec["extra"] = list(extra)
    result_path = pass_dir / f"{tag}.json"
    with open(pass_dir / f"{tag}.out", "wb") as out, open(pass_dir / f"{tag}.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec), str(result_path)],
            cwd=pass_dir, env=env, stdout=out, stderr=err,
        )
        # A blocking wait returns as soon as the job exits; Popen.wait with a
        # timeout polls and would add up to 50 ms to the measured wall time.
        timed_out = threading.Event()
        watchdog = threading.Timer(
            max(1.0, deadline - start), lambda: (timed_out.set(), proc.kill())
        )
        watchdog.start()
        try:
            with SpeedProbe() as probe:
                code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.monotonic() - start
    slowdown = probe.slowdown()
    if timed_out.is_set():
        return JobRun(name, wall, None, slowdown, None, TIMED_OUT), ""
    stdout = (pass_dir / f"{tag}.out").read_text(encoding="utf-8", errors="replace")
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    run = JobRun(
        name,
        wall,
        result["imported"] - start if "imported" in result else None,
        slowdown,
        result["maxrss_kb"] / 1024 if "maxrss_kb" in result else None,
        None if code == 0 and result else f"exit code {code}",
        result.get("trace"),
    )
    return run, stdout


def run_pass(
    workload: str, seed: int, pass_dir: Path, env, trace: bool, deadline: float, reference
) -> PassRun:
    pass_dir.mkdir()
    done = PassRun(trace)
    for idx, job in enumerate(workloads.WORKLOADS[workload](seed, pass_dir)):
        run, stdout = spawn(job.name, job.argv, pass_dir, env, trace, deadline, f"job{idx}")
        if run.error is None:
            run.error = workloads.check_job(job, stdout, pass_dir, reference)
        done.jobs.append(run)
        if run.error is not None:
            print(f"# FAILED {workload} job {idx} ({job.name}): {run.error}", file=sys.stderr)
            break
    return done


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(passes: list[PassRun], warmups: list[JobRun]) -> tuple[dict, list[str]]:
    walls = [p.wall for p in passes]
    q1, med, q3 = quartiles(walls)
    raw_q1, raw, raw_q3 = quartiles([p.raw_wall for p in passes])
    rss = statistics.median(max(j.rss_mb for j in p.jobs) for p in passes)
    # Set-up is paid once per job; estimate a pass's total robustly as jobs per
    # pass times the median set-up over every spawn of the run.
    spawns = [j for p in passes for j in p.jobs] + warmups
    per_job = statistics.median(j.setup / j.slowdown for j in spawns)
    setup = len(passes[0].jobs) * per_job
    values = {"wall_s": med, "peak_rss_mb": rss, "setup_s": setup}
    slowdown = statistics.median(j.slowdown for j in spawns)
    lines = [
        f"wall_s       {med:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)} passes)",
        f"  uncorrected {raw:.4f} s   (q1 {raw_q1:.4f}, q3 {raw_q3:.4f}; "
        f"median slowdown {slowdown:.3f})",
        f"peak_rss_mb  {rss:.2f} MB  (largest job of a pass, median over passes)",
        f"setup_s      {setup:.4f} s   ({len(passes[0].jobs)} jobs x median set-up "
        f"{per_job:.4f} s, n={len(spawns)} spawns)",
    ]
    return values, lines


def pass_layers(p: PassRun) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    out = {name: 0 for name in per_layer_units()}
    found = canon_in_enum = returned = 0
    for job in p.jobs:
        t = job.trace
        for name, (calls, secs) in spans.self_times(t["spans"], t["hot"]).items():
            if name in spans.TRACED:
                out[f"{name}.calls"] += calls
                out[f"{name}.self_s"] += secs / job.slowdown
        span_names = {sid: name for sid, name, *_ in t["spans"]}
        canon_in_enum += sum(
            calls
            for name, parent, calls, _ in t["hot"]
            if name == "graphs.canonical_data"
            and span_names.get(parent) == "enumeration.enumerate_free"
        )
        found += t["counts"].get("graphs.contains_sub.found", 0)
        returned += t["counts"].get("enumeration.enumerate_free.returned", 0)
        out["sdp.emit_bytes"] += t["counts"].get("sdp.emit_bytes", 0)
        out["density.table_nonzeros"] += t["table_nonzeros"]
        out["enumeration.enumerate_free.redundant_calls"] += (
            sum(1 for s in t["spans"] if s[1] == "enumeration.enumerate_free") - t["enumerate_args"]
        )
    contains = out["graphs.contains_sub.calls"]
    out["graphs.contains_sub.found_ratio"] = found / contains if contains else 0.0
    out["enumeration.accept_ratio"] = returned / canon_in_enum if canon_in_enum else 0.0
    return out


def per_layer(untraced: list[PassRun], traced: list[PassRun]) -> dict[str, float]:
    samples = [pass_layers(p) for p in traced]
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    for job in JOB_NAMES:
        values[f"cli.{job}.wall_s"] = statistics.median(
            sum(j.corrected_wall for j in p.jobs if j.name == job) for p in untraced
        )
    values["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced)
    )
    return values


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def run_meta() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "turan3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; print its lines and return the result object."""
    reference = workloads.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = job_env(run_dir)
    try:
        warm_dir = run_dir / "warmup"
        warm_dir.mkdir()
        warmups = []
        for i in range(WARMUP_SPAWNS):
            warmup, _ = spawn("import", ["--help"], warm_dir, env, False, deadline, f"w{i}")
            warmups.append(warmup)
        passes: list[PassRun] = []
        minimum = 2 if trace else 1  # tracing needs an untraced and a traced pass
        t0 = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_dir = run_dir / f"pass{len(passes)}"
            started = time.monotonic()
            p = run_pass(workload, seed, pass_dir, env, traced, deadline, reference)
            took = time.monotonic() - started
            if p.cut and len(passes) >= minimum:
                # The passes before it are complete; this one says nothing
                # about the program's outputs, so it is dropped, not failed.
                print(f"# pass {len(passes)} cut by the run's deadline, dropped", file=sys.stderr)
                break
            passes.append(p)
            if p.failed:
                break
            # Predict the next pass from this one's real (uncorrected) time,
            # input generation and checks included, with a margin for drift.
            if len(passes) >= minimum and (
                time.monotonic() - t0 >= seconds or time.monotonic() + 1.5 * took > deadline
            ):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    warm = all(w.setup is not None for w in warmups)
    complete = not failed and warm and (traced_passes or not trace)
    metrics: dict[str, dict] = {}
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  passes {len(passes)}")
    if complete:
        values, lines = end_to_end(untraced, warmups[1:])
        if trace:
            units = per_layer_units()
            layers = per_layer(untraced, traced_passes)
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for line in lines:
            print(line)
    print(f"fail_rate    {failed}/{attempted} = {failed / attempted:g}")
    result = {
        "correct": bool(complete),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "meta": run_meta(),
        "passes": [
            {
                "traced": p.traced,
                "jobs": [{k: v for k, v in vars(j).items() if k != "trace"} for j in p.jobs],
            }
            for p in passes
        ],
        "result": result,
    }
    print("# meta " + json.dumps(record["meta"]))
    if trace:
        record["spans"] = [
            [p_idx, j_idx, j.name, j.trace]
            for p_idx, p in enumerate(passes)
            if p.traced
            for j_idx, j in enumerate(p.jobs)
        ]
    out = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "turan3" / "cli.py").is_file():
        print(f"error: no turan3 sources under {SRC}; run from a turan3 checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
