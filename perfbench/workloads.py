"""The benchmark's workloads: the jobs of one pass, and how each is checked.

A workload is a generator of Jobs. Code between two yields (making the
synthetic solver output, say) runs after the previous job has exited and
before the next starts, so it is never timed. Each job runs in its own
interpreter with the pass directory as working directory, so every path
below is relative and every output is byte-stable across runs.

Jobs whose output does not depend on the seed are checked against
`reference.json` (digests recorded at the commit that added the benchmark).
Seeded jobs are checked against values this package computes on its own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import solution

REFERENCE_PATH = Path(__file__).with_name("reference.json")

ENUMERATE_FAMILIES = (
    ("empty", ""),
    ("c43-f5bar", "C4_3,F5_BAR"),
    ("f32-c53minus", "F32,C5_3_MINUS"),
)
PROVE_FAMILY = "F32,C5_3_MINUS"
BREC_FAMILY = "C4_3,F5_BAR"
SCAN_N = 40
PARTITION_N = 60
PARTITION_RESTARTS = 64


@dataclass(frozen=True)
class Job:
    name: str  # turan3 subcommand, or the library job "is_family_free"
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # files the job writes, relative to the pass directory
    ref: str | None = None  # reference.json key; None for seeded jobs
    check: Callable[[str, Path], str | None] | None = None  # (stdout, pass dir) -> error


def enumerate_m6(seed: int, pass_dir: Path) -> Iterator[Job]:
    for label, forbid in ENUMERATE_FAMILIES:
        out = f"enum-{label}.txt"
        yield Job(
            "enumerate",
            ("enumerate", "--m", "6", "--forbid", forbid, "--out", out),
            outputs=(out,),
            ref=f"enumerate-m6/{label}",
        )


def prove_m6(seed: int, pass_dir: Path) -> Iterator[Job]:
    yield Job(
        "emit-sdp",
        ("emit-sdp", "--m", "6", "--forbid", PROVE_FAMILY, "--types", "default", "--out", "m6.sdp"),
        outputs=("m6.sdp",),
        ref="prove-m6/emit-sdp",
    )
    synth = solution.synthesize((pass_dir / "m6.sdp").read_text(encoding="utf-8"), seed)
    (pass_dir / "solution.txt").write_text(synth.solution_text, encoding="utf-8")
    yield Job(
        "round",
        ("round", "--model", "m6.sdp", "--solution", "solution.txt",
         "--den-bound", str(solution.DEN_BOUND), "--out", "cert.txt"),
        check=partial(_check_round, synth),
    )
    yield Job("verify", ("verify", "--cert", "cert.txt"), check=partial(_check_verify, synth))


def lower_brec(seed: int, pass_dir: Path) -> Iterator[Job]:
    yield Job(
        "construct",
        ("construct", "--kind", "brec", "--n", str(SCAN_N), "--report",
         "--check-free", BREC_FAMILY, "--emit", "brec-scan.txt"),
        outputs=("brec-scan.txt",),
        ref="lower-brec/construct-scan",
    )
    yield Job("is_family_free", ("brec-scan.txt", BREC_FAMILY), ref="lower-brec/is_family_free")
    yield Job(
        "construct",
        ("construct", "--kind", "brec", "--n", str(PARTITION_N), "--emit", "brec-cut.txt"),
        outputs=("brec-cut.txt",),
        ref="lower-brec/construct-cut",
    )
    yield Job(
        "partition",
        ("partition", "--graph", "brec-cut.txt", "--analyze", "--restarts",
         str(PARTITION_RESTARTS), "--seed", str(seed), "--xi", "1/100"),
        check=_check_partition,
    )


WORKLOADS = {
    "enumerate-m6": enumerate_m6,
    "prove-m6": prove_m6,
    "lower-brec": lower_brec,
}


# ---------------------------------------------------------------------------
# Checks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(job: Job, stdout: str, pass_dir: Path) -> dict:
    """What reference.json records for a seed-independent job."""
    return {
        "stdout": sha256(stdout.encode()),
        "files": {name: sha256((pass_dir / name).read_bytes()) for name in job.outputs},
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check_job(job: Job, stdout: str, pass_dir: Path, reference: dict) -> str | None:
    """None when the job's outputs are right, else what is wrong."""
    if job.check is not None:
        return job.check(stdout, pass_dir)
    want = reference.get(job.ref)
    if want is None:
        return f"no reference recorded for {job.ref}"
    try:
        got = digests(job, stdout, pass_dir)
    except OSError as exc:
        return f"missing output: {exc}"
    if got["stdout"] != want["stdout"]:
        return "stdout differs from the reference"
    for name, digest in want["files"].items():
        if got["files"].get(name) != digest:
            return f"{name} differs from the reference"
    return None


def _check_round(synth: solution.Synthetic, stdout: str, pass_dir: Path) -> str | None:
    if stdout != f"written\tcert.txt\nbound\t{solution.frac_str(synth.bound)}\n":
        return f"unexpected round output {stdout!r}"
    try:
        text = (pass_dir / "cert.txt").read_text(encoding="utf-8")
    except OSError as exc:
        return f"missing certificate: {exc}"
    if text != synth.certificate_text:
        return "rounded certificate differs from the expected one"
    return None


def _check_verify(synth: solution.Synthetic, stdout: str, pass_dir: Path) -> str | None:
    first = stdout.split("\n", 1)[0]
    if first != f"VERIFIED bound={solution.frac_str(synth.bound)}":
        return f"unexpected verify result {first!r}"
    return None


def read_graph(path: Path) -> tuple[int, list[tuple[int, ...]]]:
    n = 0
    edges = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "n":
            n = int(parts[1])
        else:
            edges.append(tuple(int(x) for x in parts))
    return n, edges


def cut_stats(n: int, edges, v1: set[int]) -> tuple[int, bool]:
    """(edges with exactly two vertices in V1, whether no single move gains)."""
    cross = 0
    gain = [0] * n
    for e in edges:
        k = sum(v in v1 for v in e)
        cross += k == 2
        for v in e:
            after = k - 1 if v in v1 else k + 1
            gain[v] += (after == 2) - (k == 2)
    return cross, all(g <= 0 for g in gain)


def _check_partition(stdout: str, pass_dir: Path) -> str | None:
    rows = dict(line.split("\t", 1) for line in stdout.splitlines() if "\t" in line)
    try:
        n, edges = read_graph(pass_dir / "brec-cut.txt")
        v1 = {int(x) for x in rows["v1"].split(",") if x}
        v2 = {int(x) for x in rows["v2"].split(",") if x}
        stated = int(rows["cross_present"])
    except (OSError, KeyError, ValueError) as exc:
        return f"malformed partition output: {exc}"
    if v1 & v2 or v1 | v2 != set(range(n)):
        return "v1 and v2 do not partition the vertex set"
    cross, locally_max = cut_stats(n, edges, v1)
    if stated != cross:
        return f"cross_present {stated}, recounted {cross}"
    if rows.get("locally_maximal") != "yes" or not locally_max:
        return "partition is not locally maximal"
    return None
