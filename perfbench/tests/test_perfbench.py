"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import solution
import spans
import speed
import workloads
from turan3 import cli, families, sdp

FAMILY = "F32,C5_3_MINUS"


@pytest.fixture(scope="module")
def m5_program() -> str:
    model = sdp.assemble(5, families.parse_family(FAMILY), use_default_types=True)
    return sdp.model_to_text(model)


def test_self_times_on_synthetic_tree():
    span_list = [
        (0, "root", 0.0, 10.0, None),
        (1, "mid", 1.0, 4.0, 0),
        (2, "mid", 3.0, 6.0, 0),  # overlaps span 1: [1, 6] is covered once
        (3, "leaf", 2.0, 3.0, 1),
        (4, "leaf", 9.5, 11.0, 0),  # runs past its parent: only [9.5, 10] counts
    ]
    hot = [["hot", 0, 5, 1.0], ["hot", 1, 2, 0.5]]
    got = spans.self_times(span_list, hot)
    assert got["root"][0] == 1
    assert got["root"][1] == pytest.approx(10 - 5 - 0.5 - 1.0)
    assert got["mid"][0] == 2
    assert got["mid"][1] == pytest.approx((3 - 1 - 0.5) + 3)
    assert got["leaf"] == [2, pytest.approx(1 + 1.5)]
    assert got["hot"] == [7, pytest.approx(1.5)]


def test_slowdown_drops_preempted_probes():
    probe = speed.SpeedProbe()
    ref = speed.PROBE_REF_S
    probe.samples = [ref, 2 * ref, ref, 3 * ref, 50 * ref]  # the last was preempted
    assert probe.slowdown() == pytest.approx(7 / 4)


def test_generator_is_deterministic_and_verifies(m5_program, tmp_path, capsys, monkeypatch):
    first = solution.synthesize(m5_program, seed=3)
    assert solution.synthesize(m5_program, seed=3) == first
    assert solution.synthesize(m5_program, seed=4).solution_text != first.solution_text

    monkeypatch.chdir(tmp_path)
    Path("m5.sdp").write_text(m5_program)
    Path("solution.txt").write_text(first.solution_text)
    argv = ["round", "--model", "m5.sdp", "--solution", "solution.txt",
            "--den-bound", str(solution.DEN_BOUND), "--out", "cert.txt"]
    assert cli.main(argv) == 0
    assert Path("cert.txt").read_text() == first.certificate_text
    capsys.readouterr()
    assert cli.main(["verify", "--cert", "cert.txt"]) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert first_line == f"VERIFIED bound={solution.frac_str(first.bound)}"


def test_reference_check_catches_one_byte_change(m5_program, tmp_path):
    emit = next(workloads.prove_m6(0, tmp_path))
    stdout = "written\tm6.sdp\n"
    (tmp_path / "m6.sdp").write_text(m5_program)
    reference = {emit.ref: workloads.digests(emit, stdout, tmp_path)}
    assert workloads.check_job(emit, stdout, tmp_path, reference) is None

    data = bytearray((tmp_path / "m6.sdp").read_bytes())
    data[len(data) // 2] ^= 1
    (tmp_path / "m6.sdp").write_bytes(bytes(data))
    error = workloads.check_job(emit, stdout, tmp_path, reference)
    assert error == "m6.sdp differs from the reference"


def test_partition_check_recounts_the_cut(tmp_path):
    (tmp_path / "brec-cut.txt").write_text("n 4\n0 1 2\n0 1 3\n")
    good = "v1\t0,1\nv2\t2,3\ncross_present\t2\nlocally_maximal\tyes\n"
    assert workloads._check_partition(good, tmp_path) is None
    wrong = good.replace("cross_present\t2", "cross_present\t1")
    assert workloads._check_partition(wrong, tmp_path) == "cross_present 1, recounted 2"


def test_traced_job_wraps_names_imported_into_other_modules(tmp_path):
    argv = ["enumerate", "--m", "4", "--forbid", "C4_3"]
    spec = {"name": "enumerate", "argv": argv, "trace": True}
    env = run.job_env(tmp_path)
    subprocess.run(
        [sys.executable, str(run.HERE / "job.py"), json.dumps(spec), str(tmp_path / "r.json")],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    trace = json.loads((tmp_path / "r.json").read_text())["trace"]
    names = {sid: name for sid, name, *_ in trace["spans"]}
    # enumeration imports contains_sub from graphs; its calls must still be seen
    under_enumeration = {(name, names.get(parent)) for name, parent, _calls, _secs in trace["hot"]}
    assert ("graphs.contains_sub", "enumeration.enumerate_free") in under_enumeration
    assert ("graphs.canonical_data", "enumeration.enumerate_free") in under_enumeration
    assert names[trace["spans"][-1][0]] == "cli.enumerate"


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
