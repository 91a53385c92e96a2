"""The library surface the benchmark in perfbench/ relies on.

The benchmark wraps each function its span list names and drives three
entry points directly; renaming or re-signing any of them breaks it without
failing any other test.  Its tracer also reads arguments and results of
some wrapped calls, so one traced job of each kind is run as the benchmark
runs it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turan3
from turan3 import certificate, cli, families, graphs, sdp
from turan3.constructions import BRec, b_rec, build

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_function():
    spans = _spans()
    assert spans.TRACED
    for qualname in spans.TRACED:
        mod_name, fn_name = qualname.split(".")
        module = importlib.import_module(f"turan3.{mod_name}")
        assert callable(getattr(module, fn_name, None)), qualname
    for mod_name in spans.MODULES:
        importlib.import_module(f"turan3.{mod_name}")


def test_is_family_free_takes_graphs_and_induced_flags():
    family = families.parse_family("C4_3,F5_BAR")
    members = [fm.graph for fm in family]
    flags = [fm.induced for fm in family]
    assert graphs.is_family_free(build(BRec(12, b_rec(12)[1])), members, flags)
    assert not graphs.is_family_free(graphs.named_graph("K4_3"), members, flags)


def test_assemble_selects_the_default_types():
    family = families.parse_family("F32,C5_3_MINUS")
    model = sdp.assemble(5, family, use_default_types=True)
    assert model.blocks
    assert model == sdp.assemble(5, family, types=sdp.default_types(5, family))


def test_partition_accepts_analyze(capsys, tmp_path):
    path = tmp_path / "brec.txt"
    graphs.save_graph(build(BRec(12, b_rec(12)[1])), str(path))
    argv = ["partition", "--graph", str(path), "--analyze", "--restarts", "4",
            "--seed", "1", "--xi", "1/100"]
    assert cli.main(argv) == 0
    rows = dict(line.split("\t", 1) for line in capsys.readouterr().out.splitlines())
    assert {"v1", "v2", "cross_present", "locally_maximal"} <= rows.keys()
    assert rows["locally_maximal"] == "yes"


def _write_m4_proof(directory: Path) -> None:
    """An m=4 default-type program (m4.sdp), a solution of it that verifies
    (m4.sol: Q blocks zero, u the LP bound, slacks u - obj(F)) and the
    certificate it rounds to (m4.cert)."""
    model = sdp.assemble(4, use_default_types=True)
    sdp.emit(model, str(directory / "m4.sdp"))
    u = max(model.obj)
    zeros = [0.0] * (model.solution_length() - 1 - model.n_constraints)
    floats = [float(u)] + zeros + [float(u - obj) for obj in model.obj]
    (directory / "m4.sol").write_text(" ".join(map(repr, floats)) + "\n", encoding="utf-8")
    cert = sdp.round_solution(model, floats)
    assert certificate.verify(cert).ok
    certificate.save_certificate(cert, str(directory / "m4.cert"))


@pytest.mark.parametrize(
    "name, argv, traced",
    [
        ("enumerate", ["enumerate", "--m", "4"], "enumeration.enumerate_free"),
        ("emit-sdp", ["emit-sdp", "--m", "4", "--types", "default", "--out", "m4.sdp"],
         "density.pair_density_table"),
        ("round", ["round", "--model", "m4.sdp", "--solution", "m4.sol", "--out", "round.cert"],
         "sdp.model_from_text"),
        ("verify", ["verify", "--cert", "m4.cert"], "certificate.inner_product"),
        ("is_family_free", ["brec12.txt", "C4_3,F5_BAR"], "graphs.contains_sub"),
        ("partition", ["partition", "--graph", "brec12.txt", "--analyze", "--restarts", "4",
                       "--seed", "1", "--xi", "1/100"], "partition.maxcut_local_search"),
    ],
    ids=["enumerate", "emit-sdp", "round", "verify", "is_family_free", "partition"],
)
def test_traced_job_runs(tmp_path, name, argv, traced):
    graphs.save_graph(build(BRec(12, b_rec(12)[1])), str(tmp_path / "brec12.txt"))
    _write_m4_proof(tmp_path)
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(turan3.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    spec = json.dumps({"name": name, "argv": argv, "trace": True})
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "job.py"), spec, str(result_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result_path.read_text(encoding="utf-8"))["trace"]
    names = {span[1] for span in trace["spans"]} | {row[0] for row in trace["hot"]}
    assert {f"cli.{name}", traced} <= names
    if name == "round":
        assert (tmp_path / "round.cert").read_text() == (tmp_path / "m4.cert").read_text()
