"""The library surface the benchmark in perfbench/ relies on.

The benchmark wraps each function its span list names and drives three
entry points directly; renaming or re-signing any of them breaks it without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from turan3 import cli, families, graphs, sdp
from turan3.constructions import BRec, b_rec, build

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    assert model.type_dims
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
