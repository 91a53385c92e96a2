import contextlib
import hashlib
import importlib.util
import io
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import turan3
from turan3 import certificate, cli, constructions, families, graphs, sdp
from turan3.cli import main
from turan3.sdp import assemble

from cert_helpers import bump_entry, lp_certificate, make_sos_certificate
from oracles import dense_block


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(out):
    table = {}
    for line in out.strip().splitlines():
        if "\t" in line:
            key, _, value = line.partition("\t")
            table[key] = value
    return table


# ---------------------------------------------------------------------------


def test_enumerate_output_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "5", "--forbid", "C4_3,F5_BAR")
    assert code == 0
    blocks = out.strip().split("graph ")[1:]
    assert out.strip().endswith("count 22")
    keys = set()
    for block in blocks:
        lines = block.splitlines()
        body = "\n".join(lines[1:])
        body = body.rsplit("count", 1)[0]
        g = graphs.parse_graph_text(body)
        keys.add(g.canon_key)
    assert len(keys) == 22


def test_enumerate_guard_is_domain_error(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "9")
    assert code == 1
    assert "soft limit" in err


def test_failing_enumerate_writes_no_out_file(capsys, tmp_path):
    out_path = tmp_path / "e.txt"
    for m in ("-1", "9"):
        code, _, err = run(capsys, "enumerate", "--m", m, "--out", str(out_path))
        assert code == 1
        assert_one_error_line(err)
        assert not out_path.exists()


def test_soft_limit_error_names_only_the_subcommands_options(capsys, tmp_path):
    code, _, err = run(capsys, "enumerate", "--m", "9")
    assert code == 1
    assert err == "error: m=9 exceeds the soft limit 7; pass --allow-large\n"
    code, out, err = run(capsys, "emit-sdp", "--m", "8", "--out", str(tmp_path / "m.sdp"))
    assert code == 1
    assert out == ""
    assert err == "error: m=8 exceeds the soft limit 7\n"


def test_enumerate_root_obeys_a_zero_vertex_member(capsys, tmp_path):
    member = tmp_path / "k0.txt"
    member.write_text("n 0\n")
    code, out, _ = run(capsys, "enumerate", "--m", "0", "--forbid", str(member))
    assert code == 0
    assert out == "count 0\n"


@pytest.mark.parametrize("spec", ["F32,", "induced:", ",,"])
def test_empty_family_member_is_domain_error(capsys, tmp_path, spec):
    out_path = tmp_path / "m.sdp"
    for argv in (
        ["enumerate", "--m", "4", "--forbid", spec],
        ["emit-sdp", "--m", "4", "--forbid", spec, "--out", str(out_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert_one_error_line(err)
        assert "is empty" in err and repr(spec) in err
    assert not out_path.exists()


# SHA-256 of the enumerate output, recorded before the generator tested
# degrees on the attachment mask and valued labelling leaves as integers.
ENUMERATE_DIGESTS = {
    (6, ""): "a98f667d032005ee2ce708a1377a08c3d032ca53c6b2a6ff3f60d48b61d188ce",
    (6, "C4_3,F5_BAR"): "b80c49a0e9398ea6b3e0423c28e4cb30a6ff1773e6506dafcd353b71fbca6e13",
    (6, "F32,C5_3_MINUS"): "c111824d539206a879bffa511a5117bd8b80135c6620f342175fa9301fd29db7",
    (6, "F32,induced:F32_BAR"): "ef6b8a2ac85553ea62e4f3eec88de787f030d7aa18b6f1dde044243490ffc84b",
    (7, "F32,C5_3_MINUS"): "31042613e6ea0de97e65faaffce877eeb4d11dd09ccf2e485d36a5dbe1340364",
}


@pytest.mark.parametrize("m, spec", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_is_pinned(capsys, m, spec):
    code, out, _ = run(capsys, "enumerate", "--m", str(m), "--forbid", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[m, spec]


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing required --m
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2


def test_construct_report_brec(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "brec", "--n", "1000", "--report")
    assert code == 0
    table = rows(out)
    assert table["edges"] == "77216298"
    assert abs(float(table["density_decimal"][:12]) - 0.4641) < 0.01
    assert table["limit_density"].startswith("0.4641016151377545870548926830117447338856105076")
    assert table["splits"].startswith("634,")


def test_construct_check_free(capsys, tmp_path):
    out_path = tmp_path / "g.txt"
    code, out, _ = run(
        capsys,
        "construct", "--kind", "brec", "--n", "12",
        "--emit", str(out_path),
        "--check-free", "C4_3,F5_BAR",
    )
    assert code == 0
    table = rows(out)
    assert table["family_free"] == "yes"
    g = graphs.load_graph(str(out_path))
    assert g.n == 12


def test_construct_check_free_of_a_large_edgeless_host_is_immediate(capsys):
    # 100,001 vertices and no edge: no 5-subset is visited
    code, out, err = run(
        capsys, "construct", "--kind", "semibipartite", "--parts", "1,100000",
        "--check-free", "F32",
    )
    assert (code, err) == (0, "")
    assert out == "free of F32\tyes\nfamily_free\tyes\n"


def test_construct_partite_report(capsys):
    code, out, _ = run(
        capsys, "construct", "--kind", "partite3", "--parts", "10,10,10", "--report"
    )
    table = rows(out)
    assert code == 0
    assert table["edges"] == "1000"
    assert table["limit_density"] == "2/9"


@pytest.mark.parametrize(
    "kind, parts",
    [("partite3", "-1,2,2"), ("k4blowup", "-2,3,3,3"), ("semibipartite", "0,-5")],
)
def test_construct_negative_part_size_is_domain_error(capsys, kind, parts):
    code, out, err = run(capsys, "construct", "--kind", kind, f"--parts={parts}", "--report")
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "action", [["--report"], ["--emit", "g.txt"], ["--check-free", "F32"]],
    ids=["report", "emit", "check-free"],
)
@pytest.mark.parametrize(
    "kind, parts, part", [("partite3", "0,2,3", 1), ("k4blowup", "2,2,0,0", 3)]
)
def test_construct_empty_blow_up_part_is_domain_error(
    capsys, tmp_path, monkeypatch, kind, parts, part, action
):
    # every action refuses the spec the same way, before building anything
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "construct", "--kind", kind, "--parts", parts, *action)
    assert (code, out) == (1, "")
    assert err == f"error: {kind} part {part} is empty; blow-up parts need at least 1 vertex\n"
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize(
    "action", [["--emit", "g.txt"], ["--check-free", "F32"]], ids=["emit", "check-free"]
)
def test_construct_refuses_a_huge_construction_before_building_it(
    capsys, tmp_path, monkeypatch, action
):
    # 10**15 edges: the closed-form count refuses the spec, nothing is built
    monkeypatch.chdir(tmp_path)
    parts = "100000,100000,100000"
    code, out, err = run(capsys, "construct", "--kind", "partite3", "--parts", parts, *action)
    assert (code, out) == (1, "")
    limit = constructions.BUILD_EDGE_LIMIT
    assert err == f"error: partite3 has {10**15} edges; build takes at most {limit}\n"
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--graph", "{}"],
        ["density", "--graph", "{}", "--edge-density"],
        ["construct", "--kind", "brec", "--n", "6", "--check-free", "{}"],
    ],
    ids=["partition", "density", "check-free"],
)
def test_graph_reader_refuses_a_vertex_count_over_its_limit(capsys, tmp_path, argv):
    # one header line would otherwise make every per-vertex list 10**10 long
    huge = tmp_path / "huge.txt"
    huge.write_text("n 10000000000\n")
    code, out, err = run(capsys, *(arg.format(huge) for arg in argv))
    assert (code, out) == (1, "")
    limit = graphs.READ_VERTEX_LIMIT
    assert err == f"error: vertex count 10000000000 exceeds the limit {limit}\n"
    # the limit itself is read
    huge.write_text(f"n {limit}\n")
    code, out, _ = run(capsys, "density", "--graph", str(huge), "--edge-density")
    assert (code, out) == (0, "edge_density\t0\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        (["brec", "--n", "5", "--splits", "9"], "split 9 exceeds the 5 remaining vertices"),
        (["brec", "--n", "7", "--splits", "2"], "5 vertices left unsplit"),
        (["partite3", "--parts", "0,2,3"], "partite3 part 1 is empty"),
        (["semibipartite", "--parts", "0,-5"], "part sizes must be nonnegative"),
        (["brec", "--n", "1000000000000"], "n=1000000000000 exceeds"),
        (["brec", "--n", "1000000000000", "--report"], "n=1000000000000 exceeds"),
        # an option the kind does not take would be dropped without a word
        (["partite3", "--n", "5", "--parts", "1,1,1"], "partite3 takes no --n or --splits"),
        (["k4blowup", "--splits", "2", "--parts", "1,1,1,1"], "k4blowup takes no --n or --splits"),
        (["brec", "--n", "9", "--parts", "1,2"], "brec takes no --parts"),
    ],
    ids=[
        "brec-split", "brec-tail", "partite3-empty", "semibipartite-negative",
        "brec-huge-n", "brec-huge-n-report", "partite3-n", "k4blowup-splits", "brec-parts",
    ],
)
def test_construct_refuses_a_bad_spec_without_an_action(capsys, spec, message):
    # no --report, --emit or --check-free: the spec is still validated
    code, out, err = run(capsys, "construct", "--kind", *spec)
    assert (code, out) == (1, "")
    assert_one_error_line(err)
    assert message in err


# SHA-256 of construct's stdout and of the emitted graph file, recorded
# before the kinds were described by their blow-up pattern or their levels.
CONSTRUCT_DIGESTS = {
    ("brec", "--n", "25"): (
        "8de6820fc58bcd9a8893d98abd578c94856749b8bb91950cf6be65519c83b118",
        "296bcddad3b15d01dc893c7fb76e6ea320faaca424bd7f4ad16a3837f2006059",
    ),
    ("brec", "--n", "9", "--splits", "5,2"): (
        "9ba766a555d9eeefcb5b0fcf67022ec10d8a919a9bf976f650ec713bebcdbfee",
        "5f4bc83ab534bad0c797c6e0131772822171b7b0b9a14b42479b4f82341a66b5",
    ),
    ("partite3", "--parts", "5,4,6"): (
        "cc58606eac9cbbe4ccf69c18aa22c27741efc8bd581cf6151f3ef1468d4cce6f",
        "9ae10ff32a4a1828d1195a8ca0d20cef04a08a5a181d8d2d2f0a42ce1fcd0899",
    ),
    ("k4blowup", "--parts", "3,3,3,3"): (
        "39953ae585a53ec1b1ad3cc60ebb95b8abe2c87383d6c66e2b87e3e0ee3b105f",
        "05f3991add625b209af5b9748fad1cfbbbf5d1b59f7575d1fc629b34ce580e24",
    ),
    ("semibipartite", "--parts", "5,4"): (
        "ccf2b92c0c84b4c96ac9bbafaca2f4d98fe653a1c5bf891c5c7fa3923e0a6940",
        "122d47b7dad901e07fdbab8654aa3ae76c2c442d4afa870f1e1cdbb9c0c5c722",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spec", sorted(CONSTRUCT_DIGESTS))
def test_construct_report_and_emit_are_pinned(capsys, tmp_path, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)  # the emitted path is part of stdout
    code, out, _ = run(capsys, "construct", "--kind", *spec, "--report", "--emit", "g.txt")
    assert code == 0
    assert (sha256(out.encode()), sha256((tmp_path / "g.txt").read_bytes())) == (
        CONSTRUCT_DIGESTS[spec]
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--kind", "partite3", "--parts", "5,4,6", "--check-free", "F32,C5_3_MINUS"],
            "5f4b9218ef5f8a6b1a39d4dbfc1222c10634f14912e94e1b33be904708a69ae2",
        ),
        (
            ["--kind", "k4blowup", "--parts", "3,3,3,3", "--check-free", "F32,C5_3_MINUS,C4_3"],
            "2b737ff2eeca9cabfa33cdf30a9f6f0c3645a2139cdd8aed22bfc2ba24b26cc8",
        ),
        (
            ["--kind", "semibipartite", "--parts", "0,0", "--report"],
            "0901c83e6045bbc5b0107623464ed3ef2def1d848c3f4ba58a7e233e1511cb9d",
        ),
    ],
    ids=["partite3-free", "k4blowup-witnesses", "semibipartite-empty"],
)
def test_construct_scans_and_empty_report_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert sha256(out.encode()) == digest


@pytest.mark.parametrize(
    "kind, parts, count",
    [("partite3", "1,2", 3), ("k4blowup", "3,3,3", 4), ("semibipartite", "3", 2)],
)
def test_construct_part_count_error_names_part_sizes(capsys, kind, parts, count):
    code, out, err = run(capsys, "construct", "--kind", kind, "--parts", parts, "--report")
    assert code == 1
    assert out == ""
    assert err == f"error: {kind} needs exactly {count} part sizes\n"


def test_density_subcommand(capsys, tmp_path):
    path = tmp_path / "h.txt"
    graphs.save_graph(graphs.named_graph("K4_3"), str(path))
    sub_path = tmp_path / "edge3.txt"
    graphs.save_graph(graphs.from_edges(3, [(0, 1, 2)]), str(sub_path))
    code, out, _ = run(
        capsys, "density", "--graph", str(path), "--edge-density", "--sub", str(sub_path)
    )
    assert code == 0
    table = rows(out)
    assert table["edge_density"] == "1"
    assert table[f"p {sub_path}"] == "1"
    code, _, err = run(capsys, "density", "--graph", str(path))
    assert code == 1 and "nothing to do" in err
    # oversized pattern is a domain error
    code, _, err = run(capsys, "density", "--graph", str(path), "--sub", "F5")
    assert code == 1 and "cannot fit" in err


def test_density_unknown_name_is_domain_error(capsys):
    code, _, err = run(capsys, "density", "--graph", "NOT_A_NAME", "--edge-density")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--graph", "03000102000102", "--edge-density"],
        ["enumerate", "--m", "4", "--forbid", "03000102000102"],
    ],
    ids=["density", "enumerate"],
)
def test_key_with_a_repeated_edge_is_an_error(capsys, tmp_path, monkeypatch, argv):
    # Read as a path, which does not exist, rather than as a graph.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        "error: '03000102000102' is neither a built-in name, a canonical key nor a file\n"
    )


def test_emit_sdp_with_a_large_symmetric_member_file(capsys, tmp_path):
    member = tmp_path / "empty12.txt"
    graphs.save_graph(graphs.Hypergraph3(12, ()), str(member))
    out_path = tmp_path / "m5.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "5", "--forbid", str(member), "--out", str(out_path)
    )
    assert code == 0
    assert "family 0c\n" in out_path.read_text()


def _emit_round_verify_lp(capsys, tmp_path, forbid, bound=Fraction(3, 4), remove=None):
    """emit-sdp, round and verify the LP bound; remove a file before verify."""
    model_path = tmp_path / "m.sdp"
    code, out, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", forbid,
        "--types", "none", "--out", str(model_path),
    )
    assert code == 0
    assert rows(out)["lp_bound"] == str(bound)

    # hand-written solver output matching the LP optimum
    model = assemble(4, families.parse_family(forbid))
    floats = [float(bound)] + [float(bound - o) for o in model.obj]
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text(" ".join(str(x) for x in floats) + "\n")
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--den-bound", "65536", "--out", str(cert_path),
    )
    assert code == 0
    assert rows(out)["bound"] == str(bound)

    if remove is not None:
        remove.unlink()
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert out.splitlines()[0] == f"VERIFIED bound={bound}"


def test_emit_sdp_and_round_and_verify(capsys, tmp_path):
    _emit_round_verify_lp(capsys, tmp_path, "C4_3")


def test_family_file_with_a_space_survives_round(capsys, tmp_path):
    path = tmp_path / "my f5.txt"
    path.write_text(graphs.graph_to_text(graphs.named_graph("F5")))
    _emit_round_verify_lp(capsys, tmp_path, f"C4_3,{path}")


def test_type_without_flags_is_left_out_of_the_program(capsys, tmp_path):
    # K4_3 plus an isolated vertex: every 5-vertex graph on a K4_3 contains
    # it, so no flag lies over the type K4_3 at m=6
    model_path = tmp_path / "m.sdp"
    code, out, _ = run(
        capsys, "emit-sdp", "--m", "6", "--forbid", "05010203010204010304020304",
        "--types", "default", "--out", str(model_path),
    )
    assert code == 0
    assert rows(out)["block_dims"] == "2,12,64,45,50,56"

    # the LP optimum with zero PSD blocks
    model = sdp.parse_sdp(str(model_path))
    bound = max(model.obj)
    zeros = [0.0] * (model.solution_length() - 1 - model.n_constraints)
    floats = [float(bound)] + zeros + [float(bound - o) for o in model.obj]
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text(" ".join(str(x) for x in floats) + "\n")
    cert_path = tmp_path / "cert.txt"
    code, _, _ = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--den-bound", "65536", "--out", str(cert_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert out.splitlines()[0] == f"VERIFIED bound={bound}"

    # a block for K4_3 has no block of the program to line up with
    text = cert_path.read_text()
    first_slack = text.index("slack 0 ")
    cert_path.write_text(
        text[:first_slack] + "type 04000102000103000203010203 dim 0\n" + text[first_slack:]
    )
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 1
    assert out == "REJECTED block 6: no flags lie over its type\n"


def test_verify_opens_no_family_file(capsys, tmp_path):
    # two edges sharing a pair, not a built-in: the program names it by key
    path = tmp_path / "pair.txt"
    graphs.save_graph(graphs.from_edges(4, [(0, 1, 2), (0, 1, 3)]), str(path))
    _emit_round_verify_lp(capsys, tmp_path, str(path), Fraction(1, 4), remove=path)
    assert "family 04000203010203\n" in (tmp_path / "m.sdp").read_text()


def test_verify_rejects_a_family_key_that_names_a_file(capsys, tmp_path, monkeypatch):
    # the file holds a valid graph, but a certificate names its members only
    # by built-in name or canonical key, so verify never reads it
    monkeypatch.chdir(tmp_path)
    graphs.save_graph(graphs.named_graph("C4_3"), "mine.txt")
    cert = lp_certificate(4, families.parse_family("C4_3"))
    certificate.save_certificate(cert._replace(family_key="mine.txt"), "cert.txt")

    def no_file(path):
        raise AssertionError(f"verify opened {path}")

    monkeypatch.setattr(graphs, "load_graph", no_file)
    result = certificate.verify(certificate.load_certificate("cert.txt"))
    assert not result.ok and "mine.txt" in result.reason
    code, out, err = run(capsys, "verify", "--cert", "cert.txt")
    assert code == 1 and err == ""
    assert out.splitlines() == [f"REJECTED {result.reason}"]


def test_emit_sdp_type_sizes(capsys, tmp_path):
    out_path = tmp_path / "m.sdp"
    code, out, _ = run(
        capsys, "emit-sdp", "--m", "5", "--forbid", "C4_3,F5_BAR", "--types", "1,3",
        "--out", str(out_path),
    )
    assert code == 0
    assert rows(out)["block_dims"] == "2,8,7"
    out_path.unlink()
    for m, selection, reason in [
        ("5", "1,2", "type size 2 has the wrong parity for m=5"),
        ("6", "8", "type size 8 exceeds m=6"),
        ("6", "-2", "type size -2 is negative"),
        ("6", "4,x", "type size 'x' is not an integer"),
        ("6", "2,2", "type size 2 is repeated"),
        ("6", "2,", "type size '' is not an integer"),
    ]:
        code, out, err = run(
            capsys, "emit-sdp", "--m", m, "--types", selection, "--out", str(out_path)
        )
        assert (code, out, err) == (1, "", f"error: {reason}\n"), selection
        assert not out_path.exists()


@pytest.mark.parametrize("size", [3, 8])
def test_verify_rejects_a_type_that_does_not_fit_m(capsys, tmp_path, size):
    # flags of size (6 + s) / 2 over s roots exist only for s <= 6 of even size
    cert = lp_certificate(6, families.parse_family("F32,C5_3_MINUS"))
    block = sdp.CertificateBlock(graphs.from_edges(size, []).canon_key, 1, (Fraction(1),))
    path = tmp_path / "cert.txt"
    certificate.save_certificate(cert._replace(blocks=(block,)), str(path))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert (code, err) == (1, "")
    assert out == f"REJECTED no program: type of size {size} does not fit in m=6\n"


def test_verify_rejects_bad_certificate(capsys, tmp_path):
    cert = lp_certificate(4, families.parse_family("C4_3"))
    bad = certificate.Certificate(
        bound=Fraction(7, 10),
        family_key=cert.family_key,
        m=4,
        blocks=(),
        slacks=cert.slacks,
    )
    path = tmp_path / "bad.txt"
    certificate.save_certificate(bad, str(path))
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 1
    assert out.startswith("REJECTED")


# SHA-256 of verify's stdout, recorded before the verifier's exact loops ran
# on integers, for certificates that round the benchmark's seeded solver
# stand-in (perfbench/solution.py) on the m=6 program for F32,C5_3_MINUS:
# (seed, --den-bound, block 3 broken) -> (first line's start, digest).
VERIFY_DIGESTS = {
    (0, 1024, False): (
        "VERIFIED bound=68/121",
        "b3ad11b4fc94e4f3111c82b52c71963a766652ea550d4ce305119eda48953954",
    ),
    (1, 1024, False): (
        "VERIFIED bound=544/965",
        "1f3e8edc1b19a350efec43459dd5876bd797b8e42e890155afc3e43cd6abfad5",
    ),
    (2, 1024, False): (
        "VERIFIED bound=89/154",
        "64ed2feb4ff22fd0ef4e9e056d6d3b00c6923af88aa553262c0fd66b7c6a5517",
    ),
    (0, 2**32, False): (
        "VERIFIED bound=1181284135/2101999991",
        "0e17dae40b63f4acfbaae774eaebcfa01b2244fb9a38096bbe7cdc579576f71c",
    ),
    (1, 2**32, False): (
        "REJECTED constraint fails at graph 2",
        "87aeb47ea89af95cc5b84f737e07b6775057823db041910faed6047f056dc2fa",
    ),
    (0, 1024, True): (
        "REJECTED block 3: matrix not positive semidefinite",
        "55c06f194f8cf639a5b873d46e7fb5cd19d473bcca2157560ab66dcdbcedf2b8",
    ),
}

STAND_IN_SOLVER = Path(__file__).resolve().parents[1] / "perfbench" / "solution.py"


@pytest.fixture(scope="module")
def stand_in_solver():
    """perfbench/solution.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_solution", STAND_IN_SOLVER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def m6_program(tmp_path_factory):
    path = tmp_path_factory.mktemp("prove-m6") / "m6.sdp"
    family = families.parse_family("F32,C5_3_MINUS")
    sdp.emit(assemble(6, family, use_default_types=True), str(path))
    return path


@pytest.mark.parametrize(
    "seed, den_bound, broken",
    list(VERIFY_DIGESTS),
    ids=["1024-seed0", "1024-seed1", "1024-seed2", "2^32-seed0", "2^32-seed1", "not-psd"],
)
def test_verify_stdout_is_pinned(
    capsys, tmp_path, stand_in_solver, m6_program, seed, den_bound, broken
):
    solution = tmp_path / "solution.txt"
    synth = stand_in_solver.synthesize(m6_program.read_text(encoding="utf-8"), seed)
    solution.write_text(synth.solution_text, encoding="utf-8")
    cert_path = tmp_path / "cert.txt"
    code, _, _ = run(
        capsys, "round", "--model", str(m6_program), "--solution", str(solution),
        "--den-bound", str(den_bound), "--out", str(cert_path),
    )
    assert code == 0
    if broken:
        # a 2x2 principal minor of block 3 made negative: q01 = q00 + q11
        cert = certificate.load_certificate(str(cert_path))
        q = dense_block(cert.blocks[3])
        blocks = list(cert.blocks)
        blocks[3] = bump_entry(blocks[3], 0, 1, q[0][0] + q[1][1] - q[0][1])
        certificate.save_certificate(cert._replace(blocks=tuple(blocks)), str(cert_path))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    start, digest = VERIFY_DIGESTS[seed, den_bound, broken]
    assert out.startswith(start)
    assert code == (0 if start.startswith("VERIFIED") else 1)
    assert sha256(out.encode()) == digest


# SHA-256 of the certificate round writes for the same stand-in solutions,
# recorded before the reader and the rounding kept one value per token:
# (seed, --den-bound) -> digest of cert.txt.
ROUND_DIGESTS = {
    (0, 1024): "c62c54b8a3ad7d804625b2368badacd68d154d1180e9ea8c4d857af231e8ef74",
    (1, 1024): "365e6f8ac27971f7d7d1b8a1f33b6bbb70157575e44eda10bf880826f5424120",
    (2, 1024): "340eab3446b4b2f6db16486750b7ecbacb224a45a1c75e10219d2090a290cb11",
    (0, 2**32): "f12678f5556f788f03144b9ed7acb2525143f5c297c4e94802426f20cfabd873",
    (1, 2**32): "e35149f5c9265fbe8749c91ca9fb6d349731ec3a2c266ed99da5526f8a5df2af",
    (2, 2**32): "914cb682aaef0f2f1e1d8d3d1bcc8f48d551d39cd934f6b78ff3ef6f9df88ab7",
}


@pytest.mark.parametrize(
    "seed, den_bound", list(ROUND_DIGESTS), ids=[f"{d}-seed{s}" for s, d in ROUND_DIGESTS]
)
def test_round_certificate_is_pinned(capsys, tmp_path, stand_in_solver, m6_program, seed, den_bound):
    solution = tmp_path / "solution.txt"
    synth = stand_in_solver.synthesize(m6_program.read_text(encoding="utf-8"), seed)
    solution.write_text(synth.solution_text, encoding="utf-8")
    cert_path = tmp_path / "cert.txt"
    code, _, _ = run(
        capsys, "round", "--model", str(m6_program), "--solution", str(solution),
        "--den-bound", str(den_bound), "--out", str(cert_path),
    )
    assert code == 0
    assert sha256(cert_path.read_bytes()) == ROUND_DIGESTS[seed, den_bound]
    if den_bound == stand_in_solver.DEN_BOUND:
        assert cert_path.read_text(encoding="utf-8") == synth.certificate_text


# SHA-256 of partition's stdout on the optimal brec graph at n=60 (16,225
# edges) with 64 restarts, per seed, recorded before the move gains were
# read from pair links.
PARTITION_DIGESTS = {
    0: "81e0302a1518112b915d26c882d3b0b1ea375831efc8d5cfb2d8f249b88ba10c",
    1: "81e0302a1518112b915d26c882d3b0b1ea375831efc8d5cfb2d8f249b88ba10c",
}


@pytest.mark.parametrize("seed", sorted(PARTITION_DIGESTS))
def test_partition_search_is_pinned(capsys, tmp_path, seed):
    path = str(tmp_path / "brec60.txt")
    assert run(capsys, "construct", "--kind", "brec", "--n", "60", "--emit", path)[0] == 0
    code, out, _ = run(
        capsys, "partition", "--graph", path, "--analyze", "--restarts", "64",
        "--seed", str(seed), "--xi", "1/100",
    )
    assert code == 0
    assert sha256(out.encode()) == PARTITION_DIGESTS[seed]


# SHA-256 of partition's stdout on the optimal brec graph at n=60 with the
# even vertices as V1, recorded while the missing triples were still listed
# one by one.  That partition is far from a max cut (bad 8114, missing 6906,
# locally_maximal no), so every count and inequality row is nonzero.
PARTITION_V1_DIGEST = "215126dfa3781d0f5893b2939fedfd27c387ad85535af6b6191a81aaea2dd26e"


def test_partition_given_v1_is_pinned(capsys, tmp_path):
    path = str(tmp_path / "brec60.txt")
    assert run(capsys, "construct", "--kind", "brec", "--n", "60", "--emit", path)[0] == 0
    v1 = ",".join(map(str, range(0, 60, 2)))
    code, out, _ = run(capsys, "partition", "--graph", path, "--v1", v1, "--xi", "1/100")
    assert code == 0
    assert sha256(out.encode()) == PARTITION_V1_DIGEST


@pytest.mark.parametrize("extra", [["--v1", "0,2"], ["--restarts", "3"]])
def test_partition_classifies_the_edges_once(capsys, monkeypatch, extra):
    from turan3 import partition

    calls = []
    count = partition.bad_missing

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(partition, "bad_missing", counted)
    code, out, _ = run(capsys, "partition", "--graph", "C5_3", *extra)
    assert code == 0 and rows(out)["missing"]
    assert len(calls) == 1


@pytest.mark.parametrize("extra, checks", [(["--v1", "0,2"], 1), (["--restarts", "3"], 0)])
def test_partition_checks_local_maximality_only_of_a_given_v1(capsys, monkeypatch, extra, checks):
    # The search stops only when no single move gains, so its answer is
    # printed as locally maximal without a second pass over the links.
    from turan3 import partition

    calls = []
    check = partition.is_locally_maximal
    monkeypatch.setattr(
        partition, "is_locally_maximal", lambda *args: calls.append(args) or check(*args)
    )
    code, out, _ = run(capsys, "partition", "--graph", "C5_3", *extra)
    assert code == 0
    assert len(calls) == checks
    if not checks:
        assert rows(out)["locally_maximal"] == "yes"


def test_partition_subcommand_given_v1(capsys, tmp_path):
    path = tmp_path / "h.txt"
    graphs.save_graph(graphs.named_graph("K4_3"), str(path))
    code, out, _ = run(
        capsys, "partition", "--graph", str(path), "--v1", "0,1", "--xi", "0"
    )
    assert code == 0
    table = rows(out)
    assert table["bad"] == "2"
    assert table["missing"] == "0"
    assert table["cross_present"] == "2"
    assert table["edge_bound_holds"] == "no"


@pytest.mark.parametrize("extra", [[], ["--v1", ""]])
def test_partition_of_the_empty_graph_is_domain_error(capsys, extra):
    code, out, err = run(capsys, "partition", "--graph", "00", *extra)
    assert code == 1
    assert out == ""
    assert err == "error: need at least one vertex\n"


def test_partition_search_deterministic(capsys, tmp_path):
    path = tmp_path / "h.txt"
    from turan3.constructions import SemiBipartite, build

    graphs.save_graph(build(SemiBipartite(6, 3)), str(path))
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "partition", "--graph", str(path), "--restarts", "8", "--seed", "3"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    table = rows(outs[0])
    assert table["locally_maximal"] == "yes"
    assert table["cross_present"] == "45"  # C(6,2)*3


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("forbid = C4_3  # file default\n")
    code, out, _ = run(capsys, "enumerate", "--m", "4", "--config", str(cfg))
    assert code == 0 and out.strip().endswith("count 4")
    # an explicit flag overrides the file value (all 5 classes reappear)
    code, out, _ = run(
        capsys, "enumerate", "--m", "4", "--config", str(cfg), "--forbid", "F5"
    )
    assert code == 0 and out.strip().endswith("count 5")
    bad = tmp_path / "bad"
    for line in ("nonsense_key = 1\n", "help = 1\n"):
        bad.write_text(line)
        code, _, err = run(capsys, "enumerate", "--m", "4", "--config", str(bad))
        assert code == 1 and "unknown config key" in err
        assert_one_error_line(err)


def test_config_yields_to_a_flag_given_at_its_default(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("forbid = C4_3\n")
    assert run(capsys, "enumerate", "--m", "4", "--config", str(cfg))[1].endswith("count 4\n")
    code, out, _ = run(capsys, "enumerate", "--m", "4", "--forbid", "", "--config", str(cfg))
    assert code == 0
    assert out.endswith("count 5\n")


@pytest.mark.parametrize(
    "text, named",
    [
        ("forbid = C4_3\nforbid = none\n", "config key 'forbid' is given twice"),
        ("allow-large = yes\nallow_large = no\n", "config key 'allow_large' is given twice"),
        ("human = maybe\n", "config key 'human': 'maybe' is not a yes/no word"),
        ("human =\n", "config key 'human': '' is not a yes/no word"),
    ],
    ids=["repeated", "repeated-spelling", "switch-word", "switch-empty"],
)
def test_config_rejects_repeated_keys_and_unknown_switch_words(capsys, tmp_path, text, named):
    cfg = tmp_path / "cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, "enumerate", "--m", "4", "--config", str(cfg))
    assert code == 1 and out == ""
    assert_one_error_line(err)
    assert named in err


@pytest.mark.parametrize("word, human", [("ON", True), ("1", True), ("off", False), ("No", False)])
def test_config_switch_reads_both_word_sets(capsys, tmp_path, word, human):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"human = {word}\n")
    argv = ["construct", "--kind", "partite3", "--parts", "2,2,2", "--report"]
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert ("edges: 8" if human else "edges\t8") in out.splitlines()


def test_human_mode(capsys):
    code, out, _ = run(
        capsys, "construct", "--kind", "partite3", "--parts", "2,2,2",
        "--report", "--human",
    )
    assert code == 0
    assert "edges: 8" in out


def assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_config_value_takes_the_option_type(capsys, tmp_path):
    # --n has no default, so its type comes from the option, not the default
    cfg = tmp_path / "cfg"
    cfg.write_text("n = 7\n")
    want = run(capsys, "construct", "--kind", "brec", "--report", "--n", "7")
    assert want[0] == 0
    assert run(capsys, "construct", "--kind", "brec", "--report", "--config", str(cfg)) == want
    cfg.write_text("n = x\n")
    code, out, err = run(capsys, "construct", "--kind", "brec", "--report", "--config", str(cfg))
    assert code == 1 and out == ""
    assert_one_error_line(err)


def test_config_supplies_required_options(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("m = 4\n")
    want = run(capsys, "enumerate", "--m", "4")
    assert want[0] == 0
    assert run(capsys, "enumerate", "--config", str(cfg)) == want
    # a flag still beats the file
    code, out, _ = run(capsys, "enumerate", "--m", "5", "--config", str(cfg))
    assert code == 0 and out.endswith("count 34\n")
    cfg.write_text("kind = partite3\nparts = 2,2,2\nreport = yes\n")
    code, out, _ = run(capsys, "construct", "--config", str(cfg))
    assert code == 0 and "edges\t8" in out.splitlines()
    cfg.write_text("kind = bogus\n")
    code, out, err = run(capsys, "construct", "--config", str(cfg))
    assert code == 1 and out == ""
    assert_one_error_line(err)
    assert "config key 'kind': invalid choice 'bogus'" in err
    # an option given by neither is still argparse's usage error
    cfg.write_text("forbid = C4_3\n")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: turan3 enumerate [-h] --m M ")
    assert err.endswith("turan3 enumerate: error: the following arguments are required: --m\n")


def test_config_supplies_every_required_option_of_round_and_verify(capsys, tmp_path):
    model = tmp_path / "m.sdp"
    assert run(capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--out", str(model))[0] == 0
    length = sdp.model_from_text(model.read_text()).solution_length()
    solution = tmp_path / "sol.txt"
    solution.write_text(" ".join(["0.5"] * length) + "\n")
    cert = tmp_path / "cert.txt"
    cfg = tmp_path / "cfg"
    cfg.write_text(f"model = {model}\nsolution = {solution}\nout = {cert}\n")
    code, out, _ = run(capsys, "round", "--config", str(cfg))
    assert code == 0 and rows(out)["written"] == str(cert)
    cfg.write_text(f"cert = {cert}\n")
    assert run(capsys, "verify", "--config", str(cfg)) == run(capsys, "verify", "--cert", str(cert))


@pytest.mark.parametrize(
    "argv, named",
    [
        (["construct", "--kind", "partite3", "--parts", "1,2,x", "--report"], "--parts value 'x'"),
        (["construct", "--kind", "brec", "--n", "10", "--splits", "2,x", "--report"],
         "--splits value 'x'"),
        (["partition", "--graph", "C4_3", "--v1", "a"], "--v1 vertex 'a'"),
        (["partition", "--graph", "C4_3", "--v1", "0,9"], "vertex 9 is outside 0..3"),
    ],
    ids=["parts", "splits", "v1-not-integer", "v1-outside"],
)
def test_bad_integer_lists_name_the_option_and_value(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert_one_error_line(err)
    assert named in err


def test_partition_zero_xi_denominator_is_domain_error(capsys, tmp_path):
    path = tmp_path / "h.txt"
    graphs.save_graph(graphs.named_graph("K4_3"), str(path))
    code, _, err = run(
        capsys, "partition", "--graph", str(path), "--v1", "0,1", "--xi", "1/0"
    )
    assert code == 1
    assert_one_error_line(err)


def test_round_model_without_blockdims_is_domain_error(capsys, tmp_path):
    model_path = tmp_path / "m.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--out", str(model_path)
    )
    assert code == 0
    text = model_path.read_text()
    model_path.write_text(
        "".join(line for line in text.splitlines(True) if not line.startswith("blockdims"))
    )
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text("0.75\n")
    code, _, err = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--out", str(tmp_path / "cert.txt"),
    )
    assert code == 1
    assert_one_error_line(err)


def test_round_infinite_solution_value_is_domain_error(capsys, tmp_path):
    model_path = tmp_path / "m.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--out", str(model_path)
    )
    assert code == 0
    model = assemble(4, families.parse_family("C4_3"))
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text("inf " + " ".join(["0"] * model.n_constraints) + "\n")
    code, _, err = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--out", str(tmp_path / "cert.txt"),
    )
    assert code == 1
    assert_one_error_line(err)


def _usage_error_lines(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return [line for line in capsys.readouterr().err.splitlines() if "error:" in line]


@pytest.mark.parametrize("restarts", ["0", "-1"])
def test_restarts_below_one_is_usage_error(capsys, restarts):
    errors = _usage_error_lines(capsys, ["partition", "--graph", "K4_3", "--restarts", restarts])
    assert len(errors) == 1 and "--restarts" in errors[0]


@pytest.mark.parametrize("den_bound", ["0", "-3"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_den_bound_below_one_is_usage_error(capsys, tmp_path, den_bound, via_config):
    model_path = tmp_path / "m.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--out", str(model_path)
    )
    assert code == 0
    model = assemble(4, families.parse_family("C4_3"))
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text(" ".join(["0.75"] + ["0.1"] * model.n_constraints) + "\n")
    argv = ["round", "--model", str(model_path), "--solution", str(sol_path),
            "--out", str(tmp_path / "cert.txt")]
    if via_config:
        config = tmp_path / "round.cfg"
        config.write_text(f"den-bound = {den_bound}\n")
        argv += ["--config", str(config)]
    else:
        argv += ["--den-bound", den_bound]
    errors = _usage_error_lines(capsys, argv)
    assert len(errors) == 1 and "--den-bound" in errors[0]
    assert not (tmp_path / "cert.txt").exists()


_NO_JOBS_COMMANDS = [
    ["construct", "--kind", "brec", "--n", "8", "--check-free", "C4_3"],
    ["partition", "--graph", "K4_3", "--restarts", "4"],
]


@pytest.mark.parametrize("argv", _NO_JOBS_COMMANDS, ids=["construct", "partition"])
def test_jobs_flag_is_a_usage_error(capsys, argv):
    errors = _usage_error_lines(capsys, argv + ["--jobs", "2"])
    assert len(errors) == 1 and errors[0].endswith("unrecognized arguments: --jobs 2")


@pytest.mark.parametrize("argv", _NO_JOBS_COMMANDS, ids=["construct", "partition"])
def test_jobs_config_key_is_unknown(capsys, tmp_path, argv):
    config = tmp_path / "jobs.cfg"
    config.write_text("jobs = 2\n")
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == 1
    assert out == ""
    assert err == "error: unknown config key 'jobs'\n"


def _child_env():
    """Environment in which a child imports the package these tests import."""
    root = os.path.dirname(os.path.dirname(turan3.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "turan3.cli", "density", "--graph", "F5", "--edge-density"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "edge_density\t3/10"


def test_cli_import_loads_no_process_pool():
    code = (
        "import sys, turan3.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: site's .pth files may import either module themselves
    code = (
        "import sys, turan3.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_core_commands_import_only_the_standard_library(tmp_path):
    certificate.save_certificate(
        make_sos_certificate(4, families.parse_family("C4_3")), str(tmp_path / "cert.txt")
    )
    code = (
        "import sys\n"
        "from turan3.cli import main\n"
        "assert main(['enumerate', '--m', '4', '--forbid', 'C4_3', '--out', 'g.txt']) == 0\n"
        "assert main(['emit-sdp', '--m', '4', '--forbid', 'C4_3', '--types', 'default',"
        " '--out', 'm.sdp']) == 0\n"
        "assert main(['verify', '--cert', 'cert.txt']) == 0\n"
        "print(sorted(m for m in ('numpy', 'scipy', 'sympy', 'networkx') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _limit_address_space(limit=500_000_000):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--m", "4", "--forbid", "/dev/zero"],
        ["construct", "--kind", "brec", "--n", "6", "--check-free", "/dev/zero"],
        ["density", "--graph", "/dev/zero", "--edge-density"],
        ["density", "--graph", "F5", "--sub", "/dev/zero"],
        ["round", "--model", "/dev/zero", "--solution", "/dev/zero", "--out", "c.txt"],
        ["round", "--model", "m.sdp", "--solution", "/dev/zero", "--out", "c.txt"],
        ["verify", "--cert", "/dev/zero"],
        ["verify", "--cert", "c.txt", "--config", "/dev/zero"],
    ],
    ids=["forbid", "check-free", "graph", "sub", "model", "solution", "cert", "config"],
)
def test_device_input_is_refused_in_bounded_memory(tmp_path, argv):
    # /dev/zero never ends, and a sparse file one byte over the read limit
    # would not fit: each file flag refuses both unread, under 0.5 GB of
    # address space, instead of reading until memory runs out.
    model = str(tmp_path / "m.sdp")
    assert main(["emit-sdp", "--m", "4", "--forbid", "C4_3", "--out", model]) == 0
    big = tmp_path / "big.txt"
    with open(big, "wb") as fh:
        fh.truncate(graphs.READ_BYTE_LIMIT + 1)
    refusals = {
        "/dev/zero": "error: /dev/zero is not a regular file\n",
        str(big): f"error: {big} has {graphs.READ_BYTE_LIMIT + 1} bytes,"
        f" over the limit {graphs.READ_BYTE_LIMIT}\n",
    }
    for path, error in refusals.items():
        proc = subprocess.run(
            [sys.executable, "-m", "turan3.cli", *(path if a == "/dev/zero" else a for a in argv)],
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=tmp_path,
            timeout=60,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == error


def test_a_pattern_of_255_vertices_is_scanned_in_bounded_memory(tmp_path):
    # A pattern's code has one bit per triple, C(255, 3) of them here: the
    # scan must code it in memory linear in that count, and the search must
    # list only the pattern's edges, not its triples, within 0.2 GB of
    # address space. One vertex more is refused with one error line.
    def child(*argv):
        return subprocess.run(
            [sys.executable, "-m", "turan3.cli", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=120,
            preexec_fn=lambda: _limit_address_space(200_000_000),
        )

    edge, over = tmp_path / "edge255.txt", tmp_path / "edge256.txt"
    edge.write_text("n 255\n0 1 2\n")
    over.write_text("n 256\n0 1 2\n")
    proc = child("density", "--graph", str(edge), "--sub", str(edge))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"p {edge}\t1\n"
    for argv in (
        ["density", "--graph", str(over), "--sub", str(over)],
        ["construct", "--kind", "brec", "--n", "12", "--check-free", str(over)],
    ):
        proc = child(*argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: pattern on 256 vertices exceeds the limit 255\n"


def _good_certificate_text():
    return certificate.certificate_to_text(lp_certificate(4, families.parse_family("C4_3")))


@pytest.mark.parametrize(
    "change",
    [
        lambda text: _swap_line(text, "bound", "bound"),
        lambda text: text + "slack 0\n",
        lambda text: _swap_line(text, "bound", "bound 1/0"),
        lambda text: _swap_line(text, "family", "family"),
        lambda text: _swap_line(text, "family", ""),
    ],
    ids=["bare-bound", "bare-slack", "zero-denominator-bound", "bare-family", "no-family"],
)
def test_verify_malformed_certificate_is_domain_error(capsys, tmp_path, change):
    path = tmp_path / "cert.txt"
    path.write_text(change(_good_certificate_text()))
    code, _, err = run(capsys, "verify", "--cert", str(path))
    assert code == 1
    assert_one_error_line(err)


def _swap_line(text, prefix, new):
    return "".join(
        new + "\n" if line.split()[:1] == [prefix] else line
        for line in text.splitlines(keepends=True)
    )


def test_round_zero_denominator_entry_is_domain_error(capsys, tmp_path):
    model_path = tmp_path / "m.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--out", str(model_path)
    )
    assert code == 0
    lines = model_path.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:4] + ["1/0"])
    model_path.write_text("\n".join(lines) + "\n")
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text("0.75\n")
    code, _, err = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--out", str(tmp_path / "cert.txt"),
    )
    assert code == 1
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "key, message",
    [
        ("0501", "error: type key 0501: malformed key body\n"),
        ("05", "error: type key 05: type of size 5 does not fit in m=4\n"),
    ],
    ids=["not-a-key", "does-not-fit"],
)
def test_round_bad_type_key_is_domain_error(capsys, tmp_path, key, message):
    model_path = tmp_path / "m.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--types", "default",
        "--out", str(model_path),
    )
    assert code == 0
    lines = model_path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("typekeys "))
    lines[k] = " ".join(["typekeys", key] + lines[k].split()[2:])
    model_path.write_text("\n".join(lines) + "\n")
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text("0.75\n")
    cert_path = tmp_path / "cert.txt"
    code, out, err = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--out", str(cert_path),
    )
    assert (code, out, err) == (1, "", message)
    assert not cert_path.exists()


def test_round_repeated_model_entry_is_domain_error(capsys, tmp_path):
    model_path = tmp_path / "m.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--types", "default",
        "--out", str(model_path),
    )
    assert code == 0
    lines = model_path.read_text().splitlines()
    first = next(line for line in lines if line.split()[1] == "3")
    lines.insert(lines.index(first) + 1, " ".join(first.split()[:4] + ["-7/3"]))
    model_path.write_text("\n".join(lines) + "\n")
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text("0.75\n")
    code, _, err = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--out", str(tmp_path / "cert.txt"),
    )
    assert code == 1
    assert_one_error_line(err)
    assert err.startswith("error: repeated entry (")


def test_repeated_header_line_is_domain_error(capsys, tmp_path):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(_good_certificate_text() + "m 5\n")
    code, _, err = run(capsys, "verify", "--cert", str(cert_path))
    assert (code, err) == (1, "error: repeated m line: 'm 5'\n")
    model_path = tmp_path / "m.sdp"
    code, _, _ = run(
        capsys, "emit-sdp", "--m", "4", "--forbid", "C4_3", "--out", str(model_path)
    )
    assert code == 0
    model_path.write_text(model_path.read_text() + "m 5\n")
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text("0.75\n")
    code, _, err = run(
        capsys, "round", "--model", str(model_path), "--solution", str(sol_path),
        "--out", str(tmp_path / "out.txt"),
    )
    assert (code, err) == (1, "error: repeated m line: 'm 5'\n")


# ---------------------------------------------------------------------------
# Fuzzing every file argument through main


def _fuzz_seeds():
    """Valid small inputs per file argument; each stays cheap to process."""
    from turan3.sdp import model_to_text

    from cert_helpers import make_sos_certificate

    family = families.parse_family("C4_3")
    model = assemble(4, family, use_default_types=True)
    return {
        "graph": graphs.graph_to_text(graphs.named_graph("F5")),
        "model": model_to_text(model),
        "solution": " ".join(["0.5"] * model.solution_length()) + "\n",
        "cert": certificate.certificate_to_text(make_sos_certificate(4, family)),
        "config": "human = yes\nforbid = C4_3\n",
    }


# The five readers of input files, each from a file's text.
_READERS = {
    "graph": lambda text, path: graphs.parse_graph_text(text),
    "model": lambda text, path: sdp.model_from_text(text),
    "solution": lambda text, path: sdp.read_solution(_written(path, text)),
    "cert": lambda text, path: certificate.certificate_from_text(text),
    "config": lambda text, path: cli._read_config(_written(path, text)),
}


def _written(path, text):
    path.write_bytes(text.encode())
    return str(path)


@pytest.mark.parametrize(
    "decorate",
    [
        # CRLF line ends, a trailing comment on each content line, and
        # comment-only and blank lines between them
        lambda lines: "# leading comment\r\n\r\n"
        + "".join(f"{line}  # note\r\n  \t\r\n# only a comment\r\n" for line in lines),
        # a form feed ends a line for str.splitlines, so each content line
        # after a comment and a form feed is kept
        lambda lines: "".join(f"# note\x0c{line}\n" for line in lines),
    ],
    ids=["crlf-comments-blanks", "form-feed"],
)
@pytest.mark.parametrize("kind", list(_READERS))
def test_every_reader_shares_one_line_grammar(kind, decorate, tmp_path):
    seeds = _fuzz_seeds()
    plain = {**seeds, "solution": "0.5 -0.25\n1e-3\n"}[kind]
    read = _READERS[kind]
    want = read(plain, tmp_path / "plain")
    assert read(decorate(plain.splitlines()), tmp_path / "decorated") == want


# Replacement tokens stay small: a file that declares an m above 4 is valid
# input that takes long to process.
_TOKENS = (
    "", "0", "1", "-1", "2", "3", "1/0", "2/3", "-1/2", "0.5", "1e5", "nan",
    "x", "none", "dim", "ff", "#", "=", "n", "m", "bound", "slack", "type",
)


@st.composite
def _mutated(draw, text):
    lines = text.splitlines() or [""]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "dup", "token", "trim", "cut", "insert")))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(parts)
        elif op == "trim":
            parts = lines[i].split()
            lines[i] = " ".join(parts[: draw(st.integers(0, len(parts)))])
        elif op == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=4))))
    return "\n".join(lines) + "\n"


_SEEDS = None


def _commands(kind, path, seeds_dir):
    good = {k: str(seeds_dir / k) for k in ("graph", "model", "solution")}
    if kind == "graph":
        return [
            ["density", "--graph", path, "--edge-density"],
            ["density", "--graph", "F5", "--sub", path],
            ["partition", "--graph", path, "--restarts", "2"],
            ["enumerate", "--m", "4", "--forbid", path, "--out", "enum.txt"],
        ]
    if kind == "model":
        return [["round", "--model", path, "--solution", good["solution"], "--out", "c.txt"]]
    if kind == "solution":
        return [["round", "--model", good["model"], "--solution", path, "--out", "c.txt"]]
    if kind == "cert":
        return [["verify", "--cert", path]]
    return [["density", "--graph", good["graph"], "--edge-density", "--config", path]]


@pytest.mark.parametrize("kind", ["graph", "model", "solution", "cert", "config"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fuzz_file_arguments_never_escape(kind, data, tmp_path_factory):
    global _SEEDS
    if _SEEDS is None:
        _SEEDS = _fuzz_seeds()
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in _SEEDS.items():
        (work / name).write_text(text)
    text = data.draw(st.one_of(_mutated(_SEEDS[kind]), st.text(max_size=40)))
    path = work / f"fuzz-{kind}"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in _commands(kind, str(path), work):
            # hypothesis refuses the function-scoped capsys
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (argv, text)
            errors = [line for line in err.getvalue().splitlines() if "error:" in line]
            assert len(errors) <= 1, (argv, text, errors)
    finally:
        os.chdir(cwd)
