import time

import pytest

from turan3 import families, graphs
from turan3.cli import main
from turan3.enumeration import SOFT_VERTEX_LIMIT
from turan3.graphs import Hypergraph3, from_edges, named_graph

# Two edges sharing a pair: not a built-in.
PAIR = from_edges(4, [(0, 1, 2), (0, 1, 3)])


def test_resolve_graph_reads_names_keys_and_files(tmp_path):
    assert families.resolve_graph("F5") == named_graph("F5")
    key = PAIR.canon_key.hex()
    assert families.resolve_graph(key) == PAIR.canonical.graph
    path = tmp_path / "pair.txt"
    graphs.save_graph(PAIR, str(path))
    assert families.resolve_graph(str(path)) == PAIR


@pytest.mark.parametrize(
    "spec",
    [
        "04000102000103",  # a key layout, but not the canonical labelling
        "04 000203010203",  # spaced
        "03000102000102",  # an edge twice
        "C4",
    ],
)
def test_resolve_graph_treats_other_hex_as_a_path(spec):
    start = time.perf_counter()
    with pytest.raises(FileNotFoundError) as caught:
        families.resolve_graph(spec)
    assert time.perf_counter() - start < 5
    assert str(caught.value) == f"{spec!r} is neither a built-in name, a canonical key nor a file"


@pytest.mark.parametrize("spec", ["0a", "ff"])
def test_resolve_graph_reads_keys_of_any_vertex_count(spec):
    assert families.resolve_graph(spec) == Hypergraph3(int(spec, 16), ())


def test_large_member_file_round_trips_through_its_key(tmp_path):
    path = tmp_path / "empty12.txt"
    graphs.save_graph(Hypergraph3(12, ()), str(path))
    family = families.parse_family(f"F5,{path}")
    assert families.family_key(family) == "F5,0c"
    path.unlink()
    again = families.parse_family("F5,0c")
    assert families.family_key(again) == "F5,0c"
    assert again[1].graph == Hypergraph3(12, ())


def test_family_key_names_no_file(tmp_path):
    f5_path = tmp_path / "f5.txt"
    graphs.save_graph(named_graph("F5"), str(f5_path))
    pair_path = tmp_path / "pair.txt"
    graphs.save_graph(PAIR, str(pair_path))
    family = families.parse_family(f"K4_3,{f5_path},induced:{pair_path}")
    key = families.family_key(family)
    assert key == f"K4_3,F5,induced:{PAIR.canon_key.hex()}"
    f5_path.unlink()
    pair_path.unlink()
    again = families.parse_family(key)
    assert families.family_key(again) == key
    assert [(m.graph.canon_key, m.induced) for m in again] == [
        (m.graph.canon_key, m.induced) for m in family
    ]


def test_family_from_key_reads_names_and_keys_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graphs.save_graph(PAIR, "pair.txt")
    key = f"K4_3,induced:{PAIR.canon_key.hex()}"
    assert families.family_from_key(key) == families.parse_family(key)
    assert families.family_from_key("none") == ()
    with pytest.raises(ValueError, match="pair.txt"):
        families.family_from_key("K4_3,pair.txt")
    assert families.parse_family("pair.txt")[0].graph == PAIR


def test_large_member_file_is_never_labelled(tmp_path, monkeypatch):
    # Labelling the edgeless 12-vertex graph would try 12! relabellings.
    real = graphs.canonical_data

    def small_only(h):
        assert h.n <= SOFT_VERTEX_LIMIT, f"canonical labelling of a {h.n}-vertex graph"
        return real(h)

    monkeypatch.setattr(graphs, "canonical_data", small_only)
    path = tmp_path / "empty12.txt"
    graphs.save_graph(Hypergraph3(12, ()), str(path))
    (member,) = families.parse_family(str(path))
    assert member.graph.n == 12 and member.name is None
    out = tmp_path / "enum.txt"
    assert main(["enumerate", "--m", "5", "--forbid", str(path), "--out", str(out)]) == 0
    assert out.read_text().endswith("count 34\n")
