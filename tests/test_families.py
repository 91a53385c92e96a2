import time

import pytest

from turan3 import families, graphs
from turan3.graphs import from_edges, named_graph

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
        "ff",  # 255 vertices: above the limit, so never labelled
        "0a",
        "C4",
    ],
)
def test_resolve_graph_treats_other_hex_as_a_path(spec):
    start = time.perf_counter()
    with pytest.raises(FileNotFoundError):
        families.resolve_graph(spec)
    assert time.perf_counter() - start < 5


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
