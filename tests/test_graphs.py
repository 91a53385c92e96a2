import hashlib
import random
from fractions import Fraction
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan3 import density, families, graphs
from turan3.enumeration import _attachment_orbit_reps, _extend, _flag_data, enumerate_free
from turan3.graphs import (
    Hypergraph3,
    blow_up,
    complement,
    contains_induced,
    contains_sub,
    exhaustive_containment_scan,
    from_edges,
    graph_to_text,
    is_family_free,
    named_graph,
    parse_graph_text,
)

import oracles
from oracles import relabel


def comb(n, k):
    import math

    return math.comb(n, k)


def random_graph(n, p, rng):
    edges = [t for t in combinations(range(n), 3) if rng.random() < p]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# Construction and validation


def test_from_edges_c4_3():
    h = from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)])
    assert h.n == 4 and len(h.edges) == 4
    assert h.canon_key == named_graph("C4_3").canon_key


def test_from_edges_empty_and_dedup():
    assert len(from_edges(3, []).edges) == 0
    assert len(from_edges(5, [(0, 1, 2), (0, 1, 2)]).edges) == 1
    assert len(from_edges(5, [(2, 1, 0), (0, 1, 2)]).edges) == 1


def test_graphs_compare_and_hash_as_their_n_and_edges():
    edges = ((0, 1, 2), (1, 2, 3))
    h = Hypergraph3(4, edges)
    # the tuple's hash, on which set and frozenset orders, and so outputs, depend
    assert hash(h) == hash((4, edges))
    assert h == from_edges(4, [(3, 2, 1), (0, 1, 2)])
    assert h != Hypergraph3(5, edges) and h != Hypergraph3(4, edges[:1])
    assert h != (4, edges)


@pytest.mark.parametrize(
    "n,bad",
    [
        (3, [(0, 1, 3)]),
        (4, [(0, 1, 1)]),
        (4, [(0, -1, 2)]),
        (4, [(0, 1)]),
    ],
)
def test_from_edges_rejects(n, bad):
    with pytest.raises(ValueError):
        from_edges(n, bad)


def test_small_vertex_counts_are_legal():
    for n in (0, 1, 2):
        h = from_edges(n, [])
        assert h.n == n and not h.edges


# ---------------------------------------------------------------------------
# Canonical labeling


def test_canon_key_invariant_under_relabeling():
    h = named_graph("F5")
    rng = random.Random(7)
    for _ in range(20):
        perm = list(range(5))
        rng.shuffle(perm)
        assert relabel(h, perm).canon_key == h.canon_key


def test_c4_3_all_permutations_same_key():
    h = named_graph("C4_3")
    from itertools import permutations

    keys = {relabel(h, p).canon_key for p in permutations(range(4))}
    assert len(keys) == 1


def test_f5_vs_f32_distinct_keys():
    f5, f32 = named_graph("F5"), named_graph("F32")
    assert not oracles.iso_brute(f5, f32)
    assert f5.canon_key != f32.canon_key


def test_empty_graphs_equal_keys():
    assert from_edges(5, []).canon_key == from_edges(5, []).canon_key


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_canon_soundness_small(n):
    # canon_key equality must coincide with brute-force isomorphism on every
    # pair of labeled graphs (classes checked pairwise, members per class).
    all_graphs = list(oracles.all_labeled_graphs(n))
    by_key = {}
    for g in all_graphs:
        by_key.setdefault(g.canon_key, []).append(g)
    reps = [gs[0] for gs in by_key.values()]
    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1 :]:
            assert not oracles.iso_brute(r1, r2)
    for gs in by_key.values():
        for g in gs[1:]:
            assert oracles.iso_brute(gs[0], g)


def test_canon_soundness_n5():
    # Same audit at n=5 over all 1024 labeled graphs.
    all_graphs = list(oracles.all_labeled_graphs(5))
    by_key = {}
    for g in all_graphs:
        by_key.setdefault(g.canon_key, []).append(g)
    # Independent class count via brute-force classification.
    reps_oracle = oracles.classify_by_iso(iter(all_graphs))
    assert len(by_key) == len(reps_oracle) == 34
    for gs in by_key.values():
        assert oracles.iso_brute(gs[0], gs[-1])


def test_canonical_form_output_is_isomorphic():
    h = named_graph("F5_BAR")
    canon, key = h.canonical.graph, h.canonical.key
    assert oracles.iso_brute(canon, h)
    assert canon.canon_key == key == h.canon_key


def test_automorphisms_are_automorphisms():
    for name in ("F5", "C5_3", "C4_3", "F32"):
        h = named_graph(name)
        for a in h.canonical.automorphisms:
            assert relabel(h, a).edges == h.edges
    # C5_3 is the tight 5-cycle; its symmetry group is dihedral of order 10.
    assert len(named_graph("C5_3").canonical.automorphisms) == 10


def test_orbit_is_the_generated_group_acting_on_the_start():
    # Seeded permutation sets of 0 to 3 generators on at most 7 points,
    # against the group the oracle closes on its own.
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 7)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
        group = oracles.generated_group(gens, n)
        for width in (1, 2, 3):
            start = [
                tuple(rng.randrange(n) for _ in range(width)) for _ in range(rng.randint(1, 3))
            ]
            found = graphs.orbit(start, gens)
            assert set(found) == {tuple(g[v] for v in x) for g in group for x in start}
            # the start tuples are reached first, in their order
            assert list(found)[: len(set(start))] == list(dict.fromkeys(start))


def test_identity_orbit_keeps_the_automorphism_order():
    # The automorphism group is the identity's orbit, listed in a pinned
    # order: the first-reached order of the closure, generators in turn.
    c5 = named_graph("C5_3").canonical
    assert c5.generators == ((0, 4, 3, 2, 1), (1, 0, 4, 3, 2))
    assert c5.automorphisms == tuple(graphs.orbit([tuple(range(5))], c5.generators)) == (
        (0, 1, 2, 3, 4), (0, 4, 3, 2, 1), (1, 0, 4, 3, 2), (4, 0, 1, 2, 3), (2, 1, 0, 4, 3),
        (3, 4, 0, 1, 2), (3, 2, 1, 0, 4), (2, 3, 4, 0, 1), (4, 3, 2, 1, 0), (1, 2, 3, 4, 0),
    )
    every = repr([g.canonical.automorphisms for g in enumerate_free(5)])
    assert hashlib.sha256(every.encode()).hexdigest() == (
        "f6a79336d918a5982febdb3e49af022edaca4f4073887692311f834b8738658d"
    )


def _every_graph_up_to_6_relabelled(rng):
    for n in range(7):
        for g in enumerate_free(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield relabel(g, perm)


def test_labelling_matches_the_exhaustive_oracle():
    # Colours, keys, the relabelling reached first, the whole automorphism
    # group and rooted keys, against the search over every relabelling.
    rng = random.Random(29)
    for h in _every_graph_up_to_6_relabelled(rng):
        colors = oracles.refine_colors_by_pair_tuples(h.n, h.edges)
        assert list(h.refined_colors) == colors
        best, perms = oracles.canonical_search_exhaustive(h.n, h.edges, colors)
        data = graphs.canonical_data(h)
        assert data.key == graphs._encode(h.n, best)
        assert data.to_canonical == perms[0]
        assert set(data.automorphisms) == oracles.automorphisms_exhaustive(h)
        roots = rng.sample(range(h.n), rng.randint(0, min(3, h.n)))
        seed = [roots.index(v) if v in roots else len(roots) for v in range(h.n)]
        rooted_colors = oracles.refine_colors_by_pair_tuples(h.n, h.edges, seed)
        assert graphs._refine_colors(h.n, h.edges, seed) == rooted_colors
        rooted_best, _ = oracles.canonical_search_exhaustive(h.n, h.edges, rooted_colors)
        assert graphs.rooted_canonical_key(h, roots) == bytes([len(roots)]) + graphs._encode(
            h.n, rooted_best
        )


def test_refine_colors_matches_the_oracle_on_larger_graphs():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(7, 30)
        h = random_graph(n, rng.random() * 0.5, rng)
        seed = None
        if rng.random() < 0.5:
            roots = rng.sample(range(n), rng.randint(1, 4))
            seed = [roots.index(v) if v in roots else len(roots) for v in range(n)]
        assert graphs._refine_colors(n, h.edges, seed) == oracles.refine_colors_by_pair_tuples(
            n, h.edges, seed
        )


def test_refine_colors_ranks_seeds_that_are_not_ranks():
    # Seeds with gaps, out of order or all distinct: the result must still
    # be the ranks of the stable colouring, also when no round splits a
    # cell or the seed is already discrete.
    rng = random.Random(41)
    c5 = named_graph("C5_3")
    assert graphs._refine_colors(3, [], [5, 9, 2]) == [1, 2, 0]
    assert graphs._refine_colors(5, c5.edges, [7] * 5) == [0] * 5
    assert graphs._refine_colors(5, c5.edges, [40, 3, 3, 3, 3]) == [2, 1, 0, 0, 1]
    for _ in range(120):
        n = rng.randint(1, 14)
        h = random_graph(n, rng.random() * 0.6, rng)
        gapped = [rng.choice([2, 5, 9, 40]) for _ in range(n)]
        discrete = rng.sample(range(3, 10 * n + 3, 10), n)
        for seed in (gapped, discrete):
            assert graphs._refine_colors(n, h.edges, seed) == oracles.refine_colors_by_pair_tuples(
                n, h.edges, seed
            )


def one_cell_children(m, family=""):
    """The children with a one-cell refined colouring that the generator
    labels when it extends enumerate_free(m, family), in the labels they are
    searched in."""
    members = families.parse_family(family) if family else []
    forbidden, flags = [f.graph for f in members], [f.induced for f in members]
    pairs = list(combinations(range(m), 2))
    for parent in enumerate_free(m, forbidden, flags):
        masks = _attachment_orbit_reps(
            m,
            parent.canonical.automorphisms,
            parent.degrees,
            graphs.link_patterns(parent, forbidden, flags),
        )
        for mask in masks:
            child = _extend(parent, mask, pairs)
            if len(set(child.refined_colors)) == 1:
                yield child


def _one_cell_hosts():
    """Every 6-vertex graph with a one-cell refined colouring: the 35 of
    enumerate_free(6), and the 66 children the generator labels on the way
    there."""
    yield from (g for g in enumerate_free(6) if len(set(g.refined_colors)) == 1)
    yield from one_cell_children(5)


def assert_search_matches_sorted_leaves(n, edges, colors):
    """The same best tuple and perm as the oracle; with one cell, generators
    of the same group, else the same generators in the same order."""
    got = graphs._canonical_search(n, edges, colors)
    want = oracles.canonical_search_sorted_leaves(n, edges, colors)
    if len(set(colors)) > 1:
        assert got == want
    else:
        assert got[:2] == want[:2]
        assert oracles.generated_group(got[2], n) == oracles.generated_group(want[2], n)


def assert_labelling_matches_exhaustive(h):
    """canonical_data's key, perm and group against every relabelling: the
    least edge tuple, the first perm reaching it and every p^-1 o q."""
    colors = oracles.refine_colors_by_pair_tuples(h.n, h.edges)
    best, perms = oracles.canonical_search_exhaustive(h.n, h.edges, colors)
    data = graphs.canonical_data(h)
    assert data.key == graphs._encode(h.n, best)
    assert data.to_canonical == perms[0]
    assert oracles.generated_group(data.generators, h.n) == oracles.automorphisms_from_perms(perms)


def test_one_cell_searches_match_the_sorted_leaf_oracle():
    # The searches that visit the most leaves, with no roots and with every
    # choice of 1 or 2 roots pinned by a seed colouring.
    hosts = list(_one_cell_hosts())
    assert len(hosts) == 35 + 66
    for h in hosts:
        seeds = [None]
        for s in (1, 2):
            for roots in permutations(range(h.n), s):
                seeds.append([roots.index(v) if v in roots else s for v in range(h.n)])
        for seed in seeds:
            colors = graphs._refine_colors(h.n, h.edges, seed)
            assert_search_matches_sorted_leaves(h.n, h.edges, colors)


def test_one_cell_labelling_matches_the_exhaustive_oracle():
    # A one-cell search starts only at a pair of largest codegree: the key,
    # the perm reaching it first and the group must be those of the search
    # over every relabelling.  A CI step runs the same check on the 180
    # one-cell children of enumerate_free(6, F32,induced:F32_BAR).
    hosts = list(_one_cell_hosts())
    children = list(one_cell_children(6, "F32,C5_3_MINUS"))
    assert len(children) == 27
    for h in hosts + children:
        assert_labelling_matches_exhaustive(h)


def _labelling_hosts(rng):
    """Random graphs on 7 to 12 vertices, and random relabellings of
    blow-ups, whose refined colourings leave cells for the search."""
    for _ in range(60):
        n = rng.randint(7, 12)
        yield random_graph(n, rng.random() * 0.5, rng)
    for base, sizes in [
        ("K4_3", [2, 2, 2, 1]),
        ("K4_3", [3, 3, 2, 2]),
        ("F5", [2, 2, 1, 1, 2]),
        ("C5_3", [2, 2, 2, 2, 2]),
        ("C5_3_MINUS", [2, 1, 2, 1, 2]),
        ("F32", [1, 2, 2, 2, 3]),
    ]:
        h = blow_up(named_graph(base), sizes)
        for g in (h, complement(h)):
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield relabel(g, perm)


def test_triple_bits_rise_with_the_triple_code():
    for n in (3, 7, 12):
        codes = sorted(sum(1 << x for x in t) for t in combinations(range(n), 3))
        assert [graphs._TRIPLE_BIT[code] for code in codes] == [1 << r for r in range(len(codes))]
    top = (1 << 254) | (1 << 253) | (1 << 252)
    assert graphs._TRIPLE_BIT[top] == 1 << (comb(255, 3) - 1)


def test_canonical_search_matches_the_sorted_leaf_oracle():
    # Best tuple, perm and generators (the same group for one cell, else the
    # same list), with and without roots pinned by a seed colouring.
    rng = random.Random(37)
    for h in _labelling_hosts(rng):
        colourings = [list(h.refined_colors)]
        for _ in range(2):
            roots = rng.sample(range(h.n), rng.randint(1, 3))
            seed = [roots.index(v) if v in roots else len(roots) for v in range(h.n)]
            colourings.append(graphs._refine_colors(h.n, h.edges, seed))
        for colors in colourings:
            assert_search_matches_sorted_leaves(h.n, h.edges, colors)


@pytest.mark.parametrize(
    "h,key",
    [
        (Hypergraph3(64, ()), bytes([64])),
        (Hypergraph3(20, ()), bytes([20])),
        (
            Hypergraph3(20, tuple(combinations(range(20), 3))),
            bytes([20]) + bytes(chain.from_iterable(combinations(range(20), 3))),
        ),
    ],
    ids=["edgeless-64", "edgeless-20", "complete-20"],
)
def test_canon_key_of_large_symmetric_graphs(h, key):
    # Every relabelling is an automorphism here, so an unpruned search
    # would visit n! leaves.
    data = graphs.canonical_data(h)
    assert data.key == key
    assert data.orbit(0) == set(range(h.n))


# ---------------------------------------------------------------------------
# Containment


def test_contains_sub_examples():
    assert contains_sub(named_graph("C5_3"), named_graph("C5_3_MINUS"))
    assert contains_sub(named_graph("F5_BAR"), named_graph("C5_3"))
    partite = blow_up(from_edges(3, [(0, 1, 2)]), [3, 3, 3])
    assert not contains_sub(partite, named_graph("F32"))
    assert not contains_sub(partite, named_graph("C5_3_MINUS"))


def test_contains_induced_examples():
    k4_blowup = blow_up(named_graph("K4_3"), [2, 2, 2, 2])
    assert not contains_induced(k4_blowup, named_graph("F32_BAR"))
    for name in ("F5", "F32", "C5_3"):
        f = named_graph(name)
        assert contains_induced(f, f)
    # The single 5-subset of C5_3 spans 5 edges, not the 4 of C5_3_MINUS.
    assert not contains_induced(named_graph("C5_3"), named_graph("C5_3_MINUS"))


def test_containment_against_brute_force():
    rng = random.Random(11)
    pats = [named_graph("F5"), named_graph("C5_3_MINUS"), from_edges(4, [(0, 1, 2), (0, 1, 3)])]
    hosts = [random_graph(n, rng.random(), rng) for n in (6, 7, 8) for _ in range(25)]
    for h in hosts:
        for f in pats:
            assert contains_sub(h, f) == oracles.contains_brute(h, f, induced=False)
            assert contains_induced(h, f) == oracles.contains_brute(h, f, induced=True)


def test_exhaustive_scan_matches_backtracking():
    rng = random.Random(13)
    pats = [named_graph("C4_3"), named_graph("F5")]
    for _ in range(15):
        h = random_graph(7, rng.random(), rng)
        for f in pats:
            for induced, contains in ((False, contains_sub), (True, contains_induced)):
                found, witness = exhaustive_containment_scan(h, f, induced)
                assert found == contains(h, f)
                if found:
                    sub = graphs.induced_subgraph(h, witness)
                    assert oracles.contains_brute(sub, f, induced=induced)


def _scan_patterns():
    rng = random.Random(23)
    pats = [from_edges(0, []), from_edges(1, []), from_edges(3, [(0, 1, 2)]),
            from_edges(4, []), named_graph("C4_3"), from_edges(4, [(0, 1, 2), (0, 1, 3)])]
    pats += [named_graph(name) for name in ("F5", "F32", "F32_BAR", "C5_3_MINUS")]
    pats += [from_edges(6, []), random_graph(6, 0.3, rng), random_graph(6, 0.7, rng)]
    return pats


def test_subset_scan_matches_brute_force():
    rng = random.Random(29)
    hosts = [random_graph(n, p, rng) for n in (6, 7, 8, 9) for p in (0.15, 0.85)]
    hosts.append(blow_up(named_graph("K4_3"), [2, 2, 2, 2]))
    for h in hosts:
        for f in _scan_patterns():
            if f.n > h.n or (f.n == 6 and h.n > 8):
                continue
            subsets = list(combinations(range(h.n), f.n))
            for induced in (False, True):
                accepted = [
                    sub for sub in subsets
                    if oracles.contains_brute(graphs.induced_subgraph(h, sub), f, induced)
                ]
                want = (True, accepted[0]) if accepted else (False, None)
                assert exhaustive_containment_scan(h, f, induced) == want, (h, f, induced)
                if induced:
                    assert density.p(f, h) == Fraction(len(accepted), len(subsets)), (h, f)
    assert not exhaustive_containment_scan(hosts[-1], named_graph("F32"))[0]


def test_scan_of_a_host_with_too_few_edges_visits_no_subset(monkeypatch):
    # SemiBipartite(1, 100) is edgeless: its 79M 5-subsets once took a minute
    def refuse(*args):
        raise AssertionError("the scan visited subsets")

    f32, k4 = named_graph("F32"), named_graph("K4_3")
    edgeless = from_edges(101, [])
    three = from_edges(101, [(0, 1, 2), (0, 3, 4), (1, 3, 4)])  # F32 less an edge
    monkeypatch.setattr(graphs, "combinations", refuse)
    for h in (edgeless, three):
        for induced in (False, True):
            assert exhaustive_containment_scan(h, f32, induced) == (False, None)
        assert density.p(f32, h) == 0
    assert graphs.type_embeddings(three, k4) == []
    monkeypatch.undo()
    # as many edges as the pattern: the scan runs and finds the copy
    four = from_edges(101, list(f32.edges))
    assert exhaustive_containment_scan(four, f32) == (True, (0, 1, 2, 3, 4))
    assert density.p(f32, from_edges(6, f32.edges)) == Fraction(1, 6)


def test_scan_memo_keeps_each_notion_apart():
    # With the edge-count filter both notions decide a code alike, so the
    # answers alone cannot show a memo that mixes them; count its misses.
    f = named_graph("C5_3_MINUS")
    decide = graphs._code_injections
    decide.cache_clear()
    assert exhaustive_containment_scan(f, f, False) == (True, (0, 1, 2, 3, 4))
    assert density.p(f, f) == 1
    assert decide.cache_info().misses == 2  # one code, decided once per notion
    h = random_graph(8, 0.8, random.Random(31))
    for induced in (False, True):
        before = decide.cache_info().misses
        exhaustive_containment_scan(h, f, induced)
        assert decide.cache_info().misses > before
    density.p(f, h)
    # every code of h under each notion, those the scans memoised included
    local = list(combinations(range(f.n), 3))
    for sub in combinations(range(h.n), f.n):
        code = sum(
            1 << r for r, (a, b, c) in enumerate(local) if (sub[a], sub[b], sub[c]) in h.edge_set
        )
        g = Hypergraph3(f.n, tuple(t for r, t in enumerate(local) if code >> r & 1))
        for induced in (False, True):
            assert bool(decide(f, induced, False, code)) == oracles.contains_brute(g, f, induced)


def test_root_sets_match_the_permutation_oracle():
    # Each root set in combinations order, with the orderings that induce
    # sigma exactly, against every ordered tuple the oracle accepts; the
    # sparse hosts have fewer edges than the larger types.
    rng = random.Random(37)
    hosts = [from_edges(5, []), from_edges(6, [(0, 1, 2)]), from_edges(2, [])]
    hosts += [random_graph(n, p, rng) for n in (4, 6, 7, 8) for p in (0.1, 0.5, 0.9)]
    types = [sigma for s in range(5) for sigma in enumerate_free(s)]
    types += [relabel(sigma, rng.sample(range(sigma.n), sigma.n)) for sigma in types]
    for h in hosts:
        for sigma in types:
            grouped = {}
            for theta in oracles.type_embeddings_brute(h, sigma):
                sub = tuple(sorted(theta))
                grouped.setdefault(sub, set()).add(tuple(sub.index(v) for v in theta))
            got = list(graphs.root_sets(h, sigma))
            assert [sub for sub, _ in got] == sorted(grouped), (h, sigma)
            for sub, orderings in got:
                assert len(orderings) == len(set(orderings))
                assert set(orderings) == grouped[sub], (h, sigma, sub)


def test_root_sets_code_each_graph_once_per_size():
    # Types of one size share each graph's subset codes: listing root sets
    # of one target for two types of size 3 codes it once, and a table codes
    # each (graph, size) pair once, its flags' graphs for the type's size
    # and its targets for the type's and the flags' sizes.
    codes = graphs.subset_codes
    edgeless, edge = from_edges(3, []), from_edges(3, [(0, 1, 2)])
    targets = enumerate_free(5)
    codes.cache_clear()
    for sigma in (edgeless, edge):
        list(graphs.root_sets(targets[7], sigma))
    assert codes.cache_info().misses == 1
    density._build_table.cache_clear()
    _flag_data.cache_clear()
    density.pair_density_table(edgeless, 5)
    pairs = len(enumerate_free(4)) + 2 * len(targets)
    assert codes.cache_info().misses == pairs
    density.pair_density_table(edge, 5)
    assert codes.cache_info().misses == pairs


def test_containment_never_labels(monkeypatch):
    def refuse(h):
        raise AssertionError("containment called canonical_data")

    rng = random.Random(19)
    hosts = [random_graph(7, rng.random(), rng) for _ in range(10)]
    monkeypatch.setattr(graphs, "canonical_data", refuse)
    for h in hosts:
        for name in ("F5", "C5_3_MINUS", "F32_BAR"):
            f = named_graph(name)
            want = oracles.contains_brute(h, f, induced=True)
            assert contains_induced(h, f) == want
            assert exhaustive_containment_scan(h, f, induced=True)[0] == want
        single = from_edges(3, [(0, 1, 2)])
        assert density.p(single, h) == Fraction(len(h.edges), comb(7, 3))
        c5_minus = named_graph("C5_3_MINUS")
        hits = sum(
            oracles.contains_brute(graphs.induced_subgraph(h, sub), c5_minus, induced=True)
            for sub in combinations(range(7), 5)
        )
        assert density.p(c5_minus, h) == Fraction(hits, comb(7, 5))


def test_contains_monotone_under_edge_addition():
    rng = random.Random(17)
    f = named_graph("F5")
    for _ in range(20):
        h = random_graph(6, 0.4, rng)
        if not contains_sub(h, f):
            continue
        extra = [t for t in combinations(range(6), 3) if t not in h.edge_set]
        if extra:
            h2 = from_edges(6, list(h.edges) + [rng.choice(extra)])
            assert contains_sub(h2, f)


def test_is_family_free():
    assert not is_family_free(named_graph("K4_3"), [named_graph("C4_3")])
    partite = blow_up(from_edges(3, [(0, 1, 2)]), [2, 2, 2])
    assert is_family_free(partite, [named_graph("F32"), named_graph("C5_3_MINUS")])
    # Induced flag changes the verdict: C5_3 contains C5_3_MINUS only non-induced.
    c5 = named_graph("C5_3")
    assert not is_family_free(c5, [named_graph("C5_3_MINUS")], [False])
    assert is_family_free(c5, [named_graph("C5_3_MINUS")], [True])


# ---------------------------------------------------------------------------
# Complement, blow-up, degrees


def test_complement_examples():
    f5bar = complement(named_graph("F5"))
    assert len(f5bar.edges) == 7
    assert f5bar.canon_key == named_graph("F5_BAR").canon_key
    assert complement(from_edges(4, [])).canon_key == named_graph("C4_3").canon_key
    assert not complement(named_graph("K4_3")).edges


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=3, max_value=max_n))
    triples = list(combinations(range(n), 3))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(triples)) - 1))
    return Hypergraph3(n, tuple(t for i, t in enumerate(triples) if mask >> i & 1))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_pair_links_hold_the_third_vertices(h):
    links = h.pair_links
    assert len(links) == h.n
    for u in range(h.n):
        want = {}
        for a, b in permutations([v for v in range(h.n) if v != u], 2):
            if tuple(sorted((u, a, b))) in h.edge_set:
                want[a] = want.get(a, 0) | 1 << b
        assert links[u] == want


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_complement_involution_and_count(h):
    assert complement(complement(h)) == h
    assert len(h.edges) + len(complement(h).edges) == comb(h.n, 3)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6), st.randoms(use_true_random=False))
def test_canon_key_stable_under_random_relabeling(h, rnd):
    perm = list(range(h.n))
    rnd.shuffle(perm)
    assert relabel(h, perm).canon_key == h.canon_key


def test_blow_up_preserves_family_freeness():
    # no copy of the 5-vertex pattern can use two vertices of one class
    for sizes in ([2, 2, 2, 2], [3, 3, 3, 3]):
        b = blow_up(named_graph("K4_3"), sizes)
        found, _ = exhaustive_containment_scan(b, named_graph("F32"))
        assert not found


def test_blow_up_counts():
    b = blow_up(named_graph("K4_3"), [2, 2, 2, 2])
    assert b.n == 8 and len(b.edges) == 4 * 2**3
    h = named_graph("F5")
    assert blow_up(h, [1] * 5) == h
    single = from_edges(3, [(0, 1, 2)])
    for k in (1, 2, 3):
        assert len(blow_up(single, [k, k, k]).edges) == k**3
    with pytest.raises(ValueError):
        blow_up(single, [1, 0, 2])
    with pytest.raises(ValueError):
        blow_up(single, [1, 1])


# ---------------------------------------------------------------------------
# Named graphs and text format


def test_named_graph_definitions():
    f5 = named_graph("F5")
    assert f5.edges == ((0, 1, 2), (0, 3, 4), (1, 3, 4))
    f32 = named_graph("F32")
    assert f32.edges == ((0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4))
    c5 = named_graph("C5_3")
    assert len(c5.edges) == 5 and all(len(set(e)) == 3 for e in c5.edges)
    assert len(named_graph("C5_3_MINUS").edges) == 4
    assert named_graph("C4_3").canon_key == named_graph("K4_3").canon_key
    assert len(named_graph("F32_BAR").edges) == 6
    with pytest.raises(ValueError):
        named_graph("NOPE")


def test_text_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        h = random_graph(rng.randint(3, 8), rng.random(), rng)
        assert parse_graph_text(graph_to_text(h)) == h


def test_text_comments_and_errors():
    h = parse_graph_text("# hello\nn 4\n0 1 2  # an edge\n\n1 2 3\n")
    assert h.n == 4 and len(h.edges) == 2
    with pytest.raises(ValueError):
        parse_graph_text("4\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_graph_text("n 4\n0 1\n")
    with pytest.raises(ValueError):
        parse_graph_text("")
