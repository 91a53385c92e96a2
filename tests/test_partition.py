import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import turan3.partition as partition_mod
from turan3.constructions import (
    SemiBipartite,
    b_rec,
    build,
    optimal_brec,
)
from turan3.enumeration import enumerate_free
from turan3.graphs import from_edges, named_graph
from turan3.partition import (
    bad_missing,
    is_locally_maximal,
    lemma22_gap,
    maxcut_local_search,
    prop33_expr,
)

import oracles
from oracles import maxcut_exact


def random_graph(n, prob, rng):
    edges = [t for t in combinations(range(n), 3) if rng.random() < prob]
    return from_edges(n, edges)


def random_partition(n, rng):
    v1 = {v for v in range(n) if rng.random() < 0.5}
    return v1, set(range(n)) - v1


# ---------------------------------------------------------------------------
# bad_missing


def test_bad_missing_k4():
    h = named_graph("K4_3")
    stats = bad_missing(h, {0, 1}, {2, 3})
    bad, missing = oracles.bad_missing_brute(h, {0, 1}, {2, 3})
    assert bad == {(0, 2, 3), (1, 2, 3)} and missing == set()
    assert (stats.bad, stats.missing) == (len(bad), len(missing))
    assert stats.cross_present == 2
    assert stats.inner2 == 0


def test_bad_missing_semibipartite_defining_partition():
    h = build(SemiBipartite(5, 3))
    stats = bad_missing(h, set(range(5)), set(range(5, 8)))
    assert stats.bad == stats.missing == 0
    assert stats.cross_present == comb(5, 2) * 3


def test_bad_missing_brec_top_split():
    n = 12
    spec = optimal_brec(n)
    h = build(spec)
    n1 = spec.splits[0]
    stats = bad_missing(h, set(range(n1)), set(range(n1, n)))
    assert stats.bad == stats.missing == 0
    assert stats.inner2 == b_rec(n - n1)[0]


def test_partition_validation():
    h = named_graph("K4_3")
    with pytest.raises(ValueError):
        bad_missing(h, {0, 1}, {1, 2, 3})
    with pytest.raises(ValueError):
        bad_missing(h, {0, 1}, {2})


def _check_counts(h, v1, v2):
    stats = bad_missing(h, v1, v2)
    bad, missing = oracles.bad_missing_brute(h, v1, v2)
    assert (stats.bad, stats.missing) == (len(bad), len(missing))
    assert len(h.edges) == stats.cross_present + stats.bad + stats.inner2
    assert stats.cross_present + len(missing) == comb(len(v1), 2) * len(v2)


def test_accounting_invariants_random():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(3, 7)
        h = random_graph(n, rng.random(), rng)
        v1, v2 = random_partition(n, rng)
        _check_counts(h, v1, v2)


def test_accounting_invariants_exhaustive_n5():
    rng = random.Random(22)
    h = random_graph(5, 0.5, rng)
    for mask in range(1 << 5):
        v1 = {v for v in range(5) if mask >> v & 1}
        v2 = set(range(5)) - v1
        _check_counts(h, v1, v2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_counts_match_the_triple_walk(data):
    n = data.draw(st.integers(1, 9))
    triples = list(combinations(range(n), 3))
    edges = data.draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    v1 = set(data.draw(st.lists(st.integers(0, n - 1), unique=True)))  # either side may be empty
    _check_counts(from_edges(n, edges), v1, set(range(n)) - v1)


def test_missing_is_counted_not_listed():
    # C(1500, 2) * 1500 absent cross triples: a walk over them would not finish
    stats = bad_missing(from_edges(3000, []), range(1500), range(1500, 3000))
    assert stats.missing == 1686375000
    assert (stats.cross_present, stats.bad, stats.inner2) == (0, 0, 0)


# ---------------------------------------------------------------------------
# max-cut


def test_maxcut_recovers_semibipartite():
    h = build(SemiBipartite(20, 10))
    res = maxcut_local_search(h, restarts=32, seed=0)
    assert res.cross_present == comb(20, 2) * 10
    assert res.mu_lower == Fraction(6 * comb(20, 2) * 10, 30**3) == Fraction(19, 45)
    assert is_locally_maximal(h, res.v1, res.v2)


def test_maxcut_empty_graph():
    h = from_edges(5, [])
    res = maxcut_local_search(h, restarts=4, seed=1)
    assert res.mu_lower == 0
    assert is_locally_maximal(h, {0, 1}, {2, 3, 4})


def test_maxcut_vs_exhaustive():
    rng = random.Random(31)
    agree = 0
    for _ in range(30):
        h = random_graph(9, 0.4 + 0.4 * rng.random(), rng)
        exact, _ = maxcut_exact(h)
        res = maxcut_local_search(h, restarts=32, seed=rng.randint(0, 10**6))
        assert res.cross_present <= exact
        if res.cross_present == exact:
            agree += 1
    assert agree >= 27


def _check_flips(h, in_v1, moves):
    # a wrong update can make the ascent cycle forever, so check each
    # step against the edge walk before running whole searches
    s = partition_mod._mask(in_v1)
    assert s == sum(1 << v for v in range(h.n) if in_v1[v])
    deltas, cross = partition_mod._move_deltas(h, in_v1, s)
    assert (deltas, cross) == oracles.move_deltas_edges(h, in_v1)
    for v in moves:
        s = partition_mod._flip(h, in_v1, deltas, s, v)
        assert s == partition_mod._mask(in_v1)
        expected = oracles.move_deltas_edges(h, in_v1)
        assert deltas == expected[0]
        assert partition_mod._move_deltas(h, in_v1, s) == expected
        v1 = {u for u in range(h.n) if in_v1[u]}
        assert bad_missing(h, v1, set(range(h.n)) - v1).cross_present == expected[1]


def test_flip_keeps_the_move_deltas_exact():
    rng = random.Random(53)
    for n in range(1, 16):
        h = random_graph(n, rng.random(), rng)
        if n > 4:  # isolated vertices: edges only among the first n - 2
            h = from_edges(n, [e for e in h.edges if e[2] < n - 2])
        in_v1 = [rng.random() < 0.5 for _ in range(n)]
        _check_flips(h, in_v1, [rng.randrange(n) for _ in range(20)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flip_and_move_deltas_match_the_edge_walk(data):
    n = data.draw(st.integers(1, 12))
    triples = list(combinations(range(n), 3))
    edges = data.draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    in_v1 = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    moves = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    _check_flips(from_edges(n, edges), in_v1, moves)


def test_maxcut_matches_full_recompute_oracle():
    rng = random.Random(47)
    for n in range(5, 31):
        h = random_graph(n, 0.1 + 0.8 * rng.random(), rng)
        for _ in range(3):
            seed = rng.randint(0, 10**6)
            restarts = rng.randint(1, 6)
            res = maxcut_local_search(h, restarts=restarts, seed=seed)
            v1, v2, cross = oracles.maxcut_full_recompute(h, restarts, seed)
            assert (res.v1, res.v2, res.cross_present) == (v1, v2, cross)
    brec = build(optimal_brec(60))  # the partition job's host, 16,225 edges
    res = maxcut_local_search(brec, restarts=2, seed=0)
    v1, v2, cross = oracles.maxcut_full_recompute(brec, 2, 0)
    assert (res.v1, res.v2, res.cross_present) == (v1, v2, cross)


def test_maxcut_restart_i_is_seeded_with_seed_plus_i():
    h = random_graph(20, 0.5, random.Random(59))
    for seed in range(40, 44):
        whole = maxcut_local_search(h, restarts=6, seed=seed)
        # max keeps the first of equal maxima, as the search does
        singles = [maxcut_local_search(h, restarts=1, seed=seed + i) for i in range(6)]
        assert whole == max(singles, key=lambda res: res.cross_present)


@pytest.mark.parametrize("restarts", [0, -1])
def test_maxcut_rejects_restarts_below_one(restarts):
    with pytest.raises(ValueError, match="restarts"):
        maxcut_local_search(from_edges(4, [(0, 1, 2)]), restarts=restarts)


def test_not_locally_maximal_instance():
    # all pairs from {0,1,2} with vertex 3: putting everything in V1 wastes
    # the cut, and moving 3 out gains 3 cross edges
    h = from_edges(4, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert not is_locally_maximal(h, {0, 1, 2, 3}, set())
    assert is_locally_maximal(h, {0, 1, 2}, {3})


# ---------------------------------------------------------------------------
# inequalities


def test_lemma22_brec_exact_at_xi_zero():
    for n in (12, 20):
        spec = optimal_brec(n)
        h = build(spec)
        n1 = spec.splits[0]
        lhs, rhs, holds = lemma22_gap(bad_missing(h, set(range(n1)), set(range(n1, n))), 0)
        assert holds
        assert lhs == rhs  # B = M = 0 and |H| = C(n1,2) n2 + b_rec(n2)


def test_lemma22_large_xi_trivial():
    h = named_graph("K4_3")
    lhs, rhs, holds = lemma22_gap(bad_missing(h, {0, 1, 2}, {3}), 1)
    assert holds and rhs - lhs >= 60


def test_lemma22_reports_failure():
    h = named_graph("K4_3")
    lhs, rhs, holds = lemma22_gap(bad_missing(h, {0, 1, 2, 3}, set()), 0)
    assert not holds
    assert rhs == -Fraction(4, 3999)


def test_prop33_values():
    h = build(SemiBipartite(4, 3))
    assert prop33_expr(bad_missing(h, set(range(4)), set(range(4, 7)))) == 0
    assert prop33_expr(bad_missing(named_graph("K4_3"), {0, 1}, {2, 3})) == 2
    empty = from_edges(6, [])
    v1, v2 = {0, 1, 2}, {3, 4, 5}
    assert prop33_expr(bad_missing(empty, v1, v2)) == -Fraction(3999, 4000) * comb(3, 2) * 3


# ---------------------------------------------------------------------------
# structure audit: every five vertices of a twice-forbidden-free graph
# span at most six edges, and conversely for complete-4-free graphs


@pytest.mark.parametrize("m", [5, 6])
def test_five_subset_edge_bound_audit(m):
    fam = [named_graph("C4_3"), named_graph("F5_BAR")]
    for g in enumerate_free(m, fam):
        for sub in combinations(range(m), 5):
            spanned = sum(1 for t in combinations(sub, 3) if t in g.edge_set)
            assert spanned <= 6


@pytest.mark.parametrize("m", [5, 6])
def test_five_subset_bound_equivalence(m):
    # among complete-4-free graphs, forbidding the 7-edge 5-vertex graph is
    # the same as capping every 5-subset at 6 edges
    from turan3.graphs import contains_sub

    f5bar = named_graph("F5_BAR")
    for g in enumerate_free(m, [named_graph("C4_3")]):
        cap6 = all(
            sum(1 for t in combinations(sub, 3) if t in g.edge_set) <= 6
            for sub in combinations(range(m), 5)
        )
        assert cap6 == (not contains_sub(g, f5bar))
