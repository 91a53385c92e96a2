import time
from itertools import combinations
from math import comb, factorial

import pytest

from turan3 import families
from turan3.enumeration import (
    _attachment_orbit_reps,
    _extend,
    _in_top_cell,
    _new_vertex_is_canonical,
    enumerate_flags,
    enumerate_free,
    rooted_canonical_key,
    type_embeddings,
)
from turan3.graphs import (
    Hypergraph3,
    canonical_data,
    decode_key,
    from_edges,
    is_family_free,
    link_patterns,
    named_graph,
)
from turan3.sdp import default_types

import oracles
from oracles import relabel


FAMILIES = {
    "empty": ([], []),
    "C4_3": ([named_graph("C4_3")], [False]),
    "C4_3+F5_BAR": ([named_graph("C4_3"), named_graph("F5_BAR")], [False, False]),
    "F32+C5_3_MINUS": ([named_graph("F32"), named_graph("C5_3_MINUS")], [False, False]),
}


def check_against_oracle(m, members, flags):
    got = enumerate_free(m, members, flags)
    # pairwise distinct canonical keys
    keys = [g.canon_key for g in got]
    assert len(set(keys)) == len(keys)
    # every output is family-free by the brute-force containment oracle
    for g in got:
        assert oracles.family_free_brute(g, members, flags)
    # counts and membership match the classify-after-generate oracle
    reps = oracles.enumerate_free_brute(m, members, flags)
    assert len(reps) == len(got)
    key_set = set(keys)
    for r in reps:
        assert r.canon_key in key_set
    return got


@pytest.mark.parametrize("famname", sorted(FAMILIES))
@pytest.mark.parametrize("m", [3, 4])
def test_enumerate_small_vs_oracle(m, famname):
    members, flags = FAMILIES[famname]
    check_against_oracle(m, members, flags)


@pytest.mark.parametrize("famname", sorted(FAMILIES))
def test_enumerate_m5_vs_oracle(famname):
    members, flags = FAMILIES[famname]
    check_against_oracle(5, members, flags)


def test_known_counts():
    assert len(enumerate_free(4)) == 5
    assert len(enumerate_free(5)) == 34
    # forbidding C4_3 at m=4 removes exactly the complete graph
    full = enumerate_free(4)
    free = enumerate_free(4, [named_graph("C4_3")])
    assert len(free) == 4
    assert named_graph("C4_3").canon_key not in {g.canon_key for g in free}
    assert {g.canon_key for g in free} <= {g.canon_key for g in full}


def test_monotone_in_family():
    small = enumerate_free(5, [named_graph("C4_3")])
    large = enumerate_free(5, [named_graph("C4_3"), named_graph("F5_BAR")])
    assert len(large) <= len(small)
    assert {g.canon_key for g in large} <= {g.canon_key for g in small}


def test_induced_member_filtering():
    # Forbidding induced F32_BAR keeps graphs that contain it only non-induced.
    members = [named_graph("F32_BAR")]
    got_ind = enumerate_free(5, members, [True])
    got_non = enumerate_free(5, members, [False])
    assert len(got_non) < len(got_ind) < 34
    for g in got_ind:
        assert oracles.family_free_brute(g, members, [True])
    reps = oracles.enumerate_free_brute(5, members, [True])
    assert len(reps) == len(got_ind)


def test_induced_member_prunes_every_level_m6():
    # Filtering after the last level is the reference for pruning at each level.
    f32, f32_bar = named_graph("F32"), named_graph("F32_BAR")
    got = enumerate_free(6, [f32, f32_bar], [False, True])
    want = [
        g.canon_key
        for g in enumerate_free(6, [f32])
        if not oracles.contains_brute(g, f32_bar, induced=True)
    ]
    assert [g.canon_key for g in got] == want


def test_deterministic_order():
    a = enumerate_free(5, [named_graph("C4_3")])
    b = enumerate_free(5, [named_graph("C4_3")])
    assert [g.edges for g in a] == [g.edges for g in b]
    keys = [g.canon_key for g in a]
    assert keys == sorted(keys)


def test_soft_guard():
    with pytest.raises(ValueError):
        enumerate_free(8)


def test_enumerate_m6_spot_family():
    # Spot check at m=6 for a restrictive family: every member free and
    # distinct, and 300 random labeled free graphs all land in the list.
    import random

    from itertools import combinations

    members = [named_graph("C4_3"), named_graph("F5_BAR")]
    flags = [False, False]
    t0 = time.perf_counter()
    got = enumerate_free(6, members, flags)
    elapsed = time.perf_counter() - t0
    keys = {g.canon_key for g in got}
    assert len(keys) == len(got)
    for g in got:
        assert g.n == 6
        assert oracles.family_free_brute(g, members, flags)
    rng = random.Random(99)
    triples = list(combinations(range(6), 3))
    hits = 0
    while hits < 300:
        edges = [t for t in triples if rng.random() < rng.choice((0.15, 0.3, 0.45))]
        g = Hypergraph3(6, tuple(edges))
        if not oracles.family_free_brute(g, members, flags):
            continue
        hits += 1
        assert g.canon_key in keys
    assert elapsed < 60


def test_enumerate_m6_empty_family_count_burnside():
    # Independent class count via Burnside's lemma over S6 acting on triples.
    from itertools import combinations, permutations

    triples = list(combinations(range(6), 3))
    index = {t: i for i, t in enumerate(triples)}
    total = 0
    for p in permutations(range(6)):
        seen = [False] * len(triples)
        cycles = 0
        for i, t in enumerate(triples):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                a, b, c = triples[j]
                j = index[tuple(sorted((p[a], p[b], p[c])))]
        total += 1 << cycles
    expected = total // 720
    assert len(enumerate_free(6)) == expected


GENERATOR_FAMILIES = {
    "empty": ([], []),
    "C4_3,F5_BAR": ([named_graph("C4_3"), named_graph("F5_BAR")], [False, False]),
    "F32,C5_3_MINUS": ([named_graph("F32"), named_graph("C5_3_MINUS")], [False, False]),
    "F32,induced:F32_BAR": ([named_graph("F32"), named_graph("F32_BAR")], [False, True]),
    "0-vertex member": ([Hypergraph3(0, ())], [False]),
    "1-vertex member": ([Hypergraph3(1, ())], [False]),
    "edgeless 3-vertex member": ([Hypergraph3(3, ())], [False]),
    "member larger than m": ([named_graph("C4_3"), Hypergraph3(6, ())], [False, False]),
}


@pytest.mark.parametrize("famname", sorted(GENERATOR_FAMILIES))
@pytest.mark.parametrize("m", range(6))
def test_generator_matches_labelling_every_child(m, famname):
    members, flags = GENERATOR_FAMILIES[famname]
    want = oracles.generate_free_labelling_every_child(m, members, flags)
    assert enumerate_free(m, members, flags) == want


def test_generator_matches_labelling_every_child_m6():
    for famname, count in [("F32,C5_3_MINUS", 125), ("F32,induced:F32_BAR", 400)]:
        members, flags = GENERATOR_FAMILIES[famname]
        want = oracles.generate_free_labelling_every_child(6, members, flags)
        assert len(want) == count
        assert enumerate_free(6, members, flags) == want


AUDITED_FAMILIES = ("empty", "C4_3,F5_BAR", "F32,C5_3_MINUS", "F32,induced:F32_BAR")


@pytest.mark.parametrize(
    "famname, children",
    [
        ("empty", 3056),
        ("C4_3,F5_BAR", 1218),
        ("F32,C5_3_MINUS", 180),
        ("F32,induced:F32_BAR", 564),
    ],
)
def test_generator_children_carry_fresh_degrees_and_colourings(famname, children):
    # every child built at m <= 6 is handed its degrees and, when it passes
    # the top-cell test, its refined colouring; a CI step checks m = 7 of
    # F32,induced:F32_BAR the same way
    members, flags = GENERATOR_FAMILIES[famname]
    assert oracles.check_generator_children(6, members, flags) == children


def _orbit_stabiliser_sides(m, graphs):
    """(the sum of m!/|Aut G| over the graphs, each graph's exhaustive
    minimum), both from the oracles' searches over every relabelling."""
    total = sum(factorial(m) // len(oracles.automorphisms_exhaustive(g)) for g in graphs)
    minima = [
        oracles.canonical_search_exhaustive(
            g.n, g.edges, oracles.refine_colors_by_pair_tuples(g.n, g.edges)
        )[0]
        for g in graphs
    ]
    return total, minima


@pytest.mark.parametrize("famname", AUDITED_FAMILIES)
def test_lists_meet_the_labelled_count_by_orbit_stabiliser(famname):
    # A class G has m!/|Aut G| labellings, so pairwise non-isomorphic free
    # classes whose labellings number all the free labelled graphs are
    # every free class: the lists verify trusts, checked with no search of
    # the package.
    members, flags = GENERATOR_FAMILIES[famname]
    counts = oracles.labelled_free_counts(6, members, flags)
    for m, count in enumerate(counts):
        got = enumerate_free(m, members, flags)
        total, minima = _orbit_stabiliser_sides(m, got)
        assert total == count, m
        assert len(set(minima)) == len(minima), m
        assert all(oracles.family_free_brute(g, members, flags) for g in got), m
    if famname == "empty":
        assert counts == [2 ** comb(m, 3) for m in range(7)]


def test_orbit_stabiliser_audit_catches_a_dropped_a_duplicated_and_a_non_free_class():
    members, flags = GENERATOR_FAMILIES["C4_3,F5_BAR"]
    count = oracles.labelled_free_counts(5, members, flags)[5]
    got = enumerate_free(5, members, flags)
    assert _orbit_stabiliser_sides(5, got)[0] == count
    assert _orbit_stabiliser_sides(5, got[:7] + got[8:])[0] < count
    g = got[7]
    copy = relabel(g, [4, 3, 2, 1, 0])
    assert copy != g
    total, minima = _orbit_stabiliser_sides(5, got + [copy])
    assert total > count
    assert len(set(minima)) < len(minima)
    # F5_BAR in place of a class with as many automorphisms keeps the count
    # and the distinct minima: only the freeness check sees it
    bad = named_graph("F5_BAR")
    i = next(i for i, g in enumerate(got) if len(oracles.automorphisms_exhaustive(g)) == 4)
    total, minima = _orbit_stabiliser_sides(5, got[:i] + [bad] + got[i + 1 :])
    assert (total, len(set(minima))) == (count, len(got))
    assert len(oracles.automorphisms_exhaustive(bad)) == 4
    assert not oracles.family_free_brute(bad, members, flags)


def test_each_level_extends_the_memoised_level_below(monkeypatch):
    from turan3 import enumeration
    from turan3.enumeration import _generate_free

    members, flags = GENERATOR_FAMILIES["C4_3,F5_BAR"]
    _generate_free.cache_clear()
    enumerate_free(5, members, flags)
    labelled = []

    def recording(h):
        labelled.append(h.n)
        return canonical_data(h)

    # the generator labels each child with canonical_data directly
    monkeypatch.setattr(enumeration, "canonical_data", recording)
    assert len(enumerate_free(6, members, flags)) == 818
    assert labelled and set(labelled) == {6}


def test_canonical_forms_share_one_tuple_per_label_triple():
    # every listed graph is a canonical form, whose edges are taken from one
    # pool of triples, so the 2136 graphs hold at most C(6, 3) triple objects
    graphs = enumerate_free(6)
    assert len(graphs) == 2136
    assert len({id(t) for g in graphs for t in g.edges}) <= comb(6, 3)


def test_flags_keep_the_soft_limit():
    with pytest.raises(ValueError, match="m=8 exceeds the soft limit 7"):
        enumerate_flags(from_edges(2, []), 8)


LINK_PATTERN_FAMILIES = {
    **GENERATOR_FAMILIES,
    "induced edgeless 3-vertex member": ([Hypergraph3(3, ())], [True]),
}


def _matches(mask, patterns):
    return any(mask & care == want for care, want in patterns)


@pytest.mark.parametrize("famname", sorted(LINK_PATTERN_FAMILIES))
def test_link_patterns_decide_the_child_freeness(famname):
    members, flags = LINK_PATTERN_FAMILIES[famname]
    for k in range(6):
        pairs = list(combinations(range(k), 2))
        for parent in enumerate_free(k, members, flags):
            patterns = link_patterns(parent, zip(members, flags))
            for mask in range(1 << len(pairs)):
                child = _extend(parent, mask, pairs)
                assert _matches(mask, patterns) is not is_family_free(child, members, flags)


@pytest.mark.parametrize("famname", sorted(LINK_PATTERN_FAMILIES))
def test_link_patterns_match_the_every_vertex_oracle(famname):
    members, flags = LINK_PATTERN_FAMILIES[famname]
    for k in range(6):
        for parent in enumerate_free(k, members, flags):
            assert link_patterns(parent, zip(members, flags)) == oracles.link_patterns_every_vertex(
                parent, members, flags
            )


def _new_vertex_has_top_degree(child):
    return child.degrees[-1] == max(child.degrees)


@pytest.mark.parametrize("famname", ["empty", "C4_3,F5_BAR"])
def test_prefiltered_orbit_reps_are_the_filtered_reps(famname):
    members, flags = GENERATOR_FAMILIES[famname]
    for k in range(6):
        pairs = list(combinations(range(k), 2))
        for parent in enumerate_free(k, members, flags):
            auts = parent.canonical.automorphisms
            patterns = link_patterns(parent, zip(members, flags))
            want = [
                mask
                for mask in _attachment_orbit_reps(k, auts)
                if _new_vertex_has_top_degree(_extend(parent, mask, pairs))
                and not _matches(mask, patterns)
            ]
            assert list(_attachment_orbit_reps(k, auts, parent.degrees, patterns)) == want


def test_degree_filter_on_six_vertex_parents():
    # 15 pair bits: the first parents whose masks span both halves of the
    # packed degree tables with more than a handful of bits each.
    pairs = list(combinations(range(6), 2))
    for parent in enumerate_free(6)[::500]:
        want = [
            mask
            for mask in range(1 << len(pairs))
            if _new_vertex_has_top_degree(_extend(parent, mask, pairs))
        ]
        assert list(_attachment_orbit_reps(6, (), parent.degrees)) == want


def test_root_passes_the_family_filter():
    k0 = Hypergraph3(0, ())
    assert enumerate_free(0) == [k0]
    assert enumerate_free(0, [k0]) == []
    assert enumerate_free(0, [Hypergraph3(1, ())]) == [k0]


def test_pre_checks_are_implied_by_the_orbit_test():
    # Every child the generator could form up to m=6 from the empty family.
    degree_rejects = colour_rejects = 0
    for k in range(6):
        pairs = list(combinations(range(k), 2))
        for parent in enumerate_free(k):
            auts = parent.canonical.automorphisms
            kept = set(_attachment_orbit_reps(k, auts, parent.degrees))
            for mask in _attachment_orbit_reps(k, auts):
                child = _extend(parent, mask, pairs)
                in_top_cell = _in_top_cell(child)
                if mask not in kept:
                    degree_rejects += 1
                    assert not in_top_cell
                if not in_top_cell:
                    colour_rejects += 1
                    assert not _new_vertex_is_canonical(child, canonical_data(child))
    assert 0 < degree_rejects < colour_rejects


@pytest.mark.parametrize("famname", ["C4_3,F5_BAR", "F32,C5_3_MINUS", "F32,induced:F32_BAR"])
def test_orbit_reps_match_the_brute_force_oracle(famname):
    # the real parents, degrees and link patterns of the paper's families
    members, flags = GENERATOR_FAMILIES[famname]
    for k in range(6):
        for parent in enumerate_free(k, members, flags):
            auts = parent.canonical.automorphisms
            patterns = link_patterns(parent, zip(members, flags))
            got = list(_attachment_orbit_reps(k, auts, parent.degrees, patterns))
            assert got == list(oracles.attachment_orbit_reps_brute(parent, auts, patterns))


def _synthetic_patterns(k):
    """(care, want) lists that meet the low and high halves of a mask
    (the pair bits below and from _outrank_codes' split) in every way."""
    split = len(list(combinations(range(k), 2))) // 2

    def low(*bits):
        return sum(1 << b for b in bits)

    def high(*bits):
        return sum(1 << (split + b) for b in bits)

    cases = {
        "care in the low half": [(low(0, 2), low(2))],
        "care in the high half": [(high(0, 1), high(0))],
        "care across the halves": [(low(1) | high(1), high(1)), (low(0) | high(2), low(0) | high(2))],
        "no low care drops high halves": [(high(0), high(0))],
        "care 0 drops every mask": [(0, 0)],
        "want outside care never matches": [(0, low(0)), (high(1), high(1) | low(1))],
    }
    cases["all at once"] = [p for name, ps in cases.items() if "care 0" not in name for p in ps]
    return cases


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_orbit_reps_with_synthetic_patterns_match_the_oracle(k):
    parents = enumerate_free(k)
    if k == 6:
        # the oracle images every mask afresh: one parent with a group of
        # order 2, and only with the degree filter the generator uses
        parents = [next(g for g in parents if len(g.canonical.automorphisms) == 2)]
    else:
        parents = parents[:: max(1, len(parents) // 6)]
    for parent in parents:
        auts = parent.canonical.automorphisms
        for name, patterns in _synthetic_patterns(k).items():
            for degrees in ((), parent.degrees)[k == 6 :]:
                got = list(_attachment_orbit_reps(k, auts, degrees, patterns))
                want = oracles.attachment_orbit_reps_brute(
                    parent, auts, patterns, degree_filter=bool(degrees)
                )
                assert got == list(want), name
            if name == "care 0 drops every mask":
                assert got == []


@pytest.mark.parametrize("famname", ["empty", "C4_3,F5_BAR"])
def test_enumerated_graphs_carry_their_own_labelling(famname):
    members, flags = GENERATOR_FAMILIES[famname]
    for g in enumerate_free(6, members, flags):
        assert "canonical" in vars(g)  # primed, not computed on first use
        primed = g.canonical
        fresh = canonical_data(Hypergraph3(g.n, g.edges))
        assert primed.graph == g
        assert primed.key == fresh.key
        assert set(primed.automorphisms) == set(fresh.automorphisms)
        assert relabel(g, primed.to_canonical) == fresh.graph


# ---------------------------------------------------------------------------
# Flags


def _decode_flag(key):
    """(graph, root count) of a rooted key: roots sit at labels 0..s-1."""
    return decode_key(key[1:]), key[0]


def test_single_vertex_type_m2():
    flags = enumerate_flags(from_edges(1, []), 2)
    assert len(flags) == 1
    assert _decode_flag(flags[0]) == (from_edges(2, []), 1)


def test_flag_counts_vs_rooted_oracle():
    # type = one labeled edge on 3 vertices, flags on 4 vertices, no family
    sigma = from_edges(3, [(0, 1, 2)])
    flags = enumerate_flags(sigma, 4)
    # oracle: all labeled graphs on 4 vertices x all root embeddings,
    # classified by rooted isomorphism
    found = []
    for g in oracles.all_labeled_graphs(4):
        for theta in type_embeddings(g, sigma):
            for fg, fr in found:
                if oracles.rooted_iso_brute(g, theta, fg, fr):
                    break
            else:
                found.append((g, theta))
    assert len(flags) == len(found)
    # cross-check keys: every oracle rep matches exactly one flag key
    flag_keys = set(flags)
    assert len(flag_keys) == len(flags)
    for fg, fr in found:
        assert rooted_canonical_key(fg, fr) in flag_keys


def test_flag_roots_induce_type():
    sigma = from_edges(3, [(0, 1, 2)])
    for key in enumerate_flags(sigma, 5, [named_graph("C4_3")]):
        graph, roots = _decode_flag(key)
        assert roots == 3 and graph.n == 5
        assert (0, 1, 2) in graph.edge_set
        assert rooted_canonical_key(graph, (0, 1, 2)) == key


def test_flags_with_contradictory_type():
    with pytest.raises(ValueError):
        enumerate_flags(named_graph("C4_3"), 5, [named_graph("C4_3")])


def test_flag_type_too_big():
    with pytest.raises(ValueError):
        enumerate_flags(from_edges(4, []), 3)


PAPER_FAMILIES = ("C4_3,F5_BAR", "F32,C5_3_MINUS", "F32,induced:F32_BAR")


@pytest.mark.parametrize(
    "m, spec",
    [(5, spec) for spec in PAPER_FAMILIES] + [(6, "F32,C5_3_MINUS")],
)
def test_flags_match_one_key_per_embedding(m, spec):
    # one rooted search per Aut(g)-orbit of embeddings finds every flag that
    # one search per embedding finds
    fam = families.parse_family(spec)
    members = [fm.graph for fm in fam]
    induced = [fm.induced for fm in fam]
    for sigma in default_types(m, fam):
        m_prime = (m + sigma.n) // 2
        assert enumerate_flags(sigma, m_prime, members, induced) == (
            oracles.enumerate_flags_brute(sigma, m_prime, members, induced)
        )


def test_rooted_key_respects_root_order():
    # Two root orderings of an asymmetric rooted structure differ as flags.
    g = from_edges(4, [(0, 1, 2), (0, 1, 3)])
    k1 = rooted_canonical_key(g, (0, 2))
    k2 = rooted_canonical_key(g, (2, 0))
    assert k1 != k2
    assert rooted_canonical_key(g, (0, 1)) == rooted_canonical_key(g, (1, 0))


def test_rooted_key_equality_matches_rooted_iso_oracle():
    import random

    from itertools import combinations

    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 6)
        s = rng.randint(0, n)
        g1 = from_edges(n, [t for t in combinations(range(n), 3) if rng.random() < 0.5])
        roots1 = tuple(rng.sample(range(n), s))
        if rng.random() < 0.5:
            # a relabeled copy carrying the roots along: rooted-isomorphic
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = relabel(g1, perm)
            roots2 = tuple(perm[v] for v in roots1)
            if rng.random() < 0.3 and s >= 2:
                roots2 = roots2[::-1]
        else:
            density = rng.random()
            g2 = from_edges(
                n, [t for t in combinations(range(n), 3) if rng.random() < density]
            )
            roots2 = tuple(rng.sample(range(n), s))
        same = rooted_canonical_key(g1, roots1) == rooted_canonical_key(g2, roots2)
        assert same == oracles.rooted_iso_brute(g1, roots1, g2, roots2)


def test_type_embeddings_match_permutation_filter():
    import random

    from itertools import combinations

    rng = random.Random(17)
    # every type class on at most 5 vertices, canonical and relabelled
    sigmas = [
        h
        for s in range(6)
        for g in enumerate_free(s)
        for h in (g, relabel(g, rng.sample(range(s), s)))
    ]
    for n in [k for k in range(8) for _ in range(3)]:
        prob = rng.random()
        target = Hypergraph3(
            n, tuple(t for t in combinations(range(n), 3) if rng.random() < prob)
        )
        for sigma in sigmas:
            assert type_embeddings(target, sigma) == oracles.type_embeddings_brute(
                target, sigma
            )


def test_enumerate_free_memo_returns_fresh_lists():
    members = [named_graph("C4_3")]
    first = enumerate_free(5, members)
    want = [g.edges for g in first]
    first.clear()
    again = enumerate_free(5, members)
    assert [g.edges for g in again] == want
    again.reverse()
    again.append(named_graph("F5"))
    assert [g.edges for g in enumerate_free(5, members)] == want


def test_enumerate_free_memo_separates_induced_members():
    from turan3.enumeration import _generate_free

    _generate_free.cache_clear()
    members = [named_graph("F32_BAR")]
    enumerate_free(4, members, [True])  # levels 0-4 keep no member: shared
    size = _generate_free.cache_info().currsize
    got_ind = enumerate_free(5, members, [True])
    assert _generate_free.cache_info().currsize == size + 1
    got_non = enumerate_free(5, members, [False])
    assert _generate_free.cache_info().currsize == size + 2
    assert len(got_non) < len(got_ind)
