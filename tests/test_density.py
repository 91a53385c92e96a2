import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from turan3 import density, enumeration, families, graphs
from turan3.certificate import inner_product, scale_rows
from turan3.density import edge_density, p, pair_density_table, pair_matrix
from turan3.enumeration import enumerate_flags, enumerate_free, flag_action, rooted_canonical_key
from turan3.constructions import K4Blowup, Partite3, build
from turan3.graphs import decode_key, from_edges, induced_subgraph, named_graph
from turan3.sdp import default_types

import oracles
from oracles import relabel, spanning_profile


def random_graph(n, prob, rng):
    edges = [t for t in combinations(range(n), 3) if rng.random() < prob]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# p and edge_density


def test_p_identity():
    for name in ("F5", "C5_3", "F32"):
        f = named_graph(name)
        assert p(f, f) == 1


def test_p_on_complete_graph():
    k4 = named_graph("K4_3")
    # every 3-subset of K4_3 spans an edge, so the single-edge pattern is
    # induced everywhere and the empty pattern nowhere
    assert p(from_edges(3, [(0, 1, 2)]), k4) == 1
    assert p(from_edges(3, []), k4) == 0


def test_p_blowup_example():
    b = build(K4Blowup(2, 2, 2, 2))
    # oracle: count 4-subsets inducing K4_3 directly
    hits = 0
    for sub in combinations(range(8), 4):
        g = induced_subgraph(b, sub)
        if len(g.edges) == 4:
            hits += 1
    assert hits == 16
    assert p(named_graph("K4_3"), b) == Fraction(16, comb(8, 4)) == Fraction(8, 35)


def test_p_rejects_oversized_pattern():
    with pytest.raises(ValueError):
        p(named_graph("F5"), named_graph("K4_3"))


def test_edge_density_values():
    partite = build(Partite3(10, 10, 10))
    assert edge_density(partite) == Fraction(1000, comb(30, 3)) == Fraction(50, 203)
    assert edge_density(named_graph("K4_3")) == 1
    assert edge_density(from_edges(5, [])) == 0
    with pytest.raises(ValueError):
        edge_density(from_edges(2, []))


def test_sum_over_classes_is_one():
    rng = random.Random(5)
    classes = enumerate_free(4)
    for _ in range(10):
        h = random_graph(6, rng.random(), rng)
        assert sum(p(g, h) for g in classes) == 1
        prof = spanning_profile(h, 4)
        assert sum(prof.values()) == comb(6, 4)


def test_chain_rule_exact():
    rng = random.Random(6)
    mids = enumerate_free(5)
    smalls = enumerate_free(3) + enumerate_free(4)
    for _ in range(10):
        h = random_graph(7, rng.random(), rng)
        prof = spanning_profile(h, 5)
        total = comb(7, 5)
        for f in smalls:
            direct = p(f, h)
            via = sum(
                p(f, g) * Fraction(prof.get(g.canon_key, 0), total) for g in mids
            )
            assert direct == via


# ---------------------------------------------------------------------------
# Pair density tables


def _pair_probability_in_host(host, sigma, t, flag_key_1, flag_key_2):
    """Embedding oracle: scan every (theta, A1, A2) in the host directly."""
    s = sigma.n
    hits = 0
    total = 0
    sigma_edges = sigma.edge_set
    host_edges = host.edge_set
    for theta in permutations(range(host.n), s):
        others = [v for v in range(host.n) if v not in theta]
        for a1 in combinations(others, t):
            rest = [v for v in others if v not in a1]
            for a2 in combinations(rest, t):
                total += 1
                ok = True
                for tri in combinations(range(s), 3):
                    x, y, z = (theta[i] for i in tri)
                    present = tuple(sorted((x, y, z))) in host_edges
                    if present != (tri in sigma_edges):
                        ok = False
                        break
                if not ok:
                    continue
                k1 = rooted_canonical_key(
                    induced_subgraph(host, list(theta) + sorted(a1)), range(s)
                )
                k2 = rooted_canonical_key(
                    induced_subgraph(host, list(theta) + sorted(a2)), range(s)
                )
                if k1 == flag_key_1 and k2 == flag_key_2:
                    hits += 1
    return Fraction(hits, total)


def test_empty_type_entries_sum_to_one():
    table = pair_density_table(from_edges(0, []), 6)
    for mat in table.matrices:
        probabilities = oracles.dense(mat, len(table.flags), table.denominator)
        assert sum(sum(row) for row in probabilities) == 1


def test_matrices_symmetric():
    fam = families.parse_family("C4_3,F5_BAR")
    table = pair_density_table(from_edges(1, []), 5, fam)
    for sparse in table.matrices:
        # one triangle is stored; the embedding oracle below checks both
        assert all(j >= i for i, row in enumerate(sparse) for j, _ in row)
        mat = oracles.dense(sparse, len(table.flags), table.denominator)
        n = len(mat)
        for i in range(n):
            for j in range(n):
                assert mat[i][j] == mat[j][i]
                assert 0 <= mat[i][j] <= 1


def test_table_against_embedding_oracle():
    # single-vertex type, flags of size 3, targets of size 5
    fam = families.parse_family("C4_3,F5_BAR")
    sigma = from_edges(1, [])
    table = pair_density_table(sigma, 5, fam)
    t = 2
    for target_idx in (0, len(table.targets) // 2, len(table.targets) - 1):
        target = table.targets[target_idx]
        mat = oracles.dense(table.matrices[target_idx], len(table.flags), table.denominator)
        for i in range(len(table.flags)):
            for j in range(len(table.flags)):
                want = _pair_probability_in_host(
                    target, sigma, t, table.flags[i], table.flags[j]
                )
                assert mat[i][j] == want


def test_host_identity_from_docstring():
    # Pr[sigma and F1 and F2 in H] == sum_F entry(F1,F2;F) p(F,H), exactly.
    rng = random.Random(9)
    sigma = from_edges(1, [])
    table = pair_density_table(sigma, 5)
    t = 2
    host = random_graph(6, 0.5, rng)
    prof = spanning_profile(host, 5)
    total = comb(6, 5)
    for i in (0, 1):
        for j in (0, 1):
            lhs = _pair_probability_in_host(
                host, sigma, t, table.flags[i], table.flags[j]
            )
            rhs = sum(
                oracles.dense(table.matrices[fi], len(table.flags), table.denominator)[i][j]
                * Fraction(prof.get(g.canon_key, 0), total)
                for fi, g in enumerate(table.targets)
            )
            assert lhs == rhs


def test_pair_matrix_matches_dense_form():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 7)
        denominator = rng.randint(1, 12)
        upper = [
            (i, j, rng.choice([-3, -2, -1, 1, 2, 3]))
            for i in range(n)
            for j in range(i, n)
            if rng.random() < 0.3
        ]
        rng.shuffle(upper)  # the builder takes entries in any order
        want = [[Fraction(0)] * n for _ in range(n)]
        for i, j, c in upper:
            want[i][j] = want[j][i] = Fraction(c, denominator)
        mat = pair_matrix([i * n + j for i, j, _ in upper], [c for _, _, c in upper], n)
        assert oracles.dense(mat, n, denominator) == want
        # the form: the upper triangle without zeros, columns ascending, no
        # trailing empty row
        assert all(j >= i and x for i, row in enumerate(mat) for j, x in row)
        assert all([j for j, _ in row] == sorted({j for j, _ in row}) for row in mat)
        assert not mat or mat[-1]
        # Q symmetric, as a certificate block's upper triangle makes it
        q = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        q_scaled = scale_rows(oracles.upper_block(q))
        assert inner_product(q_scaled, mat, denominator) == oracles.inner_product_fractions(
            q, mat, denominator
        )


def test_size_validation():
    # a type fits m when s <= m and s has m's parity
    for size in (3, 8):
        with pytest.raises(ValueError, match=f"^type of size {size} does not fit in m=6$"):
            pair_density_table(from_edges(size, []), 6)


def test_p_matches_per_subset_iso_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 7)
        h = random_graph(n, rng.random(), rng)
        k = rng.randint(3, min(n, 5))
        f = random_graph(k, rng.random(), rng)
        hits = 0
        for sub in combinations(range(n), k):
            pos = {v: i for i, v in enumerate(sub)}
            edges = [tuple(pos[v] for v in e) for e in h.edges if set(e) <= pos.keys()]
            if oracles.iso_brute(from_edges(k, edges), f):
                hits += 1
        assert p(f, h) == Fraction(hits, comb(n, k))


def test_memo_keeps_labellings_of_one_type_apart():
    # Two labellings of the one-edge 4-vertex type have different tables,
    # each equal to the direct count.
    fam = families.parse_family("F32,C5_3_MINUS")
    density._build_table.cache_clear()
    fresh = []
    for edges in ([(0, 1, 2)], [(1, 2, 3)]):
        sigma = from_edges(4, edges)
        fresh.append(pair_density_table(sigma, 6, fam))
        assert pair_density_table(sigma, 6, fam) is fresh[-1]
        assert fresh[-1] == oracles.pair_density_table_brute(sigma, 6, fam)
    info = density._build_table.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert fresh[0].flags != fresh[1].flags
    assert fresh[0].matrices != fresh[1].matrices


def test_memos_key_a_member_by_its_class_and_notion():
    # A member given by built-in name, by hex key or relabelled is one key
    # of each memo; the same member induced is another.
    f32 = named_graph("F32")
    by_name = families.parse_family("F32")
    by_key = families.parse_family(f32.canon_key.hex())
    relabelled = (families.FamilyMember(relabel(f32, [1, 3, 0, 4, 2])),)
    induced = families.parse_family("induced:F32")
    assert relabelled[0].graph != f32
    sigma = from_edges(3, [(0, 1, 2)])
    memos = (enumeration._generate_free, enumeration._flag_data, density._build_table)

    def misses_after(fam):
        members = [fm.graph for fm in fam]
        flags = [fm.induced for fm in fam]
        enumerate_free(5, members, flags)
        enumerate_flags(sigma, 5, members, flags)
        pair_density_table(sigma, 5, fam)
        return [memo.cache_info().misses for memo in memos]

    before = misses_after(by_name)
    assert misses_after(by_key) == before
    assert misses_after(relabelled) == before
    assert misses_after(induced) == [x + 1 for x in before]


def test_tables_share_the_members_that_fit_m():
    # A table depends only on the members on at most m vertices, each by its
    # class and notion: another order, an isomorphic repeat (K4_3 is C4_3)
    # or a 7-vertex member builds no new m=5 table.
    base = families.parse_family("C4_3,F5_BAR")
    seven = families.FamilyMember(from_edges(7, [(0, 1, 2), (3, 4, 5)]))
    fams = [
        base,
        families.parse_family("F5_BAR,C4_3"),
        families.parse_family("C4_3,F5_BAR,K4_3"),
        base + (seven,),
    ]
    types = default_types(5, base)
    assert types
    density._build_table.cache_clear()
    for sigma in types:
        tables = [pair_density_table(sigma, 5, fam) for fam in fams]
        assert all(table is tables[0] for table in tables)
    info = density._build_table.cache_info()
    assert (info.misses, info.hits) == (len(types), 3 * len(types))


PAPER_FAMILIES = ("C4_3,F5_BAR", "F32,C5_3_MINUS", "F32,induced:F32_BAR")


@pytest.mark.parametrize("m, spec", [(m, spec) for m in (5, 6) for spec in PAPER_FAMILIES])
def test_flag_action_and_pair_orbits_match_every_root_relabelling(m, spec):
    fam = families.parse_family(spec)
    members = [fm.graph for fm in fam]
    induced = [fm.induced for fm in fam]
    for sigma in default_types(m, fam):
        s = sigma.n
        m_prime = (m + s) // 2
        # Aut(sigma) by trying every permutation of the labels
        auts = [gamma for gamma in permutations(range(s)) if relabel(sigma, gamma) == sigma]
        assert len(auts) == len(sigma.canonical.automorphisms)
        flags = enumerate_flags(sigma, m_prime, members, induced)
        index = {key: i for i, key in enumerate(flags)}
        # gamma moves flag i, rooted at labels 0..s-1 of its graph, to the
        # same graph rooted at gamma[0], ..., gamma[s-1], keyed afresh
        moved = {
            gamma: [index[rooted_canonical_key(decode_key(key[1:]), gamma)] for key in flags]
            for gamma in auts
        }
        action = flag_action(sigma, m_prime, members, induced)
        assert [list(perm) for perm in action] == [
            moved[gamma] for gamma in sigma.canonical.generators
        ]
        n = len(flags)
        for i in range(n):
            for j in range(n):
                orbit = {moved[gamma][i] * n + moved[gamma][j] for gamma in auts}
                assert {a * n + b for a, b in graphs.orbit([(i, j)], action)} == orbit
                assert len(auts) % len(orbit) == 0


def test_flag_action_follows_generators_that_are_not_involutions():
    # The default types at m <= 6 have only involutions among their
    # generators, where gamma and its inverse act alike.  This 6-vertex type
    # is generated by a 6-cycle; its 7 flags come from two 7-vertex graphs.
    sigma = from_edges(6, [
        (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5), (1, 2, 4),
        (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (3, 4, 5),
    ])
    gammas = sigma.canonical.generators
    assert any(gamma[gamma[k]] != k for gamma in gammas for k in range(6))
    graphs = [from_edges(7, sigma.edges), from_edges(7, sigma.edges + ((0, 1, 6), (2, 3, 6)))]
    flags, action = enumeration._flag_classes(sigma, graphs)
    assert len(flags) == 7
    index = {key: i for i, key in enumerate(flags)}
    for gamma, moved in zip(gammas, action):
        assert list(moved) == [
            index[rooted_canonical_key(decode_key(key[1:]), gamma)] for key in flags
        ]


@pytest.mark.parametrize(
    "m, spec",
    [(5, spec) for spec in PAPER_FAMILIES] + [(6, "F32,C5_3_MINUS")],
)
def test_tables_match_direct_count(m, spec):
    fam = families.parse_family(spec)
    for sigma in default_types(m, fam):
        assert pair_density_table(sigma, m, fam) == oracles.pair_density_table_brute(
            sigma, m, fam
        )
