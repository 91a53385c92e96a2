"""Brute-force oracles the test suite checks the package against.

Everything here is deliberately naive: factorial-time isomorphism, full
injection scans, classify-after-generate enumeration, colour refinement on
tuples and a canonical search over every relabelling. None of it shares
code paths with the package implementations it audits, except these:
generate_free_labelling_every_child is the package's generator with its
shortcuts taken out, so it shares the orbit representatives and the
canonical search, and audits only the shortcuts;
attachment_orbit_reps_brute builds each child with the package's _extend to
read its degrees; canonical_search_sorted_leaves is the package's routine
without its shortcuts (a discrete colouring returned at once, leaves valued
as integers, lone vertices placed before the search, the last vertex
placed without a loop, no sibling bookkeeping at a node with one
candidate, prefix-fixing generators collected only as new ones are found,
a one-cell search started only at a pair of largest codegree), so it
shares the orbit closure, and audits only the shortcuts;
link_patterns_every_vertex takes every vertex
of a member, not one per automorphism orbit, and tries every injection of
the rest, sharing only induced_subgraph; enumerate_flags_brute takes the
graphs from enumerate_free and one rooted key per embedding, and audits
how flags are keyed one per orbit;
pair_density_table_brute takes its flags from enumerate_flags_brute and
the targets, rooted keys and sparse matrix form from the package, and
audits how a table finds its thetas, flag slots and pair orbits, and its
denominator (pair_denominator_formula);
cholesky_certifies_fractions takes the package's float factor, which only
proposes L, and audits the exact residual test.  A certificate block is
its upper triangle; upper_block builds one from a dense symmetric matrix,
and dense_block and scale_rows_dense give the dense matrix and its per-row
lcm scaling that the package's scale_rows is checked against.
limit_denominator_stdlib is the standard library's Fraction.limit_denominator,
which sdp.best_rational reimplements on integers.
labelled_free_counts shares nothing with the package but Hypergraph3: it
codes graphs and subsets as integers with one bit per triple, and tests a
member's presence against the codes of all its relabellings.  With
automorphisms_exhaustive, canonical_search_exhaustive and family_free_brute
it audits enumerate_free by the orbit-stabiliser count.

Three helpers the package no longer needs live here as test fixtures and
references: relabel applies a vertex permutation, spanning_profile counts
the m-subsets of a host by induced canonical key (every p(F, h) at once),
and maxcut_exact is the exhaustive max-cut over every V1 that
maxcut_local_search is measured against.  move_deltas_edges is the
edge walk the package's move gains from pair links are checked against,
and bad_missing_brute lists the bad edges and every missing cross triple
that partition.bad_missing only counts.

construction_brute shares nothing with constructions but the pattern and
level sizes it is given: it decides each vertex triple on its own, where
the package emits each pattern edge's triples level by level.

subset_scan_by_triples is the subset scan that counts each k-subset's
edges over its C(k, 3) triples in combinations order; it shares the
package's subset code and its memoised decision of a code, and audits the
bit-sliced walk that picks which subsets reach them.

check_generator_children runs the package's generator and checks what it
hands each child (degrees from the parent and the mask, a refinement that
stops once the new vertex leaves the top cell) against the degrees and
refined colouring a fresh graph with the same edges computes for itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import comb, gcd, perm
from typing import Sequence

from turan3 import enumeration
from turan3.certificate import SCALE_SHIFT, _float_factor
from turan3.density import PairDensityTable, pair_matrix
from turan3.enumeration import (
    _attachment_orbit_reps,
    _extend,
    _new_vertex_is_canonical,
    enumerate_free,
)
from turan3.graphs import (
    SMALL_VERTEX_LIMIT,
    Hypergraph3,
    _code_injections,
    _orbit_closure,
    _relabeled_edges,
    _subset_code,
    canonical_data,
    induced_subgraph,
    is_family_free,
    rooted_canonical_key,
)
from turan3.sdp import CertificateBlock


def sorted_triple(a, b, c):
    return tuple(sorted((a, b, c)))


def relabel(h: Hypergraph3, perm: Sequence[int]) -> Hypergraph3:
    """Apply the vertex relabeling v -> perm[v]."""
    if sorted(perm) != list(range(h.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Hypergraph3(h.n, _relabeled_edges(h.edges, perm))


def iso_brute(g: Hypergraph3, h: Hypergraph3) -> bool:
    """Isomorphism by trying all vertex bijections."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    h_edges = set(h.edges)
    for p in permutations(range(g.n)):
        if all(sorted_triple(p[a], p[b], p[c]) in h_edges for a, b, c in g.edges):
            return True
    return False


def contains_brute(h: Hypergraph3, f: Hypergraph3, induced: bool = False) -> bool:
    """Containment by trying all injections V(f) -> V(h)."""
    if f.n > h.n:
        return False
    h_edges = set(h.edges)
    f_edges = set(f.edges)
    for img in permutations(range(h.n), f.n):
        if induced:
            ok = True
            for t in combinations(range(f.n), 3):
                a, b, c = t
                present = sorted_triple(img[a], img[b], img[c]) in h_edges
                if present != (t in f_edges):
                    ok = False
                    break
            if ok:
                return True
        else:
            if all(sorted_triple(img[a], img[b], img[c]) in h_edges for a, b, c in f_edges):
                return True
    return False


def subset_scan_by_triples(h: Hypergraph3, f: Hypergraph3, exact: bool):
    """Each f.n-subset of V(h), in combinations order, whose edge count,
    counted over its triples, passes (== |E(f)| when exact, >= otherwise)
    and whose code _code_injections decides spans a copy of f."""
    k = f.n
    if k > SMALL_VERTEX_LIMIT:
        raise ValueError(f"pattern on {k} vertices exceeds the limit {SMALL_VERTEX_LIMIT}")
    want = len(f.edges)
    if len(h.edges) < want:
        return
    has_edge = h.edge_set.__contains__
    for sub in combinations(range(h.n), k):
        count = sum(map(has_edge, combinations(sub, 3)))
        if count == want if exact else count >= want:
            if _code_injections(f, False, _subset_code(has_edge, sub)):
                yield sub


def family_free_brute(h, members, induced_flags):
    return all(
        not contains_brute(h, f, ind) for f, ind in zip(members, induced_flags)
    )


def all_labeled_graphs(m: int):
    """Every labeled 3-graph on m vertices (2^C(m,3) of them)."""
    triples = list(combinations(range(m), 3))
    total = len(triples)
    for mask in range(1 << total):
        edges = tuple(triples[i] for i in range(total) if mask >> i & 1)
        yield Hypergraph3(m, edges)


def classify_by_iso(graph_iter):
    """Partition labeled graphs into isomorphism classes by pairwise brute force.

    Returns one representative per class.  Buckets by (edge count, degree
    multiset) first so the quadratic step stays small.
    """
    buckets: dict[tuple, list[Hypergraph3]] = {}
    for g in graph_iter:
        key = (len(g.edges), tuple(sorted(g.degrees)))
        reps = buckets.setdefault(key, [])
        for r in reps:
            if iso_brute(g, r):
                break
        else:
            reps.append(g)
    return [r for reps in buckets.values() for r in reps]


def enumerate_free_brute(m: int, members, induced_flags):
    """Classify-after-generate enumeration of family-free m-vertex graphs."""
    free = (
        g
        for g in all_labeled_graphs(m)
        if family_free_brute(g, members, induced_flags)
    )
    return classify_by_iso(free)


def generate_free_labelling_every_child(m: int, members, induced_flags):
    """Canonical augmentation with every family-free child labelled afresh.

    No degree, link-pattern or colour pre-check, and no cached labelling is
    read: every child is built and searched by is_family_free, and each
    parent and child goes through canonical_data.  So enumerate_free must
    return the same graphs in the same order.
    """
    root = Hypergraph3(0, ())
    level = [root] if is_family_free(root, members, induced_flags) else []
    for k in range(m):
        pairs = list(combinations(range(k), 2))
        found = []
        for parent in level:
            for mask in _attachment_orbit_reps(k, canonical_data(parent).automorphisms):
                child = _extend(parent, mask, pairs)
                if not is_family_free(child, members, induced_flags):
                    continue
                data = canonical_data(child)
                if _new_vertex_is_canonical(child, data):
                    found.append((data.key, data.graph))
        level = [g for _, g in sorted(found, key=lambda kg: kg[0])]
    return level


def check_generator_children(m: int, members, induced_flags) -> int:
    """Build enumerate_free(m) afresh and check every child the generator
    tests, at every level up to m: the degrees _extend assigned equal those
    of a fresh Hypergraph3 with the same edges, and so does the refined
    colouring _in_top_cell assigns when the new vertex is in the top cell
    of the fresh colouring, and only then.  Returns the number of children
    checked."""
    in_top_cell = enumeration._in_top_cell
    checked = 0

    def checking(child: Hypergraph3) -> bool:
        nonlocal checked
        fresh = Hypergraph3(child.n, child.edges)
        assert vars(child)["degrees"] == fresh.degrees
        inside = in_top_cell(child)
        colors = fresh.refined_colors
        assert inside == (colors[-1] == max(colors))
        if inside:
            assert vars(child)["refined_colors"] == colors
        else:
            assert "refined_colors" not in vars(child)
        checked += 1
        return inside

    enumeration._generate_free.cache_clear()
    enumeration._in_top_cell = checking
    try:
        enumerate_free(m, members, induced_flags)
    finally:
        enumeration._in_top_cell = in_top_cell
    return checked


def _colex(t) -> int:
    """Colex rank of a sorted tuple of vertices among those of its size."""
    return sum(comb(v, i + 1) for i, v in enumerate(t))


def _colex_ranks(sub, r: int) -> list[int]:
    """The rank in the host of each r-subset of sub, in colex order of
    positions in sub: entry i is the host rank of the positions ranked i."""
    positions = sorted(combinations(range(len(sub)), r), key=_colex)
    return [_colex(tuple(sub[i] for i in pos)) for pos in positions]


def _member_codes(members, induced_flags) -> dict[int, tuple[set[int], set[int]]]:
    """k -> (codes of the non-induced, codes of the induced k-vertex
    members), one code per relabelling: bit _colex(t) for each edge t."""
    by_size: dict[int, tuple[set[int], set[int]]] = {}
    for f, ind in zip(members, induced_flags):
        codes = by_size.setdefault(f.n, (set(), set()))[ind]
        for p in permutations(range(f.n)):
            codes.add(sum(1 << _colex(sorted_triple(p[a], p[b], p[c])) for a, b, c in f.edges))
    return by_size


def _spans_member(code: int, codes: tuple[set[int], set[int]]) -> bool:
    """A subset with this code contains a non-induced member or equals an
    induced one."""
    contain, equal = codes
    return code in equal or any(code & c == c for c in contain)


def labelled_free_counts(m: int, members, induced_flags) -> list[int]:
    """The number of family-free labelled 3-graphs on [n], for n = 0..m.

    A labelled graph on [n] is an integer with bit _colex(t) for each edge
    t, so the graphs on [n - 1] extend to [n] by the link mask of vertex
    n - 1, one bit per pair (a, b) at _colex((a, b)), shifted past the
    C(n - 1, 3) old triples.  Each free graph on [n - 1] is extended by
    every link mask, and only the |V(f)|-subsets through the new vertex are
    tested (a copy in a free parent uses the new vertex).  A subset, coded
    like a graph on its sorted positions, spans a member when its code
    contains (induced: equals) the code of one of the member's k!
    relabellings.  The new vertex is the last position, so a subset's code
    is its old part, read from the parent, and above it the mask's pairs
    inside the subset; the bad masks are listed once per (subset, old part).
    No search of the package is used.
    """
    by_size = _member_codes(members, induced_flags)
    level = [] if 0 in by_size else [0]
    counts = [len(level)]
    for n in range(1, m + 1):
        bad_masks: dict[tuple, tuple[int, set[int]]] = {}
        subsets = [
            (sub, _colex_ranks(sub, 3), _colex_ranks(sub, 2))
            for k in sorted(by_size)
            if k <= n
            for sub in combinations(range(n - 1), k - 1)
        ]
        count = 0
        next_level = []
        for g in level:
            checks = []
            for sub, triples, pairs in subsets:
                old = sum((g >> t & 1) << i for i, t in enumerate(triples))
                if (sub, old) not in bad_masks:
                    bad = {
                        sum(1 << q for i, q in enumerate(pairs) if link >> i & 1)
                        for link in range(1 << len(pairs))
                        if _spans_member(old | link << len(triples), by_size[len(sub) + 1])
                    }
                    bad_masks[sub, old] = (sum(1 << q for q in pairs), bad)
                if bad_masks[sub, old][1]:
                    checks.append(bad_masks[sub, old])
            for mask in range(1 << comb(n - 1, 2)):
                if any(mask & care in bad for care, bad in checks):
                    continue
                count += 1
                if n < m:
                    next_level.append(g | mask << comb(n - 1, 3))
        level = next_level
        counts.append(count)
    return counts


def attachment_orbit_reps_brute(parent: Hypergraph3, auts, patterns=(), degree_filter=True):
    """enumeration._attachment_orbit_reps mask by mask, in increasing order.

    Each mask is kept when the new vertex has the child's largest degree
    (read from the degrees of the child _extend builds), when it matches no
    (care, want) pattern, and when no automorphism's image of its pairs,
    each pair relabelled and looked up afresh, is a smaller mask.
    """
    k = parent.n
    pairs = list(combinations(range(k), 2))
    position = {p: i for i, p in enumerate(pairs)}
    for mask in range(1 << len(pairs)):
        if degree_filter:
            degrees = _extend(parent, mask, pairs).degrees
            if degrees[-1] < max(degrees):
                continue
        if any(mask & care == want for care, want in patterns):
            continue
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        images = (
            sum(1 << position[tuple(sorted((a[u], a[v])))] for u, v in chosen)
            for a in auts
        )
        if all(image >= mask for image in images):
            yield mask


def link_patterns_every_vertex(parent: Hypergraph3, family, induced_flags):
    """graphs.link_patterns from every vertex w of each member, not one w
    per automorphism orbit, with the images of f - w found among all
    injections (itertools.permutations): every edge must land on an edge,
    and for an induced member the image must span no other edge."""
    k = parent.n
    index = {p: i for i, p in enumerate(combinations(range(k), 2))}
    patterns = set()
    for f, ind in zip(family, induced_flags):
        for w in range(f.n):
            rest = [v for v in range(f.n) if v != w]
            f_rest = induced_subgraph(f, rest)
            link = [
                (i, j)
                for (i, a), (j, b) in combinations(enumerate(rest), 2)
                if sorted_triple(w, a, b) in f.edge_set
            ]
            for img in permutations(range(parent.n), f_rest.n):
                image = {sorted_triple(img[a], img[b], img[c]) for a, b, c in f_rest.edges}
                if not image <= parent.edge_set:
                    continue
                if ind and len(image) != sum(
                    t in parent.edge_set for t in combinations(sorted(img), 3)
                ):
                    continue
                want = 0
                for a, b in link:
                    want |= 1 << index[tuple(sorted((img[a], img[b])))]
                care = want
                if ind:
                    for x, y in combinations(sorted(img), 2):
                        care |= 1 << index[(x, y)]
                patterns.add((care, want))
    return sorted(patterns)


def refine_colors_by_pair_tuples(n: int, edges, initial=None) -> list[int]:
    """Colour refinement with each incident pair colour kept as a sorted tuple.

    Each round ranks the signatures (own colour, sorted pair-colour tuples)
    until the colouring is stable.
    """
    incident = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            incident[v].append(e)
    colors = [0] * n if initial is None else list(initial)
    while True:
        sigs = []
        for v in range(n):
            pair_colors = sorted(
                tuple(sorted(colors[u] for u in e if u != v)) for e in incident[v]
            )
            sigs.append((colors[v], tuple(pair_colors)))
        order = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(order)}
        new_colors = [rank[s] for s in sigs]
        if new_colors == colors:
            return colors
        colors = new_colors


def canonical_search_exhaustive(n: int, edges, colors):
    """Least relabelled edge tuple over every cell-respecting relabelling,
    and every perm (v -> perm[v]) reaching it, in product(permutations) order.
    """
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    best = None
    best_perms = []
    for arrangement in product(*(permutations(cells[c]) for c in sorted(cells))):
        perm = [0] * n
        for label, v in enumerate(chain.from_iterable(arrangement)):
            perm[v] = label
        rel = tuple(sorted(sorted_triple(perm[a], perm[b], perm[c]) for a, b, c in edges))
        if best is None or rel < best:
            best = rel
            best_perms = [tuple(perm)]
        elif rel == best:
            best_perms.append(tuple(perm))
    return best, best_perms


def canonical_search_sorted_leaves(n: int, edges, colors):
    """graphs._canonical_search with each leaf valued by its sorted list of
    edge codes, no shortcut for a discrete colouring and every relabelling of
    a one-cell colouring a candidate: the same best and perm must come back,
    with generators of the same group."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    cell_of_label = [cells[c] for c in sorted(cells) for _ in cells[c]]
    bit = [1 << (n - 1 - label) for label in range(n)]
    arrangement = [0] * n
    code = [0] * n
    used = [False] * n
    generators = []
    leaves = []

    def visit_leaf():
        value = sorted([code[a] | code[b] | code[c] for a, b, c in edges], reverse=True)
        if not leaves:
            leaves.append((value, arrangement[:]))
            return n - 1
        for ref_value, ref in leaves:
            if value == ref_value:
                g = [0] * n
                for u, w in zip(ref, arrangement):
                    g[u] = w
                generators.append(tuple(g))
                return next(i for i in range(n) if ref[i] != arrangement[i])
        if value > leaves[-1][0]:
            del leaves[1:]
            leaves.append((value, arrangement[:]))
        return n - 1

    def explore(d):
        if d == n:
            return visit_leaf()
        explored = []
        covered = set()
        seen = (0, 0)
        for x in cell_of_label[d]:
            if used[x]:
                continue
            if explored and seen != (len(explored), len(generators)):
                seen = (len(explored), len(generators))
                prefix = arrangement[:d]
                covered = _orbit_closure(
                    explored, [g for g in generators if all(g[v] == v for v in prefix)]
                )
            if x in covered:
                continue
            arrangement[d] = x
            code[x] = bit[d]
            used[x] = True
            back = explore(d + 1)
            used[x] = False
            if back < d:
                return back
            explored.append(x)
        return d - 1

    explore(0)
    perm = [0] * n
    for label, v in enumerate(leaves[-1][1]):
        perm[v] = label
    return _relabeled_edges(edges, perm), tuple(perm), generators


def automorphisms_from_perms(perms) -> set[tuple[int, ...]]:
    """{p^-1 o q} for p the first of perms and q each of them: every
    automorphism, when perms are all the relabellings reaching one graph."""
    n = len(perms[0])
    inv0 = [0] * n
    for v, img in enumerate(perms[0]):
        inv0[img] = v
    return {tuple(inv0[q[v]] for v in range(n)) for q in perms}


def automorphisms_exhaustive(h: Hypergraph3) -> set[tuple[int, ...]]:
    """Every automorphism of h, from the perms reaching the exhaustive minimum."""
    colors = refine_colors_by_pair_tuples(h.n, h.edges)
    _, perms = canonical_search_exhaustive(h.n, h.edges, colors)
    return automorphisms_from_perms(perms)


def generated_group(generators, n: int) -> set[tuple[int, ...]]:
    """Every product of the generators (permutations of 0..n-1), the identity included."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for g in generators:
            b = tuple(g[x] for x in a)
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def rooted_iso_brute(g1: Hypergraph3, roots1, g2: Hypergraph3, roots2) -> bool:
    """Isomorphism carrying roots1[i] to roots2[i], for flag comparison."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    s = len(roots1)
    if s != len(roots2):
        return False
    others1 = [v for v in range(g1.n) if v not in set(roots1)]
    others2 = [v for v in range(g2.n) if v not in set(roots2)]
    g2_edges = set(g2.edges)
    for p in permutations(others2):
        m = dict(zip(roots1, roots2))
        m.update(dict(zip(others1, p)))
        if all(sorted_triple(m[a], m[b], m[c]) in g2_edges for a, b, c in g1.edges):
            return True
    return False


def type_embeddings_brute(target: Hypergraph3, sigma: Hypergraph3):
    """Every ordered s-tuple of target vertices inducing sigma on its labels,
    filtered from itertools.permutations in its order."""
    s = sigma.n
    sigma_edges = set(sigma.edges)
    target_edges = set(target.edges)
    out = []
    for theta in permutations(range(target.n), s):
        if all(
            (sorted_triple(*(theta[i] for i in tri)) in target_edges)
            == (tri in sigma_edges)
            for tri in combinations(range(s), 3)
        ):
            out.append(theta)
    return out


def spanning_profile(h: Hypergraph3, m: int) -> dict[bytes, int]:
    """Counts of m-subsets of V(h) keyed by induced canonical key.

    The values sum to C(n, m); dividing by that gives every p(F, h) at once.
    """
    if m > h.n:
        raise ValueError(f"profile size {m} exceeds {h.n} vertices")
    out: dict[bytes, int] = {}
    for sub in combinations(range(h.n), m):
        key = induced_subgraph(h, sub).canon_key
        out[key] = out.get(key, 0) + 1
    return out


def enumerate_flags_brute(
    sigma: Hypergraph3, m_prime: int, family=(), induced_flags=None
) -> list[bytes]:
    """The sorted rooted keys of the flags over sigma: one rooted search for
    every embedding of type_embeddings_brute in every family-free graph on
    m_prime vertices, with no orbits."""
    return sorted(
        {
            rooted_canonical_key(g, theta)
            for g in enumerate_free(m_prime, family, induced_flags)
            for theta in type_embeddings_brute(g, sigma)
        }
    )


def pair_denominator_formula(m: int, s: int) -> int:
    """(m)_s * C(m - s, t) * C(m - s - t, t), t = (m - s) / 2: the number of
    (theta, A1, A2) triples in an m-vertex target, for a type of size s."""
    t = (m - s) // 2
    return perm(m, s) * comb(m - s, t) * comb(m - s - t, t)


def pair_density_table_brute(sigma: Hypergraph3, m: int, family):
    """The pair-density table counted directly: for each target, each theta
    of type_embeddings_brute and each ordered pair of disjoint
    (m' - s)-subsets A1, A2 of the other vertices, m' = (m + s) / 2, the
    rooted key of the induced graph on theta + A, computed afresh for every
    subset.  Entries are counts over pair_denominator_formula, not over
    density.pair_denominator."""
    m_prime = (m + sigma.n) // 2
    members = [fm.graph for fm in family]
    flags_ind = [fm.induced for fm in family]
    flags = enumerate_flags_brute(sigma, m_prime, members, flags_ind)
    targets = enumerate_free(m, members, flags_ind)
    index = {key: i for i, key in enumerate(flags)}
    s = sigma.n
    t = m_prime - s
    matrices = []
    for target in targets:
        counts = {}
        for theta in type_embeddings_brute(target, sigma):
            others = [v for v in range(m) if v not in theta]
            slot = {
                sub: index[rooted_canonical_key(
                    induced_subgraph(target, theta + sub), range(s)
                )]
                for sub in combinations(others, t)
            }
            for a1 in slot:
                for a2 in slot:
                    if not set(a1) & set(a2):
                        pair = (slot[a1], slot[a2])
                        counts[pair] = counts.get(pair, 0) + 1
        upper = {i * len(flags) + j: c for (i, j), c in counts.items() if i <= j}
        matrices.append(pair_matrix(list(upper), list(upper.values()), len(flags)))
    return PairDensityTable(
        tuple(flags), tuple(targets), tuple(matrices), pair_denominator_formula(m, s)
    )


def dense(mat, n, denominator):
    """The n x n symmetric matrix whose stored upper triangle is mat, counts
    over denominator, as the rationals count / denominator, zeros filled in."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(mat):
        for j, c in row:
            out[i][j] = out[j][i] = Fraction(c, denominator)
    return out


def upper_block(matrix, type_key: bytes = b"") -> CertificateBlock:
    """The certificate block whose upper triangle is that of the symmetric
    matrix."""
    n = len(matrix)
    return CertificateBlock(
        type_key, n, tuple(Fraction(matrix[i][j]) for i in range(n) for j in range(i, n))
    )


def dense_block(block: CertificateBlock) -> list[list[Fraction]]:
    """The dense symmetric matrix of a block's upper triangle."""
    n = block.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    values = iter(block.upper)
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = next(values)
    return out


def scale_rows_dense(matrix) -> tuple[list[list[int]], list[int]]:
    """Each row of a dense matrix times D_i, the lcm of its denominators,
    as integers, with the D_i."""
    rows, scales = [], []
    for row in matrix:
        d = 1
        for x in row:
            d = d * x.denominator // gcd(d, x.denominator)
        rows.append([int(x * d) for x in row])
        scales.append(d)
    return rows, scales


def psd_elimination(matrix) -> bool:
    """PSD by rational LDL^T elimination with diagonal pivoting.

    A symmetric matrix is PSD iff elimination never meets a negative pivot
    and, whenever the largest remaining diagonal entry is zero, the whole
    remaining block vanishes.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: a[i][i])
        if a[pivot_row][pivot_row] < 0:
            return False
        if a[pivot_row][pivot_row] == 0:
            return all(a[i][j] == 0 for i in range(k, n) for j in range(k, n))
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            for row in a:
                row[k], row[pivot_row] = row[pivot_row], row[k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return True


def residual_dominant_fractions(matrix, lint) -> bool:
    """R_ii >= sum_{j != i} |R_ij| in every row of R = Q - lint lint^T / 2**(2 SCALE_SHIFT).

    Every residual is a Fraction, formed entry by entry.
    """
    n = len(matrix)
    scale = 1 << (2 * SCALE_SHIFT)
    for i in range(n):
        dominance = Fraction(0)
        diag = None
        for j in range(n):
            k = min(i, j) + 1
            gram = sum(a * b for a, b in zip(lint[i][:k], lint[j][:k]))
            r = Fraction(matrix[i][j]) - Fraction(gram, scale)
            if j == i:
                diag = r
            else:
                dominance += abs(r)
        if diag < dominance:
            return False
    return True


def cholesky_certifies_fractions(matrix) -> bool:
    """The package's PSD certificate with its residual test in Fractions."""
    lint = _float_factor(scale_rows_dense(matrix))
    return lint is not None and residual_dominant_fractions(matrix, lint)


def inner_product_fractions(q, pmat, denominator) -> Fraction:
    """Sum of all q[i][j] * P[i][j], P the dense form of pmat over
    denominator, in Fractions."""
    n = len(q)
    p = dense(pmat, n, denominator)
    return sum((Fraction(q[i][j]) * p[i][j] for i in range(n) for j in range(n)), Fraction(0))


def maxcut_exact(h: Hypergraph3) -> tuple[int, frozenset[int]]:
    """Exhaustive max over all 2^n choices of V1.  Guarded to n <= 14."""
    if h.n > 14:
        raise ValueError("exhaustive max-cut is limited to 14 vertices")
    edge_masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in h.edges]
    best = -1
    best_mask = 0
    for mask in range(1 << h.n):
        cross = 0
        for em in edge_masks:
            if (mask & em).bit_count() == 2:
                cross += 1
        if cross > best:
            best = cross
            best_mask = mask
    v1 = frozenset(v for v in range(h.n) if best_mask >> v & 1)
    return best, v1


def bad_missing_brute(h: Hypergraph3, v1, v2) -> tuple[set, set]:
    """(B, M): the bad edges, with 1 or 3 vertices in V1, and the absent
    triples with 2 vertices in V1, found by walking every cross triple."""
    s1 = set(v1)
    bad = {e for e in h.edges if sum(v in s1 for v in e) in (1, 3)}
    missing = set()
    for a, b in combinations(sorted(s1), 2):
        for c in sorted(v2):
            t = tuple(sorted((a, b, c)))
            if t not in h.edge_set:
                missing.add(t)
    return bad, missing


def move_deltas_edges(h: Hypergraph3, in_v1) -> tuple[list[int], int]:
    """(change in cross count if each single vertex switched sides, cross
    count), by one walk over the edges: the reference for
    partition._move_deltas and _flip, which read the gains from pair links."""
    deltas = [0] * h.n
    cross = 0
    for e in h.edges:
        k = in_v1[e[0]] + in_v1[e[1]] + in_v1[e[2]]
        gain_now = 1 if k == 2 else 0
        cross += gain_now
        for v in e:
            k_after = k - 1 if in_v1[v] else k + 1
            deltas[v] += (1 if k_after == 2 else 0) - gain_now
    return deltas, cross


def maxcut_full_recompute(h: Hypergraph3, restarts: int, seed: int):
    """Steepest-ascent max-cut that recomputes every move delta at every step.

    Same random starts, tie-break (largest gain, then smallest vertex) and
    choice among restarts as `partition.maxcut_local_search`.  Returns
    (v1, v2, cross_present).
    """
    best_cross, best_assign = -1, []
    for i in range(restarts):
        rng = random.Random(seed + i)
        in_v1 = [rng.random() < 0.5 for _ in range(h.n)]
        cross = move_deltas_edges(h, in_v1)[1]
        while True:
            deltas = move_deltas_edges(h, in_v1)[0]
            v_best = max(range(h.n), key=lambda v: (deltas[v], -v))
            if deltas[v_best] <= 0:
                break
            in_v1[v_best] = not in_v1[v_best]
            cross += deltas[v_best]
        if cross > best_cross:
            best_cross, best_assign = cross, list(in_v1)
    v1 = frozenset(v for v in range(h.n) if best_assign[v])
    return v1, frozenset(range(h.n)) - v1, best_cross


def limit_denominator_stdlib(x, max_denominator: int) -> Fraction:
    """best_rational's definition: the standard library's rounding."""
    return Fraction(x).limit_denominator(max_denominator)


def smallest_rational_above_brute(x, max_denominator: int) -> Fraction:
    """Smallest p/q >= x, trying every denominator q <= max_denominator."""
    x = Fraction(x)
    return min(
        Fraction(-(-x.numerator * q // x.denominator), q) for q in range(1, max_denominator + 1)
    )


def construction_brute(pattern, levels) -> set[tuple[int, int, int]]:
    """The edges of pattern with the given part sizes on each level, one
    vertex triple at a time: at the first level where the triple is not
    all inside the recursive part, it is an edge iff its sorted parts are
    a pattern edge.  A triple inside the last level's recursive part lies
    in the empty tail."""
    edges = set()
    for t in combinations(range(sum(levels[0])), 3):
        first = 0  # the first vertex of the level
        for sizes in levels:
            part_of = [p for p, size in enumerate(sizes) for _ in range(size)]
            parts = tuple(sorted(part_of[v - first] for v in t))
            if pattern.recursive is None or set(parts) != {pattern.recursive}:
                if parts in pattern.edges:
                    edges.add(t)
                break
            first += part_of.index(pattern.recursive)
    return edges
