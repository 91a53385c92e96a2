"""Exact induced-subgraph densities and typed flag pair densities.

Everything in this module is computed in rational arithmetic; no floats
anywhere.  The certificate verifier depends on that exactness.

Pair-density convention.  For a type sigma (s vertices, all rooted), flag
size m', and an m-vertex target F, the table entry for flags (F1, F2) is the
probability that a uniformly random ordered injective s-tuple theta of V(F),
together with a uniformly random ordered pair of disjoint (m'-s)-subsets
A1, A2 of V(F) minus theta, satisfies all three of:

  * theta induces sigma exactly (edge positions match the type's labels),
  * the rooted graph on theta + A1 is isomorphic to F1 (roots in theta order),
  * the rooted graph on theta + A2 is isomorphic to F2.

With this convention the following identity holds exactly, for every host H
with at least m vertices and any m >= 2m' - s (it is what the assembler and
the tests rely on): sampling (theta, A1, A2) directly in H gives

  Pr[sigma and F1 and F2 in H] = sum over targets F of entry(F1, F2; F) * p(F, H)

because conditioning on the induced graph of a uniform random m-set through
(theta, A1, A2) is distribution-preserving.  Matrices are symmetric since
the pair (A1, A2) is exchangeable.

An entry is stored as the count c of the (theta, A1, A2) satisfying all
three, over D, the count of all of them: one D per (sigma, m), computed
only by pair_denominator.  The matrices are about 2% nonzero, so every
layer holds them in one sparse form, PairMatrix: the upper triangle as a
tuple of rows, row i listing a (j, count) pair of ints for each nonzero
entry with j >= i, j ascending.  Rows after the last nonempty one are left
out, so a zero matrix is ().  Read row by row, the entries come in the
order of program text.  pair_matrix is the one routine that builds one,
from the codes i * width + j in any order; tables and the reader call it.

A table is asked for by (sigma, m): its flags have m' = (m + s) / 2
vertices, s = |sigma|, so two flags over a shared root set exactly fill an
m-vertex target, and sigma fits m when s <= m and s = m mod 2
(pair_denominator checks this).

How a table is built.  Each target is scanned by root sets
(graphs.root_sets): an s-subset S that induces a copy of sigma comes with
the orderings p for which theta = S o p induces sigma exactly.  They form
one coset p0 o Aut(sigma), since theta o gamma induces sigma exactly iff
gamma is an automorphism of sigma, so only theta0 = S o p0, p0 the first
ordering, is counted.  Relabelling the roots by gamma moves the flag of
theta0 + A to its image under gamma (enumeration.flag_action).  So if C0
counts the flag pairs of theta0 alone, the full count of a pair (i, j) is
the sum over gamma in Aut(sigma) of C0 at the pair that gamma moves to
(i, j).  By orbit-stabiliser each pair of the Aut(sigma)-orbit O of (i, j)
is moved to (i, j) by |Aut sigma| / |O| of the gamma, so the count is
|Aut sigma| * C0(O) / |O|, C0(O) being the sum of C0 over O: an exact
integer, which the table checks.  Pair orbits are found only for the pairs
met, once per table: graphs.orbit of (i, j) under flag_action's permutations.

The flag of theta0 + A, for a t-subset A of the other vertices, is fixed by
the code of U = S | A (graphs.subset_codes, computed once per target and
flag size and shared by the tables of every type of that size) and the
places S takes in sorted(U): these give S's code, so p0, and the
labelled graph on theta0 + A.  Flag slots are memoised by (places, code)
across the table's targets, and a new labelled graph costs one rooted
canonical search.  Ordered pairs of disjoint A's are counted per target,
and each count is stored as it is.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, perm
from typing import Sequence

from .enumeration import enumerate_flags, enumerate_free, flag_action, kept_members
from .enumeration import rooted_canonical_key
from .families import Family
from .graphs import Hypergraph3, _subset_scan, induced_subgraph, orbit, root_sets, subset_codes


def fraction_text(q: Fraction) -> str:
    """'p' for an integer, else 'p/q': the form every output file uses."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def to_decimal(q: Fraction) -> Decimal:
    """q as a Decimal rounded to the current context's precision."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def parse_fraction(text: str) -> Fraction:
    """Exact rational from an integer, 'p/q' or plain decimal token.

    Anything else raises ValueError, a zero denominator included.  Exponent
    notation is refused: '1e999999999' would take unbounded time and memory.
    """
    if "e" in text.lower():
        raise ValueError(f"{text!r} is not a rational p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def p(f: Hypergraph3, h: Hypergraph3) -> Fraction:
    """Density of |V(f)|-subsets of V(h) spanning an induced copy of f."""
    if f.n > h.n:
        raise ValueError(f"pattern on {f.n} vertices cannot fit in {h.n}")
    hits = sum(1 for _ in _subset_scan(h, f, True))
    return Fraction(hits, comb(h.n, f.n))


def edge_density(h: Hypergraph3) -> Fraction:
    """|H| / C(n, 3).  Requires n >= 3."""
    if h.n < 3:
        raise ValueError("edge density needs at least 3 vertices")
    return Fraction(len(h.edges), comb(h.n, 3))


# ---------------------------------------------------------------------------
# Pair density tables


PairMatrix = tuple[tuple[tuple[int, int], ...], ...]


def pair_denominator(m: int, s: int) -> int:
    """D = (m)_s * C(m - s, t) * C(m - s - t, t), t = (m - s) / 2, the
    denominator of the pair densities of a type of size s; a type that does
    not fit m raises ValueError."""
    if s > m or (m + s) % 2:
        raise ValueError(f"type of size {s} does not fit in m={m}")
    t = (m - s) // 2
    return perm(m, s) * comb(m - s, t) * comb(m - s - t, t)


def pair_matrix(codes: Sequence[int], counts: Sequence[int], width: int) -> PairMatrix:
    """The PairMatrix with count counts[k] at (i, j) = divmod(codes[k], width).

    Each code appears once, with i <= j and a nonzero count; codes come in
    any order.  Sorting them orders the entries by row, then by column.
    """
    ranked = sorted(range(len(codes)), key=codes.__getitem__)
    codes = sorted(codes)
    entries = [(code % width, counts[k]) for code, k in zip(codes, ranked)]
    matrix: list[tuple[tuple[int, int], ...]] = []
    start = 0
    while start < len(codes):
        i = codes[start] // width
        end = bisect_left(codes, (i + 1) * width, start)
        matrix += [()] * (i - len(matrix))
        matrix.append(tuple(entries[start:end]))
        start = end
    return tuple(matrix)


@dataclass(frozen=True)
class PairDensityTable:
    flags: tuple[bytes, ...]  # rooted keys, the order of matrix rows
    targets: tuple[Hypergraph3, ...]
    matrices: tuple[PairMatrix, ...]  # counts over denominator
    denominator: int  # pair_denominator(m, |sigma|)


def pair_density_table(sigma: Hypergraph3, m: int, family: Family = ()) -> PairDensityTable:
    """Symmetric pair-density matrices, one per admissible m-vertex target,
    each stored as its upper triangle of counts over table.denominator.

    sigma is the type, a labelled graph whose vertices are all roots; the
    flags have (m + s) / 2 vertices, s = |sigma|, and row i of each matrix
    is the flag with rooted key flags[i].  A type that does not fit m
    (pair_denominator) raises ValueError.  Tables are memoised per process
    by _build_table, a functools.cache function keyed on the labelled type
    (a table's flags and matrices depend on how sigma is labelled, not only
    on its class), m and kept_members(m, ...), the (canonical graph,
    induced) of the members on at most m vertices, as enumeration keys
    them.  Each table was built here from the family and the code, so the
    verifier's own assembly reuses the tables an earlier one built.
    """
    kept = kept_members(m, [fm.graph for fm in family], [fm.induced for fm in family])
    return _build_table(sigma, m, kept)


@cache
def _build_table(sigma: Hypergraph3, m: int, kept: frozenset) -> PairDensityTable:
    denominator = pair_denominator(m, sigma.n)
    m_prime = (m + sigma.n) // 2
    members = [f for f, _ in kept]
    flags_ind = [ind for _, ind in kept]
    flags = enumerate_flags(sigma, m_prime, members, flags_ind)
    action = flag_action(sigma, m_prime, members, flags_ind)
    order = len(sigma.canonical.automorphisms)
    targets = enumerate_free(m, members, flags_ind)
    flag_index = {key: i for i, key in enumerate(flags)}
    s = sigma.n
    t = m_prime - s
    # t-subsets of the m - s non-root positions, and the ordered pairs of
    # disjoint ones; the same for every root set of every target.
    subsets = list(combinations(range(m - s), t))
    masks = [sum(1 << x for x in sub) for sub in subsets]
    disjoint = [
        (x, y)
        for x, mx in enumerate(masks)
        for y, my in enumerate(masks)
        if not mx & my
    ]
    # The flag of theta + A, theta = S o p for a root set S and A a t-subset
    # of the others, is decided by the code of U = S | A (subset_codes) and
    # the places S takes in sorted(U): these give S's code, so p, and the
    # labelled graph on theta + A.  plans[S] holds, for each A in subsets
    # order, U's index among the m'-subsets, the slots by U code for S's
    # places, and A.
    u_index = {u: i for i, u in enumerate(combinations(range(m), m_prime))}
    slot_by_code: dict[tuple[int, ...], dict[int, int]] = {}
    plans: dict[tuple[int, ...], list[tuple[int, dict[int, int], list[int]]]] = {}
    for roots in combinations(range(m), s):
        others = [v for v in range(m) if v not in roots]
        plan = plans[roots] = []
        for sub in subsets:
            group = [others[x] for x in sub]
            u = tuple(sorted(roots + tuple(group)))
            places = tuple(u.index(v) for v in roots)
            plan.append((u_index[u], slot_by_code.setdefault(places, {}), group))
    # Flag index by labelled graph: the canonical search runs once per graph.
    slot_by_edges: dict[tuple[tuple[int, int, int], ...], int] = {}
    nflags = len(flags)
    # Each pair orbit met, under its least member: its size and its members
    # with i <= j as pair codes.
    orbit_of: dict[int, int] = {}
    orbit_upper: dict[int, tuple[int, list[int]]] = {}
    matrices = []
    for target in targets:
        u_codes = subset_codes(target, m_prime)
        pairs: list[int] = []  # i * nflags + j for each counted (A1, A2)
        for roots, orderings in root_sets(target, sigma):
            plan = plans[roots]
            slots = [by_code.get(u_codes[u]) for u, by_code, _ in plan]
            if None in slots:
                # orderings is a coset of Aut(sigma); only its first is counted
                theta = [roots[i] for i in orderings[0]]
                for x, (u, by_code, group) in enumerate(plan):
                    if slots[x] is None:
                        sub_graph = induced_subgraph(target, theta + group)
                        slot = slot_by_edges.get(sub_graph.edges)
                        if slot is None:
                            slot = flag_index[rooted_canonical_key(sub_graph, range(s))]
                            slot_by_edges[sub_graph.edges] = slot
                        slots[x] = by_code[u_codes[u]] = slot
            pairs += [slots[x] * nflags + slots[y] for x, y in disjoint]
        # pairs counts C0; each pair of an orbit O has the full count
        # order * C0(O) / |O| (see the module docstring)
        for pair in set(pairs).difference(orbit_of):
            if pair in orbit_of:  # in an orbit found earlier in this loop
                continue
            images = [i * nflags + j for i, j in orbit([divmod(pair, nflags)], action)]
            least = min(images)
            orbit_of |= dict.fromkeys(images, least)
            orbit_upper[least] = (len(images), [x for x in images if x // nflags <= x % nflags])
        totals = Counter(map(orbit_of.__getitem__, pairs))  # least member of O -> C0(O)
        # Each nonzero entry with i <= j: its pair code and its count.
        codes: list[int] = []
        counts: list[int] = []
        for least, total in totals.items():
            size, upper = orbit_upper[least]
            if not upper:
                continue
            c, rest = divmod(order * total, size)
            if rest:
                raise RuntimeError(
                    f"|Aut(sigma)| * C0(O) = {order * total} is not divisible by |O| = {size}"
                )
            codes += upper
            counts += [c] * len(upper)
        matrices.append(pair_matrix(codes, counts, nflags))
    return PairDensityTable(tuple(flags), tuple(targets), tuple(matrices), denominator)
