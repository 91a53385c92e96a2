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

Pair-density matrices are about 2% nonzero, so every layer holds them in one
sparse form, PairMatrix: the upper triangle as a tuple of rows, row i listing
a (j, value) pair for each nonzero entry with j >= i, j ascending.  Rows
after the last nonempty one are left out, so a zero matrix is ().  Read row
by row, the entries come in the order of program text; pair_matrix builds
one from {(i, j): value} with i <= j.

How a table is built.  Each target is scanned by root sets
(graphs.root_sets): an s-subset S that induces a copy of sigma comes with
the orderings p for which theta = S o p induces sigma exactly.  A flag's
labelled graph, on theta + sorted(A), is a bitmask over its triples; the
triples inside theta are sigma's edges, one constant base mask per type,
so only the triples that touch A are read, from a per-target table of
every ordering of every edge.  Those are coded once per (S, A) with S
sorted, and the flag slot of each theta = S o p is memoised by (p, code)
across the table's targets.  A new (p, code) reads its mask on theta + A,
and a new mask costs one rooted canonical search.  Ordered pairs of
disjoint A's are counted per target under integer keys, and each count
becomes one shared Fraction over the common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, perm

from .enumeration import enumerate_flags, enumerate_free, rooted_canonical_key
from .families import Family
from .graphs import (
    Hypergraph3,
    _subset_scan,
    from_edges,
    induced_subgraph,
    root_sets,
)

SINGLE_EDGE = from_edges(3, [(0, 1, 2)])


def fraction_text(q: Fraction) -> str:
    """'p' for an integer, else 'p/q': the form every output file uses."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def to_decimal(x) -> Decimal:
    """x as a Decimal rounded to the current context's precision."""
    if isinstance(x, Decimal):
        return +x
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    if isinstance(x, int):
        return Decimal(x)
    return Decimal(str(x))


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
    hits = sum(1 for _ in _subset_scan(h, f, True, False))
    return Fraction(hits, comb(h.n, f.n))


def edge_density(h: Hypergraph3) -> Fraction:
    """|H| / C(n, 3).  Requires n >= 3."""
    if h.n < 3:
        raise ValueError("edge density needs at least 3 vertices")
    return Fraction(len(h.edges), comb(h.n, 3))


# ---------------------------------------------------------------------------
# Pair density tables


PairMatrix = tuple[tuple[tuple[int, Fraction], ...], ...]


def pair_matrix(upper: dict[tuple[int, int], Fraction]) -> PairMatrix:
    """The upper triangle {(i, j): value}, i <= j, as a PairMatrix; zeros dropped."""
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, j), q in sorted(upper.items()):
        if q:
            rows.setdefault(i, []).append((j, q))
    size = max(rows) + 1 if rows else 0
    return tuple(tuple(rows.get(i, ())) for i in range(size))


@dataclass(frozen=True)
class PairDensityTable:
    flags: tuple[bytes, ...]  # rooted keys, the order of matrix rows
    targets: tuple[Hypergraph3, ...]
    matrices: tuple[PairMatrix, ...]


# Tables built by this process, keyed by the labelled type: a table's flags
# and matrices depend on how sigma is labelled, not only on its class.
_memory_cache: dict[tuple, PairDensityTable] = {}


def _family_signature(family: Family) -> tuple:
    return tuple((m.graph.canon_key, m.induced) for m in family)


def pair_density_table(
    sigma: Hypergraph3, m_prime: int, m: int, family: Family = ()
) -> PairDensityTable:
    """Symmetric rational pair-density matrices, one per admissible target,
    each stored as its upper triangle.

    sigma is the type, a labelled graph whose vertices are all roots; row i
    of each matrix is the flag with rooted key flags[i].  Tables are memoised
    per process, and each was built here from the family and the code, so
    the verifier's own assembly reuses the tables an earlier one built.
    """
    s = sigma.n
    if 2 * m_prime - s > m:
        raise ValueError(
            f"two flags of size {m_prime} over a type of size {s} need "
            f"{2 * m_prime - s} vertices, more than m={m}"
        )
    if m_prime < s:
        raise ValueError("flag size below type size")
    cache_key = (sigma, m_prime, m, _family_signature(family))
    table = _memory_cache.get(cache_key)
    if table is None:
        table = _build_table(sigma, m_prime, m, family)
        _memory_cache[cache_key] = table
    return table


def _build_table(
    sigma: Hypergraph3, m_prime: int, m: int, family: Family
) -> PairDensityTable:
    members = [fm.graph for fm in family]
    flags_ind = [fm.induced for fm in family]
    flags = enumerate_flags(sigma, m_prime, members, flags_ind)
    targets = enumerate_free(m, members, flags_ind)
    flag_index = {key: i for i, key in enumerate(flags)}
    s = sigma.n
    t = m_prime - s
    denominator = perm(m, s) * comb(m - s, t) * comb(m - s - t, t)
    # t-subsets of the m - s non-root positions, and the ordered pairs of
    # disjoint ones; the same for every theta of every target.
    subsets = list(combinations(range(m - s), t))
    masks = [sum(1 << x for x in sub) for sub in subsets]
    disjoint = [
        (x, y)
        for x, mx in enumerate(masks)
        for y, my in enumerate(masks)
        if not mx & my
    ]
    # A flag's vertices are theta + sorted(A), roots first, and its labelled
    # edge set is a bitmask over flag_triples.  theta induces sigma, so the
    # triples inside the roots are one base mask for every theta; only the
    # open triples, those that touch A, are looked up.
    flag_triples = list(combinations(range(m_prime), 3))
    base = sum(1 << bit for bit, tri in enumerate(flag_triples) if tri in sigma.edge_set)
    open_triples = [(1 << bit, tri) for bit, tri in enumerate(flag_triples) if tri[2] >= s]
    # Flag index by mask: equal labelled graphs have equal rooted keys, so
    # the canonical search runs once per mask.
    slot_by_mask: dict[int, int] = {}
    # A root set S and a subset A are coded once, by the open triples of
    # S + sorted(A) with S sorted.  Each theta = S o p relabels that code, so
    # its flag slot is slot_by_code[p][code], for every target.
    slot_by_code: dict[tuple[int, ...], dict[int, int]] = {
        order: {} for order in permutations(range(s))
    }
    nflags = len(flags)
    fractions: dict[int, Fraction] = {}  # count -> count / denominator
    matrices = []
    for target in targets:
        # edge[a][b][c] for every ordering of every edge
        edge = [[[False] * m for _ in range(m)] for _ in range(m)]
        for tri in target.edges:
            for a, b, c in permutations(tri):
                edge[a][b][c] = True
        counts: dict[int, int] = {}  # i * nflags + j -> count for flags (i, j)
        for roots, orderings in root_sets(target, sigma):
            others = [v for v in range(m) if v not in roots]
            groups = [[others[x] for x in sub] for sub in subsets]
            codes = []
            for group in groups:
                vertices = roots + tuple(group)
                code = 0
                for bit, (a, b, c) in open_triples:
                    if edge[vertices[a]][vertices[b]][vertices[c]]:
                        code |= bit
                codes.append(code)
            for order in orderings:
                by_code = slot_by_code[order]
                slots = []
                for group, code in zip(groups, codes):
                    slot = by_code.get(code)
                    if slot is None:
                        vertices = [roots[i] for i in order] + group
                        mask = base
                        for bit, (a, b, c) in open_triples:
                            if edge[vertices[a]][vertices[b]][vertices[c]]:
                                mask |= bit
                        slot = slot_by_mask.get(mask)
                        if slot is None:
                            sub_graph = induced_subgraph(target, vertices)
                            slot = flag_index[rooted_canonical_key(sub_graph, range(s))]
                            slot_by_mask[mask] = slot
                        by_code[code] = slot
                    slots.append(slot)
                for x, y in disjoint:
                    pair = slots[x] * nflags + slots[y]
                    counts[pair] = counts.get(pair, 0) + 1
        # counts is symmetric, since (A1, A2) and (A2, A1) are both counted;
        # its keys in order with j >= i give each row of the upper triangle.
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in flags]
        for pair in sorted(counts):
            i, j = divmod(pair, nflags)
            if j < i:
                continue
            c = counts[pair]
            q = fractions.get(c)
            if q is None:
                q = fractions[c] = Fraction(c, denominator)
            rows[i].append((j, q))
        while rows and not rows[-1]:
            rows.pop()
        matrices.append(tuple(map(tuple, rows)))
    return PairDensityTable(
        flags=tuple(flags), targets=tuple(targets), matrices=tuple(matrices)
    )
