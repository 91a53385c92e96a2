"""Bipartition diagnostics: bad and missing edges, max-cut search, bounds.

For a partition V1 and V2 of the vertex set, edges are classified by how
many of their vertices fall in V1: exactly 2 is a cross edge, 1 or 3 is a
bad edge, 0 is an inner edge of V2.  Missing edges are the absent triples
with exactly 2 vertices in V1.  The counts are taken in one pass over the
edges, each edge tallied by how many of its vertices lie in V1; the two
identities

    |H| = cross_present + |B| + inner2
    cross_present + |M| = C(|V1|, 2) * |V2|

give |H| and n = |V1| + |V2| to the inequalities, and the second one
defines |M|, so no cross triple is ever listed.

The max-cut search reads its move gains from the graph's pair links
(links[u][a], the bitmask of the b with {u, a, b} an edge).  With S the V1
bitmask, N2(u) the edges at u whose other two vertices lie in V1 and
ones(u) the sum over a in V1 of |links[u][a]|, moving u gains
3 N2(u) - ones(u) cross edges from V1 and its negation from V2.  The
gains cost one pass over the links per restart; a move updates them from
the links of the moved vertex, one popcount pair per vertex sharing an
edge with it, so O(n) popcounts per move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .graphs import Hypergraph3


@dataclass(frozen=True)
class PartitionStats:
    """The parts and the edge counts of a bipartition (module docstring)."""

    v1: frozenset[int]
    v2: frozenset[int]
    cross_present: int
    bad: int
    inner2: int

    @property
    def missing(self) -> int:
        """|M|, by the second identity."""
        return comb(len(self.v1), 2) * len(self.v2) - self.cross_present

    @property
    def mu_lower(self) -> Fraction:
        """6 * cross / n^3, a lower bound on the max-cut ratio mu(H)."""
        return Fraction(6 * self.cross_present, (len(self.v1) + len(self.v2)) ** 3)


def _check_partition(h: Hypergraph3, v1, v2) -> tuple[frozenset[int], frozenset[int]]:
    s1, s2 = frozenset(v1), frozenset(v2)
    if s1 & s2:
        raise ValueError(f"parts overlap on {sorted(s1 & s2)}")
    outside = [v for v in s1 | s2 if not 0 <= v < h.n]
    if outside:
        raise ValueError(f"vertex {min(outside)} is outside 0..{h.n - 1}")
    if s1 | s2 != frozenset(range(h.n)):
        raise ValueError("parts do not cover the vertex set")
    return s1, s2


def bad_missing(h: Hypergraph3, v1, v2) -> PartitionStats:
    """Count the cross, bad and inner-V2 edges of the given partition in one
    pass over the edges; |M| follows from the cross count."""
    s1, s2 = _check_partition(h, v1, v2)
    tally = [0, 0, 0, 0]  # edges by how many of their vertices lie in V1
    for a, b, c in h.edges:
        tally[(a in s1) + (b in s1) + (c in s1)] += 1
    return PartitionStats(
        v1=s1, v2=s2, cross_present=tally[2], bad=tally[1] + tally[3], inner2=tally[0]
    )


def _mask(in_v1: Sequence[bool]) -> int:
    """The V1 bitmask S, built in time linear in n."""
    return int("".join("1" if x else "0" for x in reversed(in_v1)) or "0", 2)


def _move_deltas(h: Hypergraph3, in_v1: Sequence[bool], s: int) -> tuple[list[int], int]:
    """(change in cross count if each single vertex switched sides, cross count),
    by the gain formula of the module docstring; s is the V1 bitmask."""
    deltas = []
    cross = 0
    for u, link in enumerate(h.pair_links):
        ones = both = 0
        for a, t in link.items():
            if in_v1[a]:
                ones += t.bit_count()
                both += (t & s).bit_count()
        n2 = both // 2  # both counts each such edge once from each end
        if in_v1[u]:
            deltas.append(3 * n2 - ones)
        else:
            deltas.append(ones - 3 * n2)
            cross += n2
    return deltas, cross


def _flip(h: Hypergraph3, in_v1: list[bool], deltas: list[int], s: int, v: int) -> int:
    """Move v to the other side, update deltas from the edges at v only, and
    return the new V1 bitmask (s with bit v switched).

    Only a u with t = links[v][u] nonzero changes: with c = |t & S|, the
    edges {v, u, b} change 3 N2(u) - ones(u) by |t| - 3c when v leaves V1
    and by 3c - |t| when it joins.  Every edge at v turns its own
    contribution to v around, so deltas[v] changes sign.
    """
    side = in_v1[v]
    for u, t in h.pair_links[v].items():
        change = t.bit_count() - 3 * (t & s).bit_count()  # as v leaves V1
        deltas[u] += change if in_v1[u] == side else -change
    deltas[v] = -deltas[v]
    in_v1[v] = not side
    return s ^ (1 << v)


def is_locally_maximal(h: Hypergraph3, v1, v2) -> bool:
    """True iff no single-vertex move increases the cross-edge count."""
    s1, _ = _check_partition(h, v1, v2)
    in_v1 = [v in s1 for v in range(h.n)]
    return all(d <= 0 for d in _move_deltas(h, in_v1, _mask(in_v1))[0])


def maxcut_local_search(
    h: Hypergraph3, restarts: int = 32, seed: int = 0
) -> PartitionStats:
    """The counts of the best locally maximal partition over random restarts.

    Steepest single-vertex ascent from each random start; restart i draws
    its start from random.Random(seed + i), and the first restart with the
    most cross edges wins.  The returned partition admits no improving
    single move, so its mu_lower is a certified lower bound on the max-cut
    ratio.  The move gains, 3 N2(u) - ones(u) from V1 and its negation
    from V2 (see the module docstring), and the cross count are computed
    with popcounts in one pass over the pair links per restart; each move
    then updates the gains of the vertices sharing an edge with the moved
    one (`_flip`), O(n) popcounts per move.
    """
    if h.n < 1:
        raise ValueError("need at least one vertex")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    best_cross = -1
    best_assign: list[bool] = []
    for i in range(restarts):
        rng = random.Random(seed + i)
        in_v1 = [rng.random() < 0.5 for _ in range(h.n)]
        s = _mask(in_v1)
        deltas, cross = _move_deltas(h, in_v1, s)
        while True:
            gain = max(deltas)
            if gain <= 0:
                break
            v_best = deltas.index(gain)  # the least vertex of the largest gain
            cross += gain
            s = _flip(h, in_v1, deltas, s, v_best)
        if cross > best_cross:
            best_cross = cross
            best_assign = list(in_v1)
    s1 = frozenset(v for v in range(h.n) if best_assign[v])
    return bad_missing(h, s1, frozenset(range(h.n)) - s1)


# ---------------------------------------------------------------------------
# Inequalities


def lemma22_gap(stats: PartitionStats, xi) -> tuple[int, Fraction, bool]:
    """Evaluate |H| against C(|V1|,2)|V2| + |H[V2]| + xi n^3 - max(|B|/3999, |M|/4000).

    |H| and n come from the counts (module docstring).  Returns
    (lhs, rhs, lhs <= rhs), all exact; no clamping is performed.
    """
    xi = Fraction(xi)
    lhs = stats.cross_present + stats.bad + stats.inner2
    n = len(stats.v1) + len(stats.v2)
    penalty = max(Fraction(stats.bad, 3999), Fraction(stats.missing, 4000))
    rhs = comb(len(stats.v1), 2) * len(stats.v2) + stats.inner2 + xi * n**3 - penalty
    return lhs, rhs, lhs <= rhs


def prop33_expr(stats: PartitionStats) -> Fraction:
    """|B| - (3999/4000) |M|, exactly."""
    return stats.bad - Fraction(3999, 4000) * stats.missing
