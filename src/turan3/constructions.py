"""Lower-bound constructions.

Every construction kind is a pattern (Pikhurko, On possible Turán
densities, Israel J. Math. 201, 2014): a part count, edges that are sorted
triples of parts (a part may repeat), and an optional recursive part.  A
kind has its `kind` name, its limiting density `limit`, its `pattern` and
its `levels`, the part sizes of each level.  A level's parts take
consecutive vertices in part order, each later level lies on the recursive
part of the one before, and a level's edges are, for each pattern edge e,
the triples with e.count(p) vertices in each part p.  Partite3 is {012} and
K4Blowup the four triples of 0..3, blow-ups of a graph with nonempty parts;
SemiBipartite is {001}; BRec is {001} with part 1 recursive, one level
(s, rest) per split s, and its tail of at most 2 vertices stays empty.

The recursion value b_rec(n) is the maximum edge count over all split
sequences; the exact DP below also returns the maximizing sequence, with
ties broken toward a larger first part.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, prod
from typing import ClassVar, NamedTuple, Optional, Sequence, Union

from .graphs import Hypergraph3, Triple

# Correctly rounded to 50 fractional digits.
TWO_SQRT3_MINUS_3 = "0.46410161513775458705489268301174473388561050762076"
LIMIT_BREC_SIXTH = "0.07735026918962576450914878050195745564760175127013"
OPTIMAL_SPLIT_RATIO = "0.63397459621556135323627682924706381652859737309481"


class Pattern(NamedTuple):
    """A part count, edges as sorted triples of parts, and the recursive
    part, which holds the next level (None: one level only).  A pattern
    whose edges repeat no part is the blow-up of a graph on its parts."""

    parts: int
    edges: tuple[Triple, ...]
    recursive: Optional[int] = None


class ConstructionSpec:
    """A kind: its pattern and the part sizes of its levels.  Unless the
    kind says otherwise, its fields are the sizes of its one level."""

    pattern: ClassVar[Pattern]

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        return (tuple(self),)


class BRec(ConstructionSpec, namedtuple("BRec", "n splits")):
    """Recursive construction on n vertices with the given level splits."""

    kind = "brec"
    limit = TWO_SQRT3_MINUS_3
    pattern = Pattern(2, ((0, 0, 1),), recursive=1)

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """One level (s, rest) per split s, or (0, n) with no split; splits
        that do not fit n are refused."""
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        levels = []
        rest = self.n
        for s in self.splits:
            if s < 1:
                raise ValueError(f"split {s} must be at least 1")
            if s > rest:
                raise ValueError(f"split {s} exceeds the {rest} remaining vertices")
            rest -= s
            levels.append((s, rest))
        if rest > 2:
            raise ValueError(f"{rest} vertices left unsplit; tails above 2 vertices need a split")
        return tuple(levels) or ((0, self.n),)


class Partite3(ConstructionSpec, namedtuple("Partite3", "n1 n2 n3")):
    kind = "partite3"
    limit = Fraction(2, 9)
    pattern = Pattern(3, ((0, 1, 2),))


class K4Blowup(ConstructionSpec, namedtuple("K4Blowup", "s1 s2 s3 s4")):
    kind = "k4blowup"
    limit = Fraction(3, 8)
    pattern = Pattern(4, tuple(combinations(range(4), 3)))


class SemiBipartite(ConstructionSpec, namedtuple("SemiBipartite", "n1 n2")):
    kind = "semibipartite"
    limit = Fraction(4, 9)
    pattern = Pattern(2, ((0, 0, 1),))


# The construction kinds by name; every kind but brec is given by part sizes.
KINDS = {cls.kind: cls for cls in (BRec, Partite3, K4Blowup, SemiBipartite)}


def validate(spec: ConstructionSpec) -> None:
    """Reject levels that do not fit (BRec.levels), negative part sizes, and
    empty blow-up parts."""
    for sizes in spec.levels:
        if min(sizes) < 0:
            raise ValueError(f"part sizes must be nonnegative, got {','.join(map(str, sizes))}")
        if 0 in sizes and all(len(set(e)) == 3 for e in spec.pattern.edges):
            # a blow-up part stands for a graph vertex, which needs a vertex
            part = sizes.index(0) + 1
            raise ValueError(
                f"{spec.kind} part {part} is empty; blow-up parts need at least 1 vertex"
            )


# 10**6 partite3 edges took 0.19-0.24 s and 93 MB of peak RSS to build (2-core x86-64 VM)
BUILD_EDGE_LIMIT = 10**6


def build(spec: ConstructionSpec) -> Hypergraph3:
    """Materialize a construction spec of at most BUILD_EDGE_LIMIT edges."""
    edges = edge_count(spec)  # the closed form: nothing is built to refuse a spec
    if edges > BUILD_EDGE_LIMIT:
        raise ValueError(f"{spec.kind} has {edges} edges; build takes at most {BUILD_EDGE_LIMIT}")
    return pattern_graph(spec.pattern, spec.levels)


def pattern_graph(pattern: Pattern, levels: Sequence[Sequence[int]]) -> Hypergraph3:
    """The graph of pattern with the given part sizes on each level."""
    edges: list[Triple] = []
    offset = 0
    for sizes in levels:
        edges.extend(_level_edges(pattern, sizes, offset))
        offset += sum(sizes[: pattern.recursive])
    edges.sort()
    return Hypergraph3(sum(levels[0]), tuple(edges))


def _level_edges(pattern: Pattern, sizes: Sequence[int], offset: int):
    """The edges of one level whose first part starts at vertex offset: for
    each pattern edge e, every triple with e.count(p) vertices in part p,
    each sorted, since the parts take vertices in part order."""
    starts = list(accumulate(sizes, initial=offset))
    for e in pattern.edges:
        triples: list[tuple[int, ...]] = [()]
        for p in sorted(set(e)):
            picks = list(combinations(range(starts[p], starts[p + 1]), e.count(p)))
            triples = [t + c for t in triples for c in picks]
        yield from triples


B_REC_LIMIT = 5000  # b_rec's DP is quadratic in n: seconds at this bound


def b_rec(n: int) -> tuple[int, tuple[int, ...]]:
    """Maximum edge count over split sequences, and one maximizing sequence.

    Exact DP over all tail sizes; ties go to the larger first part, which
    makes the returned sequence deterministic.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > B_REC_LIMIT:
        raise ValueError(f"n={n} exceeds {B_REC_LIMIT}, the largest n b_rec takes")
    values = [0] * (n + 1)
    first = [0] * (n + 1)
    for k in range(3, n + 1):
        best = -1
        arg = 0
        for n1 in range(1, k + 1):
            v = n1 * (n1 - 1) // 2 * (k - n1) + values[k - n1]
            if v > best or (v == best and n1 > arg):
                best = v
                arg = n1
        values[k] = best
        first[k] = arg
    splits = []
    k = n
    while k >= 3:
        splits.append(first[k])
        k -= first[k]
    return values[n], tuple(splits)


def optimal_brec(n: int) -> BRec:
    return BRec(n, b_rec(n)[1])


# ---------------------------------------------------------------------------
# Density reports


class DensityReport(NamedTuple):
    kind: str
    n: int
    edges: int
    density: Fraction  # edges / C(n, 3)
    limit: Union[Fraction, str]  # analytic limit for the construction family


def vertex_count(spec: ConstructionSpec) -> int:
    return sum(spec.levels[0])


def edge_count(spec: ConstructionSpec) -> int:
    """Closed-form edge count; never materializes the graph."""
    validate(spec)
    return sum(
        prod(comb(sizes[p], e.count(p)) for p in set(e))
        for sizes in spec.levels
        for e in spec.pattern.edges
    )


def density_report(spec: ConstructionSpec) -> DensityReport:
    """Exact edge count, finite density and the analytic limiting density.

    Limits: 2/9 for 3-partite, 3/8 for the 4-class blow-up, 4/9 for a single
    semi-bipartite layer, and the 50-digit decimal for the full recursion
    (all stated for the balanced / optimal shape of each family).  Edge
    counts come from the closed forms, so reports stay cheap at any n.
    """
    n = vertex_count(spec)
    edges = edge_count(spec)
    density = Fraction(edges, comb(n, 3)) if n >= 3 else Fraction(0)
    return DensityReport(kind=spec.kind, n=n, edges=edges, density=density, limit=spec.limit)
