"""3-uniform hypergraphs: exact construction, canonical labeling, containment.

Vertices are always 0-based integers 0..n-1.  Edges are 3-element subsets
stored as sorted triples in a sorted tuple.  Hypergraph3 is a plain class
whose equality and hash are those of its (n, edges), so two equal graphs
compare equal as values and hash as the tuple does.  Graphs are not changed
once built; every operation returns a new graph.

This is the only module that searches a small graph, and it has two
searches.  _canonical_search (the least edge tuple over the relabelings
within the cells of a refined colouring) decides isomorphism classes: it
serves canonical_data, whose automorphism generators give the orbits and
the group the isomorph-free generator needs, and rooted_canonical_key.  It
visits the relabelings depth first and prunes them by the automorphisms it
finds on the way (first-path pruning, McKay and Piperno, J. Symbolic
Comput. 60, 2014): the edgeless and the complete graph cost one leaf per
vertex, but a rigid graph whose colouring leaves large cells still costs
a leaf per relabeling.  A one-cell colouring with an edge starts the
search at a pair of largest codegree c: labels 0 and 1 take such a pair
and labels 2..c+1 its common neighbours.  The triples (0, 1, x) are the
most significant in a leaf's value, and a pair of codegree c' can make at
most c' of them edges, the first c' only with its common neighbours at
labels 2..c'+1; so every leaf reaching the least edge tuple obeys the
rule, and no key or first perm reaching it is lost.  A discrete colouring
is answered without a search, and a leaf is valued by an integer with one
bit per relabeled edge, at the rank of the edge's triple, so a leaf costs
one OR per edge and no sort.  The last vertex goes to its leaf without a
loop, and a node looks for orbits of explored siblings only once the
search has found an automorphism fixing its prefix.  A graph's refined
colouring is its cached refined_colors, which the generator reads before
it decides to label; refinement stops at the first round that splits no
cell, and at once when the colouring is discrete.
_injections (backtracking over vertex images, pruned by degree and by every
edge a placed vertex completes) checks only that edges land on edges:
contains_sub and link_patterns (which lists, for the isomorph-free
generator, the links of a new vertex that would complete a member) run it
on the host, and the subset scan runs it on small induced graphs.  An
induced copy is one on a subset spanning exactly |E(f)| edges: the
injection then maps E(f) onto them, so non-edges land on non-edges.
Canonical labeling never decides containment.

A k-subset is coded by its induced graph, one bit per triple of its
sorted positions in combinations order.  _subset_code alone writes one and
_code_injections (cached on the labelled pattern, every and the code)
alone reads one, both through its binary digits, in time and memory
linear in its C(k, 3) bits.  Hosts stream through _subset_scan, which
answers a host with fewer edges than the pattern at once, refuses a
pattern over SMALL_VERTEX_LIMIT vertices and codes each subset whose edge
count fits: density.p counts what it yields, contains_induced and
exhaustive_containment_scan take the first.  Small graphs are coded once
per size by the cached subset_codes, which root_sets reads for
type_embeddings, link_patterns and density's tables, so every type of one
size shares one walk of each graph.

One closure, orbit, serves every orbit of tuples: automorphism groups,
flag embeddings and flag pairs.  Vertex orbits use the faster _orbit_closure.

A graph's cached pair_links hold, for each vertex u and each vertex a
sharing an edge with it, the bitmask of the third vertices of the edges
through u and a.  The max-cut search in partition reads its move gains
from them with popcounts.
"""

from __future__ import annotations

import os
import stat
from collections import defaultdict
from functools import cache, cached_property
from itertools import combinations, compress, groupby, islice
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

Triple = tuple[int, int, int]
Perm = tuple[int, ...]
# The vertex count a key's one byte holds, and the subset scan's largest pattern.
SMALL_VERTEX_LIMIT = 255
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _sorted_triple(a: int, b: int, c: int) -> Triple:
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
    if a > b:
        a, b = b, a
    return (a, b, c)


class Hypergraph3:
    """An n-vertex 3-uniform hypergraph with a deterministic edge order.

    Equality and hash are those of the value (n, edges).
    """

    def __init__(self, n: int, edges: tuple[Triple, ...]) -> None:
        self.n = n
        self.edges = edges

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    @cached_property
    def edge_set(self) -> frozenset[Triple]:
        return frozenset(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for a, b, c in self.edges:
            d[a] += 1
            d[b] += 1
            d[c] += 1
        return tuple(d)

    @cached_property
    def pair_links(self) -> tuple[dict[int, int], ...]:
        """links[u][a]: the bitmask of the b with {u, a, b} an edge.

        A pair in no edge has no entry, so the size grows with the pairs
        that lie in an edge, not with n^2.
        """
        third: defaultdict[tuple[int, int], int] = defaultdict(int)
        for a, b, c in self.edges:
            third[a, b] |= 1 << c
            third[a, c] |= 1 << b
            third[b, c] |= 1 << a
        links: list[dict[int, int]] = [{} for _ in range(self.n)]
        for (a, b), t in third.items():
            links[a][b] = t
            links[b][a] = t
        return tuple(links)

    @cached_property
    def refined_colors(self) -> tuple[int, ...]:
        """The label-invariant colouring _refine_colors gives with no initial colouring."""
        return tuple(_refine_colors(self.n, self.edges))

    @cached_property
    def canonical(self) -> "CanonicalData":
        return canonical_data(self)

    @property
    def canon_key(self) -> bytes:
        return self.canonical.key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Hypergraph3(n={self.n}, edges={list(self.edges)})"


def from_edges(n: int, triples: Iterable[Sequence[int]]) -> Hypergraph3:
    """Build a graph on n vertices from vertex triples, deduplicating.

    Rejects triples with repeated vertices or vertices outside 0..n-1.  A
    list sort is linear on sorted input, such as save_graph's lines.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    edges: list[Triple] = []
    for t in triples:
        if len(t) != 3:
            raise ValueError(f"edge {tuple(t)} does not have 3 vertices")
        a, b, c = t
        if a == b or b == c or a == c:
            raise ValueError(f"edge {tuple(t)} repeats a vertex")
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise ValueError(f"edge {tuple(t)} has a vertex outside 0..{n - 1}")
        edges.append(_sorted_triple(a, b, c))
    return Hypergraph3(n, tuple(t for t, _ in groupby(sorted(edges))))


def _relabeled_edges(edges: Sequence[Triple], perm: Sequence[int]) -> tuple[Triple, ...]:
    return tuple(sorted(_sorted_triple(perm[a], perm[b], perm[c]) for a, b, c in edges))


# ---------------------------------------------------------------------------
# Canonical labeling


def _refine_colors(
    n: int, edges: Sequence[Triple], initial: Sequence[int] | None = None
) -> list[int]:
    """Iteratively refine vertex colors by the multiset of incident pair colors.

    The result is a label-invariant coloring: isomorphic graphs produce the
    same color for corresponding vertices.  Distinctions present in the
    initial coloring persist, and their relative order is preserved.  With
    no initial colouring, refinement starts from the degree ranks, which is
    exactly what the first round from all-equal colours gives.  Colours are
    ranks 0..cells-1 throughout, so a pair of colours x <= y is coded as
    x*cells + y, and the sorted codes order vertices exactly as the sorted
    (x, y) pairs would.  A round that splits no cell leaves the colouring
    stable, so refinement stops there, and a discrete colouring is stable
    as soon as it is ranked.
    """
    if initial is None:
        seeds = [0] * n
        for a, b, c in edges:
            seeds[a] += 1
            seeds[b] += 1
            seeds[c] += 1
    else:
        seeds = list(initial)
    rank = {s: i for i, s in enumerate(sorted(set(seeds)))}
    colors = [rank[s] for s in seeds]
    while len(rank) < n:
        cells = len(rank)
        # each edge gives each of its vertices the code of its other two
        codes: list[list[int]] = [[] for _ in range(n)]
        for a, b, c in edges:
            ca, cb, cc = colors[a], colors[b], colors[c]
            codes[a].append(cb * cells + cc if cb <= cc else cc * cells + cb)
            codes[b].append(ca * cells + cc if ca <= cc else cc * cells + ca)
            codes[c].append(ca * cells + cb if ca <= cb else cb * cells + ca)
        sigs = []
        for v in range(n):
            own = codes[v]
            own.sort()
            sigs.append((colors[v], tuple(own)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == cells:
            break
    return colors


def _orbit_closure(start: Iterable[int], generators: Sequence[Perm]) -> set[int]:
    """The union of the orbits of the start vertices: orbit on 1-tuples, but
    faster.  With 1-tuples, enumerate_free(6) for the enumerate-m6 families
    took 353 ms, not 329 ms (median of 5 processes, one CPU of a 2-core
    x86-64 VM); enumerate-m6 wall_s read 0.833 s, not 0.800 s (10 pairs)."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in generators:
            w = g[v]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def orbit(start: Iterable[Perm], generators: Sequence[Perm]) -> dict[Perm, None]:
    """Every tuple reached from the start tuples when a generator acts on
    each entry (x -> tuple(g[v] for v in x)), as dict keys in the order
    first reached: the union of their orbits under the generated group."""
    seen = dict.fromkeys(start)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple([g[v] for v in x])
            if y not in seen:
                seen[y] = None
                frontier.append(y)
    return seen


class _TripleBits(dict):
    """Triple code -> 1 << its rank among all triple codes, filled on first use.

    A triple code has three set bits, at positions i > j > k, and its rank
    in increasing order is comb(i, 3) + comb(j, 2) + k (the combinatorial
    number system), whatever the vertex count.  So the table holds only the
    codes searches have met, never one entry per n-bit integer.
    """

    def __missing__(self, code: int) -> int:
        i = code.bit_length() - 1
        rest = code ^ (1 << i)
        j = rest.bit_length() - 1
        k = (rest ^ (1 << j)).bit_length() - 1
        bit = self[code] = 1 << (comb(i, 3) + comb(j, 2) + k)
        return bit


_TRIPLE_BIT = _TripleBits()


def _canonical_search(
    n: int, edges: Sequence[Triple], colors: Sequence[int]
) -> tuple[tuple[Triple, ...], Perm, list[Perm]]:
    """Least relabeled edge tuple, one perm (v -> perm[v]) reaching it, and
    automorphisms that generate the graph's automorphism group.

    colors is a refined colouring from _refine_colors.  The candidates are
    the relabelings that sort vertices by color, free within each cell;
    cells are laid out in increasing color order, so the candidate set is
    the same for any isomorphic input, and the top cell takes the top labels.
    A discrete colouring leaves one candidate and a trivial group, so it is
    returned without a search.

    A one-cell colouring with at least one edge keeps only the candidates
    that put a pair of largest codegree c at labels 0 and 1 and its common
    neighbours at labels 2..c+1, each in increasing order.  The dropped
    candidates cannot reach the least tuple: edges containing labels 0 and
    1 have the greatest codes, (0, 1, 2) first and (0, 1, n-1) last, so a
    least tuple has c of them, (0, 1, 2) to (0, 1, c+1), and only a
    candidate obeying the rule has those.  The rule is kept by every
    automorphism, so the pruning below and the group the found
    automorphisms generate are as without it; only the list of generators
    can differ.  Other colourings search every candidate.

    The candidates form a tree: a node at depth d fixes the vertices of
    labels 0..d-1, and its children take the unused vertices of label d's
    cell in increasing order, so leaves come in the order of
    product(permutations(cell) ...).  Two leaves with equal edge tuples give
    an automorphism.  A leaf equal to the first leaf or to the best so far
    sends the search back to the depth where the two paths diverge, and a
    node skips a child in the orbit of an explored sibling under the found
    automorphisms that fix the node's prefix (McKay's first-path pruning).
    A skipped subtree is an automorphic image of an explored one, so the
    least tuple and the first leaf reaching it are still visited, and the
    found automorphisms generate the whole group.

    The bookkeeping per node is kept small without changing which nodes and
    leaves are visited: a node at depth n-1 has one unused vertex and goes
    straight to its leaf, a node collects the generators that fix its prefix
    (by one AND of bitmasks each) only when the search has found new ones,
    and tests a child for an explored sibling's orbit only once it holds one.
    """
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    cell_of_label = [cells[c] for c in sorted(cells) for _ in cells[c]]
    if len(cells) == n:
        best, perm = _relabeled_to(edges, [cell[0] for cell in cell_of_label])
        return best, perm, []
    narrow = 0  # labels 1..narrow take their cells from the labels placed before them
    if len(cells) == 1 and edges:
        links = Hypergraph3(n, tuple(edges)).pair_links  # common-neighbour masks
        codegree = max(t.bit_count() for link in links for t in link.values())
        partners = [
            [v for v in sorted(link) if link[v].bit_count() == codegree] for link in links
        ]
        cell_of_label[0] = [u for u in range(n) if partners[u]]
        narrow = 2
    # A relabeled edge is coded as the OR of bit[label] over its vertices,
    # and a leaf's value sets one bit per edge, at the rank of its code
    # (_TRIPLE_BIT).  One edge tuple is less than another exactly when its
    # codes, sorted in decreasing order, are greater; with as many edges on
    # each side, that is exactly when its value is greater.
    bit = [1 << (n - 1 - label) for label in range(n)]
    arrangement = [0] * n  # arrangement[label] = vertex
    code = [0] * n  # code[v] = bit[label of v]
    generators: list[Perm] = []
    moved: list[int] = []  # moved[i]: the bitmask of the vertices generators[i] moves
    # (value, arrangement) of the first leaf, then of the best leaf if it differs
    leaves: list[tuple[int, list[int]]] = []

    def visit_leaf() -> int:
        value = 0
        for a, b, c in edges:
            value |= _TRIPLE_BIT[code[a] | code[b] | code[c]]
        if not leaves:
            leaves.append((value, arrangement[:]))
            return n - 1
        for ref_value, ref in leaves:
            if value == ref_value:
                g = [0] * n
                for u, w in zip(ref, arrangement):
                    g[u] = w
                generators.append(tuple(g))
                moved.append(sum(1 << u for u, w in zip(ref, arrangement) if u != w))
                return next(i for i in range(n) if ref[i] != arrangement[i])
        if value > leaves[-1][0]:
            del leaves[1:]
            leaves.append((value, arrangement[:]))
        return n - 1

    def explore(d: int, placed: int) -> int:
        """Search below arrangement[:d] (vertex bitmask placed); return the depth to resume at."""
        if 0 < d <= narrow:
            if d == 1:
                cell_of_label[1] = partners[arrangement[0]]
            else:
                mask = links[arrangement[0]][arrangement[1]]
                inside = [v for v in range(n) if mask >> v & 1]
                outside = [v for v in range(n) if not mask >> v & 1]
                cell_of_label[2:] = [inside] * codegree + [outside] * (n - 2 - codegree)
        if d == n - 1:
            x = (placed ^ ((1 << n) - 1)).bit_length() - 1  # the one vertex left
            arrangement[d] = x
            code[x] = bit[d]
            return visit_leaf()
        explored: list[int] = []
        fixing: list[Perm] = []  # the generators that fix arrangement[:d]
        checked = 0  # len(generators) when fixing was last extended
        covered: set[int] = set()  # orbits of explored under fixing
        seen = (0, 0)  # (len(explored), len(fixing)) when covered was computed
        for x in cell_of_label[d]:
            if placed >> x & 1:
                continue
            if checked < len(generators):
                fixing += [
                    g for g, mask in zip(generators[checked:], moved[checked:])
                    if not mask & placed
                ]
                checked = len(generators)
            if fixing and explored and seen != (len(explored), len(fixing)):
                seen = (len(explored), len(fixing))
                covered = _orbit_closure(explored, fixing)
            if x in covered:
                continue
            arrangement[d] = x
            code[x] = bit[d]
            back = explore(d + 1, placed | 1 << x)
            if back < d:
                return back
            explored.append(x)
        return d - 1

    explore(0, 0)
    best, perm = _relabeled_to(edges, leaves[-1][1])
    return best, perm, generators


def _relabeled_to(
    edges: Sequence[Triple], arrangement: Sequence[int]
) -> tuple[tuple[Triple, ...], Perm]:
    """(relabeled edges, perm) for the relabeling that puts arrangement[label] at label."""
    perm = [0] * len(arrangement)
    for label, v in enumerate(arrangement):
        perm[v] = label
    return _relabeled_edges(edges, perm), tuple(perm)


class CanonicalData:
    """Canonical representative plus the symmetry data the generator needs.

    A graph is labelled once: canonical_data reads the graph's cached
    refined_colors, and it primes the representative's own cached
    canonical (same key, the identity as to_canonical, the generators
    conjugated onto it), so sorting by key, extending the representative
    and any later canon_key of it search nothing again.
    """

    def __init__(
        self, key: bytes, graph: Hypergraph3, to_canonical: Perm, generators: tuple[Perm, ...]
    ) -> None:
        self.key = key
        self.graph = graph
        # some relabeling v -> to_canonical[v] that reaches the key
        self.to_canonical = to_canonical
        self.generators = generators  # automorphisms that generate the group

    @cached_property
    def automorphisms(self) -> tuple[Perm, ...]:
        """The full automorphism group, the orbit of the identity, on first use."""
        return tuple(orbit([tuple(range(self.graph.n))], self.generators))

    def orbit(self, v: int) -> set[int]:
        """The automorphism orbit of vertex v."""
        return _orbit_closure([v], self.generators)


def _encode(n: int, edges: Sequence[Triple]) -> bytes:
    flat = bytearray([n])
    for a, b, c in edges:
        flat += bytes((a, b, c))
    return bytes(flat)


def canonical_data(h: Hypergraph3) -> CanonicalData:
    if h.n > SMALL_VERTEX_LIMIT:
        raise ValueError(f"canonical labeling supports at most {SMALL_VERTEX_LIMIT} vertices")
    best, p0, generators = _canonical_search(h.n, h.edges, h.refined_colors)
    inv0 = [0] * h.n
    for v, img in enumerate(p0):
        inv0[img] = v
    key = _encode(h.n, best)
    graph = Hypergraph3(h.n, best)
    # p0 maps h onto graph, so p0 a p0^-1 is an automorphism of graph for
    # each automorphism a of h.  Assigning graph's cached_property primes it.
    graph.canonical = CanonicalData(
        key=key,
        graph=graph,
        to_canonical=tuple(range(h.n)),
        generators=tuple(tuple(p0[g[inv0[x]]] for x in range(h.n)) for g in generators),
    )
    return CanonicalData(key=key, graph=graph, to_canonical=p0, generators=tuple(generators))


def rooted_canonical_key(h: Hypergraph3, roots: Sequence[int]) -> bytes:
    """Canonical key with the roots pinned, in order, to labels 0..s-1.

    Equal keys exactly when there is an isomorphism carrying root i to root i.
    """
    s = len(roots)
    if len(set(roots)) != s:
        raise ValueError("roots must be distinct")
    root_pos = {v: i for i, v in enumerate(roots)}
    # Seed refinement with singleton colors for the roots: they stay the
    # smallest colors, so every candidate relabeling pins root i to label i.
    colors = _refine_colors(h.n, h.edges, [root_pos.get(v, s) for v in range(h.n)])
    best, _, _ = _canonical_search(h.n, h.edges, colors)
    return bytes([s]) + _encode(h.n, best)


def decode_key(raw: bytes) -> Hypergraph3:
    """Rebuild the graph a canonical key encodes (inverse of the key layout).

    The edges must be sorted triples in strictly increasing order, as every
    key writes them.
    """
    if not raw:
        raise ValueError("empty key")
    n = raw[0]
    body = raw[1:]
    if len(body) % 3:
        raise ValueError("malformed key body")
    edges = tuple(
        (body[i], body[i + 1], body[i + 2]) for i in range(0, len(body), 3)
    )
    if any(not (a < b < c < n) for a, b, c in edges):
        raise ValueError("malformed key edges")
    if any(e >= f for e, f in zip(edges, edges[1:])):
        raise ValueError("key edges are repeated or out of order")
    return Hypergraph3(n, edges)


# ---------------------------------------------------------------------------
# Containment


def _injections(f: Hypergraph3, h: Hypergraph3) -> Iterator[tuple[int, ...]]:
    """Each injection V(f) -> V(h) that maps f-edges to h-edges.

    Each injection is yielded as the tuple of images of f's vertices
    0..f.n-1.  f's vertices are placed by decreasing degree, ties by label;
    each takes the unused h-vertices of at least its own degree in
    increasing order, and a placed vertex must at once land every f-edge it
    completes on an h-edge, so injections come in the lexicographic order
    of their images along that vertex order.
    """
    if f.n > h.n:
        return
    f_deg = f.degrees
    h_deg = h.degrees
    h_edges = h.edge_set
    order = sorted(range(f.n), key=lambda v: -f_deg[v])
    pos_in_order = {v: i for i, v in enumerate(order)}
    # closing[i]: the f-edges whose last vertex in order is order[i]
    closing: list[list[Triple]] = [[] for _ in range(f.n)]
    for a, b, c in f.edges:
        closing[max(pos_in_order[a], pos_in_order[b], pos_in_order[c])].append((a, b, c))
    assignment: dict[int, int] = {}
    used = [False] * h.n

    def place(i: int) -> Iterator[tuple[int, ...]]:
        if i == f.n:
            yield tuple(assignment[v] for v in range(f.n))
            return
        v = order[i]
        need = f_deg[v]
        for cand in range(h.n):
            if used[cand] or h_deg[cand] < need:
                continue
            assignment[v] = cand
            for a, b, c in closing[i]:
                if _sorted_triple(assignment[a], assignment[b], assignment[c]) not in h_edges:
                    break
            else:
                used[cand] = True
                yield from place(i + 1)
                used[cand] = False

    yield from place(0)


def contains_sub(h: Hypergraph3, f: Hypergraph3) -> bool:
    """Non-induced containment: some injection V(f) -> V(h) maps edges to edges."""
    return next(_injections(f, h), None) is not None


def contains_induced(h: Hypergraph3, f: Hypergraph3) -> bool:
    """Induced containment, by the subset scan: f over SMALL_VERTEX_LIMIT
    vertices raises its ValueError."""
    return next(_subset_scan(h, f, True), None) is not None


def _subset_code(has_edge: Callable[[Triple], bool], sub: Sequence[int]) -> int:
    """The code of sub, bit r set when has_edge holds for the r-th triple of
    sub in combinations order, written as binary digits, last triple first."""
    return int(bytes(map(has_edge, combinations(sub, 3)))[::-1].translate(_DIGITS) or b"0", 2)


@cache
def _code_injections(f: Hypergraph3, every: bool, code: int) -> list[Perm]:
    """The injections of f into the f.n-vertex graph whose edges are the
    set bits of code (_subset_code), read from its binary digits: all of
    them, in the search's order, when every, else at most the first."""
    g = Hypergraph3(f.n, tuple(compress(combinations(range(f.n), 3), map(int, bin(code)[:1:-1]))))
    search = _injections(f, g)
    return list(search if every else islice(search, 1))


def _subset_scan(h: Hypergraph3, f: Hypergraph3, exact: bool) -> Iterator[tuple[int, ...]]:
    """Each f.n-subset S of V(h), in combinations order, that spans a copy
    of f (an induced copy when exact).

    A subset whose edge count passes (== when exact, >= otherwise) is coded
    (_subset_code) and decided once per f and process (_code_injections;
    with equal counts a copy is induced).  A host with fewer edges than f
    yields nothing unvisited; f over SMALL_VERTEX_LIMIT raises ValueError.
    """
    k = f.n
    if k > SMALL_VERTEX_LIMIT:
        raise ValueError(f"pattern on {k} vertices exceeds the limit {SMALL_VERTEX_LIMIT}")
    want = len(f.edges)
    if len(h.edges) < want:
        return  # a copy needs at least want edges, an induced copy exactly want
    has_edge = h.edge_set.__contains__
    for sub in combinations(range(h.n), k):
        count = sum(map(has_edge, combinations(sub, 3)))
        if count == want if exact else count >= want:
            if _code_injections(f, False, _subset_code(has_edge, sub)):
                yield sub


@cache
def subset_codes(h: Hypergraph3, k: int) -> list[int]:
    """The code of each k-subset of V(h) (_subset_code), in combinations
    order.  Root sets and pair-density tables of every type share it."""
    has_edge = h.edge_set.__contains__
    return [_subset_code(has_edge, u) for u in combinations(range(h.n), k)]


def root_sets(
    target: Hypergraph3, sigma: Hypergraph3
) -> Iterator[tuple[tuple[int, ...], list[Perm]]]:
    """Each sigma.n-subset S of target's vertices that induces a copy of
    sigma, in combinations order, with every ordering p for which
    (S[p[0]], ..., S[p[s-1]]) induces sigma exactly: the injections of
    sigma into a code of S (subset_codes) with as many edges, once per code."""
    want = len(sigma.edges)
    if len(target.edges) < want:
        return
    subsets = combinations(range(target.n), sigma.n)
    for sub, code in zip(subsets, subset_codes(target, sigma.n)):
        if code.bit_count() == want:
            found = _code_injections(sigma, True, code)
            if found:
                yield sub, found


def type_embeddings(target: Hypergraph3, sigma: Hypergraph3) -> list[tuple[int, ...]]:
    """All ordered injections of the labeled type into target, exact on edges.

    theta qualifies iff for every triple of root positions, the image triple
    is a target edge exactly when the positions form a sigma edge.  Each
    root set's qualifying orderings come from root_sets, and the result is
    sorted, so it comes in the lexicographic order of itertools.permutations.
    """
    return sorted(
        tuple([sub[i] for i in p]) for sub, orderings in root_sets(target, sigma)
        for p in orderings
    )


def induced_subgraph(h: Hypergraph3, vertices: Sequence[int]) -> Hypergraph3:
    """Induced graph on the given vertices, relabeled 0..k-1 in listed order."""
    idx = {v: i for i, v in enumerate(vertices)}
    if len(idx) != len(vertices):
        raise ValueError("vertex list has repeats")
    vset = set(vertices)
    edges = [
        _sorted_triple(idx[a], idx[b], idx[c])
        for a, b, c in h.edges
        if a in vset and b in vset and c in vset
    ]
    return Hypergraph3(len(vertices), tuple(sorted(edges)))


def is_family_free(
    h: Hypergraph3,
    family: Sequence[Hypergraph3],
    induced_flags: Sequence[bool] | None = None,
) -> bool:
    """True iff h contains no family member, each under its own notion.

    induced_flags[i] selects induced containment for family[i]; default is
    non-induced for every member.  An induced member over
    SMALL_VERTEX_LIMIT vertices raises contains_induced's ValueError.
    """
    if induced_flags is None:
        induced_flags = [False] * len(family)
    if len(induced_flags) != len(family):
        raise ValueError("induced_flags length must match family length")
    return not any(
        (contains_induced if ind else contains_sub)(h, f) for f, ind in zip(family, induced_flags)
    )


def link_patterns(
    parent: Hypergraph3,
    family: Sequence[Hypergraph3],
    induced_flags: Sequence[bool],
) -> list[tuple[int, int]]:
    """The (care, want) pair-bitmasks of the links that complete a member.

    Bit i of a mask is the i-th pair of combinations(range(parent.n), 2).
    For each member f, vertex w of f and injection of f - w into parent
    (for an induced member, an induced copy: type_embeddings), want is the
    image of w's link and care is want, or for an induced member every pair
    inside the image.  When parent is family-free, the graph parent plus a
    new vertex with link mask contains a member exactly when mask & care ==
    want for some pattern: any copy uses the new vertex, as the image of
    some w.  One w per orbit of Aut(f) is enough: an automorphism carrying w
    to w' carries the injections of f - w onto those of f - w', with the
    same masks.
    """
    k = parent.n
    index = {p: i for i, p in enumerate(combinations(range(k), 2))}
    patterns: set[tuple[int, int]] = set()
    for f, ind in zip(family, induced_flags):
        generators = f.canonical.generators
        covered: set[int] = set()
        for w in range(f.n):
            if w in covered:
                continue
            covered |= _orbit_closure([w], generators)
            rest = [v for v in range(f.n) if v != w]
            f_rest = induced_subgraph(f, rest)
            link = [
                (i, j)
                for (i, a), (j, b) in combinations(enumerate(rest), 2)
                if _sorted_triple(w, a, b) in f.edge_set
            ]
            for img in type_embeddings(parent, f_rest) if ind else _injections(f_rest, parent):
                want = 0
                for a, b in link:
                    x, y = img[a], img[b]
                    want |= 1 << index[(x, y) if x < y else (y, x)]
                care = want
                if ind:
                    for x, y in combinations(sorted(img), 2):
                        care |= 1 << index[(x, y)]
                patterns.add((care, want))
    return sorted(patterns)


def exhaustive_containment_scan(
    h: Hypergraph3, f: Hypergraph3, induced: bool = False
) -> tuple[bool, tuple[int, ...] | None]:
    """(found, witness): the first |V(f)|-subset of V(h), in combinations
    order, that spans a copy of f (an induced copy when induced).

    construct --check-free audits freeness claims with it.  It runs the
    subset scan: every subset costs an edge-count test, but each induced
    graph is searched once, so on a large host it can beat contains_sub (on
    the optimal brec graph at n=40, C4_3 and F5_BAR take about an eighth of
    contains_sub's time).
    """
    found = next(_subset_scan(h, f, induced), None)
    return found is not None, found


# ---------------------------------------------------------------------------
# Derived graphs


def complement(h: Hypergraph3) -> Hypergraph3:
    edge_set = h.edge_set
    edges = tuple(t for t in combinations(range(h.n), 3) if t not in edge_set)
    return Hypergraph3(h.n, edges)


def blow_up(h: Hypergraph3, sizes: Sequence[int]) -> Hypergraph3:
    """Replace vertex v by a class of sizes[v] vertices.

    A triple is an edge iff its vertices lie in three distinct classes whose
    originals form an edge of h.
    """
    if len(sizes) != h.n:
        raise ValueError(f"need {h.n} class sizes, got {len(sizes)}")
    if any(s <= 0 for s in sizes):
        raise ValueError("class sizes must be positive")
    offsets = []
    pos = 0
    for s in sizes:
        offsets.append(pos)
        pos += s
    classes = [range(offsets[v], offsets[v] + sizes[v]) for v in range(h.n)]
    edges = []
    for a, b, c in h.edges:
        for x in classes[a]:
            for y in classes[b]:
                for z in classes[c]:
                    edges.append(_sorted_triple(x, y, z))
    return Hypergraph3(pos, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Named graphs

_C5_EDGES = [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)]

_NAMED_BUILDERS = {
    # All 1-based definitions from the literature are translated to 0-based here.
    "C4_3": lambda: from_edges(4, list(combinations(range(4), 3))),
    "K4_3": lambda: from_edges(4, list(combinations(range(4), 3))),
    "F5": lambda: from_edges(5, [(0, 1, 2), (0, 3, 4), (1, 3, 4)]),
    "F5_BAR": lambda: complement(from_edges(5, [(0, 1, 2), (0, 3, 4), (1, 3, 4)])),
    "F32": lambda: from_edges(5, [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)]),
    "F32_BAR": lambda: complement(
        from_edges(5, [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)])
    ),
    "C5_3": lambda: from_edges(5, _C5_EDGES),
    "C5_3_MINUS": lambda: from_edges(5, _C5_EDGES[:-1]),
}

NAMED_GRAPHS = tuple(sorted(_NAMED_BUILDERS))


def named_graph(name: str) -> Hypergraph3:
    """Resolve a built-in graph name (C4_3, F5, F5_BAR, F32, F32_BAR, ...)."""
    try:
        builder = _NAMED_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown graph name {name!r}; known names: {', '.join(NAMED_GRAPHS)}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# Text format: first line "n <count>", one edge per line, '#' comments.

# The reader refuses a larger vertex count: every command that reads a
# graph holds per-vertex lists, and a one-line file must not exhaust memory.
READ_VERTEX_LIMIT = 10**6
# read_text refuses a larger file; the m=7 programs (about 43 MB) fit.
READ_BYTE_LIMIT = 2**27


def graph_to_text(h: Hypergraph3) -> str:
    lines = [f"n {h.n}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in h.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Hypergraph3:
    lines = content_lines(text)
    raw, line = next(lines, (None, ""))
    if raw is None:
        raise ValueError("missing 'n <count>' header line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ValueError(f"expected header 'n <count>', got {raw!r}")
    n = int(parts[1])
    if n > READ_VERTEX_LIMIT:
        raise ValueError(f"vertex count {n} exceeds the limit {READ_VERTEX_LIMIT}")
    triples: list[tuple[int, int, int]] = []
    for raw, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"expected 3 vertex ids per edge line, got {raw!r}")
        a, b, c = parts
        triples.append((int(a), int(b), int(c)))
    return from_edges(n, triples)


def content_lines(text: str) -> Iterator[tuple[str, str]]:
    """Every input file's lines: (raw, line) for each str.splitlines line
    raw whose text before the first '#', stripped, is a non-empty line."""
    for raw in text.splitlines():
        # a line without '#' is not split: about 3% of a large load_graph
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            yield raw, line


def read_text(path: str) -> str:
    """The text of a regular file of at most READ_BYTE_LIMIT bytes; any other
    path (a device such as /dev/zero, a FIFO, a directory, a larger file)
    raises ValueError unopened."""
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise ValueError(f"{path} is not a regular file")
    if info.st_size > READ_BYTE_LIMIT:
        raise ValueError(f"{path} has {info.st_size} bytes, over the limit {READ_BYTE_LIMIT}")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_graph(path: str) -> Hypergraph3:
    return parse_graph_text(read_text(path))


def save_graph(h: Hypergraph3, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(h))
