"""Isomorph-free generation of family-free 3-graphs and typed flags.

Generation is by canonical augmentation (McKay, J. Algorithms 26, 1998):
graphs grow one vertex at a time, attachments (the new vertex's link, a set
of vertex pairs) are taken one per orbit of the parent's automorphism group,
and a child survives only when its newly added vertex lies in the same
automorphism orbit as the canonical deletion vertex, the one at canonical
slot n-1.  Together these two filters produce every isomorphism class
exactly once, so no global seen-set is needed.  Family-freeness, induced
members included, is hereditary under vertex deletion, so it prunes
children at every level, a child of a family-free parent by its attachment
alone.  Each level is built once per set of members that fit it (those on
at most m vertices) and memoised: level m extends the memoised level m - 1,
so a list at m = 6 after one at m = 5 labels only 6-vertex graphs.

Each attachment meets the cheapest checks first.  The first three read
only the mask, before the child is built.  Checks 1 and 2 are invariant
under Aut(parent), so the orbit representatives kept are the same as
without them:

1. the new vertex has the child's largest degree: its degree is the
   mask's popcount, and old vertex v's is deg(v) plus the mask's pairs at
   v (refinement orders colour cells by degree first, so a vertex below
   the largest degree is outside the top cell); two packed tables, one
   per half of the mask, hold every vertex's count at once;
2. the mask matches none of the parent's link patterns
   (graphs.link_patterns), so the child is family-free; each pattern is
   split into halves, a high half collects the low halves that the
   patterns it matches match, and a high half whose patterns match every
   low half is skipped whole;
3. the mask is the least in its Aut(parent)-orbit; an automorphism's
   image of it is the OR of two half-table entries built once per parent;
4. the new vertex lies in the top cell of the child's refined colouring;
   refinement stops as soon as it leaves that cell;
5. the child is labelled and the orbit test decides.

Checks 1 and 4 are implied by the orbit test, so the output is the same
as without them.

A child is handed what its parent and its own tests already computed, by
assignment: _extend gives it its degrees, the parent's plus the mask's
pairs at each old vertex and the mask's popcount for the new one, and
_in_top_cell the refined colouring check 4 computed.  Check 5 labels it
with graphs.canonical_data directly, which reads that colouring, so no
child computes its degrees, colouring or labelling on a first read of a
cached property.  An accepted child is labelled once: its canonical form
comes with its own labelling primed (see graphs.CanonicalData), so
sorting a level and extending it as a parent search nothing again.

Typed flags need no wrapper types.  A type is a labelled graph sigma whose
vertices are all roots, in label order.  A flag over sigma is a rooted
isomorphism class, and it is its rooted key (graphs.rooted_canonical_key):
the root count, then the key of the flag graph with root i at label i.
Pair-density tables index their rows by these keys directly.  Flags are
keyed one rooted search per Aut(g)-orbit of embeddings, and the same pass
gives Aut(sigma)'s action on them (flag_action), which the tables use to
count one ordering per root set.  Automorphism groups and embedding
orbits come from graphs.orbit, the orbit test's vertex orbit from
graphs._orbit_closure.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import (
    CanonicalData,
    Hypergraph3,
    _refine_colors,
    canonical_data,
    is_family_free,
    link_patterns,
    orbit,
    rooted_canonical_key,
    type_embeddings,
)

SOFT_VERTEX_LIMIT = 7


@cache
def _outrank_codes(k: int) -> tuple[int, list[int], list[int], int, int]:
    """(split, low, high, width, top) for the degree test of _attachment_orbit_reps.

    A mask's code packs, in a field of width bits per vertex v < k, the
    value |mask & star(v)| - |mask| + half - 1, where star(v) is the pairs
    at v and half = 1 << (width - 1) exceeds the pair count.  Adding deg(v)
    < half to v's field sets its top bit (one of the bits of top) exactly
    when deg(v) + |mask & star(v)| > |mask|, and no field overflows.  The
    code is linear in the mask's pairs, so it is the sum of low[mask's low
    split bits] and high[mask's other bits]; two tables of about
    2 ** (pairs / 2) entries stand for one of 2 ** pairs.
    """
    pairs = list(combinations(range(k), 2))
    split = len(pairs) // 2
    width = len(pairs).bit_length() + 1
    half = 1 << (width - 1)
    stars = [sum(1 << i for i, p in enumerate(pairs) if v in p) for v in range(k)]

    def pack(mask: int, offset: int) -> int:
        size = mask.bit_count()
        return sum(
            ((mask & star).bit_count() - size + offset) << (width * v)
            for v, star in enumerate(stars)
        )

    low = [pack(lo, 0) for lo in range(1 << split)]
    high = [pack(hi << split, half - 1) for hi in range(1 << (len(pairs) - split))]
    top = sum(half << (width * v) for v in range(k))
    return split, low, high, width, top


@cache
def _low_matches(split: int, care: int, want: int) -> int:
    """Bit lo set for each low half lo < 2 ** split with lo & care == want."""
    return sum(1 << lo for lo in range(1 << split) if lo & care == want)


def _subset_images(images: Sequence[int]) -> list[int]:
    """table[s] = the OR of images[i] over the set bits i of s."""
    table = [0]
    for image in images:
        table += [t | image for t in table]
    return table


def _attachment_orbit_reps(
    k: int,
    auts: Sequence[tuple[int, ...]],
    degrees: Sequence[int] = (),
    patterns: Sequence[tuple[int, int]] = (),
) -> Iterable[int]:
    """Bitmask representatives of link-sets (pair subsets) up to Aut(parent).

    A mask is kept iff it is the numerically smallest in its orbit.  Given
    the parent's degrees, a mask is dropped before the orbit test when an
    old vertex v would outrank the new vertex, deg(v) + |mask & star(v)| >
    |mask| (star(v) being the pairs at v); a mask matching a (care, want)
    pattern (mask & care == want) is dropped too.  Both filters must be
    Aut(parent)-invariant, so the kept masks are exactly the unfiltered
    representatives that pass them.

    Masks are visited as a high half hi (the bits from split up) and a low
    half lo, both in increasing order, so in increasing order of mask.  An
    automorphism maps pairs to pairs, so its image of a mask is the OR of
    the images of the two halves, read from two tables built once per call.
    A pattern matches exactly when both halves match, so each high half
    ORs the low halves matched by the patterns its bits match, one bit per
    low half (_low_matches), and is dropped whole when they are all matched.
    """
    pairs = list(combinations(range(k), 2))
    index = {p: i for i, p in enumerate(pairs)}
    split, low_codes, high_codes, width, top = _outrank_codes(k)
    shift = sum(d << (width * v) for v, d in enumerate(degrees))
    low_bits = (1 << split) - 1
    identity = [1 << i for i in range(len(pairs))]
    # per nontrivial automorphism, the images of every low and every high half
    halves: list[tuple[list[int], list[int]]] = []
    for a in auts:
        img = []
        for u, v in pairs:
            x, y = a[u], a[v]
            img.append(1 << index[(x, y) if x < y else (y, x)])
        if img != identity:
            halves.append((_subset_images(img[:split]), _subset_images(img[split:])))
    split_patterns = [
        (care >> split, want >> split, _low_matches(split, care & low_bits, want & low_bits))
        for care, want in patterns
    ]
    every_low = (1 << len(low_codes)) - 1
    for hi, high_code in enumerate(high_codes):
        matched = 0  # bit lo: some pattern matches hi and lo
        for care_hi, want_hi, lows in split_patterns:
            if hi & care_hi == want_hi:
                matched |= lows
        if matched == every_low:
            continue
        outer = high_code + shift
        high_half = hi << split
        images = [(low_table, high_table[hi]) for low_table, high_table in halves]
        for lo, low_code in enumerate(low_codes):
            if (low_code + outer) & top or matched >> lo & 1:
                continue
            mask = high_half | lo
            for low_table, high_image in images:
                if low_table[lo] | high_image < mask:
                    break
            else:
                yield mask


def _extend(parent: Hypergraph3, mask: int, pairs: Sequence[tuple[int, int]]) -> Hypergraph3:
    """The child: parent plus a new vertex whose link is the pairs of mask,
    with its degrees assigned, the parent's plus the mask's pairs at each
    old vertex and the mask's popcount for the new one."""
    new = parent.n
    edges = list(parent.edges)
    degrees = list(parent.degrees)
    rest = mask
    while rest:
        low = rest & -rest
        u, v = pairs[low.bit_length() - 1]
        edges.append((u, v, new))
        degrees[u] += 1
        degrees[v] += 1
        rest ^= low
    degrees.append(mask.bit_count())
    edges.sort()
    child = Hypergraph3(new + 1, tuple(edges))
    child.degrees = tuple(degrees)
    return child


def _in_top_cell(child: Hypergraph3) -> bool:
    """The new vertex lies in the top cell of the child's refined colouring,
    which is then assigned as the child's refined_colors.

    Canonical slot n-1 lies in the top cell, and automorphisms keep each
    cell, so a new vertex outside it fails _new_vertex_is_canonical.
    Refinement stops as soon as the new vertex leaves the top cell.
    """
    colors = _refine_colors(child.n, child.edges, child.degrees, child.n - 1)
    if colors is None:
        return False
    child.refined_colors = tuple(colors)
    return True


def _new_vertex_is_canonical(child: Hypergraph3, data: CanonicalData) -> bool:
    """Accept iff the last-added vertex sits in the canonical deletion orbit.

    The deletion vertex is the one mapped to the highest canonical label; the
    choice is isomorphism-invariant up to automorphism, which is exactly the
    orbit test below.
    """
    last = child.n - 1
    target = data.to_canonical.index(last)  # vertex occupying canonical slot n-1
    return last in data.orbit(target)


def enumerate_free(
    m: int,
    family: Sequence[Hypergraph3] = (),
    induced_flags: Sequence[bool] | None = None,
    allow_large: bool = False,
) -> list[Hypergraph3]:
    """All family-free 3-graphs on m vertices, one canonical form per class.

    Output is sorted by canonical key and is exhaustive: every family-free
    m-vertex graph is isomorphic to exactly one member.  Results are
    memoised per process by _generate_free, a functools.cache function
    keyed on m and the frozenset of (canonical graph, induced flag) of the
    members on at most m vertices (larger members cannot occur, so they are
    never labelled); two members are one key exactly when their canonical
    keys are equal.  Each call returns a new list, so callers may mutate it.
    m above SOFT_VERTEX_LIMIT raises unless allow_large is set.
    """
    _check_order(m, allow_large)
    return list(_generate_free(m, kept_members(m, family, induced_flags)))


def _check_order(m: int, allow_large: bool = False) -> None:
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > SOFT_VERTEX_LIMIT and not allow_large:
        raise ValueError(f"m={m} exceeds the soft limit {SOFT_VERTEX_LIMIT}")


def kept_members(
    m: int, family: Sequence[Hypergraph3], induced_flags: Sequence[bool] | None
) -> frozenset[tuple[Hypergraph3, bool]]:
    """(canonical graph, induced flag) of each member on at most m vertices."""
    if induced_flags is None:
        induced_flags = [False] * len(family)
    if len(induced_flags) != len(family):
        raise ValueError("induced_flags length must match family length")
    return frozenset(
        (f.canonical.graph, ind) for f, ind in zip(family, induced_flags) if f.n <= m
    )


@cache
def _generate_free(
    m: int, kept: frozenset[tuple[Hypergraph3, bool]]
) -> tuple[Hypergraph3, ...]:
    """Level m, sorted by canonical key: one augmentation step from the
    memoised level m - 1 of the members that fit it.  At m = 0 only 0-vertex
    members are kept, and such a member lies in every graph."""
    if m == 0:
        return () if kept else (Hypergraph3(0, ()),)
    pairs = list(combinations(range(m - 1), 2))
    level: list[Hypergraph3] = []
    for parent in _generate_free(m - 1, frozenset(x for x in kept if x[0].n < m)):
        masks = _attachment_orbit_reps(
            m - 1, parent.canonical.automorphisms, parent.degrees, link_patterns(parent, kept)
        )
        for mask in masks:
            child = _extend(parent, mask, pairs)
            if not _in_top_cell(child):
                continue
            data = canonical_data(child)
            if _new_vertex_is_canonical(child, data):
                level.append(data.graph)
    return tuple(sorted(level, key=lambda g: g.canon_key))


# ---------------------------------------------------------------------------
# Typed flags


def enumerate_flags(
    sigma: Hypergraph3,
    m_prime: int,
    family: Sequence[Hypergraph3] = (),
    induced_flags: Sequence[bool] | None = None,
) -> list[bytes]:
    """Rooted keys of all family-free flags on m_prime vertices over type sigma.

    A type is a labelled graph whose vertices are all roots, in label order;
    a flag is a rooted isomorphism class, named by its rooted_canonical_key
    with the roots in that order.  The keys are returned sorted.  Raises if
    sigma itself is not family-free (no flags can exist and the inputs are
    contradictory).

    A flag is an Aut(g)-orbit of the embeddings theta of sigma in a
    family-free g on m_prime vertices: a rooted isomorphism of g with itself
    is an automorphism of g.  So each orbit, closed under the generators of
    Aut(g), is keyed by one rooted search.  The same pass gives Aut(sigma)'s
    action on the flags (flag_action): each gamma in Aut(sigma) sends the
    flag of theta to the flag of theta o gamma, another embedding in g whose
    orbit is already keyed.  Results are memoised per process by
    _flag_data, a functools.cache function keyed on the labelled type,
    m_prime and the members on at most m_prime vertices, each as
    enumerate_free keys it.
    """
    return list(_flag_data(sigma, m_prime, kept_members(m_prime, family, induced_flags))[0])


def flag_action(
    sigma: Hypergraph3,
    m_prime: int,
    family: Sequence[Hypergraph3] = (),
    induced_flags: Sequence[bool] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Aut(sigma)'s action on enumerate_flags' list: for each generator gamma
    of sigma.canonical.generators, the permutation of flag indices that
    sends flag i, rooted at theta, to the flag rooted at theta o gamma (root
    k at theta[gamma[k]])."""
    return _flag_data(sigma, m_prime, kept_members(m_prime, family, induced_flags))[1]


@cache
def _flag_data(
    sigma: Hypergraph3, m_prime: int, kept: frozenset[tuple[Hypergraph3, bool]]
) -> tuple[tuple[bytes, ...], tuple[tuple[int, ...], ...]]:
    """_flag_classes over the family-free graphs on m_prime vertices; the
    members above m_prime, in neither sigma nor a flag, are not kept."""
    if sigma.n > m_prime:
        raise ValueError(f"type size {sigma.n} exceeds flag size {m_prime}")
    if not is_family_free(sigma, [f for f, _ in kept], [ind for _, ind in kept]):
        raise ValueError("type graph is not family-free; no flags exist")
    _check_order(m_prime)
    return _flag_classes(sigma, _generate_free(m_prime, kept))


def _flag_classes(
    sigma: Hypergraph3, graphs: Sequence[Hypergraph3]
) -> tuple[tuple[bytes, ...], tuple[tuple[int, ...], ...]]:
    """(sorted flag keys, flag_action's permutations) over the given graphs."""
    gammas = sigma.canonical.generators
    images: dict[bytes, list[bytes]] = {}  # flag key -> its key under each gamma
    for g in graphs:
        key_of: dict[tuple[int, ...], bytes] = {}  # embedding -> its flag's key
        keyed = []
        for theta in type_embeddings(g, sigma):
            if theta in key_of:
                continue
            key = rooted_canonical_key(g, theta)
            keyed.append((theta, key))
            key_of |= dict.fromkeys(orbit([theta], g.canonical.generators), key)
        for theta, key in keyed:
            images[key] = [key_of[tuple([theta[k] for k in gamma])] for gamma in gammas]
    keys = sorted(images)
    index = {key: i for i, key in enumerate(keys)}
    action = tuple(
        tuple(index[images[key][x]] for key in keys) for x in range(len(gammas))
    )
    return tuple(keys), action
