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
sparse form, PairMatrix: a tuple of rows, row i listing a (j, value) pair for
each nonzero entry with j ascending.  Both triangles are stored, and rows
after the last nonempty one are left out, so a zero matrix is ().
pair_matrix builds one from upper-triangle entries; upper_entries reads them
back in row-major order, the order of every text format.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, perm

from . import families as families_mod
from .enumeration import (
    Flag,
    FlagType,
    enumerate_flags,
    enumerate_free,
    rooted_canonical_key,
    type_embeddings,
)
from .families import Family
from .graphs import (
    Hypergraph3,
    _spanning_subsets,
    decode_key,
    from_edges,
    induced_subgraph,
)

CACHE_ENV_VAR = "TURAN3_CACHE_DIR"

SINGLE_EDGE = from_edges(3, [(0, 1, 2)])


def fraction_text(q: Fraction) -> str:
    """'p' for an integer, else 'p/q': the form every output file uses."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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
    hits = sum(1 for _ in _spanning_subsets(h, f, True))
    return Fraction(hits, comb(h.n, f.n))


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


def edge_density(h: Hypergraph3) -> Fraction:
    """|H| / C(n, 3).  Requires n >= 3."""
    if h.n < 3:
        raise ValueError("edge density needs at least 3 vertices")
    return Fraction(len(h.edges), comb(h.n, 3))


# ---------------------------------------------------------------------------
# Pair density tables


PairMatrix = tuple[tuple[tuple[int, Fraction], ...], ...]


def pair_matrix(upper: dict[tuple[int, int], Fraction]) -> PairMatrix:
    """The symmetric matrix with entries {(i, j): value}, i <= j; zeros dropped."""
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, j), q in upper.items():
        if q:
            rows.setdefault(i, []).append((j, q))
            if i != j:
                rows.setdefault(j, []).append((i, q))
    size = max(rows) + 1 if rows else 0
    return tuple(tuple(sorted(rows.get(i, ()))) for i in range(size))


def upper_entries(mat: PairMatrix):
    """(i, j, value) for each nonzero entry with j >= i, in row-major order."""
    for i, row in enumerate(mat):
        for j, q in row:
            if j >= i:
                yield i, j, q


@dataclass(frozen=True)
class PairDensityTable:
    ftype: FlagType
    m_prime: int
    m: int
    family_key: str
    flags: tuple[Flag, ...]
    targets: tuple[Hypergraph3, ...]
    matrices: tuple[PairMatrix, ...]


_memory_cache: dict[tuple, PairDensityTable] = {}


def _family_signature(family: Family) -> tuple:
    return tuple((m.graph.canon_key, m.induced) for m in family)


def pair_density_table(
    ftype: FlagType, m_prime: int, m: int, family: Family = (), cached: bool = True
) -> PairDensityTable:
    """Symmetric rational pair-density matrices, one per admissible target.

    cached=False builds the table afresh and neither reads nor writes the
    in-process or disk caches; the certificate verifier uses it so that no
    mutable file can change a verification result.
    """
    s = ftype.size
    if 2 * m_prime - s > m:
        raise ValueError(
            f"two flags of size {m_prime} over a type of size {s} need "
            f"{2 * m_prime - s} vertices, more than m={m}"
        )
    if m_prime < s:
        raise ValueError("flag size below type size")
    if not cached:
        return _build_table(ftype, m_prime, m, family)
    cache_key = (ftype.key, m_prime, m, _family_signature(family))
    hit = _memory_cache.get(cache_key)
    if hit is not None:
        return hit
    table = _load_disk_cache(cache_key, family)
    if table is None:
        table = _build_table(ftype, m_prime, m, family)
        _store_disk_cache(cache_key, table)
    _memory_cache[cache_key] = table
    return table


def _build_table(
    ftype: FlagType, m_prime: int, m: int, family: Family
) -> PairDensityTable:
    members = [fm.graph for fm in family]
    flags_ind = [fm.induced for fm in family]
    flag_list = enumerate_flags(ftype, m_prime, members, flags_ind)
    targets = enumerate_free(m, members, flags_ind)
    flag_index = {f.key: i for i, f in enumerate(flag_list)}
    s = ftype.size
    t = m_prime - s
    sigma = ftype.sigma
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
    flag_triples = list(combinations(range(m_prime), 3))
    # Flag index by the labeled edge set (a bitmask over flag_triples) of the
    # induced graph on theta + sorted(A), roots first: equal labeled graphs
    # have equal rooted keys, so the canonical search runs once per mask.
    # The mask is cheaper than building induced_subgraph for every subset,
    # which is done only on a miss.
    slot_by_mask: dict[int, int] = {}
    matrices = []
    for target in targets:
        # every ordering of every edge, so unsorted triples can be looked up
        edges = {e for edge in target.edges for e in permutations(edge)}
        counts: dict[tuple[int, int], int] = {}
        for theta in type_embeddings(target, sigma):
            others = [v for v in range(m) if v not in theta]
            slots = []
            for sub in subsets:
                vertices = list(theta) + [others[x] for x in sub]
                mask = 0
                for bit, (a, b, c) in enumerate(flag_triples):
                    if (vertices[a], vertices[b], vertices[c]) in edges:
                        mask |= 1 << bit
                slot = slot_by_mask.get(mask)
                if slot is None:
                    sub_graph = induced_subgraph(target, vertices)
                    slot = flag_index[rooted_canonical_key(sub_graph, range(s))]
                    slot_by_mask[mask] = slot
                slots.append(slot)
            for x, y in disjoint:
                pair = (slots[x], slots[y])
                counts[pair] = counts.get(pair, 0) + 1
        # counts is symmetric, since (A1, A2) and (A2, A1) are both counted
        upper = {(i, j): Fraction(c, denominator) for (i, j), c in counts.items() if i <= j}
        matrices.append(pair_matrix(upper))
    return PairDensityTable(
        ftype=ftype,
        m_prime=m_prime,
        m=m,
        family_key=families_mod.family_key(family),
        flags=tuple(flag_list),
        targets=tuple(targets),
        matrices=tuple(matrices),
    )


# ---------------------------------------------------------------------------
# Text serialization and optional disk cache


_HEADER_FIELDS = (
    "type", "m_prime", "m", "family", "nflags", "ntargets", "nentries", "sha256"
)


def _entries_digest(entry_lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in entry_lines).encode()).hexdigest()


def table_to_text(table: PairDensityTable) -> str:
    entries = [
        f"{fi} {i} {j} {q.numerator}/{q.denominator}"
        for fi, mat in enumerate(table.matrices)
        for i, j, q in upper_entries(mat)
    ]
    lines = [
        f"type {table.ftype.sigma.canon_key.hex()}",
        f"m_prime {table.m_prime}",
        f"m {table.m}",
        f"family {table.family_key if table.family_key else 'none'}",
        f"nflags {len(table.flags)}",
        f"ntargets {len(table.targets)}",
        f"nentries {len(entries)}",
        f"sha256 {_entries_digest(entries)}",
    ]
    return "\n".join(lines + entries) + "\n"


def table_from_text(text: str, family: Family | None = None) -> PairDensityTable:
    """Rebuild a table from its text form.

    Flags and targets are re-derived from (type, sizes, family), so the type
    graph named in the header must be reachable from the family universe;
    entries are then checked against the declared counts, the entry count
    and the SHA-256 of the entry lines.  Any mismatch raises ValueError.
    """
    header: dict[str, str] = {}
    entry_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in _HEADER_FIELDS:
            header[parts[0]] = " ".join(parts[1:])
        else:
            entry_lines.append(line)
    for name in _HEADER_FIELDS:
        if name not in header:
            raise ValueError(f"table has no {name!r} line")
    if len(entry_lines) != int(header["nentries"]):
        raise ValueError(f"table has {len(entry_lines)} entries, not {header['nentries']}")
    if _entries_digest(entry_lines) != header["sha256"]:
        raise ValueError("table entries do not match their SHA-256")
    if family is None:
        family = families_mod.parse_family(header["family"])
    m_prime = int(header["m_prime"])
    m = int(header["m"])
    members = [fm.graph for fm in family]
    flags_ind = [fm.induced for fm in family]
    sigma = decode_key(bytes.fromhex(header["type"]))
    ftype = FlagType(sigma)
    flag_list = enumerate_flags(ftype, m_prime, members, flags_ind)
    targets = enumerate_free(m, members, flags_ind)
    if len(flag_list) != int(header["nflags"]) or len(targets) != int(header["ntargets"]):
        raise ValueError("table header counts do not match the derived basis")
    uppers: list[dict[tuple[int, int], Fraction]] = [{} for _ in targets]
    for line in entry_lines:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"expected 4 fields per entry line, got {line!r}")
        fi, i, j = int(parts[0]), int(parts[1]), int(parts[2])
        if not (0 <= fi < len(targets) and 0 <= i <= j < len(flag_list)):
            raise ValueError(f"entry index out of range: {line!r}")
        uppers[fi][i, j] = parse_fraction(parts[3])
    return PairDensityTable(
        ftype=ftype,
        m_prime=m_prime,
        m=m,
        family_key=families_mod.family_key(family),
        flags=tuple(flag_list),
        targets=tuple(targets),
        matrices=tuple(pair_matrix(upper) for upper in uppers),
    )


def _cache_path(cache_key: tuple) -> str | None:
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    digest = hashlib.sha256(repr(cache_key).encode()).hexdigest()[:24]
    return os.path.join(root, f"pairdensity-{digest}.txt")


def _load_disk_cache(cache_key: tuple, family: Family) -> PairDensityTable | None:
    """The cached table, or None when there is none or it fails its checks."""
    path = _cache_path(cache_key)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return table_from_text(fh.read(), family)
    except ValueError:
        return None


def _store_disk_cache(cache_key: tuple, table: PairDensityTable) -> None:
    """Write the table through a temporary file, so no reader sees half of it."""
    path = _cache_path(cache_key)
    if path is None:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(table_to_text(table))
    os.replace(tmp, path)
