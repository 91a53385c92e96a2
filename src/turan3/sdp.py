"""Assembly, text export and rational rounding of the density-bound program.

The program bounds the asymptotic edge density of family-free graphs: with a
scalar bound u, one PSD matrix Q per type, and one nonnegative slack per
admissible m-vertex graph F, minimizing u subject to

    u - obj(F) - sum_t <Q_t, P_t(F)> - c_F = 0        for every F,

where obj(F) is the edge density of F and P_t(F) the pair-density matrix,
gives a valid upper bound: multiplying the F-th constraint by p(F, H) and
summing, the Q terms become an averaged square (nonnegative up to o(1)) and
the slacks are nonnegative, so edge density <= u + o(1) for every admissible
H.  With no PSD blocks the optimum is simply max_F obj(F).

A type block is given by its type sigma, a labelled graph whose vertices
are all roots.  Its rows are the flags over sigma of size m' = (m + s) / 2,
s = |sigma|, in the order of their rooted keys: two such flags over a shared
root set exactly fill an m-vertex target.  The program names the block by
sigma's canonical key, which is all a certificate records of it.  A
Certificate is a rational solution of the program, one CertificateBlock per
type block; certificate.verify checks it against the program assemble
builds.  A CertificateBlock is its upper triangle, row by row: the form a
solution file gives, round_solution rounds and the certificate text stores.

File format (one entry per line, exact rationals, '#' comments):

    m <int>
    family <key>
    nblocks <int>
    blockdims <d1> ... <dk>     negative = diagonal block, positive = PSD
    typekeys <hex> ...          canonical type keys, one per PSD block
    nconstraints <int>
    <constraint> <block> <i> <j> <value>

Block 1 is the scalar bound u, blocks 2..T+1 the PSD type blocks, the last
block is the diagonal of slacks.  Block number 0 is reserved for the
constant term of a constraint, always at (0, 0); constraint number 0 is the
objective row.  No header line and no (constraint, block, i, j) appears
twice.  Solution files are whitespace-separated floats in block order, PSD
blocks as upper triangles in row-major order.

A type block's entry is -c/D in lowest terms for a count c and the D of
its type (density.pair_denominator); the model keeps c and one D per
block, and the reader rejects any other value there and a type key that
does not decode or fit m.  An m=6 program has tens of thousands of entry
lines but a few dozen distinct values, so model_to_text formats -c/D once
per distinct (block, count), and model_from_text turns each distinct token
into a count once per block and parses any other value once per token.
Rounding walks a value's continued fraction on Python integers, one walk
shared by best_rational and rational_upper_bound, and returns exactly what
Fraction.limit_denominator returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

from . import families as families_mod
from .density import PairMatrix, edge_density, fraction_text, pair_density_table, pair_matrix
from .density import pair_denominator, parse_fraction
from .enumeration import enumerate_free
from .families import Family
from .graphs import Hypergraph3, content_lines, decode_key, read_text, subset_codes


class CertificateBlock(NamedTuple(
    "CertificateBlock", [("type_key", bytes), ("dim", int), ("upper", tuple[Fraction, ...])]
)):
    """A symmetric dim x dim block as its upper triangle, row by row;
    type_key is the canonical key of the type graph."""

    __slots__ = ()

    def __new__(cls, type_key: bytes, dim: int, upper: tuple[Fraction, ...]) -> CertificateBlock:
        if dim < 0:
            raise ValueError(f"type block dimension {dim} is negative")
        want = dim * (dim + 1) // 2
        if len(upper) != want:
            raise ValueError(f"type block expects {want} upper-triangle entries, got {len(upper)}")
        return super().__new__(cls, type_key, dim, upper)


class Certificate(NamedTuple):
    """A rational solution of the program; certificate.verify checks it."""

    bound: Fraction
    family_key: str
    m: int
    blocks: tuple[CertificateBlock, ...]
    slacks: tuple[Fraction, ...]


class SdpModel(NamedTuple):
    m: int
    family_key: str
    obj: tuple[Fraction, ...]  # per admissible graph, its edge density
    type_keys: tuple[bytes, ...]
    type_dims: tuple[int, ...]
    # per type block, its nonzero pair matrices by constraint index, counts
    # over the block's denominator
    pair_matrices: tuple[dict[int, PairMatrix], ...]
    denominators: tuple[int, ...]

    @property
    def n_constraints(self) -> int:
        return len(self.obj)

    def lp_value(self) -> Fraction:
        """Optimum when there are no PSD blocks: the largest objective entry."""
        if self.type_keys:
            raise ValueError("model has PSD blocks; its optimum needs a solver")
        return max(self.obj)

    def solution_length(self) -> int:
        return 1 + sum(d * (d + 1) // 2 for d in self.type_dims) + self.n_constraints


def types_of_sizes(m: int, sizes: Sequence[int], family: Family = ()) -> list[Hypergraph3]:
    """Each admissible type sigma of each size s in sizes, in canonical form.

    A size that is negative, above m, repeated or of the wrong parity for m
    raises ValueError naming it.
    """
    for i, s in enumerate(sizes):
        if s < 0:
            raise ValueError(f"type size {s} is negative")
        if s > m:
            raise ValueError(f"type size {s} exceeds m={m}")
        if s in sizes[:i]:
            raise ValueError(f"type size {s} is repeated")
        if (m + s) % 2:
            raise ValueError(f"type size {s} has the wrong parity for m={m}")
    members = [fm.graph for fm in family]
    flags_ind = [fm.induced for fm in family]
    return [sigma for s in sizes for sigma in enumerate_free(s, members, flags_ind)]


def default_types(m: int, family: Family = ()) -> list[Hypergraph3]:
    """Types of every size s matching m's parity with s <= m - 2."""
    return types_of_sizes(m, range(m % 2, max(m - 1, 0), 2), family)


def assemble(
    m: int,
    family: Family = (),
    types: Sequence[Hypergraph3] = (),
    use_default_types: bool = False,
) -> SdpModel:
    """Build the model for (m, family) with the given SOS types.

    types=() yields the LP relaxation (no PSD blocks); use_default_types=True
    uses default_types(m, family) instead.  A type with no flags over it is
    left out: its block would constrain nothing.  A type that does not fit
    m (pair_density_table) raises ValueError.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    members = [fm.graph for fm in family]
    flags_ind = [fm.induced for fm in family]
    targets = enumerate_free(m, members, flags_ind)
    if not targets:
        raise ValueError("the family excludes every m-vertex graph")
    if use_default_types:
        types = default_types(m, family)
    blocks = []  # (type key, table) for each type with flags
    for sigma in types:
        table = pair_density_table(sigma, m, family)
        assert [t.canon_key for t in table.targets] == [t.canon_key for t in targets]
        if table.flags:
            blocks.append((sigma.canon_key, table))
    # the tables are memoised, so a later assembly reads no subset codes
    subset_codes.cache_clear()
    return SdpModel(
        m=m,
        family_key=families_mod.family_key(family),
        obj=tuple(edge_density(f) for f in targets),
        type_keys=tuple(key for key, _ in blocks),
        type_dims=tuple(len(table.flags) for _, table in blocks),
        pair_matrices=tuple(
            {fi: mat for fi, mat in enumerate(table.matrices) if mat} for _, table in blocks
        ),
        denominators=tuple(table.denominator for _, table in blocks),
    )


# ---------------------------------------------------------------------------
# Text emission and parsing


def model_to_text(model: SdpModel) -> str:
    k = model.n_constraints
    dims = [-1] + list(model.type_dims) + [-k]
    lines = [
        f"m {model.m}",
        f"family {model.family_key if model.family_key else 'none'}",
        f"nblocks {len(dims)}",
        "blockdims " + " ".join(str(d) for d in dims),
    ]
    if model.type_keys:
        lines.append("typekeys " + " ".join(key.hex() for key in model.type_keys))
    lines.append(f"nconstraints {k}")
    lines.append("0 1 0 0 1")  # objective: minimize the scalar bound
    slack_block = len(dims)
    # per type block: its matrices, its denominator D, and the text of -c/D
    # for each count c met
    blocks = [(matrices, d, {}) for matrices, d in zip(model.pair_matrices, model.denominators)]
    for r in range(1, k + 1):
        fi = r - 1
        lines.append(f"{r} 0 0 0 {fraction_text(model.obj[fi])}")
        lines.append(f"{r} 1 0 0 1")
        for b, (matrices, denominator, texts) in enumerate(blocks, 2):
            for i, row in enumerate(matrices.get(fi, ())):
                for j, c in row:
                    text = texts.get(c)
                    if text is None:
                        text = texts[c] = fraction_text(Fraction(-c, denominator))
                    lines.append(f"{r} {b} {i} {j} {text}")
        lines.append(f"{r} {slack_block} {fi} {fi} -1")
    return "\n".join(lines) + "\n"


def emit(model: SdpModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))


def model_from_text(text: str) -> SdpModel:
    header: dict[str, list[str]] = {}
    entries: list[tuple[int, int, int, int, str]] = []
    for raw, line in content_lines(text):
        parts = line.split()
        if parts[0] in {"m", "family", "nblocks", "blockdims", "typekeys", "nconstraints"}:
            if parts[0] in header:
                raise ValueError(f"repeated {parts[0]} line: {raw!r}")
            header[parts[0]] = parts[1:]
            continue
        if len(parts) != 5:
            raise ValueError(f"expected 5 fields per entry line, got {raw!r}")
        entries.append((int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]), parts[4]))
    for name in ("m", "family", "nblocks", "blockdims", "nconstraints"):
        if not header.get(name):
            raise ValueError(f"model has no {name!r} line")
    m = int(header["m"][0])
    family_key = " ".join(header["family"]) if header["family"][0] != "none" else ""
    dims = [int(d) for d in header["blockdims"]]
    k = int(header["nconstraints"][0])
    # every constraint has its own constant-term line
    if not 1 <= k <= len(entries):
        raise ValueError(f"nconstraints {k} is not between 1 and the {len(entries)} entries")
    if len(dims) != int(header["nblocks"][0]):
        raise ValueError("blockdims length disagrees with nblocks")
    if dims[0] != -1 or dims[-1] != -k:
        raise ValueError("expected a scalar bound block and a slack diagonal")
    type_dims = tuple(dims[1:-1])
    if any(d <= 0 for d in type_dims):
        raise ValueError("interior blocks must be PSD (positive dimension)")
    type_keys = tuple(bytes.fromhex(h) for h in header.get("typekeys", []))
    if len(type_keys) != len(type_dims):
        raise ValueError("typekeys count disagrees with PSD block count")
    denominators = []
    for key in type_keys:
        try:
            denominators.append(pair_denominator(m, decode_key(key).n))
        except ValueError as exc:
            raise ValueError(f"type key {key.hex()}: {exc}") from None
    obj: list[Fraction | None] = [None] * k
    # per type block, the upper-triangle counts of each constraint's matrix,
    # keyed by i * dim + j, and the count of each value token met
    uppers: list[dict[int, dict[int, int]]] = [{} for _ in type_dims]
    counts: list[dict[str, int]] = [{} for _ in type_dims]
    value_of = cache(parse_fraction)  # any other token, parsed once per call
    slack_block = len(dims)
    # (constraint, block) of each objective, constant, bound and slack entry
    # read; for these the pair fixes (i, j)
    placed: set[tuple[int, int]] = set()
    for r, b, i, j, token in entries:
        fi = r - 1
        if r and not 0 <= fi < k:
            raise ValueError(f"constraint index {r} out of range")
        if r and 2 <= b < slack_block:
            t = b - 2
            if not 0 <= i <= j < type_dims[t]:
                raise ValueError(f"entry outside declared block: {(r, b, i, j)}")
            c = counts[t].get(token)
            if c is None:
                q = -parse_fraction(token) * denominators[t]
                if q.denominator != 1 or q < 0:
                    d = denominators[t]
                    raise ValueError(f"pair-density value {token!r} is not -c/{d} for a count c")
                c = counts[t][token] = q.numerator
            upper = uppers[t].setdefault(fi, {})
            code = i * type_dims[t] + j
            if code in upper:
                raise ValueError(f"repeated entry {(r, b, i, j)}")
            upper[code] = c
            continue
        value = value_of(token)
        if r == 0:
            if (b, i, j) != (1, 0, 0) or value != 1:
                raise ValueError("unexpected objective row entry")
        elif b == 0:
            if i or j:
                raise ValueError(f"constant term not at (0, 0): entry {(r, b, i, j)}")
            obj[fi] = value
        elif b == 1:
            if i or j or value != 1:
                raise ValueError("bound-block coefficient must be 1")
        elif b == slack_block:
            if i != fi or j != fi or value != -1:
                raise ValueError("slack coefficient must be -1 on own diagonal")
        else:
            raise ValueError(f"entry outside declared block: {(r, b, i, j)}")
        if (r, b) in placed:
            raise ValueError(f"repeated entry {(r, b, i, j)}")
        placed.add((r, b))
    if any(o is None for o in obj):
        raise ValueError("missing constant term for some constraint")
    # program text may hold an explicit 0, which a PairMatrix leaves out
    pair_matrices = tuple(
        {
            fi: pair_matrix(list(nonzero), list(nonzero.values()), dim)
            for fi, upper in block.items()
            if (nonzero := {code: c for code, c in upper.items() if c})
        }
        for block, dim in zip(uppers, type_dims)
    )
    return SdpModel(
        m=m,
        family_key=family_key,
        obj=tuple(obj),  # type: ignore[arg-type]
        type_keys=type_keys,
        type_dims=type_dims,
        pair_matrices=pair_matrices,
        denominators=tuple(denominators),
    )


def parse_sdp(path: str) -> SdpModel:
    return model_from_text(read_text(path))


# ---------------------------------------------------------------------------
# Rounding floats to rationals


def _integer_ratio(x) -> tuple[int, int]:
    """x as coprime integers (n, d), d > 0; a float is read without a Fraction."""
    if type(x) is not float:
        x = Fraction(x)
    return x.as_integer_ratio()


def _neighbours(n: int, d: int, max_denominator: int) -> tuple[int, int, int, int, bool]:
    """(r, s, p, q, convergent_closer) for n/d in lowest terms, d > max_denominator.

    p/q is the last continued-fraction convergent of n/d with q <=
    max_denominator, r/s the largest semiconvergent after it within the
    bound.  Both are in lowest terms and they straddle n/d; among
    denominators <= max_denominator each is the closest rational to n/d on
    its side.  convergent_closer says p/q is at least as close as r/s (a tie
    goes to the convergent).  This is the walk of Fraction.limit_denominator,
    on Python integers only.
    """
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    s = q0 + k * q1
    # with x the input and d the last remainder, |p1/q1 - x| = d / (q1 * den)
    # and |r/s - p1/q1| = 1 / (q1 * s)
    return p0 + k * p1, s, p1, q1, 2 * d * s <= den


def best_rational(x, max_denominator: int) -> Fraction:
    """Closest rational to x with denominator at most max_denominator.

    Exactly Fraction(x).limit_denominator(max_denominator), ties included:
    of two rationals equally close, the continued-fraction convergent wins.
    """
    n, d = _integer_ratio(x)
    if max_denominator < 1:
        raise ValueError(f"denominator bound must be at least 1, got {max_denominator}")
    if d <= max_denominator:
        return Fraction(n, d)
    r, s, p, q, convergent_closer = _neighbours(n, d, max_denominator)
    return Fraction(p, q) if convergent_closer else Fraction(r, s)


def rational_upper_bound(x, max_denominator: int) -> Fraction:
    """Smallest rational >= x with denominator at most max_denominator.

    The convergent and semiconvergent that best_rational chooses between
    straddle x, so the one above x is the answer.
    """
    if max_denominator < 1:
        raise ValueError(f"denominator bound must be at least 1, got {max_denominator}")
    n, d = _integer_ratio(x)
    if d <= max_denominator:
        return Fraction(n, d)
    r, s, p, q, _ = _neighbours(n, d, max_denominator)
    return Fraction(p, q) if p * d > n * q else Fraction(r, s)


def read_solution(path: str) -> list[float]:
    values = []
    for _, line in content_lines(read_text(path)):
        for tok in line.split():
            value = float(tok)
            if not math.isfinite(value):
                raise ValueError(f"solution value {tok!r} is not finite")
            values.append(value)
    return values


def round_solution(
    model: SdpModel, floats: Sequence[float], denominator_bound: int = 2**32
) -> Certificate:
    """Round a solver's float vector to a rational certificate candidate.

    Entries become best rationals with bounded denominator; the bound u is
    rounded upward (a downward-rounded bound could never re-verify); small
    negative slacks are clamped to zero.  Validity is not checked here; that
    is the verifier's job.
    """
    expected = model.solution_length()
    if len(floats) != expected:
        raise ValueError(f"expected {expected} solution values, got {len(floats)}")
    u = rational_upper_bound(floats[0], denominator_bound)
    pos = 1
    blocks = []
    for key, d in zip(model.type_keys, model.type_dims):
        size = d * (d + 1) // 2
        upper = tuple(best_rational(x, denominator_bound) for x in floats[pos : pos + size])
        blocks.append(CertificateBlock(key, d, upper))
        pos += size
    slacks = []
    for _ in range(model.n_constraints):
        q = best_rational(floats[pos], denominator_bound)
        slacks.append(max(Fraction(0), q))
        pos += 1
    return Certificate(
        bound=u,
        family_key=model.family_key,
        m=model.m,
        blocks=tuple(blocks),
        slacks=tuple(slacks),
    )
