"""Exact rational verification that a certificate proves a density bound.

A certificate consists of a rational bound u, one symmetric rational matrix
per type, stored as its upper triangle (so symmetric by construction, with
no symmetry check), and one nonnegative slack per admissible graph.
Verification is per-constraint: for every admissible m-vertex graph F it
checks

    u - obj(F) - sum_t <Q_t, P_t(F)> >= 0

exactly, after checking every Q_t is positive semidefinite.  Those
inequalities are authoritative; the supplied slacks are cross-checked (they
must be nonnegative, and one note counts those that differ from the
recomputed margins and gives the largest difference) so that rounding slop
in the slacks never invalidates a sound bound.  A certificate that verifies
proves the asymptotic statement: every family-free graph has edge density
at most u + o(1).

The verifier trusts only the certificate and the code.  The family comes
from the certificate's family key, whose members are built-in names or
canonical keys, never files; obj(F) and P_t(F) come from the program that
sdp.assemble builds for that family with the certificate's block types,
the same program emit-sdp writes.  The certificate types themselves are
defined in sdp, which rounds solutions into them.

Both exact loops run on integers, each row of a block Q scaled by its own
D_i, the lcm of that row's denominators: scale_rows reads row i of Q from
the upper triangle as the integers Q_ij * D_i, once per block in verify,
and the PSD check and the margins read those rows.  A whole block's lcm
grows with every entry, to tens of thousands of bits on a 64x64 block
rounded at denominators up to 2^32; a row's stays near the sum of its own
denominators, and integers on that scale beat Fractions on either kind of
certificate.

PSD is first tried with an exact certificate.  A float Cholesky factor of
Q - delta*I (delta = 2^-20 times the largest diagonal entry) is rounded to
integers over 2^40, a rational L, and R = Q - L L^T is formed exactly, row i
as the integers D_i * 2^80 * R_ij; the integer dot products of L L^T are
computed once for each pair of rows.  If every row of R has
R_ii >= sum_{j != i} |R_ij| (a positive row multiple keeps the answer), R is
PSD by Gershgorin's theorem and so is Q = L L^T + R.  The floats only
propose L; the proof is the exact check.  Any other outcome (an entry too
large for a float, a float pivot <= 0, a row that is not dominant) falls
back to rational LDL^T elimination with diagonal pivoting, which decides
the question: a symmetric matrix is PSD iff elimination never meets a
negative pivot and, whenever the largest remaining diagonal entry is zero,
the whole remaining block vanishes.  Only the elimination ever answers
"not PSD".

The certificate exists only for blocks well inside the PSD cone: the
smallest eigenvalue must exceed delta, about 2^-20 of the largest diagonal
entry.  A singular or nearly singular block, which is what a solver returns
for a tight bound, always takes the elimination, whose cost grows with the
bit length of the entries (minutes for a 64x64 block rounded at
denominators up to 2^32).

Margins.  The program stores the upper triangle of each P_t(F) as integer
counts c_ij over its block's one denominator D_t (density.pair_denominator).
Both matrices are symmetric, so a term <Q_t, P_t(F)> is
sum_i (sum_{j >= i} w_ij * Q_ij * D_i * c_ij) / D_i, over D_t, with
w_ij = 2 off the diagonal and 1 on it: one integer dot product per row,
each reduced before the rows are summed, so the sum's denominator holds
only the denominators of the entries P_t(F) touches.  The margin is the
same reduced Fraction as a sum of Fraction products would give, and the
constraints are checked in order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .density import PairMatrix, fraction_text, parse_fraction
from .enumeration import SOFT_VERTEX_LIMIT, enumerate_free
from .families import family_from_key
from .graphs import content_lines, decode_key, read_text
from .sdp import Certificate, CertificateBlock, assemble


class VerifyResult(NamedTuple):
    ok: bool
    reason: str = ""
    bound: Fraction | None = None
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _rejected(reason: str) -> VerifyResult:
    return VerifyResult(ok=False, reason=reason)


# delta = 2**-DELTA_SHIFT * max diagonal leaves room in R for the float and
# rounding errors of the factor, which sit far below delta for the block
# sizes here; the factor is rounded to integers over 2**SCALE_SHIFT.
DELTA_SHIFT = 20
SCALE_SHIFT = 40


# Q as the integers Q_ij * D_i, row by row, and the row scales D_i.
RowScaled = tuple[list[list[int]], list[int]]


def scale_rows(block: CertificateBlock) -> RowScaled:
    """Row i of the symmetric Q as integers Q_ij * D_i, D_i the lcm of the
    row's denominators, read from the block's upper triangle."""
    n, upper = block.dim, block.upper
    # upper[starts[i] + j - i] is Q_ij for i <= j
    starts = [i * n - i * (i - 1) // 2 for i in range(n)]
    rows = []
    scales = []
    for i, start in enumerate(starts):
        row = [upper[starts[j] + i - j] for j in range(i)]
        row += upper[start : start + n - i]
        d = lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return rows, scales


def psd_check(q: RowScaled) -> bool:
    """Exact positive-semidefiniteness of a block, row-scaled by scale_rows.

    True from the Cholesky certificate is a proof; every other outcome is
    decided by exact elimination.  The certificate is fast but succeeds only
    when the smallest eigenvalue is above about 2^-20 times the largest
    diagonal entry; a singular or nearly singular PSD matrix pays for the
    failed attempt and then the full elimination.
    """
    return _cholesky_certifies(q) or _psd_by_elimination(q)


def _cholesky_certifies(q: RowScaled) -> bool:
    """True when Q = L L^T + R with L rational and R diagonally dominant.

    False means only that no certificate was found.
    """
    lint = _float_factor(q)
    return lint is not None and _residual_dominant(q, lint)


def _float_factor(q: RowScaled) -> list[list[int]] | None:
    """2**SCALE_SHIFT * L, rounded to integers, for a float Cholesky factor L
    of Q - delta*I; None when the float factorization breaks down."""
    rows, scales = q
    n = len(rows)
    if n == 0:
        return None
    try:
        # int true division is correctly rounded: these are float(Q_ij)
        qf = [[a / d for a in row] for row, d in zip(rows, scales)]
        delta = math.ldexp(max(qf[i][i] for i in range(n)), -DELTA_SHIFT)
        if not delta > 0:
            return None
        lint = [[0] * n for _ in range(n)]
        lf = [[0.0] * n for _ in range(n)]
        for j in range(n):
            lj = lf[j]
            d = qf[j][j] - delta - sum(x * x for x in lj[:j])
            if not d > 0:
                return None
            root = math.sqrt(d)
            lj[j] = root
            lint[j][j] = round(math.ldexp(root, SCALE_SHIFT))
            for i in range(j + 1, n):
                li = lf[i]
                x = (qf[i][j] - sum(a * b for a, b in zip(li[:j], lj[:j]))) / root
                li[j] = x
                lint[i][j] = round(math.ldexp(x, SCALE_SHIFT))
    except (OverflowError, ValueError):
        # an entry too large for a float, or an inf/nan reached round()
        return None
    return lint


def _residual_dominant(q: RowScaled, lint: Sequence[Sequence[int]]) -> bool:
    """R_ii >= sum_{j != i} |R_ij| in every row of R = Q - lint lint^T / 2**80,
    for symmetric Q and lower-triangular lint (80 = 2 * SCALE_SHIFT).

    Row i is tested as D_i * 2**80 * R_i, all integers: a positive multiple
    of a row keeps the test's answer.
    """
    shift = 2 * SCALE_SHIFT
    # (lint lint^T)_ij once for each j <= i, and read as (j, i) in row j
    gram = [
        [sum(map(mul, li[: j + 1], lint[j][: j + 1])) for j in range(i + 1)]
        for i, li in enumerate(lint)
    ]
    n = len(gram)
    for i, (row, d) in enumerate(zip(*q)):
        column = gram[i] + [gram[j][i] for j in range(i + 1, n)]
        r = [(a << shift) - d * b for a, b in zip(row, column)]
        diag = r[i]
        if diag < 0 or 2 * diag < sum(map(abs, r)):
            return False
    return True


def _psd_by_elimination(q: RowScaled) -> bool:
    """Rational LDL^T elimination with diagonal pivoting."""
    rows, scales = q
    n = len(rows)
    a = [[Fraction(x, d) for x in row] for row, d in zip(rows, scales)]
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: a[i][i])
        if a[pivot_row][pivot_row] < 0:
            return False
        if a[pivot_row][pivot_row] == 0:
            # zero maximal diagonal: PSD forces the whole remaining block to 0
            return all(
                a[i][j] == 0 for i in range(k, n) for j in range(k, n)
            )
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            for row in a:
                row[k], row[pivot_row] = row[pivot_row], row[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return True


def inner_product(q: RowScaled, pmat: PairMatrix, denominator: int) -> Fraction:
    """Exact <Q, P> for symmetric Q and P, P given by its upper triangle pmat.

    q is Q as scale_rows gives it, and pmat holds integer counts over
    denominator.  An entry off the diagonal stands for P_ij and P_ji, so it
    counts twice.  Row i contributes an integer over D_i, reduced before
    the rows are summed.
    """
    rows, scales = q
    num = 0
    den = 1
    for i, (qrow, d, prow) in enumerate(zip(rows, scales, pmat)):
        if not prow:
            continue
        terms = [qrow[j] * c for j, c in prow]
        total = 2 * sum(terms) - (terms[0] if prow[0][0] == i else 0)
        if total:
            # reduced, total / D_i keeps only the denominators of the entries
            # pmat touches; D_i brings every entry of the row
            g = gcd(total, d)
            d //= g
            h = gcd(den, d)
            num = num * (d // h) + total // g * (den // h)
            den = den // h * d
    return Fraction(num, den * denominator)


def verify(cert: Certificate) -> VerifyResult:
    """Check a certificate exactly; Verified implies the density bound holds.

    The family is read from the certificate's key alone, and the program is
    the one assemble builds for it with one type per certificate block.
    Pair-density tables come from density._build_table, a functools.cache
    function keyed on the labelled type, m and the family's (canonical
    graph, induced) members, so a table built for an earlier program in the
    same process is not built again.
    """
    try:
        family = family_from_key(cert.family_key)
    except ValueError as exc:
        return _rejected(f"unknown family key: {exc}")
    if not 3 <= cert.m <= SOFT_VERTEX_LIMIT:
        return _rejected(f"m={cert.m} is outside 3..{SOFT_VERTEX_LIMIT}")
    types = []
    for bi, block in enumerate(cert.blocks):
        try:
            sigma = decode_key(block.type_key)
        except ValueError as exc:
            return _rejected(f"block {bi}: bad type key ({exc})")
        types.append(sigma)
    try:
        model = assemble(cert.m, family, types)
    except ValueError as exc:
        return _rejected(f"no program: {exc}")
    # assemble leaves out a type with no flags; the blocks must line up
    keys = {block.type_key for block in model.blocks}
    for bi, sigma in enumerate(types):
        if sigma.canon_key not in keys:
            return _rejected(f"block {bi}: no flags lie over its type")
    if len(cert.slacks) != model.n_constraints:
        return _rejected(
            f"expected {model.n_constraints} slacks for m={cert.m}, got {len(cert.slacks)}"
        )
    for idx, c in enumerate(cert.slacks):
        if c < 0:
            return _rejected(f"negative slack at graph {idx}")
    scaled = []  # per block, scaled once: Q's rows, its type's denominator, its counts
    for bi, (cert_block, block) in enumerate(zip(cert.blocks, model.blocks)):
        if cert_block.dim != block.dim:
            return _rejected(f"block {bi}: dimension {cert_block.dim} but {block.dim} flags exist")
        q = scale_rows(cert_block)
        if not psd_check(q):
            return _rejected(f"block {bi}: matrix not positive semidefinite")
        scaled.append((q, block.denominator, block.matrices))
    mismatches = []
    for idx, obj in enumerate(model.obj):
        margin = cert.bound - obj
        for q, denominator, matrices in scaled:
            margin -= inner_product(q, matrices.get(idx, ()), denominator)
        if margin < 0:
            members = [fm.graph for fm in family]
            target = enumerate_free(cert.m, members, [fm.induced for fm in family])[idx]
            return _rejected(
                f"constraint fails at graph {idx} "
                f"(key {target.canon_key.hex()}): margin {margin}"
            )
        if cert.slacks[idx] != margin:
            # Cross-check only: stated slacks may carry rounding slop in
            # either direction without affecting the bound's validity.
            mismatches.append(abs(cert.slacks[idx] - margin))
    notes = ()
    if mismatches:
        notes = (
            f"{len(mismatches)} stated slacks differ from the recomputed margins, "
            f"by at most {fraction_text(max(mismatches))}",
        )
    return VerifyResult(ok=True, bound=cert.bound, notes=notes)


# ---------------------------------------------------------------------------
# Text format


def certificate_to_text(cert: Certificate) -> str:
    lines = [
        f"bound {fraction_text(cert.bound)}",
        f"family {cert.family_key if cert.family_key else 'none'}",
        f"m {cert.m}",
    ]
    for block in cert.blocks:
        lines.append(f"type {block.type_key.hex()} dim {block.dim}")
        start = 0
        for width in range(block.dim, 0, -1):
            lines.append(" ".join(map(fraction_text, block.upper[start : start + width])))
            start += width
    for idx, c in enumerate(cert.slacks):
        lines.append(f"slack {idx} {fraction_text(c)}")
    return "\n".join(lines) + "\n"


# Fields per line, keyword included, for the fixed-width line kinds.
_FIELD_COUNTS = {"bound": 2, "m": 2, "type": 4, "slack": 3}


def certificate_from_text(text: str) -> Certificate:
    bound: Fraction | None = None
    family_key: str | None = None
    m: int | None = None
    header_seen: set[str] = set()
    slacks: list[Fraction] = []
    raw_blocks: list[tuple[bytes, int, list[Fraction]]] = []
    entries: list[Fraction] | None = None  # upper-triangle entries of the open block
    value = cache(parse_fraction)  # each distinct token parsed once per call
    for raw, line in content_lines(text):
        parts = line.split()
        if parts[0] in _FIELD_COUNTS and len(parts) != _FIELD_COUNTS[parts[0]]:
            raise ValueError(f"{parts[0]} line needs {_FIELD_COUNTS[parts[0]]} fields: {raw!r}")
        if parts[0] in ("bound", "family", "m"):
            if parts[0] in header_seen:
                raise ValueError(f"repeated {parts[0]} line: {raw!r}")
            header_seen.add(parts[0])
            if parts[0] == "bound":
                bound = value(parts[1])
            elif parts[0] == "family":
                if len(parts) == 1:
                    raise ValueError(f"family line needs a key, or 'none': {raw!r}")
                family_key = "" if parts[1] == "none" else " ".join(parts[1:])
            else:
                m = int(parts[1])
        elif parts[0] == "type":
            if parts[2] != "dim":
                raise ValueError(f"malformed type line: {raw!r}")
            entries = []
            raw_blocks.append((bytes.fromhex(parts[1]), int(parts[3]), entries))
        elif parts[0] == "slack":
            entries = None
            # in order, so a large index cannot make the parser allocate
            if int(parts[1]) != len(slacks):
                raise ValueError(f"expected slack {len(slacks)}, got {raw!r}")
            slacks.append(value(parts[2]))
        else:
            if entries is None:
                raise ValueError(f"unexpected line outside a type block: {raw!r}")
            entries.extend(map(value, parts))
    blocks = tuple(
        CertificateBlock(key, dim, tuple(entries)) for key, dim, entries in raw_blocks
    )
    if bound is None or family_key is None or m is None:
        raise ValueError("certificate needs 'bound', 'family' and 'm' lines")
    return Certificate(
        bound=bound, family_key=family_key, m=m, blocks=blocks, slacks=tuple(slacks)
    )


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_to_text(cert))


def load_certificate(path: str) -> Certificate:
    return certificate_from_text(read_text(path))
