"""Exact rational verification that a certificate proves a density bound.

A certificate consists of a rational bound u, one symmetric rational matrix
per type, and one nonnegative slack per admissible graph.  Verification is
per-constraint: for every admissible m-vertex graph F it checks

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

PSD is first tried with an exact certificate.  A float Cholesky factor of
Q - delta*I (delta = 2^-20 times the largest diagonal entry) is rounded to a
rational L with denominator 2^40, and R = Q - L L^T is formed exactly.  If
every row of R has R_ii >= sum_{j != i} |R_ij|, R is PSD by Gershgorin's
theorem and so is Q = L L^T + R.  The floats only propose L; the proof is
the exact check.  Any other outcome (an entry too large for a float, a float
pivot <= 0, a row that is not dominant) falls back to rational LDL^T
elimination with diagonal pivoting, which decides the question: a symmetric
matrix is PSD iff elimination never meets a negative pivot and, whenever
the largest remaining diagonal entry is zero, the whole remaining block
vanishes.  Only the elimination ever answers "not PSD".

The certificate exists only for blocks well inside the PSD cone: the
smallest eigenvalue must exceed delta, about 2^-20 of the largest diagonal
entry.  A singular or nearly singular block, which is what a solver returns
for a tight bound, always takes the elimination, whose cost grows with the
bit length of the entries (minutes for a 64x64 block rounded at
denominators up to 2^32).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .density import PairMatrix, fraction_text, parse_fraction
from .enumeration import SOFT_VERTEX_LIMIT, enumerate_free
from .families import family_from_key
from .graphs import decode_key
from .sdp import Certificate, CertificateBlock, Matrix, assemble


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    bound: Fraction | None = None
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _rejected(reason: str) -> VerifyResult:
    return VerifyResult(ok=False, reason=reason)


def is_symmetric(matrix: Sequence[Sequence[Fraction]]) -> bool:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return False
    return all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(i))


# delta = 2**-DELTA_SHIFT * max diagonal leaves room in R for the float and
# rounding errors of the factor, which sit far below delta for the block
# sizes here; the factor is rounded to integers over 2**SCALE_SHIFT.
DELTA_SHIFT = 20
SCALE_SHIFT = 40


def psd_check(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Exact positive-semidefiniteness of a symmetric rational matrix.

    True from the Cholesky certificate is a proof; every other outcome is
    decided by exact elimination.  The certificate is fast but succeeds only
    when the smallest eigenvalue is above about 2^-20 times the largest
    diagonal entry; a singular or nearly singular PSD matrix pays for the
    failed attempt and then the full elimination.
    """
    if not is_symmetric(matrix):
        raise ValueError("matrix is not symmetric")
    exact = [[Fraction(x) for x in row] for row in matrix]
    return _cholesky_certifies(exact) or _psd_by_elimination(exact)


def _cholesky_certifies(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """True when Q = L L^T + R with L rational and R diagonally dominant.

    R is symmetric with R_ii >= sum_{j != i} |R_ij| for every row, so it is
    PSD by Gershgorin's theorem, and then so is Q.  False means only that no
    certificate was found.
    """
    n = len(matrix)
    if n == 0:
        return False
    try:
        q = [[float(x) for x in row] for row in matrix]
        delta = math.ldexp(max(q[i][i] for i in range(n)), -DELTA_SHIFT)
        if not delta > 0:
            return False
        # Float Cholesky of Q - delta*I, each entry rounded to the grid.
        lint = [[0] * n for _ in range(n)]
        lf = [[0.0] * n for _ in range(n)]
        for j in range(n):
            lj = lf[j]
            d = q[j][j] - delta - sum(x * x for x in lj[:j])
            if not d > 0:
                return False
            root = math.sqrt(d)
            lj[j] = root
            lint[j][j] = round(math.ldexp(root, SCALE_SHIFT))
            for i in range(j + 1, n):
                li = lf[i]
                x = (q[i][j] - sum(a * b for a, b in zip(li[:j], lj[:j]))) / root
                li[j] = x
                lint[i][j] = round(math.ldexp(x, SCALE_SHIFT))
    except (OverflowError, ValueError):
        # an entry too large for a float, or an inf/nan reached round()
        return False
    scale = 1 << (2 * SCALE_SHIFT)
    for i in range(n):
        li = lint[i]
        row = matrix[i]
        dominance = Fraction(0)
        diag = None
        for j in range(n):
            lj = lint[j]
            k = min(i, j) + 1
            r = row[j] - Fraction(sum(a * b for a, b in zip(li[:k], lj[:k])), scale)
            if j == i:
                diag = r
            else:
                dominance += abs(r)
        if diag < dominance:
            return False
    return True


def _psd_by_elimination(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Rational LDL^T elimination with diagonal pivoting."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
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


def inner_product(q: Matrix, pmat: PairMatrix) -> Fraction:
    """Exact sum of q[i][j] * pmat[i][j] over the stored entries of pmat."""
    return sum(q[i][j] * x for i, row in enumerate(pmat) for j, x in row)


def verify(cert: Certificate) -> VerifyResult:
    """Check a certificate exactly; Verified implies the density bound holds.

    The family is read from the certificate's key alone, and the program is
    the one assemble builds for it with one type per certificate block.
    Pair-density tables come from the per-process memo of
    pair_density_table, so a table built for an earlier program in the same
    process is not built again.
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
        if (cert.m + sigma.n) % 2:
            return _rejected(f"block {bi}: type size {sigma.n} has wrong parity")
        types.append(sigma)
    try:
        model = assemble(cert.m, family, types)
    except ValueError as exc:
        return _rejected(f"no program: {exc}")
    if len(cert.slacks) != model.n_constraints:
        return _rejected(
            f"expected {model.n_constraints} slacks for m={cert.m}, got {len(cert.slacks)}"
        )
    for idx, c in enumerate(cert.slacks):
        if c < 0:
            return _rejected(f"negative slack at graph {idx}")
    for bi, (block, dim) in enumerate(zip(cert.blocks, model.type_dims)):
        if block.dim != dim:
            return _rejected(f"block {bi}: dimension {block.dim} but {dim} flags exist")
        if not is_symmetric(block.matrix):
            return _rejected(f"block {bi}: matrix not symmetric")
        if not psd_check(block.matrix):
            return _rejected(f"block {bi}: matrix not positive semidefinite")

    mismatches = []
    for idx, obj in enumerate(model.obj):
        margin = cert.bound - obj
        for block, matrices in zip(cert.blocks, model.pair_matrices):
            margin -= inner_product(block.matrix, matrices.get(idx, ()))
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
        for i in range(block.dim):
            lines.append(
                " ".join(fraction_text(block.matrix[i][j]) for j in range(i, block.dim))
            )
    for idx, c in enumerate(cert.slacks):
        lines.append(f"slack {idx} {fraction_text(c)}")
    return "\n".join(lines) + "\n"


# Fields per line, keyword included, for the fixed-width line kinds.
_FIELD_COUNTS = {"bound": 2, "m": 2, "type": 4, "slack": 3}


def certificate_from_text(text: str) -> Certificate:
    bound: Fraction | None = None
    family_key = ""
    m: int | None = None
    slacks: list[Fraction] = []
    raw_blocks: list[tuple[bytes, int, list[Fraction]]] = []
    entries: list[Fraction] | None = None  # upper-triangle entries of the open block
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in _FIELD_COUNTS and len(parts) != _FIELD_COUNTS[parts[0]]:
            raise ValueError(
                f"{parts[0]} line needs {_FIELD_COUNTS[parts[0]]} fields: {raw!r}"
            )
        if parts[0] == "bound":
            bound = parse_fraction(parts[1])
        elif parts[0] == "family":
            family_key = "" if parts[1:2] == ["none"] else " ".join(parts[1:])
        elif parts[0] == "m":
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
            slacks.append(parse_fraction(parts[2]))
        else:
            if entries is None:
                raise ValueError(f"unexpected line outside a type block: {raw!r}")
            entries.extend(parse_fraction(tok) for tok in parts)
    blocks = tuple(CertificateBlock.from_upper(*raw_block) for raw_block in raw_blocks)
    if bound is None or m is None:
        raise ValueError("certificate needs 'bound' and 'm' lines")
    return Certificate(
        bound=bound, family_key=family_key, m=m, blocks=blocks, slacks=tuple(slacks)
    )


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_to_text(cert))


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return certificate_from_text(fh.read())
