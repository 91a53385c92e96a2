"""Certificate test helpers shared by the unit and acceptance suites."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from turan3.certificate import Certificate, CertificateBlock, RowScaled, scale_rows
from turan3.density import p, pair_density_table
from turan3.enumeration import enumerate_free
from turan3.families import Family
from turan3.graphs import decode_key, from_edges
from turan3.sdp import assemble, default_types

from oracles import dense_block, inner_product_fractions, upper_block

SINGLE_EDGE = from_edges(3, [(0, 1, 2)])


def lp_certificate(m: int, family: Family = ()) -> Certificate:
    """The certificate realizing the LP bound: u = max obj, slacks u - obj(F)."""
    model = assemble(m, family)
    u = model.lp_value()
    return Certificate(
        bound=u,
        family_key=model.family_key,
        m=m,
        blocks=(),
        slacks=tuple(u - o for o in model.obj),
    )


def make_sos_certificate(m, family, scale=Fraction(1, 8)):
    """A valid certificate with nonempty PSD blocks: Q = scale * identity."""
    types = default_types(m, family)
    blocks = []
    tables = []
    for sigma in types:
        table = pair_density_table(sigma, m, family)
        d = len(table.flags)
        upper = tuple(scale if i == j else Fraction(0) for i in range(d) for j in range(i, d))
        blocks.append(CertificateBlock(sigma.canon_key, d, upper))
        tables.append(table)
    model = assemble(m, family)
    margins = []
    for fi in range(model.n_constraints):
        total = model.obj[fi]
        for block, table in zip(blocks, tables):
            total += inner_product_fractions(
                dense_block(block), table.matrices[fi], table.denominator
            )
        margins.append(total)
    u = max(margins)
    return Certificate(
        bound=u,
        family_key=model.family_key,
        m=m,
        blocks=tuple(blocks),
        slacks=tuple(u - v for v in margins),
    )


def recompute_margins(cert, family):
    """Independent recomputation of each constraint margin for fuzz auditing."""
    members = [fm.graph for fm in family]
    flags_ind = [fm.induced for fm in family]
    targets = enumerate_free(cert.m, members, flags_ind)
    out = []
    for idx, target in enumerate(targets):
        margin = cert.bound - p(SINGLE_EDGE, target)
        for block in cert.blocks:
            sigma = decode_key(block.type_key)
            table = pair_density_table(sigma, cert.m, family)
            margin -= inner_product_fractions(
                dense_block(block), table.matrices[idx], table.denominator
            )
        out.append(margin)
    return out


def scaled_upper(matrix) -> RowScaled:
    """A dense symmetric matrix as the checks read it: the block of its upper
    triangle, row-scaled."""
    return scale_rows(upper_block(matrix))


def bump_entry(block: CertificateBlock, i: int, j: int, delta) -> CertificateBlock:
    """The block with delta added to Q_ij, and so to Q_ji."""
    i, j = min(i, j), max(i, j)
    upper = list(block.upper)
    # rows 0..i-1 of the triangle come first, then Q_ii, ..., Q_ij
    upper[sum(block.dim - k for k in range(i)) + j - i] += delta
    return replace(block, upper=tuple(upper))


def minor_sign_psd_oracle(matrix):
    """PSD iff every sum of principal k x k minors is nonnegative.

    These sums are the (sign-adjusted) characteristic polynomial
    coefficients; all eigenvalues are nonnegative exactly when every
    elementary symmetric function of them is.
    """
    n = len(matrix)

    def det(rows):
        k = len(rows)
        a = [[matrix[r][c] for c in rows] for r in rows]
        result = Fraction(1)
        for col in range(k):
            pivot = None
            for r in range(col, k):
                if a[r][col] != 0:
                    pivot = r
                    break
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                result = -result
            result *= a[col][col]
            for r in range(col + 1, k):
                factor = a[r][col] / a[col][col]
                for c in range(col, k):
                    a[r][c] -= factor * a[col][c]
        return result

    for k in range(1, n + 1):
        total = sum(det(list(rows)) for rows in combinations(range(n), k))
        if total < 0:
            return False
    return True
