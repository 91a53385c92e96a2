"""Certificate test helpers shared by the unit and acceptance suites."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from turan3.certificate import Certificate, CertificateBlock
from turan3.density import SINGLE_EDGE, p, pair_density_table
from turan3.enumeration import enumerate_free
from turan3.families import Family
from turan3.graphs import decode_key
from turan3.sdp import assemble, default_types

from oracles import inner_product_fractions


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
        mat = tuple(
            tuple(scale if i == j else Fraction(0) for j in range(d))
            for i in range(d)
        )
        blocks.append(CertificateBlock(sigma.canon_key, mat))
        tables.append(table)
    model = assemble(m, family)
    margins = []
    for fi in range(model.n_constraints):
        total = model.obj[fi]
        for block, table in zip(blocks, tables):
            total += inner_product_fractions(block.matrix, table.matrices[fi], table.denominator)
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
                block.matrix, table.matrices[idx], table.denominator
            )
        out.append(margin)
    return out


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
