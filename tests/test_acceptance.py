"""Acceptance suite: one test per release criterion, in order.

Each test prints a single "ACCEPTANCE <nn> PASS <summary>" line on success
(visible with pytest -s or in the captured output); a failing criterion
fails its test.  Stated runtime budgets are asserted with wall-clock
measurements.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb

from turan3 import families
from turan3.certificate import Certificate, psd_check, verify
from turan3.constructions import (
    K4Blowup,
    OPTIMAL_SPLIT_RATIO,
    Partite3,
    TWO_SQRT3_MINUS_3,
    b_rec,
    build,
    density_report,
    optimal_brec,
)
from turan3.density import p
from turan3.enumeration import enumerate_free
from turan3.graphs import exhaustive_containment_scan, from_edges, named_graph
from turan3.partition import bad_missing, lemma22_gap, maxcut_local_search
from turan3.sdp import assemble, best_rational, emit, parse_sdp

import oracles
from cert_helpers import (
    bump_entry,
    lp_certificate,
    make_sos_certificate,
    minor_sign_psd_oracle,
    recompute_margins,
    scaled_upper,
)
from oracles import maxcut_exact, spanning_profile


def report(number, summary):
    print(f"ACCEPTANCE {number:02d} PASS {summary}")


def fam(*names):
    return families.parse_family(",".join(names))


def random_graph(n, prob, rng):
    edges = [t for t in combinations(range(n), 3) if rng.random() < prob]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------


def test_acceptance_01_b_rec_exactness():
    t0 = time.perf_counter()
    assert b_rec(3)[0] == 1
    assert b_rec(4)[0] == 3
    assert b_rec(5)[0] == 6

    def oracle(n):
        if n <= 2:
            return 0
        return max(
            n1 * (n1 - 1) // 2 * (n - n1) + oracle(n - n1) for n1 in range(1, n + 1)
        )

    for n in range(0, 21):
        assert b_rec(n)[0] == oracle(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"recursion values match the exhaustive oracle for n<=20 in {elapsed:.2f}s")


def test_acceptance_02_asymptotic_density():
    t0 = time.perf_counter()
    value, splits = b_rec(1000)
    density = 6 * value / 1000**3
    target = float(Decimal(TWO_SQRT3_MINUS_3))
    assert abs(density - target) < 0.01
    ratio = splits[0] / 1000
    assert abs(ratio - float(Decimal(OPTIMAL_SPLIT_RATIO))) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        2,
        f"6*b(1000)/1000^3 = {density:.5f} vs {target:.5f}; "
        f"first split {ratio:.3f} in {elapsed:.2f}s",
    )


def test_acceptance_03_brec_freeness_n25():
    t0 = time.perf_counter()
    h = build(optimal_brec(25))
    checked = 0
    for name in ("C4_3", "F5_BAR"):
        found, witness = exhaustive_containment_scan(h, named_graph(name))
        assert not found, f"unexpected {name} at {witness}"
        checked += comb(25, named_graph(name).n)
    elapsed = time.perf_counter() - t0
    assert checked == comb(25, 4) + comb(25, 5)
    assert elapsed < 60.0
    report(3, f"optimal 25-vertex recursion scanned {checked} subsets clean in {elapsed:.1f}s")


def test_acceptance_04_partite_lower_bound():
    h = build(Partite3(10, 10, 10))
    assert len(h.edges) == 1000
    for name in ("F32", "C5_3_MINUS"):
        found, _ = exhaustive_containment_scan(h, named_graph(name))
        assert not found
    rep = density_report(Partite3(10, 10, 10))
    assert rep.limit == Fraction(2, 9)
    report(4, "balanced 3-partite on 30 vertices: 1000 edges, family-free, limit 2/9")


def test_acceptance_05_blowup_lower_bound():
    h = build(K4Blowup(6, 6, 6, 6))
    assert len(h.edges) == 4 * 6**3 == 864
    found, _ = exhaustive_containment_scan(h, named_graph("F32"), induced=False)
    assert not found
    found, _ = exhaustive_containment_scan(h, named_graph("F32_BAR"), induced=True)
    assert not found
    rep = density_report(K4Blowup(6, 6, 6, 6))
    assert rep.limit == Fraction(3, 8)
    report(5, "balanced 4-class blow-up on 24 vertices: 864 edges, free both ways, limit 3/8")


ACCEPTANCE_FAMILIES = [
    (),
    ("C4_3",),
    ("C4_3", "F5_BAR"),
    ("F32", "C5_3_MINUS"),
]


def test_acceptance_06_enumeration_soundness():
    t5 = 0.0
    for names in ACCEPTANCE_FAMILIES:
        family = fam(*names)
        members = [m.graph for m in family]
        flags = [m.induced for m in family]
        for m in (4, 5):
            t0 = time.perf_counter()
            reps = oracles.enumerate_free_brute(m, members, flags)
            if m == 5:
                t5 += time.perf_counter() - t0
            got = enumerate_free(m, members, flags)
            assert len(got) == len(reps), (names, m)
            keys = {g.canon_key for g in got}
            assert len(keys) == len(got)
            for r in reps:
                assert r.canon_key in keys
    assert t5 < 10.0
    report(6, f"counts and membership match the labeled oracle; m=5 oracle total {t5:.1f}s")


def test_acceptance_07_density_identities():
    rng = random.Random(777)
    mids = enumerate_free(5)
    patterns = enumerate_free(3) + enumerate_free(4)
    for _ in range(50):
        h = random_graph(7, 0.15 + 0.7 * rng.random(), rng)
        prof = spanning_profile(h, 5)
        total = comb(7, 5)
        densities = {g.canon_key: Fraction(prof.get(g.canon_key, 0), total) for g in mids}
        assert sum(densities.values()) == 1
        for f in patterns:
            direct = p(f, h)
            via = sum(p(f, g) * densities[g.canon_key] for g in mids)
            assert direct == via
    report(7, "sum-to-one and chain rule hold exactly on 50 random 7-vertex graphs")


def test_acceptance_08_lp_bounds():
    model4 = assemble(4, fam("C4_3"))
    assert model4.lp_value() == Fraction(3, 4)
    model5 = assemble(5, fam("F32", "C5_3_MINUS"))
    value = model5.lp_value()
    assert value >= Fraction(2, 9)
    assert value == Fraction(3, 5)  # recorded: frozen from the enumeration oracle
    report(8, f"LP bounds: 3/4 for the 4-vertex family, {value} recorded for the 5-vertex pair")


def test_acceptance_09_certificates():
    families_under_test = [(4, fam("C4_3")), (5, fam("F32", "C5_3_MINUS"))]
    for m, family in families_under_test:
        assert verify(lp_certificate(m, family)).ok

    # 100 random tamperings across the three stated kinds
    rng = random.Random(20240901)
    base_lp = lp_certificate(4, fam("C4_3"))
    base_sos = make_sos_certificate(4, fam("C4_3"))
    family = fam("C4_3")
    rejected = 0
    for _ in range(100):
        kind = rng.choice(("negate_slack", "bump_off_diagonal", "lower_bound"))
        if kind == "negate_slack":
            idx = rng.randrange(len(base_lp.slacks))
            slacks = list(base_lp.slacks)
            slacks[idx] = -slacks[idx]
            tampered = Certificate(
                base_lp.bound, base_lp.family_key, base_lp.m, base_lp.blocks, tuple(slacks)
            )
        elif kind == "bump_off_diagonal":
            wide = [bi for bi, b in enumerate(base_sos.blocks) if b.dim >= 2]
            bi = rng.choice(wide)
            block = base_sos.blocks[bi]
            i = rng.randrange(block.dim)
            j = rng.randrange(block.dim)
            if i == j:
                j = (j + 1) % block.dim
            blocks = list(base_sos.blocks)
            blocks[bi] = bump_entry(block, i, j, 1)
            tampered = Certificate(
                base_sos.bound, base_sos.family_key, base_sos.m, tuple(blocks), base_sos.slacks
            )
        else:
            base = rng.choice((base_lp, base_sos))
            tampered = Certificate(
                base.bound - Fraction(1, 1000),
                base.family_key,
                base.m,
                base.blocks,
                base.slacks,
            )
        res = verify(tampered)
        if res.ok:
            # must be independently re-verifiable: audit with a recomputation
            assert all(v >= 0 for v in recompute_margins(tampered, family))
            assert all(c >= 0 for c in tampered.slacks)
            for block in tampered.blocks:
                assert oracles.psd_elimination(oracles.dense_block(block))
        else:
            rejected += 1

    # exact PSD check vs the minor-sign oracle on 200 random 4x4 matrices
    rng = random.Random(8)
    agreements = 0
    for _ in range(200):
        mat = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                v = Fraction(rng.randint(-3, 3))
                mat[i][j] = v
                mat[j][i] = v
        assert psd_check(scaled_upper(mat)) == minor_sign_psd_oracle(mat)
        agreements += 1
    report(
        9,
        f"LP certificates verify; {rejected}/100 tamperings rejected, the rest re-verified; "
        f"PSD agrees with the minor oracle on {agreements} matrices",
    )


def test_acceptance_10_rounding():
    got = best_rational(0.465560913085938, 2**16)
    assert got == Fraction(30511, 65536)
    report(10, "0.465560913085938 rounds to 30511/65536 at denominator bound 2^16")


def q3_mul(x, y):
    """(a + b sqrt3)(c + d sqrt3), each held as a pair of Fractions."""
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q3_sign(x):
    """Sign of a + b sqrt3, by squaring when a and b differ in sign."""
    sa, sb = (x[0] > 0) - (x[0] < 0), (x[1] > 0) - (x[1] < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if x[0] * x[0] > 3 * x[1] * x[1] else sb


def poly_mul(f, g):
    """Product of polynomials in t, coefficients over Q(sqrt3), lowest first."""
    out = [(Fraction(0), Fraction(0))] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            c = q3_mul(a, b)
            out[i + j] = (out[i + j][0] + c[0], out[i + j][1] + c[1])
    return out


def test_acceptance_11_simplex_square():
    # Fact 2.1, part 1: with x2 = t < 1 and x1 = 1 - t, dividing
    # x1^2 x2 / (2 (1 - x2^3)) <= (2 sqrt3 - 3) / 6 by 1 - t > 0 leaves
    # (2 sqrt3 - 3)(1 + t + t^2) - 3 t (1 - t) >= 0.  That quadratic is
    # 2 sqrt3 (t - r)^2 with r = (sqrt3 - 1) / 2, so part 1 holds for every
    # 0 <= x2 < 1, with equality only at x2 = r.
    def q(a, b=0):
        return (Fraction(a), Fraction(b))

    c = q(-3, 2)
    scaled = poly_mul([c], [q(1), q(1), q(1)])
    lhs = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(scaled, [q(0), q(-3), q(3)])]
    r = (Fraction(-1, 2), Fraction(1, 2))
    t_minus_r = [(-r[0], -r[1]), q(1)]
    rhs = poly_mul([q(0, 2)], poly_mul(t_minus_r, t_minus_r))
    assert lhs == rhs
    # the tight point x1 = 1 - r is the optimal split ratio, correctly
    # rounded to 50 digits: |x1 - OPTIMAL_SPLIT_RATIO| <= 10^-50 / 2
    x1 = (1 - r[0], -r[1])
    half_ulp = Fraction(1, 2 * 10**50)
    stated = Fraction(OPTIMAL_SPLIT_RATIO)
    assert q3_sign((x1[0] - stated + half_ulp, x1[1])) > 0
    assert q3_sign((stated + half_ulp - x1[0], -x1[1])) > 0
    report(11, "Fact 2.1 part 1 is 2 sqrt3 (x2 - (sqrt3 - 1)/2)^2 >= 0; tight at OPTIMAL_SPLIT_RATIO")


def test_acceptance_12_partition_accounting_and_maxcut():
    rng = random.Random(31337)
    for _ in range(500):
        n = rng.randint(3, 7)
        h = random_graph(n, rng.random(), rng)
        for mask in range(1 << n):
            v1 = {v for v in range(n) if mask >> v & 1}
            v2 = set(range(n)) - v1
            stats = bad_missing(h, v1, v2)
            bad, missing = oracles.bad_missing_brute(h, v1, v2)
            assert (stats.bad, stats.missing) == (len(bad), len(missing))
            assert len(h.edges) == stats.cross_present + stats.bad + stats.inner2
            assert stats.cross_present + len(missing) == comb(len(v1), 2) * len(v2)

    matches = 0
    for i in range(100):
        h = random_graph(10, 0.35 + 0.5 * rng.random(), rng)
        exact, _ = maxcut_exact(h)
        res = maxcut_local_search(h, restarts=32, seed=i)
        assert res.cross_present <= exact
        if res.cross_present == exact:
            matches += 1
    assert matches >= 95
    report(
        12,
        f"edge accounting exact on 500 graphs x all partitions; "
        f"search matched the exhaustive max on {matches}/100 instances",
    )


def test_acceptance_13_brec_top_split_identity():
    for n in range(3, 41):
        spec = optimal_brec(n)
        h = build(spec)
        n1 = spec.splits[0]
        v1, v2 = set(range(n1)), set(range(n1, n))
        stats = bad_missing(h, v1, v2)
        assert oracles.bad_missing_brute(h, v1, v2) == (set(), set())
        assert stats.bad == stats.missing == 0
        lhs, rhs, holds = lemma22_gap(stats, 0)
        assert holds and lhs == rhs
    report(13, "top split has no bad or missing edges and the bound is tight at xi=0 for n<=40")


def test_acceptance_14_sdp_round_trip(tmp_path):
    # The desk-scale pipeline does not re-derive the large solver constants;
    # it must emit the m=5 program with the default type set and read it back
    # bit-exactly.
    model = assemble(5, fam("C4_3", "F5_BAR"), use_default_types=True)
    path = tmp_path / "m5.sdp"
    emit(model, str(path))
    again = parse_sdp(str(path))
    assert again == model
    dims = tuple(block.dim for block in model.blocks)
    assert dims == (2, 8, 7)
    report(
        14,
        f"m=5 program with default types ({model.n_constraints} constraints, "
        f"blocks {dims}) round-trips bit-exactly; solver constants not re-derived",
    )
