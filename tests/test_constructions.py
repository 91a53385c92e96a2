import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import pytest

from turan3.constructions import (
    B_REC_LIMIT,
    KINDS,
    BRec,
    K4Blowup,
    LIMIT_BREC_SIXTH,
    OPTIMAL_SPLIT_RATIO,
    Partite3,
    Pattern,
    SemiBipartite,
    TWO_SQRT3_MINUS_3,
    b_rec,
    build,
    density_report,
    edge_count,
    optimal_brec,
)
from turan3.graphs import exhaustive_containment_scan, named_graph

from oracles import construction_brute


def b_rec_oracle(n):
    """Exhaustive recursion over every split sequence, no memoization."""
    if n <= 2:
        return 0
    return max(
        n1 * (n1 - 1) // 2 * (n - n1) + b_rec_oracle(n - n1) for n1 in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# b_rec


def test_b_rec_small_values():
    assert b_rec(3)[0] == 1
    assert b_rec(4)[0] == 3
    assert b_rec(5)[0] == 6
    assert b_rec(0)[0] == b_rec(1)[0] == b_rec(2)[0] == 0


def test_b_rec_matches_exhaustive_recursion():
    for n in range(0, 21):
        assert b_rec(n)[0] == b_rec_oracle(n)


def test_b_rec_refuses_n_above_its_limit():
    # the DP is quadratic in n; a huge n must not start it
    for n in (B_REC_LIMIT + 1, 10**12):
        with pytest.raises(ValueError, match=f"^n={n} exceeds {B_REC_LIMIT}, "):
            b_rec(n)


def test_b_rec_tie_break_and_consistency():
    # at n=5 splits 3 and 4 tie at 6 edges; ties go to the larger part
    assert b_rec(5)[1] == (4,)
    for n in range(0, 61):
        value, splits = b_rec(n)
        assert len(build(BRec(n, splits)).edges) == value
    values = [b_rec(n)[0] for n in range(0, 61)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_b_rec_asymptotics():
    value, splits = b_rec(1000)
    assert abs(6 * value / 1000**3 - float(Decimal(TWO_SQRT3_MINUS_3))) < 0.01
    assert abs(splits[0] / 1000 - float(Decimal(OPTIMAL_SPLIT_RATIO))) < 0.02


# ---------------------------------------------------------------------------
# build


def test_build_brec_tiny():
    h = build(BRec(3, (2,)))
    assert h.n == 3 and len(h.edges) == 1


def test_build_partite_and_blowup():
    assert len(build(Partite3(1, 1, 1)).edges) == 1
    k4 = build(K4Blowup(1, 1, 1, 1))
    assert k4.canon_key == named_graph("K4_3").canon_key
    assert len(build(K4Blowup(6, 6, 6, 6)).edges) == 4 * 6**3
    assert len(build(Partite3(10, 10, 10)).edges) == 1000


def test_build_semibipartite():
    for k in (1, 2, 4):
        h = build(SemiBipartite(2 * k, k))
        assert len(h.edges) == comb(2 * k, 2) * k


def test_kinds_are_patterns():
    assert list(KINDS) == ["brec", "partite3", "k4blowup", "semibipartite"]
    assert Partite3.pattern == Pattern(3, ((0, 1, 2),))
    assert K4Blowup.pattern == Pattern(4, named_graph("K4_3").edges)
    assert SemiBipartite.pattern == Pattern(2, ((0, 0, 1),))
    assert BRec.pattern == Pattern(2, ((0, 0, 1),), recursive=1)
    assert K4Blowup(1, 2, 3, 4).levels == ((1, 2, 3, 4),)
    assert SemiBipartite(5, 4).levels == ((5, 4),)
    assert BRec(9, (5, 2)).levels == ((5, 4), (2, 2))
    assert BRec(2, ()).levels == ((0, 2),)
    # a semi-bipartite graph is the first level of a brec on the same vertices
    first = set(build(SemiBipartite(5, 4)).edges)
    whole = set(build(BRec(9, (5, 2))).edges)
    assert first < whole and whole - first == {(5, 6, 7), (5, 6, 8)}


def random_spec(rng):
    """A valid spec of a random kind on at most 14 vertices."""
    kind = rng.choice(list(KINDS))
    if kind == "partite3":
        return Partite3(*(rng.randint(1, 4) for _ in range(3)))
    if kind == "k4blowup":
        return K4Blowup(*(rng.randint(1, 3) for _ in range(4)))
    if kind == "semibipartite":
        return SemiBipartite(rng.randint(0, 7), rng.randint(0, 7))
    n = rng.randint(0, 14)
    splits = []
    rest = n
    while rest > 2 or (rest and rng.random() < 0.5):
        splits.append(rng.randint(1, rest))
        rest -= splits[-1]
    return BRec(n, tuple(splits))


def test_build_and_edge_count_match_the_triple_oracle():
    rng = random.Random(41)
    for _ in range(1000):
        spec = random_spec(rng)
        h = build(spec)
        want = construction_brute(spec.pattern, spec.levels)
        assert h.n == sum(spec.levels[0])
        assert list(h.edges) == sorted(want), spec
        assert edge_count(spec) == len(want), spec


@pytest.mark.parametrize(
    "spec",
    [
        BRec(5, (0,)),
        BRec(5, (6,)),
        BRec(8, (2, 2)),  # leaves a 4-vertex tail unsplit
        BRec(5, (-1, 3)),
    ],
)
def test_build_brec_invalid_splits(spec):
    with pytest.raises(ValueError):
        build(spec)


@pytest.mark.parametrize(
    "spec",
    [Partite3(-1, 2, 2), K4Blowup(-2, 3, 3, 3), SemiBipartite(0, -5), BRec(-5, ())],
)
def test_negative_sizes_are_rejected(spec):
    with pytest.raises(ValueError):
        density_report(spec)
    with pytest.raises(ValueError):
        build(spec)


def test_brec_freeness_small():
    # the layered construction avoids both forbidden graphs; scan exhaustively
    h = build(optimal_brec(12))
    for name in ("C4_3", "F5_BAR"):
        found, _ = exhaustive_containment_scan(h, named_graph(name))
        assert not found


def test_constants_against_live_computation():
    with localcontext() as ctx:
        ctx.prec = 70
        s3 = Decimal(3).sqrt()
        pairs = [
            (TWO_SQRT3_MINUS_3, 2 * s3 - 3),
            (LIMIT_BREC_SIXTH, (2 * s3 - 3) / 6),
            (OPTIMAL_SPLIT_RATIO, (3 - s3) / 2),
        ]
        for text, value in pairs:
            assert abs(Decimal(text) - value) < Decimal("1e-50")


# ---------------------------------------------------------------------------
# density reports


def test_density_report_partite():
    rep = density_report(Partite3(10, 10, 10))
    assert rep.edges == 1000
    assert rep.density == Fraction(1000, comb(30, 3))
    assert rep.limit == Fraction(2, 9)


def test_density_report_k4blowup():
    rep = density_report(K4Blowup(10, 10, 10, 10))
    assert rep.edges == 4000
    assert Fraction(6 * rep.edges, 40**3) == Fraction(3, 8)
    assert rep.limit == Fraction(3, 8)


def test_density_report_brec_and_semibipartite():
    rep = density_report(optimal_brec(20))
    assert rep.edges == b_rec(20)[0]
    assert rep.limit == TWO_SQRT3_MINUS_3
    rep2 = density_report(SemiBipartite(8, 4))
    assert rep2.edges == comb(8, 2) * 4
    assert rep2.limit == Fraction(4, 9)


def test_edge_count_closed_forms_match_builds():
    specs = [
        BRec(9, (5, 2)),
        BRec(10, (4, 4)),
        optimal_brec(14),
        Partite3(2, 3, 4),
        K4Blowup(1, 2, 3, 4),
        SemiBipartite(5, 3),
        SemiBipartite(0, 3),
        SemiBipartite(4, 0),
    ]
    for spec in specs:
        assert edge_count(spec) == len(build(spec).edges)


def test_build_refuses_a_spec_above_the_edge_limit(monkeypatch):
    import turan3.constructions as constructions_mod

    monkeypatch.setattr(constructions_mod, "BUILD_EDGE_LIMIT", 1000)
    assert len(build(Partite3(10, 10, 10)).edges) == 1000
    assert len(build(optimal_brec(24)).edges) == 991
    for spec, edges in ((Partite3(10, 10, 11), 1100), (optimal_brec(25), 1126)):
        message = f"^{spec.kind} has {edges} edges; build takes at most 1000$"
        with pytest.raises(ValueError, match=message):
            build(spec)
        # the report reads the closed form and still answers
        assert density_report(spec).edges == edges
