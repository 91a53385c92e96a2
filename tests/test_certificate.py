import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turan3 import families
from turan3.certificate import (
    SCALE_SHIFT,
    Certificate,
    CertificateBlock,
    _cholesky_certifies,
    _residual_dominant,
    certificate_from_text,
    certificate_to_text,
    load_certificate,
    psd_check,
    save_certificate,
    scale_rows,
    verify,
)
from turan3.cli import main
from turan3.enumeration import enumerate_free
from turan3.graphs import from_edges, named_graph
from turan3.sdp import assemble, default_types

import oracles
from cert_helpers import (
    bump_entry,
    lp_certificate,
    make_sos_certificate,
    minor_sign_psd_oracle,
    recompute_margins,
    scaled_upper,
)


def fam(*names):
    return families.parse_family(",".join(names))


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# PSD checks


def psd(matrix):
    return psd_check(scaled_upper(matrix))


def test_psd_examples():
    assert psd([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    assert not psd([[F(1), F(2)], [F(2), F(1)]])
    assert psd([[F(1), F(1)], [F(1), F(1)]])
    assert psd([])
    assert psd([[F(0)]])
    assert not psd([[F(-1)]])
    assert not psd([[F(0), F(1)], [F(1), F(0)]])


def test_psd_against_minor_oracle():
    rng = random.Random(44)
    for _ in range(200):
        n = 4
        mat = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = F(rng.randint(-3, 3))
                mat[i][j] = v
                mat[j][i] = v
        assert psd(mat) == minor_sign_psd_oracle(mat)


def test_psd_structured_cases():
    # Gram matrices are PSD; their negatives (when nonzero) are not.
    rng = random.Random(45)
    for _ in range(30):
        rows = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        gram = [
            [sum(rows[i][k] * rows[j][k] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert psd(gram)
        if any(gram[i][i] > 0 for i in range(3)):
            neg = [[-x for x in row] for row in gram]
            assert not psd(neg)


def _random_rational(rng, size=5):
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def _gram(rows):
    return [
        [sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows
    ]


def _psd_cases(rng):
    """(label, matrix) pairs spanning the outcomes of the PSD check."""
    for n in range(1, 9):
        # full-rank Gram matrices, shifted to be comfortably definite
        rows = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
        gram = _gram(rows)
        definite = [
            [x + (n if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(gram)
        ]
        yield "definite", definite
        # far below the 2**-40 grid of the rounded factor
        yield "tiny", [[x / 10**15 for x in row] for row in definite]
        # rank-deficient PSD, and the same pushed indefinite by 1/k
        rank = rng.randint(0, n - 1)
        rows = [[_random_rational(rng) for _ in range(rank)] for _ in range(n)]
        thin = _gram(rows)
        yield "rank-deficient", thin
        k = rng.randint(1, 10**6)
        yield "indefinite", [
            [x - (Fraction(1, k) if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(thin)
        ]
        sym = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = _random_rational(rng)
        yield "random", sym
        yield "zero", [[F(0)] * n for _ in range(n)]
    for q in (Fraction(3, 7), F(0), Fraction(-1, 10**9), F(10**400), F(-(10**400))):
        yield "1x1", [[q]]
    big = F(10**400)
    yield "huge", [[big, F(1)], [F(1), big]]
    yield "huge", [[big, 2 * big], [2 * big, big]]
    yield "huge", [[Fraction(1, 10**400), F(0)], [F(0), F(1)]]


def test_psd_check_matches_elimination_oracle():
    rng = random.Random(2024)
    seen = set()
    for _ in range(6):
        for label, mat in _psd_cases(rng):
            want = oracles.psd_elimination(mat)
            assert psd(mat) == want, label
            # the certificate may only ever confirm PSD
            if _cholesky_certifies(scaled_upper(mat)):
                assert want, label
                seen.add(label)
    # the certificate path does fire, on well-conditioned matrices
    assert "definite" in seen


# Rationals whose denominators mix small values with values up to 2**32.
denominators = st.one_of(st.integers(1, 16), st.integers(1, 2**32))


def rationals(bound=2**20):
    return st.builds(Fraction, st.integers(-bound, bound), denominators)


@st.composite
def symmetric_matrices(draw, max_n=6):
    """A random symmetric matrix, a shifted Gram matrix or one pushed just
    indefinite, with some rows and columns zeroed."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["random", "gram", "indefinite"]))
    if kind == "random":
        mat = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = draw(rationals())
    else:
        rows = [[draw(rationals(2**10)) for _ in range(n)] for _ in range(n)]
        mat = _gram(rows)
        shift = draw(st.builds(Fraction, st.integers(1, 2**10), denominators))
        if kind == "indefinite":
            shift = -shift
        for i in range(n):
            mat[i][i] += shift
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        for j in range(n):
            mat[i][j] = mat[j][i] = F(0)
    return mat


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_psd_check_and_its_certificate_match_the_fraction_oracles(mat):
    q = scaled_upper(mat)
    assert psd_check(q) == oracles.psd_elimination(mat)
    assert _cholesky_certifies(q) == oracles.cholesky_certifies_fractions(mat)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices(), st.binary(max_size=3))
def test_scale_rows_reads_the_upper_triangle_as_the_dense_matrix(mat, type_key):
    n = len(mat)
    block = CertificateBlock(
        type_key, n, tuple(mat[i][j] for i in range(n) for j in range(i, n))
    )
    dense = oracles.dense_block(block)
    assert dense == mat
    q = scale_rows(block)
    assert q == oracles.scale_rows_dense(dense)
    assert psd_check(q) == oracles.psd_elimination(dense)


@st.composite
def factors_and_residual_margins(draw, max_n=6):
    """(Q, lint, margins): Q = lint lint^T / 2**(2 SCALE_SHIFT) + R, where row
    i of R has R_ii - sum_{j != i} |R_ij| = margins[i], and some rows of Q
    are zero."""
    n = draw(st.integers(1, max_n))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    big = 2 ** (SCALE_SHIFT + 1)
    lint = [[0] * n for _ in range(n)]
    for i in range(n):
        if i not in zero:
            lint[i][: i + 1] = [draw(st.integers(-big, big)) for _ in range(i + 1)]
    r = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if i not in zero and j not in zero:
                r[i][j] = r[j][i] = draw(rationals())
    margins = []
    for i in range(n):
        if i in zero:
            margins.append(F(0))
            continue
        # dominant with equality, by a hair, or short of it by a hair
        margin = draw(st.just(F(0)) | st.builds(Fraction, st.sampled_from([-1, 1]), denominators))
        r[i][i] = sum((abs(x) for j, x in enumerate(r[i]) if j != i), F(0)) + margin
        margins.append(margin)
    scale = 1 << (2 * SCALE_SHIFT)
    q = [
        [
            Fraction(sum(a * b for a, b in zip(lint[i], lint[j])), scale) + r[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return q, lint, margins


@settings(max_examples=200, deadline=None)
@given(factors_and_residual_margins())
def test_integer_residual_decision_matches_the_fraction_oracle(case):
    q, lint, margins = case
    want = all(x >= 0 for x in margins)
    assert oracles.residual_dominant_fractions(q, lint) == want
    assert _residual_dominant(scaled_upper(q), lint) == want


PROGRAM_FAMILIES = ["F32,C5_3_MINUS", "C4_3,F5_BAR", ""]


@st.composite
def m5_certificates(draw):
    """A certificate over an m=5 default-type program with random positive
    definite blocks, and each constraint's value obj(F) + sum_t <Q_t, P_t(F)>
    summed in Fractions."""
    family = families.parse_family(draw(st.sampled_from(PROGRAM_FAMILIES)))
    model = assemble(5, family, use_default_types=True)
    blocks = []
    for sigma, d in zip(default_types(5, family), (block.dim for block in model.blocks)):
        rows = [[draw(rationals(2**10)) for _ in range(d)] for _ in range(d)]
        mat = _gram(rows)
        shift = draw(st.builds(Fraction, st.integers(1, 2**10), denominators))
        for i in range(d):
            mat[i][i] += shift
        blocks.append(oracles.upper_block(mat, sigma.canon_key))
    values = []
    for idx, obj in enumerate(model.obj):
        total = obj
        for block, program_block in zip(blocks, model.blocks):
            total += oracles.inner_product_fractions(
                oracles.dense_block(block),
                program_block.matrices.get(idx, ()),
                program_block.denominator,
            )
        values.append(total)
    cert = Certificate(F(0), model.family_key, 5, tuple(blocks), ())
    return cert, values


@settings(max_examples=40, deadline=None)
@given(m5_certificates(), st.builds(Fraction, st.integers(0, 2**10), denominators))
def test_verify_margins_equal_the_fraction_sums(case, below):
    cert, values = case
    # at u = the largest value every margin is >= 0; slacks that equal the
    # Fraction margins draw no mismatch note, so the margins agree exactly
    bound = max(values)
    slacks = tuple(bound - v for v in values)
    res = verify(cert._replace(bound=bound, slacks=slacks))
    assert res.ok and res.notes == ()
    # below it, the first negative margin is reported with its exact value
    if below:
        bound -= below
        first = next(idx for idx, v in enumerate(values) if bound - v < 0)
        slacks = tuple(max(F(0), s - below) for s in slacks)
        res = verify(cert._replace(bound=bound, slacks=slacks))
        assert not res.ok
        assert res.reason.startswith(f"constraint fails at graph {first} ")
        assert res.reason.endswith(f": margin {bound - values[first]}")


# ---------------------------------------------------------------------------
# LP certificates


def test_lp_certificate_verifies_m4():
    cert = lp_certificate(4, fam("C4_3"))
    res = verify(cert)
    assert res.ok
    assert res.bound == Fraction(3, 4)
    assert res.notes == ()


def test_lp_certificate_verifies_m5_pair():
    cert = lp_certificate(5, fam("F32", "C5_3_MINUS"))
    res = verify(cert)
    assert res.ok and res.bound == Fraction(3, 5)


def test_undershooting_bound_rejected_names_culprit():
    cert = lp_certificate(4, fam("C4_3"))
    bad = Certificate(
        bound=Fraction(7, 10),
        family_key=cert.family_key,
        m=4,
        blocks=(),
        slacks=tuple(max(Fraction(0), Fraction(7, 10) - Fraction(3, 4) + s) for s in cert.slacks),
    )
    res = verify(bad)
    assert not res.ok
    # the offender is the 3-edge graph, the unique admissible one with obj 3/4
    targets = enumerate_free(4, [named_graph("C4_3")])
    culprits = [t for t in targets if len(t.edges) == 3]
    assert len(culprits) == 1
    assert culprits[0].canon_key.hex() in res.reason


def test_dimension_mismatch_rejected():
    cert = lp_certificate(4, fam("C4_3"))
    short = Certificate(cert.bound, cert.family_key, 4, (), cert.slacks[:-1])
    assert not verify(short).ok


def test_negative_slack_rejected():
    cert = lp_certificate(4, fam("C4_3"))
    slacks = list(cert.slacks)
    slacks[0] = -slacks[0] if slacks[0] else Fraction(-1, 8)
    res = verify(Certificate(cert.bound, cert.family_key, 4, (), tuple(slacks)))
    assert not res.ok and "negative slack" in res.reason


def test_slack_mismatch_is_note_not_rejection():
    cert = lp_certificate(4, fam("C4_3"))
    slacks = list(cert.slacks)
    nz = [i for i, s in enumerate(slacks) if s > 0]
    assert len(nz) >= 2
    half = slacks[nz[0]] / 2
    slacks[nz[0]] = half
    slacks[nz[1]] += half / 3
    res = verify(Certificate(cert.bound, cert.family_key, 4, (), tuple(slacks)))
    # one summary note: how many slacks differ, and by at most how much
    assert res.ok
    assert res.notes == (
        f"2 stated slacks differ from the recomputed margins, by at most {half}",
    )


# ---------------------------------------------------------------------------
# SOS certificates


def test_sos_certificate_verifies():
    family = fam("C4_3")
    cert = make_sos_certificate(4, family)
    assert cert.blocks
    res = verify(cert)
    assert res.ok and res.notes == ()


def test_tamper_fuzz():
    rng = random.Random(4242)
    family = fam("C4_3")
    base_lp = lp_certificate(4, family)
    base_sos = make_sos_certificate(4, family)
    for _ in range(100):
        kind = rng.choice(("negate_slack", "bump_off_diagonal", "lower_bound"))
        if kind == "negate_slack":
            cert = base_lp
            idx = rng.randrange(len(cert.slacks))
            slacks = list(cert.slacks)
            slacks[idx] = -slacks[idx]
            tampered = Certificate(cert.bound, cert.family_key, cert.m, cert.blocks, tuple(slacks))
        elif kind == "bump_off_diagonal":
            cert = base_sos
            wide = [bi for bi, b in enumerate(cert.blocks) if b.dim >= 2]
            bi = rng.choice(wide)
            block = cert.blocks[bi]
            d = block.dim
            i = rng.randrange(d)
            j = rng.randrange(d)
            if i == j:
                j = (j + 1) % d
            blocks = list(cert.blocks)
            blocks[bi] = bump_entry(block, i, j, 1)
            tampered = Certificate(cert.bound, cert.family_key, cert.m, tuple(blocks), cert.slacks)
        else:
            cert = rng.choice((base_lp, base_sos))
            tampered = Certificate(
                cert.bound - Fraction(1, 1000),
                cert.family_key,
                cert.m,
                cert.blocks,
                cert.slacks,
            )
        res = verify(tampered)
        if res.ok:
            # a perturbation that survived must be genuinely valid: audit the
            # inequalities with an independent recomputation
            margins = recompute_margins(tampered, family)
            assert all(v >= 0 for v in margins)
            assert all(c >= 0 for c in tampered.slacks)
            for block in tampered.blocks:
                assert oracles.psd_elimination(oracles.dense_block(block))


def test_perturbed_off_diagonal_small_identity_rejected_psd():
    family = fam("C4_3")
    cert = make_sos_certificate(4, family, scale=Fraction(1, 8))
    bi = next(i for i, b in enumerate(cert.blocks) if b.dim >= 2)
    block = cert.blocks[bi]
    blocks = list(cert.blocks)
    blocks[bi] = bump_entry(block, 0, 1, 1)
    res = verify(
        Certificate(cert.bound, cert.family_key, cert.m, tuple(blocks), cert.slacks)
    )
    assert not res.ok and "semidefinite" in res.reason


def test_verify_order_independent_and_deterministic():
    family = fam("F32", "C5_3_MINUS")
    cert = lp_certificate(5, family)
    r1 = verify(cert)
    r2 = verify(cert)
    assert r1 == r2 and r1.ok


# ---------------------------------------------------------------------------
# File format


def test_certificate_round_trip(tmp_path):
    family = fam("C4_3")
    for cert in (lp_certificate(4, family), make_sos_certificate(4, family)):
        path = tmp_path / "cert.txt"
        save_certificate(cert, str(path))
        again = load_certificate(str(path))
        assert again == cert
        assert verify(again).ok


@pytest.mark.parametrize("m", [-1, 0, 1, 2, 8, 9])
def test_verify_rejects_m_out_of_range(m):
    # m <= 2 has one graph, the empty one, so one slack gets past the count
    cert = Certificate(bound=F(1), family_key="", m=m, blocks=(), slacks=(F(1),))
    result = verify(cert)
    assert not result.ok and f"m={m} is outside" in result.reason


def test_certificate_text_parse_errors():
    with pytest.raises(ValueError):
        certificate_from_text("family C4_3\nm 4\n")  # missing bound
    with pytest.raises(ValueError):
        certificate_from_text("bound 1/2\nfamily none\nm 4\ntype ff dim 2\n1 0\n")
    good = certificate_to_text(lp_certificate(4, fam("C4_3")))
    with pytest.raises(ValueError):
        certificate_from_text(good + "slack 100000000 0\n")  # index out of order
    assert certificate_from_text(good + "# trailing comment\n") == certificate_from_text(good)


@pytest.mark.parametrize("family_line", ["", "family\n"], ids=["no-family-line", "bare-family-line"])
def test_certificate_needs_a_family_value(family_line):
    # read as the empty family, this LP certificate would verify bound 1
    text = certificate_to_text(lp_certificate(4)).replace("family none\n", family_line)
    assert "bound 1\n" in text and "m 4\n" in text
    with pytest.raises(ValueError, match="family"):
        certificate_from_text(text)


def test_certificate_rejects_a_repeated_header_line():
    text = "bound 1/2\nfamily none\nm 4\n"
    for line in ("bound 3/4", "family none", "family C4_3", "m 5"):
        with pytest.raises(ValueError, match=f"^repeated {line.split()[0]} line: '{line}'$"):
            certificate_from_text(text + line + "\n")
    # two blocks of one type are two PSD terms, which is sound
    cert = certificate_from_text(text + "type ff dim 1\n1\ntype ff dim 1\n2\n")
    assert [block.type_key for block in cert.blocks] == [b"\xff", b"\xff"]


@pytest.mark.parametrize(
    "token, message",
    [
        ("1e5", "'1e5' is not a rational p/q"),
        ("1/0", "'1/0' has a zero denominator"),
        ("1.5.2", "Invalid literal for Fraction: '1.5.2'"),
    ],
)
def test_certificate_reports_a_malformed_token_first_seen_late(token, message):
    # the last block entry and the last slack of a certificate whose values repeat
    lines = certificate_to_text(make_sos_certificate(5, fam("C4_3", "F5_BAR"))).splitlines()
    last_entry = max(k for k, line in enumerate(lines) if line.split()[0][0] in "-0123456789")
    for k in (last_entry, len(lines) - 1):
        bad = list(lines)
        bad[k] = " ".join(bad[k].split()[:-1] + [token])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            certificate_from_text("\n".join(bad) + "\n")


def test_block_from_upper_triangle():
    block = CertificateBlock(b"\x01", 3, tuple(F(n) for n in range(1, 7)))
    assert scale_rows(block) == ([[1, 2, 3], [2, 4, 5], [3, 5, 6]], [1, 1, 1])
    # each row over the lcm of its own denominators
    block = CertificateBlock(b"", 2, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
    assert scale_rows(block) == ([[3, 2], [4, 3]], [6, 12])
    assert scale_rows(CertificateBlock(b"", 0, ())) == ([], [])


@pytest.mark.parametrize(
    "dim, count, message",
    [
        (2, 2, "type block expects 3 upper-triangle entries, got 2"),
        (10**9, 1, "type block expects 500000000500000000 upper-triangle entries, got 1"),
        (-2, 1, "type block dimension -2 is negative"),
    ],
)
def test_block_from_upper_checks_the_count_first(dim, count, message):
    with pytest.raises(ValueError, match=message):
        CertificateBlock(b"", dim, (F(0),) * count)
    text = f"bound 1/2\nfamily none\nm 4\ntype ff dim {dim}\n" + "0 " * count + "\n"
    with pytest.raises(ValueError, match=message):
        certificate_from_text(text)


def test_verify_reuses_the_tables_assemble_built(tmp_path, capsys):
    # emit-sdp, then verify, in one process: verify builds no table and
    # enumerates no level that emit-sdp did not.
    from turan3.density import _build_table
    from turan3.enumeration import _generate_free

    def misses():
        return _build_table.cache_info().misses, _generate_free.cache_info().misses

    _build_table.cache_clear()
    argv = ["--m", "5", "--forbid", "C4_3,F5_BAR", "--types", "default"]
    assert main(["emit-sdp", *argv, "--out", str(tmp_path / "m5.sdp")]) == 0
    capsys.readouterr()
    built = misses()
    assert built[0] > 0
    cert = make_sos_certificate(5, fam("C4_3", "F5_BAR"))
    assert cert.blocks
    save_certificate(cert, str(tmp_path / "cert.txt"))
    assert main(["verify", "--cert", str(tmp_path / "cert.txt")]) == 0
    assert capsys.readouterr().out.startswith("VERIFIED")
    assert misses() == built


def test_verify_scales_each_block_once(monkeypatch):
    import turan3.certificate as certificate_mod

    cert = make_sos_certificate(5, fam("C4_3", "F5_BAR"))
    assert len(cert.blocks) > 1
    scaled = []
    scale = certificate_mod.scale_rows
    monkeypatch.setattr(
        certificate_mod, "scale_rows", lambda block: scaled.append(block) or scale(block)
    )
    assert verify(cert).ok
    assert len(scaled) == len(cert.blocks)
    assert all(a is b for a, b in zip(scaled, cert.blocks))


def test_non_builtin_member_survives_the_certificate_text():
    g = from_edges(4, [(0, 1, 2), (0, 1, 3)])
    family = families.parse_family(g.canon_key.hex())
    cert = certificate_from_text(certificate_to_text(lp_certificate(4, family)))
    assert cert.family_key == g.canon_key.hex()
    assert verify(cert).ok
