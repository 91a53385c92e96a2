import hashlib
import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from turan3 import families
from turan3.density import pair_density_table
from turan3.enumeration import enumerate_free
from turan3.graphs import decode_key, from_edges, named_graph, subset_codes
import oracles
from cert_helpers import lp_certificate
from oracles import spanning_profile
from turan3.sdp import (
    ProgramBlock,
    SdpModel,
    assemble,
    best_rational,
    default_types,
    emit,
    model_from_text,
    model_to_text,
    parse_sdp,
    rational_upper_bound,
    round_solution,
)


def fam(*names):
    return families.parse_family(",".join(names))


def random_graph(n, prob, rng):
    edges = [t for t in combinations(range(n), 3) if rng.random() < prob]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# Assembly


def test_lp_bound_c4_free_m4():
    model = assemble(4, fam("C4_3"))
    assert model.lp_value() == Fraction(3, 4)
    assert model.n_constraints == 4


def test_lp_bound_m5_pair_family():
    model = assemble(5, fam("F32", "C5_3_MINUS"))
    value = model.lp_value()
    assert value >= Fraction(2, 9)
    assert value == Fraction(3, 5)  # max edges 6 of 10, frozen from enumeration


def test_lp_value_matches_direct_enumeration():
    members = [named_graph("C4_3"), named_graph("F5_BAR")]
    model = assemble(5, fam("C4_3", "F5_BAR"))
    direct = max(Fraction(len(g.edges), comb(5, 3)) for g in enumerate_free(5, members))
    assert model.lp_value() == direct


def test_objective_expansion_identity():
    # sum_F obj(F) p(F,H) equals the edge density of H, exactly
    rng = random.Random(12)
    model = assemble(5)
    targets = enumerate_free(5)
    for _ in range(8):
        h = random_graph(7, rng.random(), rng)
        prof = spanning_profile(h, 5)
        total = comb(7, 5)
        via = sum(
            o * Fraction(prof.get(t.canon_key, 0), total)
            for o, t in zip(model.obj, targets)
        )
        assert via == Fraction(len(h.edges), comb(7, 3))


def test_assemble_rejects_impossible_family():
    only_edge = from_edges(3, [(0, 1, 2)])
    empty3 = from_edges(3, [])
    family = families.parse_family(f"{only_edge.canon_key.hex()},{empty3.canon_key.hex()}")
    # forbidding both 3-vertex graphs leaves nothing on 3 vertices
    with pytest.raises(ValueError):
        assemble(3, family)


def test_assemble_clears_the_subset_codes():
    # the tables are memoised, so the codes serve no later assembly
    subset_codes(named_graph("F5"), 3)
    assemble(4, fam("C4_3"), use_default_types=True)
    assert subset_codes.cache_info().currsize == 0


def test_assemble_rejects_oversized_types():
    for size in (2, 7):  # wrong parity for m=5; above m
        with pytest.raises(ValueError, match=f"type of size {size} does not fit in m=5"):
            assemble(5, (), types=[from_edges(size, [])])


def test_default_types_m5():
    family = fam("C4_3", "F5_BAR")
    types = default_types(5, family)
    assert sorted(t.n for t in types) == [1, 3, 3]
    model = assemble(5, family, use_default_types=True)
    assert [block.dim for block in model.blocks] == [2, 8, 7]
    assert model.n_constraints == 22


def test_adding_types_never_raises_lp_floor():
    # certificate dominance form of monotonicity: the typed model still
    # admits the LP certificate's bound (all-zero matrices), so its optimum
    # is at most the LP optimum
    family = fam("C4_3")
    lp = assemble(4, family)
    typed = assemble(4, family, use_default_types=True)
    u = lp.lp_value()
    for fi in range(typed.n_constraints):
        margin = u - typed.obj[fi]
        assert margin >= 0  # zero matrices realize the LP bound in the typed model


# ---------------------------------------------------------------------------
# Emission round-trip


# SHA-256 of the program text for the three paper families with the default
# types, recorded before the tables were built from root sets.
PROGRAM_DIGESTS = {
    (5, "C4_3,F5_BAR"): "1e42f37b2920152ded5505e2b39f3c1b006208102c0072c384b639269408b5b6",
    (5, "F32,C5_3_MINUS"): "ce28795cef7b3472cf4a189fc842da3838c1985924ea1828262b88b5caecc5ed",
    (5, "F32,induced:F32_BAR"): "5b832b887432a6952528a5cf08f9f8d865545c16bed410772e42ec29b5ae57c5",
    (6, "C4_3,F5_BAR"): "bd1e77d0749d3d1d0ba1fedd1cf6115b66efa981f65c2febb0f58a13034debd0",
    (6, "F32,C5_3_MINUS"): "4ac4853765228f55d56f737f6967ed87d778db70ce9718c371ec1b9c2afd63e7",
    (6, "F32,induced:F32_BAR"): "a0bd9cb4ff039194e73e239ee52b9f9926fdef416b7e72a152aa9db95aeb1ad0",
}


@pytest.mark.parametrize("m, spec", sorted(PROGRAM_DIGESTS))
def test_default_program_text_is_pinned(m, spec):
    model = assemble(m, families.parse_family(spec), use_default_types=True)
    digest = hashlib.sha256(model_to_text(model).encode()).hexdigest()
    assert digest == PROGRAM_DIGESTS[m, spec]


@pytest.mark.parametrize("m, spec", sorted(PROGRAM_DIGESTS))
def test_default_program_text_reads_back(m, spec):
    # assemble reuses the tables the digest test above built: pair-density
    # tables are kept per process
    model = assemble(m, families.parse_family(spec), use_default_types=True)
    assert model_from_text(model_to_text(model)) == model


@pytest.mark.parametrize("m, spec", sorted(PROGRAM_DIGESTS))
def test_default_program_holds_integer_counts(m, spec):
    # every table, model and reader entry is an int count over its block's
    # denominator, which is the oracle's formula for the block's type size
    family = families.parse_family(spec)
    model = assemble(m, family, use_default_types=True)
    read = model_from_text(model_to_text(model))
    sizes = [decode_key(block.type_key).n for block in model.blocks]
    want = [oracles.pair_denominator_formula(m, s) for s in sizes]
    assert [b.denominator for b in model.blocks] == [b.denominator for b in read.blocks] == want
    tables = [pair_density_table(sigma, m, family) for sigma in default_types(m, family)]
    assert sorted(table.denominator for table in tables if table.flags) == sorted(want)
    matrices = [mat for table in tables for mat in table.matrices] + [
        mat for each in (model, read) for block in each.blocks for mat in block.matrices.values()
    ]
    assert all(type(c) is int for mat in matrices for row in mat for _, c in row)


def test_emit_parse_round_trip_lp(tmp_path):
    model = assemble(4, fam("C4_3"))
    path = tmp_path / "lp.sdp"
    emit(model, str(path))
    again = parse_sdp(str(path))
    assert again == model
    text = path.read_text()
    assert "blockdims -1 -4" in text  # LP case: only diagonal blocks


def test_emit_parse_round_trip_typed(tmp_path):
    model = assemble(5, fam("C4_3", "F5_BAR"), use_default_types=True)
    path = tmp_path / "typed.sdp"
    emit(model, str(path))
    again = parse_sdp(str(path))
    assert again == model


def test_single_type_block_declared(tmp_path):
    model = assemble(4, fam("C4_3"), use_default_types=True)
    assert [block.dim for block in model.blocks] == [1, 2]  # empty type then the 2-vertex type
    path = tmp_path / "m4.sdp"
    emit(model, str(path))
    text = path.read_text()
    assert "blockdims -1 1 2 -4" in text
    assert parse_sdp(str(path)) == model


def test_parse_rejects_malformed():
    model = assemble(4, fam("C4_3"))
    text = model_to_text(model)
    with pytest.raises(ValueError):
        model_from_text(text.replace("blockdims -1 -4", "blockdims -1 2 -4"))
    with pytest.raises(ValueError):
        model_from_text(text.replace("0 1 0 0 1", "0 1 0 0 2"))


def _lp_text_lines():
    return model_to_text(assemble(4, fam("C4_3"))).splitlines()


def _parse_lines(lines):
    return model_from_text("\n".join(lines) + "\n")


def test_parse_rejects_a_constant_term_off_the_corner():
    lines = _lp_text_lines()
    lines[lines.index("1 0 0 0 0")] = "1 0 3 5 0"
    with pytest.raises(ValueError, match=r"^constant term not at \(0, 0\): entry \(1, 0, 3, 5\)$"):
        _parse_lines(lines)


@pytest.mark.parametrize(
    "line, entry",
    [
        ("0 1 0 0 1", (0, 1, 0, 0)),  # the objective row
        ("2 0 0 0 1/4", (2, 0, 0, 0)),  # a constant term: 3/4 is read first
        ("2 0 0 0 3/4", (2, 0, 0, 0)),  # the same line again
        ("3 1 0 0 1", (3, 1, 0, 0)),  # the bound block
        ("4 2 3 3 -1", (4, 2, 3, 3)),  # a slack
    ],
)
def test_parse_rejects_a_repeated_entry(line, entry):
    lines = _lp_text_lines()
    with pytest.raises(ValueError, match=rf"^repeated entry {re.escape(str(entry))}$"):
        _parse_lines(lines + [line])


def test_parse_rejects_a_repeated_pair_density_entry():
    model = assemble(4, fam("C4_3"), use_default_types=True)
    lines = model_to_text(model).splitlines()
    first = next(line for line in lines if line.split()[1] == "3")
    r, b, i, j, _ = first.split()
    lines.insert(lines.index(first) + 1, f"{r} {b} {i} {j} -7/3")
    with pytest.raises(ValueError, match=rf"^repeated entry \({r}, {b}, {i}, {j}\)$"):
        _parse_lines(lines)


@pytest.mark.parametrize("token", ["-1/7", "1/24", "-1/48"])
def test_parse_rejects_a_pair_density_value_that_is_not_a_count(token):
    # the 2-vertex type at m=4 has denominator 24: -1/7 is no count over it,
    # 1/24 is the count -1, and -1/48 is half a count
    model = assemble(4, fam("C4_3"), use_default_types=True)
    assert [block.denominator for block in model.blocks] == [6, 24]
    lines = model_to_text(model).splitlines()
    last = max(k for k, line in enumerate(lines) if line.split()[1] == "3")
    lines[last] = " ".join(lines[last].split()[:4] + [token])
    message = f"pair-density value '{token}' is not -c/24 for a count c"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _parse_lines(lines)


@pytest.mark.parametrize(
    "key, message",
    [
        ("0501", "type key 0501: malformed key body"),
        ("05", "type key 05: type of size 5 does not fit in m=4"),
        ("03", "type key 03: type of size 3 does not fit in m=4"),
    ],
)
def test_parse_rejects_a_type_key_that_does_not_decode_or_fit(key, message):
    lines = model_to_text(assemble(4, fam("C4_3"), use_default_types=True)).splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("typekeys "))
    lines[k] = " ".join(["typekeys", key] + lines[k].split()[2:])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _parse_lines(lines)


@pytest.mark.parametrize(
    "token, message",
    [
        ("1e5", "'1e5' is not a rational p/q"),
        ("1/0", "'1/0' has a zero denominator"),
        ("1.5.2", "Invalid literal for Fraction: '1.5.2'"),
    ],
)
def test_parse_reports_a_malformed_token_first_seen_late(token, message):
    # the last pair-density entry of a program whose values repeat
    model = assemble(5, fam("C4_3", "F5_BAR"), use_default_types=True)
    lines = model_to_text(model).splitlines()
    last = max(k for k, line in enumerate(lines) if line.split()[1] not in ("0", "1", "5"))
    assert last > len(lines) - 5
    lines[last] = " ".join(lines[last].split()[:4] + [token])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _parse_lines(lines)


# Small files declaring large sizes: one 2000-dimensional block; a million
# constraints of which only one has its constant-term line; and 1000 PSD
# blocks of dimension 1 with 1000 constraints, each only a constant term.
_LARGE_DECLARATIONS = (
    "m 4\nfamily none\nnblocks 3\nblockdims -1 2000 -1\ntypekeys 00\n"
    "nconstraints 1\n0 1 0 0 1\n1 0 0 0 1/2\n1 1 0 0 1\n1 3 0 0 -1\n",
    "m 4\nfamily none\nnblocks 2\nblockdims -1 -1000000\n"
    "nconstraints 1000000\n0 1 0 0 1\n1 0 0 0 1/2\n1 1 0 0 1\n1 2 0 0 -1\n",
    "m 4\nfamily none\nnblocks 1002\nblockdims -1" + " 1" * 1000 + " -1000\n"
    "typekeys" + " 00" * 1000 + "\nnconstraints 1000\n0 1 0 0 1\n"
    + "".join(f"{r} 0 0 0 1/2\n" for r in range(1, 1001)),
)


@pytest.mark.parametrize(
    "text", _LARGE_DECLARATIONS, ids=["dim-2000", "constraints-1e6", "blocks-by-constraints"]
)
def test_parse_allocation_follows_the_text_not_its_declared_sizes(text):
    tracemalloc.start()
    try:
        try:
            model_from_text(text)
        except ValueError:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_rejects_more_constraints_than_entries():
    with pytest.raises(ValueError, match="nconstraints"):
        model_from_text(_LARGE_DECLARATIONS[1])


def test_parse_drops_an_explicit_zero_pair_density_entry():
    model = assemble(4, fam("C4_3"), use_default_types=True)
    text = model_to_text(model)
    lines = text.splitlines()
    present = {tuple(map(int, line.split()[:4])) for line in lines if line[0].isdigit()}
    b, dim = len(model.blocks) + 1, model.blocks[-1].dim
    r, i, j = next(
        (r, i, j)
        for r in range(1, model.n_constraints + 1)
        for i in range(dim)
        for j in range(i, dim)
        if (r, b, i, j) not in present
    )
    lines.insert(lines.index(f"{r} 1 0 0 1") + 1, f"{r} {b} {i} {j} 0")
    read = model_from_text("\n".join(lines) + "\n")
    assert read == model
    assert model_to_text(read) == text


def test_parse_keeps_a_family_key_with_spaces():
    model = assemble(4, fam("C4_3"))
    text = model_to_text(model).replace("family C4_3", "family C4_3,my f5.txt")
    assert model_from_text(text).family_key == "C4_3,my f5.txt"
    text = model_to_text(model).replace("family C4_3", "family none")
    assert model_from_text(text).family_key == ""


@pytest.mark.parametrize(
    "keyword", ["m", "family", "nblocks", "blockdims", "typekeys", "nconstraints"]
)
def test_parse_rejects_a_repeated_header_line(keyword):
    # a header line appended after the entries would otherwise replace the first
    text = model_to_text(assemble(4, fam("C4_3"), use_default_types=True))
    line = next(line for line in text.splitlines() if line.split()[0] == keyword)
    with pytest.raises(ValueError, match=f"^repeated {keyword} line: {re.escape(repr(line))}$"):
        model_from_text(text + line + "\n")


# ---------------------------------------------------------------------------
# Rounding


def test_round_known_constant():
    assert best_rational(0.465560913085938, 2**16) == Fraction(30511, 65536)


def test_round_simple_cases():
    assert best_rational(0.0, 2**16) == 0
    assert best_rational(0.333333343, 100) == Fraction(1, 3)


def test_rational_upper_bound_small_oracle():
    rng = random.Random(14)
    for _ in range(200):
        x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
        n = rng.randint(1, 50)
        got = rational_upper_bound(x, n)
        # oracle: smallest p/q >= x over all denominators q <= n
        best = None
        for q in range(1, n + 1):
            cand = Fraction(-(-x.numerator * q // x.denominator), q)
            if best is None or cand < best:
                best = cand
        assert got == best
        assert got >= x and got.denominator <= n


@pytest.mark.parametrize("bound", [0, -3])
def test_denominator_bound_below_one_is_rejected(bound):
    model = assemble(4, fam("C4_3"))
    floats = [0.75, 0.75, 0.5, 0.25, 0.0]
    with pytest.raises(ValueError):
        rational_upper_bound(0.75, bound)
    with pytest.raises(ValueError):
        best_rational(0.75, bound)
    with pytest.raises(ValueError):
        round_solution(model, floats, bound)


def test_round_solution_builds_certificate():
    model = assemble(4, fam("C4_3"))
    u = float(model.lp_value())
    floats = [u] + [float(u - o) for o in model.obj]
    cert = round_solution(model, floats, 2**16)
    assert cert.bound == Fraction(3, 4)
    assert cert.blocks == ()
    assert cert.slacks == tuple(Fraction(3, 4) - o for o in model.obj)
    with pytest.raises(ValueError):
        round_solution(model, floats + [0.0], 2**16)


def test_round_solution_clamps_negative_slack():
    model = assemble(4, fam("C4_3"))
    floats = [0.75, 0.75, 0.5, 0.25, -1e-9]
    cert = round_solution(model, floats, 2**10)
    assert cert.slacks[-1] == 0


def test_round_solution_rounds_bound_upward():
    model = assemble(4, fam("C4_3"))
    floats = [0.7499999999, 0.75, 0.5, 0.25, 0.0]
    cert = round_solution(model, floats, 100)
    assert cert.bound >= Fraction(7499999999, 10**10)
    assert cert.bound.denominator <= 100


def test_round_solution_refuses_a_negative_type_dimension():
    model = SdpModel(4, "", (Fraction(1, 2),), (ProgramBlock(b"", -2, 1, {}),))
    with pytest.raises(ValueError, match="type block dimension -2 is negative"):
        round_solution(model, [0.5, 0.0, 0.0])


def test_lp_certificate_shape():
    cert = lp_certificate(5, fam("F32", "C5_3_MINUS"))
    assert cert.bound == Fraction(3, 5)
    assert min(cert.slacks) == 0  # the extremal graph is tight
    assert all(c >= 0 for c in cert.slacks)


# ---------------------------------------------------------------------------
# Rounding against the standard library


ROUNDING_BOUNDS = [1, 2, 7, 100, 1024, 2**16, 2**32]


def _rounding_values(rng, count):
    """Seeded values of each kind rounding meets, both signs, zeros first."""
    values = [0.0, -0.0, 0, Fraction(0)]
    while len(values) < count:
        kind = rng.randrange(5)
        sign = rng.choice((-1, 1))
        if kind == 0:  # a float of magnitude 1e-30 to 1e30
            values.append(math.copysign(10.0 ** rng.uniform(-30, 30), sign))
        elif kind == 1:  # a float near a small rational, as a solver returns it
            values.append(sign * rng.randint(0, 60) / rng.randint(1, 60) + rng.gauss(0, 1e-9))
        elif kind == 2:
            values.append(rng.uniform(-1, 1))
        elif kind == 3:
            values.append(sign * rng.randint(0, 10**12))
        else:  # a Fraction with 9-digit terms
            values.append(Fraction(sign * rng.randint(0, 10**9), rng.randint(1, 10**9)))
    return values


@pytest.mark.parametrize("bound", ROUNDING_BOUNDS)
def test_best_rational_matches_limit_denominator(bound):
    # 20,000 values per bound, 140,000 in all
    for x in _rounding_values(random.Random(bound), 20_000):
        assert best_rational(x, bound) == oracles.limit_denominator_stdlib(x, bound), x


def _farey(n):
    """The fractions in [0, 1] with denominator at most n, in order."""
    return sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})


def test_best_rational_breaks_ties_as_limit_denominator_does():
    # the midpoint of two Farey neighbours of order n is equally far from
    # both, and no other fraction with denominator <= n lies between them
    ties = 0
    for n in range(1, 41):
        farey = _farey(n)
        for a, b in zip(farey, farey[1:]):
            for shift in (-3, 0, 2):
                for lo, hi in ((a + shift, b + shift), (-b - shift, -a - shift)):
                    mid = (lo + hi) / 2
                    got = best_rational(mid, n)
                    assert got == oracles.limit_denominator_stdlib(mid, n), (mid, n)
                    if mid.denominator > n:
                        assert got in (lo, hi)
                        ties += 1
    assert ties > 20_000


@pytest.mark.parametrize("bound", [1, 2, 7, 100])
def test_rational_upper_bound_matches_the_brute_force_oracle_on_signed_values(bound):
    for x in _rounding_values(random.Random(100 + bound), 1000):
        got = rational_upper_bound(x, bound)
        assert got == oracles.smallest_rational_above_brute(x, bound), x
