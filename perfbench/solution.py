"""Seeded stand-in for an external SDP solver, and the certificate it implies.

The benchmark cannot call a real solver, so it writes a solution file that
`turan3 round` turns into a certificate `turan3 verify` accepts:

* each PSD block is a seeded random positive-definite float matrix
  A A^T / (64 d) + I / 10, whose smallest eigenvalue (>= 1/10) is far above
  the per-entry rounding error at the benchmark's denominator bound, so the
  rounded block stays PSD;
* the bound u is written just above the exact largest constraint value
  max_F obj(F) + sum_t <Q_t, P_t(F)>, taken over the rounded blocks Q_t, so
  every margin the verifier recomputes is nonnegative.

The program file is parsed here, not through turan3, and the expected
certificate text is rebuilt here from the file format, so the correctness
gate does not rest on the code it checks. Only the standard library is used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

DEN_BOUND = 1024


@dataclass(frozen=True)
class Program:
    m: int
    family_key: str
    type_keys: tuple[str, ...]
    type_dims: tuple[int, ...]
    obj: tuple[Fraction, ...]
    # per constraint: (type block index, i, j, pair-density entry) with i <= j
    pair_entries: tuple[tuple[tuple[int, int, int, Fraction], ...], ...]


def parse_program(text: str) -> Program:
    """Read the parts of an .sdp file the generator needs (see README format)."""
    header: dict[str, list[str]] = {}
    rows: list[list[str]] = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] in {"m", "family", "nblocks", "blockdims", "typekeys", "nconstraints"}:
            header[parts[0]] = parts[1:]
        else:
            rows.append(parts)
    dims = [int(d) for d in header["blockdims"]]
    k = int(header["nconstraints"][0])
    type_dims = tuple(dims[1:-1])
    obj: list[Fraction] = [Fraction(0)] * k
    entries: list[list[tuple[int, int, int, Fraction]]] = [[] for _ in range(k)]
    for r, b, i, j, value in rows:
        r, b = int(r), int(b)
        if r == 0:
            continue
        if b == 0:
            obj[r - 1] = Fraction(value)
        elif 2 <= b < len(dims):
            entries[r - 1].append((b - 2, int(i), int(j), -Fraction(value)))
    family = header["family"][0]
    return Program(
        m=int(header["m"][0]),
        family_key="" if family == "none" else family,
        type_keys=tuple(header.get("typekeys", [])),
        type_dims=type_dims,
        obj=tuple(obj),
        pair_entries=tuple(tuple(e) for e in entries),
    )


def random_pd_block(rng: random.Random, d: int) -> list[list[float]]:
    a = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)]
    scale = 64.0 * d
    return [
        [
            sum(x * y for x, y in zip(a[i], a[j])) / scale + (0.1 if i == j else 0.0)
            for j in range(d)
        ]
        for i in range(d)
    ]


def smallest_upper_rational(x: Fraction, max_den: int) -> Fraction:
    """Smallest p/q >= x with q <= max_den, by trying every denominator."""
    return min(
        Fraction(-((-x.numerator * q) // x.denominator), q) for q in range(1, max_den + 1)
    )


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Synthetic:
    solution_text: str  # what the stand-in solver writes
    certificate_text: str  # what `round --den-bound DEN_BOUND` must write
    bound: Fraction  # what `verify` must report


def synthesize(program_text: str, seed: int) -> Synthetic:
    prog = parse_program(program_text)
    rng = random.Random(seed)
    floats: list[float] = []
    blocks: list[list[list[Fraction]]] = []
    for d in prog.type_dims:
        mat = random_pd_block(rng, d)
        upper = [mat[i][j] for i in range(d) for j in range(i, d)]
        floats.extend(upper)
        rounded = iter(Fraction(x).limit_denominator(DEN_BOUND) for x in upper)
        q = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                q[i][j] = q[j][i] = next(rounded)
        blocks.append(q)
    values = []
    for obj, entries in zip(prog.obj, prog.pair_entries):
        v = obj
        for t, i, j, pij in entries:
            v += pij * blocks[t][i][j] * (1 if i == j else 2)
        values.append(v)
    top = max(values)
    u_float = math.nextafter(float(top), math.inf)
    while Fraction(u_float) < top:
        u_float = math.nextafter(u_float, math.inf)
    slack_floats = [float(Fraction(u_float) - v) for v in values]
    solution = [u_float] + floats + slack_floats

    bound = smallest_upper_rational(Fraction(u_float), DEN_BOUND)
    lines = [
        f"bound {frac_str(bound)}",
        f"family {prog.family_key if prog.family_key else 'none'}",
        f"m {prog.m}",
    ]
    for key, q in zip(prog.type_keys, blocks):
        d = len(q)
        lines.append(f"type {key} dim {d}")
        lines.extend(" ".join(frac_str(q[i][j]) for j in range(i, d)) for i in range(d))
    for idx, x in enumerate(slack_floats):
        c = max(Fraction(0), Fraction(x).limit_denominator(DEN_BOUND))
        lines.append(f"slack {idx} {frac_str(c)}")
    return Synthetic(
        solution_text="\n".join(repr(x) for x in solution) + "\n",
        certificate_text="\n".join(lines) + "\n",
        bound=bound,
    )
