"""Command-line interface.

Subcommands: enumerate, construct, density, emit-sdp, round, verify,
partition.  Output rows are tab-separated (--human labels them); enumerate's
graph blocks and verify's verdict are the same either way.  Every numeric
value is an exact rational p/q or a 50-digit decimal.  Exit codes: 0
success, 1 domain error (bad input data, rejected certificate), 2 usage error.

Each subcommand accepts --config FILE with plain key=value lines, which may
set any option, required ones too; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import sys
from decimal import localcontext

from . import certificate as certificate_mod
from . import constructions, families, graphs, partition, sdp
from .density import edge_density, fraction_text, p, parse_fraction, to_decimal
from .enumeration import SOFT_VERTEX_LIMIT, enumerate_free


def _emit_rows(rows: list[tuple[str, str]], human: bool) -> None:
    for key, value in rows:
        print(f"{key}: {value}" if human else f"{key}\t{value}")


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw, line in graphs.content_lines(graphs.read_text(path)):
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValueError(f"config key {key!r} is given twice")
        values[key] = value.strip()
    return values


_SWITCH_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict[str, object]:
    """The --config file's values, converted, as defaults for parser.

    A value is converted by its option's type (str if it has none) and
    checked against its choices, as argparse would treat the flag; a switch
    (store_true) reads 1/true/yes/on or 0/false/no/off.
    """
    actions = {a.dest: a for a in parser._actions if a.default is not argparse.SUPPRESS}
    defaults: dict[str, object] = {}
    for key, text in _read_config(path).items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        action = actions[key]
        if isinstance(action.default, bool):
            if text.lower() not in _SWITCH_WORDS:
                raise ValueError(f"config key {key!r}: {text!r} is not a yes/no word")
            defaults[key] = _SWITCH_WORDS[text.lower()]
        else:
            try:
                defaults[key] = (action.type or str)(text)
            except ValueError:
                raise ValueError(f"config key {key!r}: invalid value {text!r}") from None
        if action.choices is not None and defaults[key] not in action.choices:
            raise ValueError(f"config key {key!r}: invalid choice {text!r}")
    return defaults


# ---------------------------------------------------------------------------
# Subcommands


def cmd_enumerate(args, parser) -> int:
    family = families.parse_family(args.forbid)
    members = [fm.graph for fm in family]
    flags = [fm.induced for fm in family]
    if args.m > SOFT_VERTEX_LIMIT and not args.allow_large:
        raise ValueError(
            f"m={args.m} exceeds the soft limit {SOFT_VERTEX_LIMIT}; pass --allow-large"
        )
    found = enumerate_free(args.m, members, flags, allow_large=args.allow_large)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for idx, g in enumerate(found):
            print(f"graph {idx}", file=out)
            out.write(graphs.graph_to_text(g))
        print(f"count {len(found)}", file=out)
    finally:
        if args.out:
            out.close()
    return 0


def _integers(text: str, what: str) -> list[int]:
    """The comma-separated integers of text; a bad item is named as what."""
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise ValueError(f"{what} {item!r} is not an integer") from None
    return values


def _construction_spec(args) -> constructions.ConstructionSpec:
    """The validated spec, so a bad one is refused even with no action."""
    cls = constructions.KINDS[args.kind]
    if cls is constructions.BRec:
        if args.parts:
            raise ValueError("brec takes no --parts; give --n")
        if args.n is None:
            raise ValueError("brec needs --n")
        if args.splits:
            spec = constructions.BRec(args.n, tuple(_integers(args.splits, "--splits value")))
        else:
            spec = constructions.optimal_brec(args.n)
    else:
        if args.n is not None or args.splits:
            raise ValueError(f"{args.kind} takes no --n or --splits; give --parts")
        if not args.parts:
            raise ValueError(f"{args.kind} needs --parts with comma-separated sizes")
        parts = _integers(args.parts, "--parts value")
        count = cls.pattern.parts
        if len(parts) != count:
            raise ValueError(f"{args.kind} needs exactly {count} part sizes")
        spec = cls(*parts)
    constructions.validate(spec)
    return spec


def cmd_construct(args, parser) -> int:
    spec = _construction_spec(args)
    rows: list[tuple[str, str]] = []
    if args.report:
        rep = constructions.density_report(spec)
        with localcontext() as ctx:
            ctx.prec = 50
            density_decimal = str(to_decimal(rep.density))
        rows += [
            ("kind", rep.kind),
            ("n", str(rep.n)),
            ("edges", str(rep.edges)),
            ("density", fraction_text(rep.density)),
            ("density_decimal", density_decimal),
            (
                "limit_density",
                rep.limit if isinstance(rep.limit, str) else fraction_text(rep.limit),
            ),
        ]
        if isinstance(spec, constructions.BRec):
            rows.append(("splits", ",".join(str(s) for s in spec.splits)))
    h = None
    if args.emit or args.check_free:
        h = constructions.build(spec)
    if args.emit:
        graphs.save_graph(h, args.emit)
        rows.append(("emitted", args.emit))
    if args.check_free:
        all_free = True
        for fm in families.parse_family(args.check_free):
            found, witness = graphs.exhaustive_containment_scan(h, fm.graph, fm.induced)
            label = fm.label()
            if found:
                all_free = False
                rows.append((f"contains {label}", ",".join(map(str, witness))))
            else:
                rows.append((f"free of {label}", "yes"))
        rows.append(("family_free", "yes" if all_free else "no"))
    _emit_rows(rows, args.human)
    return 0


def cmd_density(args, parser) -> int:
    h = families.resolve_graph(args.graph)
    rows = []
    if args.edge_density:
        rows.append(("edge_density", fraction_text(edge_density(h))))
    if args.sub:
        f = families.resolve_graph(args.sub)
        rows.append((f"p {args.sub}", fraction_text(p(f, h))))
    if not rows:
        raise ValueError("nothing to do: pass --edge-density and/or --sub")
    _emit_rows(rows, args.human)
    return 0


def _parse_type_selection(selection: str, m: int, family) -> list:
    if selection == "none":
        return []
    if selection == "default":
        return sdp.default_types(m, family)
    return sdp.types_of_sizes(m, _integers(selection, "type size"), family)


def cmd_emit_sdp(args, parser) -> int:
    family = families.parse_family(args.forbid)
    types = _parse_type_selection(args.types, args.m, family)
    model = sdp.assemble(args.m, family, types=types)
    sdp.emit(model, args.out)
    rows = [
        ("written", args.out),
        ("constraints", str(model.n_constraints)),
        ("psd_blocks", str(len(model.blocks))),
        ("block_dims", ",".join(str(block.dim) for block in model.blocks) or "-"),
    ]
    if not model.blocks:
        rows.append(("lp_bound", fraction_text(model.lp_value())))
    _emit_rows(rows, args.human)
    return 0


def cmd_round(args, parser) -> int:
    if args.den_bound < 1:
        parser.error(f"--den-bound must be at least 1, got {args.den_bound}")
    model = sdp.parse_sdp(args.model)
    floats = sdp.read_solution(args.solution)
    cert = sdp.round_solution(model, floats, args.den_bound)
    certificate_mod.save_certificate(cert, args.out)
    _emit_rows(
        [("written", args.out), ("bound", fraction_text(cert.bound))], args.human
    )
    return 0


def cmd_verify(args, parser) -> int:
    cert = certificate_mod.load_certificate(args.cert)
    result = certificate_mod.verify(cert)
    if result.ok:
        print(f"VERIFIED bound={fraction_text(result.bound)}")
        for note in result.notes:
            print(f"note\t{note}")
        return 0
    print(f"REJECTED {result.reason}")
    return 1


def cmd_partition(args, parser) -> int:
    if args.restarts < 1:
        parser.error(f"--restarts must be at least 1, got {args.restarts}")
    xi = parse_fraction(args.xi)
    h = families.resolve_graph(args.graph)
    if h.n == 0:
        raise ValueError("need at least one vertex")
    if args.v1 is not None:
        v1 = set(_integers(args.v1, "--v1 vertex")) if args.v1 else set()
        stats = partition.bad_missing(h, v1, set(range(h.n)) - v1)
        locally_maximal = partition.is_locally_maximal(h, stats.v1, stats.v2)
    else:
        # the search stops only when no single move gains
        stats = partition.maxcut_local_search(h, restarts=args.restarts, seed=args.seed)
        locally_maximal = True
    lhs, rhs, holds = partition.lemma22_gap(stats, xi)
    rows = [
        ("v1", ",".join(map(str, sorted(stats.v1)))),
        ("v2", ",".join(map(str, sorted(stats.v2)))),
        ("cross_present", str(stats.cross_present)),
        ("bad", str(stats.bad)),
        ("missing", str(stats.missing)),
        ("inner2", str(stats.inner2)),
        ("mu_lower", fraction_text(stats.mu_lower)),
        ("locally_maximal", "yes" if locally_maximal else "no"),
        ("bad_minus_scaled_missing", fraction_text(partition.prop33_expr(stats))),
        ("xi", args.xi),
        ("edge_bound_lhs", str(lhs)),
        ("edge_bound_rhs", fraction_text(rhs)),
        ("edge_bound_holds", "yes" if holds else "no"),
    ]
    _emit_rows(rows, args.human)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file; flags override it")
    human = "labeled rows instead of TSV (enumerate and verify print the same either way)"
    sub.add_argument("--human", action="store_true", help=human)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turan3",
        description="Exact toolkit for density bounds on 3-uniform hypergraphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("enumerate", help="list family-free graphs up to isomorphism")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--forbid", default="", help="comma-separated members; 'induced:' prefix per member")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--allow-large", action="store_true", help="lift the m<=7 guard")
    _add_common(sub)
    sub.set_defaults(func=cmd_enumerate, parser_ref=sub)

    sub = subs.add_parser("construct", help="build and report extremal constructions")
    sub.add_argument("--kind", required=True, choices=list(constructions.KINDS))
    sub.add_argument("--n", type=int, help="vertex count (brec)")
    sub.add_argument("--splits", default="", help="comma-separated level splits (brec; default optimal)")
    sub.add_argument("--parts", default="", help="comma-separated part sizes (other kinds)")
    sub.add_argument("--emit", help="write the graph to this path")
    sub.add_argument("--report", action="store_true", help="print the density report")
    sub.add_argument("--check-free", default="", help="family to scan for exhaustively")
    _add_common(sub)
    sub.set_defaults(func=cmd_construct, parser_ref=sub)

    sub = subs.add_parser("density", help="induced pattern density and edge density")
    sub.add_argument("--graph", required=True, help="built-in name, hex key or graph file")
    sub.add_argument("--sub", default="", help="pattern: built-in name, hex key or file")
    sub.add_argument("--edge-density", action="store_true")
    _add_common(sub)
    sub.set_defaults(func=cmd_density, parser_ref=sub)

    sub = subs.add_parser("emit-sdp", help="assemble and write the bound program")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--forbid", default="")
    sub.add_argument("--types", default="none", help="'none', 'default', or sizes like '1,3'")
    sub.add_argument("--out", required=True)
    _add_common(sub)
    sub.set_defaults(func=cmd_emit_sdp, parser_ref=sub)

    sub = subs.add_parser("round", help="round a float solution to a rational certificate")
    sub.add_argument("--model", required=True)
    sub.add_argument("--solution", required=True)
    sub.add_argument("--den-bound", type=int, default=2**32)
    sub.add_argument("--out", required=True)
    _add_common(sub)
    sub.set_defaults(func=cmd_round, parser_ref=sub)

    sub = subs.add_parser("verify", help="verify a certificate in exact arithmetic")
    sub.add_argument("--cert", required=True)
    _add_common(sub)
    sub.set_defaults(func=cmd_verify, parser_ref=sub)

    sub = subs.add_parser("partition", help="bipartition diagnostics")
    sub.add_argument("--graph", required=True)
    sub.add_argument("--analyze", action="store_true", help="accepted for compatibility; implied")
    sub.add_argument("--v1", help="comma-separated vertices of V1 (skip the search)")
    sub.add_argument("--restarts", type=int, default=32)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--xi", default="0", help="slack coefficient as p/q")
    _add_common(sub)
    sub.set_defaults(func=cmd_partition, parser_ref=sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # a --config file may supply required options, so they are enforced only
    # once it is read; the usage lines still mark them
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    required = [a for sub in subs.choices.values() for a in sub._actions if a.required]
    for sub in subs.choices.values():
        sub.usage = sub.format_usage().removeprefix("usage: ").rstrip("\n")
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    try:
        # the file's values become defaults: a flag given wins whatever its value
        supplied = _config_defaults(args.config, args.parser_ref) if args.config else {}
        args.parser_ref.set_defaults(**supplied)
        for action in required:
            action.required = action.dest not in supplied
        args = parser.parse_args(argv)
        return args.func(args, args.parser_ref)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
