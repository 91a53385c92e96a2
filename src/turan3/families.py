"""Forbidden-family specifications shared by the CLI, SDP and certificates.

A family is an ordered tuple of members; each member is a graph plus a flag
saying whether containment is induced.  The textual form is a comma-separated
list of members, each a built-in name, a canonical hex key or a graph-file
path (see resolve_graph), with an optional "induced:" prefix per member,
e.g. "C4_3,F5_BAR" or "F32,induced:F32_BAR".  family_key writes every member
as a built-in name or a hex key, so a key written into a program or a
certificate names no file, and family_from_key reads such a key back
without opening one.
"""

from __future__ import annotations

from typing import NamedTuple

from . import graphs
from .graphs import Hypergraph3


class FamilyMember(NamedTuple):
    graph: Hypergraph3
    induced: bool = False
    name: str | None = None

    def label(self) -> str:
        base = self.name if self.name else self.graph.canon_key.hex()
        return f"induced:{base}" if self.induced else base


Family = tuple[FamilyMember, ...]


def builtin_name(g: Hypergraph3) -> str | None:
    """Name of the built-in isomorphic to g, if any.

    Names are tried in sorted order, so the complete 4-graph resolves to
    C4_3 rather than its alias K4_3.  Canonical keys are compared only after
    the vertex count, edge count and degrees agree, so a member that is no
    built-in, however large, is never labelled here.
    """
    invariants = (g.n, len(g.edges), sorted(g.degrees))
    for name in graphs.NAMED_GRAPHS:
        b = graphs.named_graph(name)
        if (b.n, len(b.edges), sorted(b.degrees)) == invariants and b.canon_key == g.canon_key:
            return name
    return None


def family_key(family: Family) -> str:
    """Deterministic string identifying a family; parses back via parse_family."""
    return ",".join(m.label() for m in family)


def graph_of_label(label: str) -> Hypergraph3:
    """The graph a member label names: a built-in name or a canonical hex key.

    A key is lowercase hex of a graph's canon_key, of any vertex count, so
    every label family_key writes resolves; anything else raises ValueError.
    """
    if label in graphs.NAMED_GRAPHS:
        return graphs.named_graph(label)
    try:
        raw = bytes.fromhex(label)
        g = graphs.decode_key(raw)
    except ValueError:
        pass
    else:
        if raw.hex() == label and g.canon_key == raw:
            return g
    raise ValueError(f"{label!r} is neither a built-in name nor a canonical key")


def resolve_graph(spec: str) -> Hypergraph3:
    """The graph a spec names: a member label (graph_of_label), else a file
    path.  A spec that is neither raises FileNotFoundError naming all three."""
    try:
        return graph_of_label(spec)
    except ValueError:
        try:
            return graphs.load_graph(spec)
        except FileNotFoundError:
            msg = f"{spec!r} is neither a built-in name, a canonical key nor a file"
            raise FileNotFoundError(msg) from None


def _parse_members(spec: str, resolve) -> Family:
    spec = spec.strip()
    if not spec or spec.lower() == "none":
        return ()
    members = []
    for position, item in enumerate(spec.split(","), 1):
        item = item.strip()
        induced = item.startswith("induced:")
        if induced:
            item = item[len("induced:"):]
        if not item:
            raise ValueError(f"member {position} of family {spec!r} is empty")
        g = resolve(item)
        name = item if item in graphs.NAMED_GRAPHS else builtin_name(g)
        members.append(FamilyMember(g, induced, name))
    return tuple(members)


def parse_family(spec: str) -> Family:
    """Parse a family spec string; an empty spec (or "none") is the empty family.

    An empty member (as in "F32,", "induced:" or ",,") raises ValueError.
    Members are resolved by resolve_graph, so a member may name a file.  A
    member given by built-in name keeps that name; any other member is named
    by builtin_name, so its label is a built-in name or a hex key.
    """
    return _parse_members(spec, resolve_graph)


def family_from_key(key: str) -> Family:
    """The family a family_key names, read without opening any file.

    Parsed as parse_family is, but each member must be a built-in name or a
    canonical hex key (graph_of_label), so the result depends only on the key
    and the code; a member that is anything else raises ValueError.
    """
    return _parse_members(key, graph_of_label)
