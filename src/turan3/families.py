"""Forbidden-family specifications shared by the CLI, SDP and certificates.

A family is an ordered tuple of members; each member is a graph plus a flag
saying whether containment is induced.  The textual form is a comma-separated
list of built-in names or graph-file paths, with an optional "induced:"
prefix per member, e.g. "C4_3,F5_BAR" or "F32,induced:F32_BAR".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs
from .graphs import Hypergraph3


@dataclass(frozen=True)
class FamilyMember:
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
    C4_3 rather than its alias K4_3.
    """
    for name in graphs.NAMED_GRAPHS:
        if graphs.named_graph(name).canon_key == g.canon_key:
            return name
    return None


def make_family(*members: Hypergraph3 | FamilyMember) -> Family:
    out = []
    for m in members:
        if not isinstance(m, FamilyMember):
            m = FamilyMember(m, False, builtin_name(m))
        elif m.name is None:
            m = FamilyMember(m.graph, m.induced, builtin_name(m.graph))
        out.append(m)
    return tuple(out)


def family_key(family: Family) -> str:
    """Deterministic string identifying a family; parses back via parse_family."""
    return ",".join(m.label() for m in family)


def parse_family(spec: str) -> Family:
    """Parse a family spec string.

    Each comma-separated item names a built-in graph, a hex canonical key is
    not accepted as input here; unknown names are treated as file paths.
    An empty spec (or "none") is the empty family.
    """
    spec = spec.strip()
    if not spec or spec.lower() == "none":
        return ()
    members = []
    for item in spec.split(","):
        item = item.strip()
        induced = False
        if item.startswith("induced:"):
            induced = True
            item = item[len("induced:"):]
        if item in graphs.NAMED_GRAPHS:
            g = graphs.named_graph(item)
            members.append(FamilyMember(g, induced, item))
        else:
            # Anything else is a graph file path; the path is kept as the
            # member's name so family keys written to certificates re-parse.
            g = graphs.load_graph(item)
            members.append(FamilyMember(g, induced, item))
    return tuple(members)

