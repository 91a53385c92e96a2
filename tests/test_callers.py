"""Every public function and class in the package has a caller in it.

A public name that only tests use is code the commands do not need: it
either moves to the test helpers or goes.  A reference is an ast.Name, an
ast.Attribute or an import of the name anywhere in src/turan3, not counting
those inside the name's own definition.  Module constants are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "turan3"


def _references(node: ast.AST) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def _public_definitions(module: ast.Module):
    """(qualified name, node) for each public top-level function or class and
    each public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in module.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    total = Counter()
    for tree in modules.values():
        total += _references(tree)
    uncalled = []
    for stem, tree in modules.items():
        for qualname, node in _public_definitions(tree):
            if total[node.name] - _references(node)[node.name] == 0:
                uncalled.append(f"{stem}.{qualname}")
    assert not uncalled, f"no caller in src/turan3: {', '.join(uncalled)}"
