"""Every public function and class in the package has a caller in it, and
every name a package module imports is used in that module.

A public name that only tests use is code the commands do not need: it
either moves to the test helpers or goes.  A reference is an ast.Name, an
ast.Attribute or an import of the name anywhere in src/turan3, not counting
those inside the name's own definition.  Module constants are exempt.

An imported name is used when an ast.Name in the same module reads it;
names the module re-exports through __all__ and __future__ features are
exempt.
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


def _exported(module: ast.Module) -> set[str]:
    """The names listed in the module's __all__."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_imported_name_is_used_in_its_module():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}:{node.lineno} {name}")
    assert not unused, f"imported but unused in src/turan3: {', '.join(unused)}"
