"""Every name a module of `src/kreinrel` imports is used in it, and every
private name it defines is used somewhere.

`__init__.py` is exempt from the import check: its imports are the package's
public surface.  A name counts as used when it appears as a plain name
anywhere in the module, annotations included; `from __future__ import ...`
binds nothing.  A private top-level name (one leading underscore) counts as
used when `src/kreinrel` or `benchmarks/` reads it outside its own
definition: as a plain name in its module, or as an attribute or an imported
name anywhere.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kreinrel"
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"


def _unused(tree: ast.Module) -> list:
    """(line, name) of each imported name that no Name node reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for line, name in _unused(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused, f"imported and never used: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module) -> list:
    """(name, node) of each private name the module binds at its top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if _private(name)]


def _references(tree: ast.Module) -> list:
    """(name, node, qualified) of each read of a name: a plain name reads one of
    its own module; an attribute or an imported name is qualified."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, node, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node, True))
        elif isinstance(node, ast.ImportFrom):
            out += [(alias.name, node, True) for alias in node.names]
    return out


def _inside(node: ast.AST, outer: ast.AST) -> bool:
    return outer.lineno <= node.lineno <= outer.end_lineno


def test_every_private_helper_is_used_outside_its_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARKS.rglob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _definitions(trees[path]):
            used = any(ref == name and (qualified or where == path)
                       and not (where == path and _inside(node, definition))
                       for where, found in refs.items() for ref, node, qualified in found)
            if not used:
                dead.append(f"{path.name}:{definition.lineno} {name}")
    assert not dead, f"private and never used: {dead}"
