"""Every name a module of `src/kreinrel` imports is used in it.

`__init__.py` is exempt: its imports are the package's public surface.  A
name counts as used when it appears as a plain name anywhere in the module,
annotations included; `from __future__ import ...` binds nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kreinrel"


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

