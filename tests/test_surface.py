"""The public surface: every public function is reached by the package or the benchmark.

A public function (or method) defined in `src/kreinrel` must be named, outside
its own definition, by code in `src/kreinrel` or `benchmarks/`.  One that only
its unit tests reach is deleted, or listed in ALLOWED with its reason.  Names
match by identifier: a bare `f`, an attribute `mod.f`, and in `benchmarks/` also
a string such as "relations.eigenspace" naming a traced function.  An
`__init__` re-export is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kreinrel"
BENCHMARKS = ROOT / "benchmarks"

ALLOWED = {
    # the criterion-8 checks, run by tests/test_acceptance.py
    "extensions.theorem_ex_check",
    "extensions.lemma_os_check",
    # the Weyl-family transfer of regular points; its grid never reaches a
    # spectral point until the spectral-set identities are tested there
    "boundary.ddTTp_check",
}


def _public_functions() -> set[str]:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, ast.FunctionDef)]
            found |= {f"{path.stem}.{name}" for name, fn in members
                      if not fn.name.startswith("_")}
    return found


def _uses(node: ast.AST, inside: tuple, names_in_strings: bool, out: dict):
    """Map each identifier named under `node` to the function definitions it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            _uses(child, inside + (child.name,), names_in_strings, out)
            continue
        name = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif (names_in_strings and isinstance(child, ast.Constant)
              and isinstance(child.value, str) and child.value.replace(".", "_").isidentifier()):
            name = child.value.rsplit(".", 1)[-1]
        if name is not None:
            out.setdefault(name, []).append(inside)
        _uses(child, inside, names_in_strings, out)


def _unreached() -> set[str]:
    uses = {}
    for path in PACKAGE.glob("*.py"):
        _uses(ast.parse(path.read_text(encoding="utf-8")), (), False, uses)
    for path in BENCHMARKS.glob("*.py"):
        _uses(ast.parse(path.read_text(encoding="utf-8")), (), True, uses)
    unreached = set()
    for qualified in _public_functions():
        name = qualified.rsplit(".", 1)[-1]
        if not any(name not in inside for inside in uses.get(name, [])):
            unreached.add(qualified)
    return unreached


def test_every_public_function_is_reached_or_allowed():
    stray = sorted(_unreached() - ALLOWED)
    assert not stray, f"public functions only their unit tests reach: {stray}"


def test_the_allowlist_names_only_unreached_functions():
    stale = sorted(ALLOWED - _unreached())
    assert not stale, f"allowlisted functions that are gone or now reached: {stale}"
