"""Every decision rule lives in `TolerancePolicy`.

No module of `src/kreinrel` other than `tolerances.py` may read a threshold of
the policy (`.rank_rel`, `.rank_abs`, `.angle_tol`, `.rank_cut`) or call
`matrix_rank`: a rank, intersection or angle decision calls a policy method
(`span_rank`, `map_rank`, `map_rank_of`, `apart`, `angle_equal`,
`angle_differs`, `negligible`).  ALLOWED names each remaining site by
(module, enclosing top-level function or assigned name, attribute), with the
number of reads allowed there and its reason; none of them decides anything.
A further read under an allowed key fails as a stray.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kreinrel"
WATCHED = {"rank_rel", "rank_abs", "angle_tol", "rank_cut", "matrix_rank"}

ALLOWED = {
    # the parser's defaults print and seed the --tol-* flags
    ("cli", "build_parser", "rank_rel"): (1, "default of --tol-rank-rel"),
    ("cli", "build_parser", "rank_abs"): (1, "default of --tol-rank-abs"),
    ("cli", "build_parser", "angle_tol"): (1, "default of --tol-angle"),
    # a sampling policy built from the default's angle cut
    ("generators", "_DRAW_TOL", "angle_tol"): (1, "the draw policy, 100x inside the default"),
    # how far beside a pole of T0 to sample: a sampling choice, not a decision
    ("similarity", "reconstruct_similarity", "rank_cut"): (1, "pole-offset sizing"),
}


def _owner(node: ast.stmt) -> str:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return "<module>"


def _sites() -> dict:
    """{(module, owner, attribute): [line, ...]} over the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "tolerances":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name) else None)
                if name in WATCHED:
                    key = (path.stem, _owner(top), name)
                    found.setdefault(key, []).append(node.lineno)
    return found


def test_no_module_reads_a_threshold_outside_the_policy():
    stray = sorted(f"{m}.py:{line} {owner} .{attr}"
                   for (m, owner, attr), lines in _sites().items()
                   for line in sorted(lines)[ALLOWED.get((m, owner, attr), (0,))[0]:])
    assert not stray, f"decisions written outside TolerancePolicy: {stray}"


def test_the_allowlist_names_only_live_sites():
    sites = _sites()
    stale = sorted(key for key, (count, _) in ALLOWED.items() if len(sites.get(key, [])) < count)
    assert not stale, f"allowlisted sites that are gone: {stale}"
