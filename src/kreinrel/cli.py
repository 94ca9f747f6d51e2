"""Command-line surface.

Exit codes: 0 success, 1 mathematical rejection (invalid triple, failed
membership, witness against similarity, suite counterexample), 2 input
error (malformed files, dimension mismatches).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import boundary as bnd
from . import extensions as ext
from . import generators as gen
from . import io as kio
from . import relations as rel
from . import similarity as sim
from . import suites as st
from .tolerances import DEFAULT_TOL, DimensionMismatchError, TolerancePolicy

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2


def _policy(args) -> TolerancePolicy:
    return TolerancePolicy(rank_rel=args.tol_rank_rel, rank_abs=args.tol_rank_abs,
                           angle_tol=args.tol_angle)


def _parse_z(text: str) -> complex:
    try:
        z = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise kio.DocumentError(f"cannot parse complex number {text!r}") from exc
    if not np.isfinite(z):
        raise kio.DocumentError(f"point {text!r} is not finite")
    return z


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.10g}{z.imag:+.10g}i"


def _print_matrix(m: np.ndarray, label: str):
    print(label)
    for row in np.atleast_2d(m):
        print("  [" + ", ".join(_fmt_complex(z) for z in row) + "]")


def _print_subspace(name: str, s):
    print(f"{name}: dim {s.dim} of C^{s.ambient_dim}")


def _block(path: str, tol: TolerancePolicy, key: str):
    value = kio.load_document(path, tol)[key]
    if value is None:
        raise kio.DocumentError(f"document has no {key} block")
    return value


def cmd_relation(args) -> int:
    tol = _policy(args)
    t = _block(args.file, tol, "relation")
    if args.action == "check":
        print(f"graph dim {t.dim} in C^{t.graph.ambient_dim}")
        print(f"symmetric: {rel.is_symmetric(t, tol)}")
        print(f"self-adjoint: {rel.is_selfadjoint(t, tol)}")
        print(f"operator: {rel.is_operator(t, tol)}")
    elif args.action == "adjoint":
        tp = rel.adjoint(t, args.metric, tol)
        print(json.dumps(kio.document_for(tp.src, tp), indent=1))
    elif args.action == "parts":
        p = rel.parts(t, tol)
        for name in ("dom", "ran", "ker", "mul"):
            _print_subspace(name, getattr(p, name))
    return EXIT_OK


def cmd_ext(args) -> int:
    tol = _policy(args)
    t = _block(args.file, tol, "relation")
    if args.action in ("nclass", "extend", "reduce"):
        if args.second is None:
            raise kio.DocumentError(f"ext {args.action} needs a second document")
        other = _block(args.second, tol, "relation")
    if args.action == "defects":
        d = ext.defect_numbers(t, tol)
        print(f"defect numbers: {d}")
    elif args.action == "nclass":
        try:
            ext.n_class_check(t, other, tol)
            print("accepted")
        except ext.NClassRejection as exc:
            print(f"rejected: {exc.reason}")
            return EXIT_REJECT
    elif args.action == "extend":
        t0 = ext.extend(t, other, tol)
        print(json.dumps(kio.document_for(t.src, t0), indent=1))
    elif args.action == "reduce":
        n = ext.reduce(t, other, tol)
        print(json.dumps(kio.document_for(t.src, n), indent=1))
    elif args.action == "audit":
        w = gen.sample_witness(t, args.seed, tol)
        report = ext.prop_n_audit(t, w.N, tol)
        print(json.dumps({k: str(v) for k, v in report.items()}, indent=1))
        return EXIT_OK if report["ok"] else EXIT_REJECT
    return EXIT_OK


def cmd_triple(args) -> int:
    triple = _block(args.file, _policy(args), "triple")
    if args.action == "validate":
        print(f"valid boundary triple, boundary dim {triple.boundary_dim}")
        _print_subspace("T0 = ker Gamma0", triple.t0.graph)
        _print_subspace("T1 = ker Gamma1", triple.t1.graph)
        _print_matrix(triple.beta, "beta =")
    elif args.action == "weyl":
        value = bnd.weyl(triple, _parse_z(args.z))
        if value.operator_form is not None:
            _print_matrix(value.operator_form, f"M({args.z}) =")
        else:
            print(f"M({args.z}) is a genuine relation "
                  f"(dim {value.relation_in_L.dim}); no operator form")
    elif args.action == "gamma":
        _print_matrix(bnd.gamma_field(triple, _parse_z(args.z)), f"gamma({args.z}) =")
    elif args.action == "inverse":
        _print_matrix(triple.g0inv, "Gamma0^(-1) =")
        _print_matrix(triple.g1inv, "Gamma1^(-1) =")
        _print_matrix(triple.beta, "beta =")
    elif args.action == "transform":
        if args.matrix is None:
            raise kio.DocumentError("transform needs --matrix")
        x = kio.decode_matrix(json.loads(args.matrix))
        new = bnd.transform(triple, x)
        print(json.dumps(kio.document_for(new.space, new.parent, new), indent=1))
    return EXIT_OK


def _parse_grid(text: str):
    if text == "default":
        return bnd.DEFAULT_GRID
    points = tuple(_parse_z(part) for part in text.split(",") if part.strip())
    if not points:
        raise kio.DocumentError("empty grid")
    return points


def cmd_similar(args) -> int:
    tol = _policy(args)
    ta = _block(args.file_a, tol, "triple")
    tb = _block(args.file_b, tol, "triple")
    out = sim.reconstruct_similarity(ta, tb, _parse_grid(args.grid))
    if out["status"] == "unitary":
        _print_matrix(out["U"], "U =")
        print(f"boundary identity residual: {out['gamma_residual']:.3e}")
        return EXIT_OK
    if out["status"] == "witness":
        print(f"not similar: Weyl families differ at z = {_fmt_complex(out['z'])} "
              f"(discrepancy {out['discrepancy']:.3e})")
        return EXIT_REJECT
    print(f"hypothesis violation: {out.get('reason')}")
    return EXIT_REJECT


def cmd_verify(args) -> int:
    tol = _policy(args)
    reports = st.run_suites(args.suite, args.trials, args.seed, tol)
    payload = [r.to_dict() for r in reports]
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for r in payload:
            status = "ok" if r["ok"] else "FAIL"
            print(f"{r['suite']:<12} trials={r['trials']:<5} "
                  f"max_residual={r['max_residual']:.3e} "
                  f"failures={len(r['failures'])} [{status}]")
    if args.out:
        kio.save_document(args.out, payload)
    return EXIT_OK if all(r["ok"] for r in payload) else EXIT_REJECT


def cmd_report(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list) or not all(isinstance(r, dict) for r in payload):
        raise kio.DocumentError(f"{args.file} is not a verify report (a list of suite objects)")
    for r in payload:
        for key, kinds, kind_name in (("max_residual", (int, float), "a real number"),
                                      ("trials", int, "an integer")):
            value = r.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise kio.DocumentError(f"suite {r.get('suite', '?')!r}: {key} is "
                                        f"{value!r}, not {kind_name}")
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for r in payload:
            status = "ok" if r.get("ok") else "FAIL"
            print(f"{r.get('suite', '?'):<12} trials={r.get('trials', 0):<5} "
                  f"max_residual={r.get('max_residual', 0):.3e} [{status}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    try:
        seed = int(os.environ.get("KREINREL_SEED", "7"))
    except ValueError as exc:
        raise kio.DocumentError(f"KREINREL_SEED is not an integer: {exc}") from exc
    parser = argparse.ArgumentParser(prog="kreinrel",
                                     description="linear relations in Krein spaces")
    parser.add_argument("--tol-rank-rel", type=float, default=DEFAULT_TOL.rank_rel)
    parser.add_argument("--tol-rank-abs", type=float, default=DEFAULT_TOL.rank_abs)
    parser.add_argument("--tol-angle", type=float, default=DEFAULT_TOL.angle_tol)
    sub_parsers = parser.add_subparsers(dest="command", required=True)

    p_rel = sub_parsers.add_parser("relation")
    p_rel.add_argument("action", choices=["check", "adjoint", "parts"])
    p_rel.add_argument("file")
    p_rel.add_argument("--metric", choices=["krein", "hilbert"], default="krein")
    p_rel.set_defaults(func=cmd_relation)

    p_ext = sub_parsers.add_parser("ext")
    p_ext.add_argument("action", choices=["defects", "nclass", "extend",
                                          "reduce", "audit"])
    p_ext.add_argument("file")
    p_ext.add_argument("second", nargs="?")
    p_ext.add_argument("--seed", type=int, default=seed)
    p_ext.set_defaults(func=cmd_ext)

    p_tri = sub_parsers.add_parser("triple")
    p_tri.add_argument("action", choices=["validate", "weyl", "gamma",
                                          "inverse", "transform"])
    p_tri.add_argument("file")
    p_tri.add_argument("--z", default="1j")
    p_tri.add_argument("--matrix", help="JSON block matrix for transform")
    p_tri.set_defaults(func=cmd_triple)

    p_sim = sub_parsers.add_parser("similar")
    p_sim.add_argument("file_a")
    p_sim.add_argument("file_b")
    p_sim.add_argument("--grid", default="default",
                       help="'default' or comma-separated points like 1+2i,1-2i")
    p_sim.set_defaults(func=cmd_similar)

    p_ver = sub_parsers.add_parser("verify")
    p_ver.add_argument("--suite", default="all", choices=[*st.SUITES, "all"])
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=seed)
    p_ver.add_argument("--format", choices=["json", "text"], default="text")
    p_ver.add_argument("--out", help="also write the JSON report here")
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub_parsers.add_parser("report")
    p_rep.add_argument("file")
    p_rep.add_argument("--format", choices=["json", "text"], default="text")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (kio.DocumentError, DimensionMismatchError, json.JSONDecodeError,
            OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (bnd.TripleValidationError, ext.NClassRejection, sim.BuildError,
            rel.NotRegularError, rel.HostMismatchError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
