"""Span tracing installed from outside the library.

`Tracer.install` wraps every public function of the traced kreinrel
modules, `Subspace.__post_init__` (reported as `subspaces.Subspace.validate`)
and a fixed set of `numpy.linalg` functions.  Each wrapped call records one
span (name, start, end, parent span, op id) into flat in-memory arrays;
`Tracer.metrics` turns them into calls and self time per function and per
module.  Nothing inside the library changes: every alias of a wrapped
function in any loaded kreinrel module (for example the names `similarity`
imports from `boundary`, or the package re-exports) is rebound to the
wrapper, and `uninstall` restores the originals.

`numpy.linalg.pinv` and `matrix_rank` call numpy's SVD internally, not
through `numpy.linalg.svd`; their SVD time lands in their own self time and
is not counted in `numpy.linalg.svd.*`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "kreinrel"
MODULES = ("subspaces", "krein", "relations", "extensions", "boundary",
           "similarity", "generators")
LINALG = ("svd", "pinv", "matrix_rank", "inv", "qr", "eigh", "eigvalsh",
          "det", "norm", "cond")
VALIDATE = "subspaces.Subspace.validate"

# Functions whose inputs are fingerprinted to measure repeated work.
REPEAT_TRACKED = ("relations.adjoint", "relations.parts", "extensions.defect_subspace")

# The functions the per-layer metrics name individually.
NAMED = (
    [f"subspaces.{f}" for f in ("span", "kernel", "intersect", "contains",
                                "distance", "complement", "image")]
    + [VALIDATE]
    + [f"relations.{f}" for f in ("adjoint", "parts", "eigenspace", "graph_eigenspace",
                                  "compose", "spectral_probe", "resolvent_matrix")]
    + [f"extensions.{f}" for f in ("defect_subspace", "n_class_check", "reduce",
                                   "prop_n_audit")]
    + [f"boundary.{f}" for f in ("validate_triple", "weyl", "gamma_field",
                                 "resolvent_identities_check")]
    + [f"similarity.{f}" for f in ("reconstruct_similarity", "build_standard_V",
                                   "membership_check", "weyl_equality_criterion")]
    + [f"generators.{f}" for f in ("gen_symmetric", "sample_witness", "gen_triple")]
    + [f"numpy.linalg.{f}" for f in ("svd", "pinv", "matrix_rank")]
)
LAYERS = MODULES + ("numpy.linalg",)
OP = "op"


def layer_of(name: str) -> str:
    return "numpy.linalg" if name.startswith("numpy.linalg.") else name.split(".", 1)[0]


def svd_flops(shape, full_matrices: bool = True, compute_uv: bool = True) -> float:
    """Real flops of one complex SVD, Golub-Reinsch counts (Golub & Van Loan,
    Matrix Computations, table 5.4.1) times 4 for complex arithmetic."""
    *batch, m, n = shape
    big, k = max(m, n), min(m, n)
    if not compute_uv:
        real = 4 * big * k * k - 4 * k ** 3 / 3
    elif full_matrices:
        real = 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
    else:
        real = 14 * big * k * k + 8 * k ** 3
    return 4.0 * real * float(np.prod(batch) if batch else 1)


def _relation_bytes(t) -> bytes:
    return t.graph.frame.tobytes() + t.src.J.tobytes() + t.tgt.J.tobytes()


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        self.repeat_seen = {name: set() for name in REPEAT_TRACKED}
        self.repeat_calls = dict.fromkeys(REPEAT_TRACKED, 0)
        self.repeat_hits = dict.fromkeys(REPEAT_TRACKED, 0)
        self.svd_flops = 0.0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_index: int, fn, *args):
        """Run one benchmark op inside an `op` span."""
        self._op = op_index
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = -1

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        opener, closer = self._open, self._close
        if name in REPEAT_TRACKED:
            sig = inspect.signature(fn)
            seen = self.repeat_seen[name]

            def fingerprint(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                items = list(bound.arguments.values())
                h = hashlib.blake2b(_relation_bytes(items[0]), digest_size=16)
                h.update(repr(items[1:]).encode())
                return h.digest()

            @functools.wraps(fn)
            def tracked(*args, **kwargs):
                key = fingerprint(args, kwargs)
                self.repeat_calls[name] += 1
                if key in seen:
                    self.repeat_hits[name] += 1
                else:
                    seen.add(key)
                idx = opener(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    closer(idx)
            return tracked

        if name == "numpy.linalg.svd":
            @functools.wraps(fn)
            def svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
                self.svd_flops += svd_flops(np.shape(a), full_matrices, compute_uv)
                idx = opener(nid)
                try:
                    return fn(a, full_matrices, compute_uv, *args, **kwargs)
                finally:
                    closer(idx)
            return svd

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions and rebind every alias in kreinrel modules."""
        import kreinrel  # noqa: F401  (loads every submodule)
        from kreinrel.subspaces import Subspace

        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(mod, attr, wrappers[id(value)])
        self._set(Subspace, "__post_init__", self._wrap(VALIDATE, Subspace.__post_init__))
        for attr in LINALG:
            self._set(np.linalg, attr, self._wrap(f"numpy.linalg.{attr}",
                                                  getattr(np.linalg, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "op_id": np.frombuffer(self.op_id, dtype=np.int64).copy(),
                "names": np.array(self.names)}

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def metrics(self) -> dict:
        """Calls and self time per named function and per layer, plus waste ratios."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_by_name = np.bincount(nid, weights=self_time, minlength=k)
        per_name = {name: (int(calls[i]), float(self_by_name[i]))
                    for i, name in enumerate(self.names)}

        out = {}
        for name in NAMED:
            c, s = per_name.get(name, (0, 0.0))
            out[f"{name}.calls"] = (c, "count")
            out[f"{name}.self_s"] = (s, "s")
        for layer in LAYERS:
            members = [v for n, v in per_name.items() if n != OP and layer_of(n) == layer]
            out[f"{layer}.calls"] = (sum(c for c, _ in members), "count")
            out[f"{layer}.self_s"] = (sum(s for _, s in members), "s")
        out["op.self_s"] = (per_name[OP][1], "s")
        for name in REPEAT_TRACKED:
            calls_n = self.repeat_calls[name]
            out[f"{name}.repeat_frac"] = (
                self.repeat_hits[name] / calls_n if calls_n else 0.0, "fraction")
        out["numpy.linalg.svd.flops_computed"] = (self.svd_flops, "flop")
        return out
