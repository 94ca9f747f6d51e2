"""One benchmark process: set-up, then (unless --setup-only) the timed closed
loop and the correctness checks.  Prints one JSON object as its last line.

run.py starts this in a fresh interpreter for every set-up and every run;
set-up time is measured from the first line of this file, before numpy is
imported, to the end of the warm-up, less the time spent measuring the
machine speed.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(), "seed": seed}


# Machine-speed reference: a fixed numpy and pure-Python kernel that does not
# touch kreinrel.  On a shared machine the speed of a core drifts by 10-40%
# between runs and by about 20% between 150 ms slices of one run.  The kernel
# runs between ops every CALIBRATE_EVERY_S; each op's time is scaled by
# (kernel time around it) / REF_NOMINAL_S, so times read at one reference
# speed.  Set-up is scaled by the kernel's mean time just before and after it.
REF_NOMINAL_S = 2.5e-3
CALIBRATE_EVERY_S = 0.1
SETUP_CALIBRATIONS = 60


class Reference:
    """Fifty small SVDs, each followed by a little interpreter work.  Of the
    kernels tried (these, two 96x48 SVDs, small matrix products), this one's
    time tracked the op times of all three workloads best."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = [rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
                      for _ in range(50)]
        self.svd = np.linalg.svd  # bound before any tracing wraps numpy.linalg
        self.times = []
        self.run()
        self.times.clear()

    def run(self):
        t0 = time.perf_counter()
        for a in self.small:
            self.svd(a, full_matrices=False)
            sum(i * i for i in range(300))
        self.times.append(time.perf_counter() - t0)

    def speed(self) -> float:
        """Machine speed relative to the reference (1.0 = nominal, < 1 slower)."""
        return REF_NOMINAL_S / (sum(self.times) / len(self.times))

    def local_speeds(self, calibration_of_op: list[int]) -> np.ndarray:
        """Speed around each op: mean of the kernel runs just before and after it."""
        t = np.array(self.times)
        c = np.array(calibration_of_op)
        return REF_NOMINAL_S / ((t[c] + t[np.minimum(c + 1, t.size - 1)]) / 2)


def hd_quantile(x: np.ndarray, q: float) -> float:
    """Harrell-Davis quantile: a Beta((n+1)q, (n+1)(1-q))-weighted mean of the
    order statistics.  Op latencies form a few clusters (one per op kind and
    size); this estimate moves smoothly where a single order statistic
    would jump between clusters from run to run."""
    x = np.sort(x)
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = np.linspace(0.0, 1.0, 200001)[1:-1]
    logpdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def op_stats(latencies: np.ndarray) -> dict:
    return {"ops_per_s": latencies.size / float(latencies.sum()),
            "op_ms_p50": hd_quantile(latencies, 0.5) * 1e3,
            "op_ms_p90": hd_quantile(latencies, 0.9) * 1e3}


def digest(verdicts: list[str]) -> str:
    return hashlib.sha256("\n".join(verdicts).encode()).hexdigest()[:16]


def timed_loop(wl, seconds: float, reference: Reference, tracer=None):
    """Closed loop: issue op i+1 only after op i returned, until the deadline.
    The reference kernel runs between ops every CALIBRATE_EVERY_S."""
    latencies, calibration_of_op, verdicts, ok = [], [], [], []
    run = tracer.run_op if tracer else (lambda i, fn, *a: fn(*a))
    deadline = time.perf_counter() + seconds
    next_calibration = 0.0
    i = 0
    while True:
        t0 = time.perf_counter()
        if t0 >= next_calibration:
            reference.run()
            t0 = time.perf_counter()
            next_calibration = t0 + CALIBRATE_EVERY_S
        if t0 >= deadline and i:
            break
        try:
            result = run(i, wl.op, i)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            error = f"error:{type(exc).__name__}:{exc}"
        latencies.append(time.perf_counter() - t0)
        calibration_of_op.append(len(reference.times) - 1)
        if error is None:
            good, verdict = wl.gate(i, result)
        else:
            good, verdict = False, error
        ok.append(bool(good))
        verdicts.append(verdict)
        i += 1
    reference.run()
    return latencies, calibration_of_op, verdicts, ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--inject")
    args = parser.parse_args()

    # The machine speed during set-up is measured just before and just after
    # it; the time spent measuring is not part of setup_s.
    t0 = time.perf_counter()
    reference = Reference()
    for _ in range(SETUP_CALIBRATIONS // 2):
        reference.run()
    calibration_s = time.perf_counter() - t0

    import kreinrel
    if Path(kreinrel.__file__).resolve().parent != SRC / "kreinrel":
        raise SystemExit(f"kreinrel was imported from {kreinrel.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.inject)
    wl.warm_up()
    setup_s = time.perf_counter() - T_START - calibration_s
    for _ in range(SETUP_CALIBRATIONS // 2):
        reference.run()
    setup_speed = reference.speed()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0
    reference.times.clear()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    try:
        latencies, calibration_of_op, verdicts, ok = timed_loop(
            wl, args.seconds, reference, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    for i in wl.check():
        ok[i] = False
        verdicts[i] += ":check-failed"

    used = len(latencies) - len(latencies) % wl.period or len(latencies)
    wall = np.array(latencies[:used])
    scaled = wall * reference.local_speeds(calibration_of_op[:used])
    out = {
        "setup_s": setup_s, "setup_speed": setup_speed, "speed": reference.speed(),
        "ops": len(latencies), "ops_used": used,
        "failed": ok.count(False),
        "failures": sorted({v for v, good in zip(verdicts, ok) if not good})[:10],
        "wall": op_stats(wall), "scaled": op_stats(scaled),
        "scaled_latencies": scaled.tolist(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest_prefix": [min(wl.digest_ops, len(verdicts)),
                          digest(verdicts[:wl.digest_ops])],
        "digest_all": [len(verdicts), digest(verdicts)],
        "env": environment(args.seed),
    }
    if tracer:
        layers = out["layers"] = tracer.metrics()
        out["uncovered"] = [f for f in wl.traced_functions if layers[f"{f}.calls"][0] == 0]
        out["bypassed"] = {f: layers[f"{f}.calls"][0]
                           for f in getattr(wl, "bypassed_functions", ())}
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
