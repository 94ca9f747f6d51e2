"""kreinrel benchmark: one command per workload run.

    python3 benchmarks/run.py --workload {verify-desk,weyl-grid,pipeline-large} \
        --seed N --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics.  Set-up runs SETUP_RUNS times,
each in a fresh interpreter, and setup_s is their median; the last of them
goes on to the timed closed loop (S seconds) and the correctness checks.
Times are reported at a reference machine speed, measured in the same
process by a fixed kernel that does not use kreinrel (see worker.py).

--trace 1 prints the per-layer metrics.  Two fresh processes each run the
loop for S/2 seconds, the first untraced and the second with spans around
every public kreinrel function; trace.overhead_frac compares their op
rates over the ops both completed.  The spans are written to .bench_out/.

Every process pins BLAS to one thread.  The last line of standard output
is the JSON result; the lines before it record the environment, sample
counts, failures and a digest of the per-op verdicts.  See README.md in
this directory for the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-desk", "weyl-grid", "pipeline-large")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150
FAULTS = ("scaled-as-planted", "perturb-weyl")


def child(args: list[str]) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_run(label: str, r: dict):
    print(f"# {label}: {r['ops']} ops ({r['ops_used']} in whole periods used for "
          f"rates and percentiles), {r['failed']} failed")
    print(f"# {label}: verdict digest of the first {r['digest_prefix'][0]} ops "
          f"{r['digest_prefix'][1]}, of all {r['digest_all'][0]} ops {r['digest_all'][1]}")
    for failure in r["failures"]:
        print(f"# {label}: failed op verdict {failure}")


def end_to_end(base: list[str]) -> tuple[dict, list[dict]]:
    """Times are scaled to the reference machine speed measured in the same
    process (worker.Reference); the wall-clock values are printed alongside."""
    setups = [child(base + ["--setup-only"]) for _ in range(SETUP_RUNS - 1)]
    main = child(base)
    setups.append(main)
    scaled, wall = main["scaled"], main["wall"]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * r["setup_speed"] for r in setups), "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_ms_p50": (scaled["op_ms_p50"], "ms"),
        "op_ms_p90": (scaled["op_ms_p90"], "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    print("# set-up wall times (s): " + ", ".join(f"{r['setup_s']:.4f}" for r in setups)
          + "; machine speed: " + ", ".join(f"{r['setup_speed']:.3f}" for r in setups))
    print(f"# wall clock: ops_per_s {wall['ops_per_s']:.4f}, op_ms_p50 {wall['op_ms_p50']:.4f}, "
          f"op_ms_p90 {wall['op_ms_p90']:.4f}; mean machine speed {main['speed']:.4f}")
    report_run("run", main)
    return metrics, [main]


def per_layer(base: list[str], workload: str, seed: int) -> tuple[dict, list[dict]]:
    spans_out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.npz"
    plain = child(base)
    traced = child(base + ["--trace", "--spans-out", str(spans_out)])
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    common = min(len(plain["scaled_latencies"]), len(traced["scaled_latencies"]))
    metrics["trace.overhead_frac"] = (sum(traced["scaled_latencies"][:common])
                                      / sum(plain["scaled_latencies"][:common]) - 1.0,
                                      "fraction")
    report_run("untraced", plain)
    report_run("traced", traced)
    print(f"# spans written to {spans_out.relative_to(ROOT)}")
    if traced["uncovered"]:
        raise SystemExit(f"trace coverage: no calls recorded for "
                         f"{', '.join(traced['uncovered'])}; a by-name alias was missed")
    for f, calls in traced["bypassed"].items():
        print(f"# bypass: {f} called {calls} times in the timed phase "
              f"({'as predicted' if calls == 0 else 'prediction broken'})")
    return metrics, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=FAULTS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "kreinrel" / "__init__.py").is_file():
        print(f"error: no kreinrel sources under {SRC}", file=sys.stderr)
        return 2

    seconds = args.seconds / 2 if args.trace else args.seconds
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds)]
    if args.inject:
        base += ["--inject", args.inject]
    if args.trace:
        metrics, runs = per_layer(base, args.workload, args.seed)
    else:
        metrics, runs = end_to_end(base)

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"# env: {json.dumps(runs[-1]['env'])}")
    print(f"# failed_frac: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
