"""Benchmark of the fdsw package: three seeded workloads, one process each.

    python3 bench/run.py --workload {diagram,thresholds,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The load is a closed loop: one caller, one case at a
time, BLAS pinned to one thread.  The seed draws the inputs and their order;
input generation, warm-up and answer checks are not timed.  The fixed case
list is run repeatedly until ``--seconds`` have passed (at least once).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then exactly one traced pass, and prints the per-layer
metrics of that pass plus the tracing overhead; spans go to
``.bench_out/trace-<workload>-<seed>.json``.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it record the environment and every failed case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy is first imported, here and in the
# set-up probes.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up is measured in fresh processes, this many times before the timed
# passes and as many times after them; the median of all is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def import_fdsw():
    """Import fdsw from this checkout's src, or exit non-zero if it is not there."""
    if not (SRC / "fdsw" / "__init__.py").is_file():
        sys.exit(f"error: no fdsw package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdsw

    if SRC not in Path(fdsw.__file__).resolve().parents:
        sys.exit(f"error: fdsw imported from {fdsw.__file__}, not from {SRC}")
    return fdsw


def plain_api():
    import fdsw
    import fdsw.cli

    return SimpleNamespace(
        cli_main=fdsw.cli.main,
        critical_wavenumber=fdsw.critical_wavenumber,
        classify_intervals=fdsw.classify_intervals,
        index=fdsw.index,
        classify_band=fdsw.classify_band,
        growth_rate_band=fdsw.growth_rate_band,
    )


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def probe_setup(workload: str) -> None:
    """Child process: time importing fdsw plus the workload's first call."""
    t0 = time.perf_counter()
    import_fdsw()
    from workloads import WORKLOADS

    WORKLOADS[workload](OUT_DIR).warm_up(plain_api())
    print(time.perf_counter() - t0)


def measure_setup(workload: str) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_pass(workload, cases, api, tracer=None):
    """Run the case list once; returns (wall_s, per-case seconds, answers)."""
    times, answers = [], []
    start = time.perf_counter()
    for case_id, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = case_id
        t0 = time.perf_counter()
        try:
            answer = workload.run(api, case)
        except Exception as exc:  # a case that raises is a failed case, not a crash
            answer = exc
        times.append(time.perf_counter() - t0)
        answers.append(answer)
    return time.perf_counter() - start, times, answers


def check_pass(workload, cases, answers, failures: list) -> None:
    """Check every answer; append (case, problem, hard) for each failure."""
    for case, answer in zip(cases, answers):
        if isinstance(answer, Exception):
            problem, hard = f"raised {type(answer).__name__}: {answer}", workload.raise_is_hard
        else:
            try:
                problem, hard = workload.check(case, answer)
            except (OSError, ValueError) as exc:  # e.g. a missing or malformed CSV
                problem, hard = f"unreadable answer: {exc}", True
        if problem is not None:
            failures.append((workload.describe(case), problem, hard))


def run_timed(workload, cases, seconds: float, failures: list):
    """Untraced passes until `seconds` have elapsed; every answer checked."""
    api = plain_api()
    walls, times = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, case_times, answers = run_pass(workload, cases, api)
        check_pass(workload, cases, answers, failures)
        walls.append(wall)
        times += case_times
        if time.perf_counter() >= deadline:
            return walls, times


def percentile_ms(times: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("diagram", "thresholds", "oracle"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_fdsw()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env))
    workload = WORKLOADS[args.workload](OUT_DIR)
    cases = workload.make_cases(random.Random(args.seed))
    failures: list = []
    setup_samples = measure_setup(args.workload) if args.trace == 0 else []
    workload.warm_up(plain_api())
    walls, times = run_timed(workload, cases, args.seconds, failures)
    # The median case is printed, not a metric: see README.md, "End-to-end metrics".
    print(
        f"summary workload={args.workload} seed={args.seed} cases={len(cases)} "
        f"passes={len(walls)} case_samples={len(times)} "
        f"case_p50_ms={1e3 * statistics.median(times)!r}"
    )

    if args.trace == 0:
        setup_samples += measure_setup(args.workload)
        attempted = len(times)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "case_p90_ms": (percentile_ms(times, 90), "ms"),
            "pass_ratio": (1.0 - len(failures) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            traced_wall, traced_times, answers = run_pass(
                workload, cases, SimpleNamespace(**tracer.entry_points()), tracer
            )
        tracer.counters["bytes_written"] = sum(
            workload.output_bytes(a) for a in answers if not isinstance(a, Exception)
        )
        check_pass(workload, cases, answers, failures)
        attempted = len(times) + len(traced_times)
        metrics = tracer.per_layer()
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed, **tracer.dump()}, fh)
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        if tracer.missing:
            print("trace: names not found, not wrapped: " + ", ".join(tracer.missing))

    for case, problem, hard in failures:
        print(f"failed {'[hard] ' if hard else ''}{case}: {problem}")
    result = {
        "correct": not any(hard for _, _, hard in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
