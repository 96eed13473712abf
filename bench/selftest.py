"""Self-test of the benchmark: its checkers fail when they should, its counts repeat.

    python3 bench/selftest.py

1. The diagram checker passes the CLI's own diagram output and counts a
   failure for one altered grid label, for one grid coordinate moved by one
   ulp and for one curve point moved by 1e-6.
2. The oracle checker counts a failure for one flipped label.
3. The thresholds checker counts a failure for a T = 0 threshold off the
   table, for a later i4 root returned in place of the smallest, and for a
   divergence certificate where a root exists.
4. For every workload, two traced runs with seed COUNT_SEED report the same
   exact counts.
5. Without the package sources, run.py exits non-zero and prints no result.

Exits 0 when every check holds.  Writes only under ``.bench_out/``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, check_pass, import_fdsw, plain_api

EXACT_UNITS = ("count", "B", "B-computed")
COUNT_WORKLOADS = ("thresholds", "oracle", "diagram")
COUNT_SEED = 7


def _failures(workload, case, answer) -> list[str]:
    failures: list = []
    check_pass(workload, [case], [answer], failures)
    return [problem for _, problem, _ in failures]


def _edit(rows: list[str], i: int, field: int, change) -> list[str]:
    """A copy of CSV rows with one field of row i replaced by change(field)."""
    fields = rows[i].rstrip("\n").split(",")
    fields[field] = change(fields[field])
    return rows[:i] + [",".join(fields) + "\n"] + rows[i + 1 :]


def check_diagram_checker() -> list[str]:
    from workloads import DIAGRAM_MODELS, Diagram

    errors = []
    diagram = Diagram(OUT_DIR)
    for model in DIAGRAM_MODELS:
        rc, grid, curves = diagram.run(plain_api(), model)
        if rc != 0:
            errors.append(f"diagram {model.value}: CLI exited {rc}")
            continue
        grid_rows = grid.read_text().splitlines(keepends=True)
        curve_rows = curves.read_text().splitlines(keepends=True)
        mid = len(grid_rows) // 2
        for what, grid_variant, curves_variant, want in (
            ("CLI output", grid_rows, curve_rows, 0),
            ("one altered label", _edit(grid_rows, mid, 3, lambda v: "U" if v == "S" else "S"), curve_rows, 1),
            ("one coordinate off by an ulp", _edit(grid_rows, mid, 0, lambda v: f"{math.nextafter(float(v), math.inf):.17g}"), curve_rows, 1),
            ("one curve point moved by 1e-6", grid_rows, _edit(curve_rows, 1, 1, lambda v: repr(float(v) + 1e-6)), 1),
        ):  # fmt: skip
            grid.write_text("".join(grid_variant))
            curves.write_text("".join(curves_variant))
            got = len(_failures(diagram, model, (0, grid, curves)))
            if got != want:
                errors.append(f"diagram {model.value} {what}: {got} failures, expected {want}")
    return errors


def check_checkers() -> list[str]:
    from fdsw import Model, critical_wavenumber
    from fdsw.analysis import find_factor_roots
    from workloads import Oracle, Thresholds

    errors = check_diagram_checker()
    oracle = Oracle(OUT_DIR)
    case = (2.0, 0.0)
    for what, answer, want in (
        ("agreeing labels", (-1.0, "U", 1e-3), 0),
        ("flipped pencil label", (-1.0, "S", 1e-3), 1),
        ("flipped hill label", (-1.0, "U", 0.0), 1),
        ("flipped index label", (1.0, "U", 1e-3), 1),
    ):
        got = len(_failures(oracle, case, answer))
        if got != want:
            errors.append(f"oracle {what}: {got} failures, expected {want}")

    thresholds = Thresholds(OUT_DIR)
    at_t0 = critical_wavenumber(Model.WHITHAM, 0.0)
    # fdch at T = 0.1 has two i4 roots, near 1.38 and 5.12.
    two_roots = critical_wavenumber(Model.FDCH, 0.1)
    later = find_factor_roots(Model.FDCH, "i4", 0.1, 1e-4, 200.0)[1]
    for what, case, answer, want in (
        ("seed answer at T = 0", ("critical", Model.WHITHAM, 0.0), at_t0, None),
        ("seed answer with two roots", ("critical", Model.FDCH, 0.1), two_roots, None),
        (
            "kappa_c off table",
            ("critical", Model.WHITHAM, 0.0),
            dataclasses.replace(at_t0, kappa_c=at_t0.kappa_c + 0.01),
            "table says",
        ),
        (
            "later root",
            ("critical", Model.FDCH, 0.1),
            dataclasses.replace(two_roots, kappa_c=later, bracket=(later - 1e-8, later + 1e-8)),
            "not the smallest root",
        ),
        (
            "divergence certificate with a root",
            ("critical", Model.FDCH, 0.1),
            dataclasses.replace(two_roots, kappa_c=None, bracket=None, iterations=0),
            "divergent, but",
        ),
    ):
        got = _failures(thresholds, case, answer)
        ok = not got if want is None else len(got) == 1 and want in got[0]
        if not ok:
            errors.append(f"thresholds {what}: failures {got}, expected {want or 'none'}")
    return errors


def _bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_counts(workload: str) -> list[str]:
    runs = []
    for _ in range(2):
        done = _bench("--workload", workload, "--seed", str(COUNT_SEED), "--seconds", "0.001", "--trace", "1")
        if done.returncode != 0:
            return [f"{workload}: traced run exited {done.returncode}: {done.stderr[-500:]}"]
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        runs.append({k: m["value"] for k, m in metrics.items() if m["unit"] in EXACT_UNITS})
    first, second = runs
    print(f"{workload} exact counts: {json.dumps(first)}")
    return [
        f"{workload} {name}: {first[name]} then {second[name]}"
        for name in first
        if first[name] != second[name]
    ]


def check_without_sources() -> list[str]:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _bench("--workload", "thresholds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        return [f"without sources: exit {done.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    import_fdsw()
    OUT_DIR.mkdir(exist_ok=True)
    errors = check_checkers() + check_without_sources()
    for workload in COUNT_WORKLOADS:
        errors += check_counts(workload)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
