"""Acceptance suite: one test per criterion.

Each criterion is timed where a runtime budget applies.  Verdicts are
recorded through the ``acceptance_report`` fixture and echoed as an
"acceptance criteria" section in the pytest terminal summary, one PASS/FAIL
line per criterion.
"""

import importlib.util
import math
import sys
import time
from pathlib import Path

import pytest
from conftest import PROBE_BONDS, PROBE_KAPPAS, nearest_reference, probe_points

from fdsw.analysis import (
    classify_intervals,
    critical_wavenumber,
    find_factor_roots,
    large_T_limit,
)
from fdsw.bloch import Stability, classify_band
from fdsw.config import growth_threshold
from fdsw.dispersion import eval_dispersion
from fdsw.factors import Model, factor_i1, factor_i2, factor_i3, factor_i4, index
from fdsw.hill import growth_rate, growth_rate_band
from fdsw.stokes import residual_periodic, wave_train


def test_critical_wavenumbers_t0(acceptance_report):
    expected = {
        Model.WHITHAM: 1.146,
        Model.FDCH: 1.420,
        Model.FDSW1: 1.610,
        Model.FDSW2: 1.008,
    }
    start = time.perf_counter()
    values = {m: critical_wavenumber(m, 0.0).kappa_c for m in expected}
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and all(
        abs(values[m] - expected[m]) <= 0.002 for m in expected
    )
    acceptance_report(
        "critical-wavenumbers-T0",
        ok,
        ", ".join(f"{m.value}={values[m]:.4f}" for m in expected) + f", {elapsed:.2f}s",
    )
    for m, target in expected.items():
        assert values[m] == pytest.approx(target, abs=0.002)
    assert elapsed < 1.0


def test_fdsw2_t0_sign_structure(acceptance_report):
    signs_ok = True
    i4_signs = []
    for i in range(1000):
        kappa = 0.01 * math.exp(math.log(2000.0) * i / 999.0)  # 0.01 .. 20
        signs_ok &= factor_i1(kappa, 0.0) < 0.0
        signs_ok &= factor_i2(kappa, 0.0) < 0.0
        signs_ok &= factor_i3(kappa, 0.0) > 0.0
        i4_signs.append(factor_i4(Model.FDSW2, kappa, 0.0) > 0.0)
    changes = sum(1 for a, b in zip(i4_signs[:-1], i4_signs[1:]) if a != b)
    ok = signs_ok and changes == 1
    acceptance_report("fdsw2-t0-sign-structure", ok, f"i4 sign changes = {changes}")
    assert signs_ok
    assert changes == 1


def test_large_T_protocol(acceptance_report):
    start = time.perf_counter()
    limits = {m: large_T_limit(m).limit for m in Model}
    elapsed = time.perf_counter() - start
    fdsw1, fdch = limits[Model.FDSW1], limits[Model.FDCH]
    ok = (
        elapsed < 10.0
        and fdsw1 is not None
        and abs(fdsw1 - 1.054) <= 0.01
        and fdch is not None
        and abs(fdch - 1.283) <= 0.01
        and limits[Model.WHITHAM] is None
        and limits[Model.FDSW2] is None
    )
    acceptance_report(
        "large-T-protocol",
        ok,
        f"fdsw1={fdsw1:.4f}, fdch={fdch:.4f}, whitham/fdsw2 no finite limit, {elapsed:.2f}s",
    )
    assert fdsw1 == pytest.approx(1.054, abs=0.01)
    assert fdch == pytest.approx(1.283, abs=0.01)
    assert limits[Model.WHITHAM] is None and limits[Model.FDSW2] is None
    assert elapsed < 10.0


def test_region_structure(acceptance_report):
    # the sixth interval's delimiter (second i4 root, kappa = 23.3 at T = 0.2)
    # sits just past 20, so the range extends to 30 to cover all six pieces
    low = [label for _, label in classify_intervals(Model.FDSW2, 0.2, 0.05, 30.0)]
    high = [label for _, label in classify_intervals(Model.FDSW2, 2.0, 0.05, 20.0)]
    ok = (
        low.count("S") == 3
        and low.count("U") == 3
        and len(low) == 6
        and high == ["S", "U"]
    )
    acceptance_report("region-structure", ok, f"T=0.2: {'/'.join(low)}, T=2: {'/'.join(high)}")
    assert low == ["S", "U", "S", "U", "S", "U"]
    assert high == ["S", "U"]


def test_probe_filter_matches_the_bench_oracle_filter(monkeypatch):
    # the oracle workload draws its points through bench/workloads.py's
    # filter; on the probe grid it keeps exactly the points probe_points keeps
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    kept = []
    for bond in PROBE_BONDS:
        roots = []
        for which in ("i1", "i2", "i3", "i4"):
            roots += find_factor_roots(Model.FDSW2, which, bond, 0.02, 10.0)
        kept += [(k, bond) for k in PROBE_KAPPAS if workloads.admissible_probe(k, bond, roots)]
    assert kept == list(probe_points())
    assert 0 < len(kept) < len(PROBE_KAPPAS) * len(PROBE_BONDS)


def test_oracle_triangle(acceptance_report):
    start = time.perf_counter()
    disagreements = []
    n_points = 0
    for kappa, bond in probe_points():
        n_points += 1
        from_index = "U" if index(Model.FDSW2, kappa, bond).delta < 0.0 else "S"
        from_pencil = classify_band(1e-2, 1e-2, kappa, bond).value
        growth = growth_rate_band(1e-2, 1e-2, kappa, bond, 32)
        from_hill = "U" if growth > growth_threshold(1e-2) else "S"
        if not (from_index == from_pencil == from_hill):
            disagreements.append((kappa, bond, from_index, from_pencil, from_hill))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 30.0 and n_points >= 20
    acceptance_report(
        "oracle-triangle",
        ok,
        f"{n_points} points, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert disagreements == []
    assert n_points >= 20
    assert elapsed < 30.0


def test_stokes_residual_scaling(acceptance_report):
    amplitudes = (1e-2, 1e-3, 1e-4)
    residuals = [residual_periodic(wave_train(a, 1.0, 0.0), 16) for a in amplitudes]
    slope = (math.log(residuals[0]) - math.log(residuals[-1])) / (
        math.log(amplitudes[0]) - math.log(amplitudes[-1])
    )
    ok = abs(slope - 3.0) <= 0.2
    acceptance_report("stokes-residual-scaling", ok, f"slope = {slope:.3f}")
    assert slope == pytest.approx(3.0, abs=0.2)


def test_derivative_consistency(acceptance_report):
    worst = 0.0
    for bond in (0.0, 0.1, 1.0 / 3.0, 1.0, 10.0):
        for i in range(1, 201):
            kappa = 0.05 * i
            h = 1e-6 * max(1.0, kappa)
            lo = eval_dispersion(kappa - h, bond)
            hi = eval_dispersion(kappa + h, bond)
            s = eval_dispersion(kappa, bond)
            for fd, closed in (
                ((hi.c - lo.c) / (2.0 * h), s.dc),
                ((hi.dc - lo.dc) / (2.0 * h), s.d2c),
                ((hi.cg - lo.cg) / (2.0 * h), s.dcg),
            ):
                worst = max(worst, abs(fd - closed) / max(1e-3, abs(closed)))
    ok = worst <= 1e-6
    acceptance_report("derivative-consistency", ok, f"worst relative deviation = {worst:.2e}")
    assert worst <= 1e-6


def test_hill_truncation_stability(acceptance_report):
    # both truncations iterate on the same core, so each is also held to the
    # dense quartet of the N = 48 matrix itself
    worst = dense = 0.0
    for kappa, bond in probe_points():
        g32 = growth_rate(1e-2, 1e-2, kappa, bond, 32)
        g48 = growth_rate(1e-2, 1e-2, kappa, bond, 48)
        reference = nearest_reference(1e-2, 1e-2, kappa, bond, 48)
        worst = max(worst, abs(g48 - g32))
        dense = max(dense, abs(g32 - reference), abs(g48 - reference))
    ok = worst < 1e-10 and dense < 1e-10
    acceptance_report(
        "hill-truncation-stability",
        ok,
        f"max |g48 - g32| = {worst:.2e}, max |g - dense quartet at N = 48| = {dense:.2e}",
    )
    assert worst < 1e-10
    assert dense < 1e-10
