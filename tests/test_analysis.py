import math

import numpy as np
import pytest

from fdsw.analysis import (
    ROOT_TOL,
    InconclusiveBondError,
    MechanismCurve,
    Verdict,
    classify_intervals,
    critical_wavenumber,
    find_factor_roots,
    large_T_limit,
    stability_diagram,
)
from fdsw.factors import (
    Model,
    factor_i1,
    factor_i2,
    factor_i3,
    factor_i4,
    index,
    index_labels,
)


def test_fdsw2_unique_i4_root_at_t0():
    roots = find_factor_roots(Model.FDSW2, "i4", 0.0, 0.1, 20.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.008, abs=0.002)


def test_whitham_i4_root_at_t0():
    roots = find_factor_roots(Model.WHITHAM, "i4", 0.0, 0.1, 20.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.146, abs=0.002)


def test_i3_has_no_roots_without_surface_tension():
    assert find_factor_roots(Model.FDSW2, "i3", 0.0, 0.1, 20.0) == []


def test_find_factor_roots_validates_range():
    with pytest.raises(ValueError):
        find_factor_roots(Model.FDSW2, "i4", 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        find_factor_roots(Model.FDSW2, "i9", 0.0, 0.1, 1.0)


def _scalar_roots(f, k_lo, k_hi, points):
    """Reference: scan and bisect one point at a time with the scalar factors."""
    grid = [float(k) for k in np.geomspace(k_lo, k_hi, points)]
    values = [f(k) for k in grid]
    roots = []
    for i in range(points - 1):
        if values[i] == 0.0:
            roots.append(grid[i])
        elif values[i] * values[i + 1] < 0.0:
            lo, hi, f_lo = grid[i], grid[i + 1], values[i]
            while hi - lo > ROOT_TOL:
                mid = 0.5 * (lo + hi)
                f_mid = f(mid)
                if f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            roots.append(0.5 * (lo + hi))
    return roots


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("bond", [0.0, 0.2, 0.5, 3.0])
def test_batched_roots_match_scalar_scan(model, bond):
    # np.tanh and math.tanh may differ in the last ulp, which can flip one
    # bisection step: roots agree to twice the bisection tolerance.
    branch = model.branch
    factors = {
        "i1": lambda k: factor_i1(k, bond),
        "i2": lambda k: factor_i2(k, bond, branch),
        "i3": lambda k: factor_i3(k, bond, branch),
        "i4": lambda k: factor_i4(model, k, bond),
    }
    for which, f in factors.items():
        got = find_factor_roots(model, which, bond, 0.05, 20.0, scan_points=400)
        want = _scalar_roots(f, 0.05, 20.0, 400)
        assert len(got) == len(want), which
        for a, b in zip(got, want):
            assert abs(a - b) <= 2 * ROOT_TOL, which


def test_roots_are_sorted_and_bisected_tightly():
    roots = find_factor_roots(Model.FDSW2, "i4", 0.2, 0.05, 30.0)
    assert roots == sorted(roots)
    assert len(roots) == 2
    from fdsw.factors import factor_i4

    for r in roots:
        assert abs(factor_i4(Model.FDSW2, r + 1e-9, 0.2)) < 1e-6 or abs(
            factor_i4(Model.FDSW2, r - 1e-9, 0.2)
        ) < 1e-6


KNOWN_CRITICAL = {
    Model.WHITHAM: 1.146,
    Model.FDCH: 1.420,
    Model.FDSW1: 1.610,
    Model.FDSW2: 1.008,
}


@pytest.mark.parametrize("model,expected", sorted(KNOWN_CRITICAL.items()))
def test_critical_wavenumbers_at_t0(model, expected):
    result = critical_wavenumber(model, 0.0)
    assert not result.divergent
    assert result.kappa_c == pytest.approx(expected, abs=0.002)
    assert result.bracket[0] <= result.kappa_c <= result.bracket[1]
    assert result.bracket[1] - result.bracket[0] <= 1e-10
    assert result.iterations > 0
    # the recorded bracket still straddles the sign change
    from fdsw.factors import factor_i4

    assert factor_i4(model, result.bracket[0], 0.0) * factor_i4(model, result.bracket[1], 0.0) <= 0.0


def test_critical_wavenumber_rejects_bond_third():
    with pytest.raises(InconclusiveBondError):
        critical_wavenumber(Model.FDSW2, 1.0 / 3.0)
    # override allowed
    res = critical_wavenumber(Model.FDSW2, 1.0 / 3.0, allow_bond_third=True)
    assert res.kappa_c is not None


def test_critical_wavenumber_validates_k_max():
    with pytest.raises(ValueError):
        critical_wavenumber(Model.FDSW2, 0.0, k_max=10.0)


def test_large_T_verdicts():
    est = large_T_limit(Model.WHITHAM, conv_tol=0.01)
    assert est.verdict is Verdict.DIVERGENT
    scaled = [y for y in est.scaled_values if y is not None]
    assert scaled[-1] > scaled[-2] > scaled[-3]

    est = large_T_limit(Model.FDSW2, conv_tol=0.01)
    assert est.verdict is Verdict.DIVERGENT

    est = large_T_limit(Model.FDSW1, conv_tol=0.01)
    assert est.verdict is Verdict.CONVERGED
    assert est.limit == pytest.approx(1.054, abs=0.01)

    est = large_T_limit(Model.FDCH, conv_tol=0.01)
    assert est.verdict is Verdict.CONVERGED
    assert est.limit == pytest.approx(1.283, abs=0.01)


def test_large_T_default_tolerance_is_stricter():
    # at the default 1e-3 the sequence over {1,10,100,1000} has not settled
    est = large_T_limit(Model.FDCH)
    assert est.verdict is Verdict.UNDETERMINED


def test_large_T_validates_sequence():
    with pytest.raises(ValueError):
        large_T_limit(Model.FDSW2, (10.0, 1.0))
    with pytest.raises(ValueError):
        large_T_limit(Model.FDSW2, (10.0,))


def test_intervals_fdsw2_low_tension():
    pieces = classify_intervals(Model.FDSW2, 0.2, 0.05, 30.0)
    labels = [label for _, label in pieces]
    assert labels == ["S", "U", "S", "U", "S", "U"]
    # intervals tile the range
    assert pieces[0][0][0] == 0.05
    assert pieces[-1][0][1] == 30.0
    for (first, second) in zip(pieces[:-1], pieces[1:]):
        assert first[0][1] == second[0][0]


def test_intervals_fdsw2_no_tension_and_high_tension():
    labels = [label for _, label in classify_intervals(Model.FDSW2, 0.0, 0.05, 20.0)]
    assert labels == ["S", "U"]
    labels = [label for _, label in classify_intervals(Model.FDSW2, 2.0, 0.05, 20.0)]
    assert labels == ["S", "U"]


def test_diagram_grid_and_curves():
    diagram = stability_diagram(Model.FDSW2, resolution=60, curve_samples=40)
    assert len(diagram.grid) == 3600
    # row-major: kappa varies slowest
    assert diagram.grid[0].kappa == diagram.grid[1].kappa
    # the node (kappa=2, y=0) is unstable at T=0
    node = next(p for p in diagram.grid if p.kappa == pytest.approx(2.0) and p.kappa_sqrtT == 0.0)
    assert node.bond == 0.0
    assert node.label == "U"
    # R4 curve crosses the kappa-axis at the critical wave number
    r4 = next(c for c in diagram.curves if c.mechanism == "R4")
    axis_points = [k for k, y in r4.points if y == 0.0]
    assert any(abs(k - 1.008) < 0.002 for k in axis_points)
    assert {c.mechanism for c in diagram.curves} == {"R1", "R2", "R3", "R4"}


def test_diagram_inconclusive_on_bond_third_line():
    # a 2x2 grid whose node (1.5, 1.5/sqrt(3)) lies on the line T = 1/3
    y = 1.5 / math.sqrt(3.0)
    diagram = stability_diagram(
        Model.FDSW2, k_range=(0.0, 1.5), ksqrtT_range=(0.0, y), resolution=2, curve_samples=2
    )
    node = next(p for p in diagram.grid if p.kappa == 1.5 and p.kappa_sqrtT == y)
    assert abs(node.bond - 1.0 / 3.0) < 1e-9
    assert node.label == "Inconclusive"


@pytest.mark.parametrize("model", list(Model))
def test_diagram_grid_matches_scalar_index(model):
    diagram = stability_diagram(model, resolution=25, curve_samples=2)
    for p in diagram.grid:
        assert p.bond == (p.kappa_sqrtT / p.kappa) ** 2
        assert p.label == index(model, p.kappa, p.bond).classification


@pytest.mark.parametrize("model", list(Model))
def test_batched_labels_match_index_at_guarded_nodes(model):
    wilton = find_factor_roots(Model.FDSW2, "i3", 0.2, 1.0, 1.5)[0]
    kappas = np.array([0.005, 0.3, 1.0, wilton, 1.5, 2.2, 7.0])
    bonds = np.array([0.0, 0.05, 0.2, 1.0 / 3.0, 1.0 / 3.0 + 5e-10, 0.34, 10.0, 1e300])
    labels = index_labels(model, kappas[:, None], bonds[None, :])
    for i, kappa in enumerate(kappas.tolist()):
        for j, bond in enumerate(bonds.tolist()):
            assert labels[i, j] == index(model, kappa, bond).classification, (kappa, bond)
    assert {"S", "U", "Inconclusive"} <= set(labels.ravel())
    # at T = 1e300 delta overflows (bidirectional models) or i3 falls
    # inside the pole guard (unidirectional): never a plain "S"
    assert "S" not in set(labels[:, -1])
    if not model.unidirectional:
        assert set(labels[:, -1]) == {"OutsideValidity"}
    if model is Model.FDSW2:
        assert labels[3, 2] == "NearPole"


def test_diagram_curves_lie_on_grid_label_boundaries():
    diagram = stability_diagram(Model.FDSW2, resolution=100, curve_samples=120)
    res = 100
    ys = [p.kappa_sqrtT for p in diagram.grid[:res]]
    kappas = [diagram.grid[i * res].kappa for i in range(res)]
    labels = {}
    for p in diagram.grid:
        labels[(p.kappa, p.kappa_sqrtT)] = p.label
    checked = 0
    for curve in diagram.curves:
        for k, y in curve.points:
            if not (0.3 <= k <= 2.7 and 0.3 <= y <= 2.7):
                continue
            i = min(range(len(kappas)), key=lambda idx: abs(kappas[idx] - k))
            j = min(range(len(ys)), key=lambda idx: abs(ys[idx] - y))
            seen = {
                labels[(kappas[ii], ys[jj])]
                for ii in range(max(0, i - 2), min(res, i + 3))
                for jj in range(max(0, j - 2), min(res, j + 3))
            }
            assert len(seen) >= 2, (curve.mechanism, k, y, seen)
            checked += 1
    assert checked > 20


def test_diagram_validates_inputs():
    with pytest.raises(ValueError):
        stability_diagram(Model.FDSW2, resolution=1)
    with pytest.raises(ValueError):
        stability_diagram(Model.FDSW2, k_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        stability_diagram(Model.FDSW2, k_range=(0.0, math.inf))
    with pytest.raises(ValueError):
        stability_diagram(Model.FDSW2, ksqrtT_range=(0.0, math.nan))
