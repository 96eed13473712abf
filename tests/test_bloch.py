import math
from itertools import permutations

import numpy as np
import pytest
from conftest import probe_points

import fdsw.bloch
import fdsw.stokes
from fdsw.bloch import (
    DegeneratePencilError,
    Stability,
    build_matrices,
    classify_band,
    classify_pencil,
)
from fdsw.config import CLASSIFY_TOL, SIDEBAND_LADDER
from fdsw.dispersion import eval_dispersion
from fdsw.factors import Model, index
from fdsw.hill import growth_rate

DC_1_0 = -0.19572723242223277472


def roots_in_X(L, I, xi):
    """The pencil's roots X = lambda/(i*xi), one 4x4 pair at a time."""
    return np.linalg.eigvals(np.linalg.solve(I, L)) / (1j * xi)


def reference_roots_in_X(L, I, xi):
    """The same roots through the characteristic quartic, as a polynomial.

    det(L - lambda*I) = det(I) * det(I^-1 L - lambda) in ascending powers of
    lambda, rescaled by (i*xi)^n into a quartic in X and solved by np.roots.
    """
    quartic = (np.linalg.det(I) * np.poly(np.linalg.solve(I, L)))[::-1]
    powers = np.array([(1j * xi) ** n for n in range(5)])
    return np.roots((quartic * powers)[::-1])


def rung_is_unstable(roots):
    return np.abs(roots.imag).max() > CLASSIFY_TOL * (1.0 + np.abs(roots).max())


def test_pencil_vanishes_at_origin_of_parameters():
    L, I = build_matrices(0.0, 0.0, 1.0, 0.0)
    assert np.abs(L).max() == 0.0
    np.testing.assert_allclose(I, np.eye(4), atol=1e-15)
    # det(L - lambda*I) = lambda^4: every eigenvalue of I^-1 L is zero
    np.testing.assert_allclose(np.linalg.eigvals(np.linalg.solve(I, L)), np.zeros(4), atol=1e-15)


def test_quartic_leading_coefficient_is_det_I():
    # the quartic det(L - lambda*I) is det(I) * prod(mu_k - lambda) over the
    # eigenvalues mu_k of I^-1 L: it vanishes at each of them, and its value
    # at lambda = 0 fixes the leading coefficient det(I)
    xi = 0.01
    L, I = build_matrices(xi, 0.01, 1.3, 0.4)
    mu = 1j * xi * roots_in_X(L, I, xi)
    scale = np.abs(L).max() ** 4
    for m in mu:
        assert abs(np.linalg.det(L - m * I)) < 1e-12 * scale
    assert np.linalg.det(L) == pytest.approx(np.linalg.det(I) * np.prod(mu), rel=1e-10)


def test_array_of_xi_stacks_the_float_pencils():
    xis = 0.02 * np.array(SIDEBAND_LADDER)
    Ls, Is = build_matrices(xis, 0.01, 1.3, 0.4)
    assert Ls.shape == Is.shape == (len(xis), 4, 4)
    for xi, L, I in zip(xis, Ls, Is):
        L1, I1 = build_matrices(float(xi), 0.01, 1.3, 0.4)
        assert L1.shape == I1.shape == (4, 4)
        np.testing.assert_array_equal(L, L1)
        np.testing.assert_array_equal(I, I1)


@pytest.mark.parametrize("kappa,bond", [(0.5, 0.0), (1.0, 0.0), (2.0, 1.0), (0.7, 0.2)])
def test_zero_amplitude_roots_are_real(kappa, bond):
    L, I = build_matrices(0.01, 0.0, kappa, bond)
    roots = roots_in_X(L, I, 0.01)
    biggest = max(abs(r) for r in roots)
    assert max(abs(r.imag) for r in roots) < 1e-8 * (1.0 + biggest)
    assert classify_pencil(L, I, 0.01) is Stability.STABLE


def test_zero_amplitude_transport_pair():
    # two of the four roots sit at X = -kappa*c' (split at O(xi) by the
    # xi^2 dispersive rotation), the other two are the eigenvalues of the
    # symmetric 2x2 mean-mode block
    roots = sorted(roots_in_X(*build_matrices(0.01, 0.0, 1.0, 0.0), 0.01).real)
    near_transport = [r for r in roots if abs(r - (-DC_1_0)) < 5e-3]
    assert len(near_transport) == 2


def test_classification_matches_known_cases():
    assert classify_pencil(*build_matrices(0.01, 0.01, 2.0, 0.0), 0.01) is Stability.UNSTABLE
    assert classify_pencil(*build_matrices(0.01, 0.01, 0.5, 0.0), 0.01) is Stability.STABLE


def test_degenerate_quartic_raises():
    zero = np.zeros((4, 4), dtype=complex)
    with pytest.raises(DegeneratePencilError):
        classify_pencil(zero, zero, 0.01)


@pytest.mark.parametrize(
    "xi_max,amplitude,message",
    [
        (0.0, 1e-2, "xi must be finite and nonzero, got 0.0"),
        (math.nan, 1e-2, "xi must be finite, got nan"),
        (math.inf, 1e-2, "xi must be finite, got inf"),
        (1e-2, math.nan, "amplitude must be finite, got nan"),
    ],
)
def test_band_rejects_bad_sideband_or_amplitude(xi_max, amplitude, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        classify_band(xi_max, amplitude, 1.0, 0.0)


def test_build_rejects_nonfinite_before_matrix_work(monkeypatch):
    def no_orders(*args):
        raise AssertionError("pencil_orders reached")

    monkeypatch.setattr(fdsw.bloch, "pencil_orders", no_orders)
    with pytest.raises(ValueError, match="^xi must be finite, got nan$"):
        build_matrices([1e-2, math.nan], 1e-2, 1.0, 0.0)
    with pytest.raises(ValueError, match="^amplitude must be finite, got inf$"):
        build_matrices(1e-2, math.inf, 1.0, 0.0)


def test_band_classification_matches_index_sign():
    for kappa, bond in probe_points():
        expected = Stability.UNSTABLE if index(Model.FDSW2, kappa, bond).delta < 0 else Stability.STABLE
        assert classify_band(1e-2, 1e-2, kappa, bond) is expected, (kappa, bond)


def test_classification_stable_under_parameter_halving():
    for kappa, bond in probe_points():
        full = classify_band(1e-2, 1e-2, kappa, bond)
        halved = classify_band(5e-3, 5e-3, kappa, bond)
        assert full is halved, (kappa, bond)


def _peak_growth(growth, xis):
    """The largest of ``growth(xis)``, on two finer grids about the argmax in turn."""
    for _ in range(3):
        values = growth(xis)
        best = int(np.argmax(values))
        xis = np.linspace(xis[max(best - 1, 0)], xis[min(best + 1, xis.size - 1)], 11)
    return values.max()


@pytest.mark.parametrize("kappa, bond", [(2.0, 0.0), (2.5, 2.0)])
def test_peak_growth_is_c_times_hills(kappa, bond):
    # the pencil's growth is not Hill's, but at small amplitude its peak over
    # xi is c(kappa) times Hill's (0.69427 at (2, 0), 2.3082 at (2.5, 2))
    a = 1e-3

    def pencil(xis):
        L, I = build_matrices(xis, a, kappa, bond)
        return np.linalg.eigvals(np.linalg.solve(I, L)).real.max(axis=-1)

    def hill(xis):
        return np.array([growth_rate(xi, a, kappa, bond, 32) for xi in xis.tolist()])

    xis = a * np.geomspace(1e-2, 10.0, 31)
    ratio = _peak_growth(pencil, xis) / _peak_growth(hill, xis)
    assert ratio == pytest.approx(eval_dispersion(kappa, bond).c, abs=1e-3)


def test_eigenvalues_match_the_quartic_route_on_the_probe_grid():
    # the roots the classification takes from one batched eigensolve are
    # those of the characteristic quartic, rung by rung, and so are the labels
    n_points = 0
    for kappa, bond in probe_points():
        n_points += 1
        xis = 1e-2 * np.array(SIDEBAND_LADDER)
        Ls, Is = build_matrices(xis, 1e-2, kappa, bond)
        batched = np.linalg.eigvals(np.linalg.solve(Is, Ls)) / (1j * xis[:, None])
        rungs = []
        for k, xi in enumerate(xis):
            L, I = build_matrices(float(xi), 1e-2, kappa, bond)
            ref = reference_roots_in_X(L, I, float(xi))
            error = min(np.abs(batched[k][list(p)] - ref).max() for p in permutations(range(4)))
            assert error <= 1e-10 * np.abs(ref).max(), (kappa, bond, xi)
            assert rung_is_unstable(batched[k]) == rung_is_unstable(ref), (kappa, bond, xi)
            assert classify_pencil(L, I, float(xi)) is (
                Stability.UNSTABLE if rung_is_unstable(ref) else Stability.STABLE
            )
            rungs.append(rung_is_unstable(ref))
        expected = Stability.UNSTABLE if any(rungs) else Stability.STABLE
        assert classify_band(1e-2, 1e-2, kappa, bond) is expected, (kappa, bond)
    assert n_points == 23


def test_band_is_one_build_and_one_eigensolve(monkeypatch):
    calls = {"build_matrices": 0, "eigvals": 0, "poly": 0, "roots": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(fdsw.bloch, "build_matrices")
    counted(np.linalg, "eigvals")
    counted(np, "poly")
    counted(np, "roots")
    # (0.5, 0) is stable, so no rung of the ladder ends the sweep early
    assert classify_band(1e-2, 1e-2, 0.5, 0.0) is Stability.STABLE
    assert calls == {"build_matrices": 1, "eigvals": 1, "poly": 0, "roots": 0}


def test_exports_resolve_and_removed_names_are_gone():
    assert len(set(fdsw.__all__)) == len(fdsw.__all__)
    for name in fdsw.__all__:
        assert hasattr(fdsw, name), name
    removed = (
        "eigenbasis",
        "EigenBasis",
        "HARMONICS",
        "BlochMatrices",
        "classify_from_quartic",
        "DegenerateQuarticError",
        "check_resonance_admissible",
        "assemble",
        "HillProblem",
        "eval_dispersion_array",
    )
    for module in (fdsw, fdsw.bloch, fdsw.stokes, fdsw.hill, fdsw.dispersion):
        for name in removed:
            assert not hasattr(module, name), (module.__name__, name)
