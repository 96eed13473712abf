import math
from itertools import permutations

import numpy as np
import pytest

import fdsw.bloch
from fdsw.analysis import find_factor_roots
from fdsw.bloch import (
    BlochMatrices,
    DegenerateQuarticError,
    Stability,
    build_matrices,
    classify_band,
    classify_from_quartic,
    eigenbasis,
)
from fdsw.config import CLASSIFY_TOL, SIDEBAND_LADDER
from fdsw.factors import Model, index

C_1_0 = 0.87269362089782969154
DC_1_0 = -0.19572723242223277472


def roots_in_X(bm):
    """The pencil's roots X = lambda/(i*xi), one 4x4 pair at a time."""
    return np.linalg.eigvals(np.linalg.solve(bm.Imat, bm.Lmat)) / (1j * bm.xi)


def reference_roots_in_X(bm):
    """The same roots through the characteristic quartic, as a polynomial.

    det(L - lambda*I) = det(I) * det(I^-1 L - lambda) in ascending powers of
    lambda, rescaled by (i*xi)^n into a quartic in X and solved by np.roots.
    """
    quartic = (np.linalg.det(bm.Imat) * np.poly(np.linalg.solve(bm.Imat, bm.Lmat)))[::-1]
    powers = np.array([(1j * bm.xi) ** n for n in range(5)])
    return np.roots((quartic * powers)[::-1])


def rung_is_unstable(roots):
    return np.abs(roots.imag).max() > CLASSIFY_TOL * (1.0 + np.abs(roots).max())


def test_eigenbasis_leading_terms():
    eb = eigenbasis(0.0, 0.0, 1.0, 0.0)
    np.testing.assert_allclose(eb.coeffs[0, 1], [C_1_0, 1.0], rtol=1e-13)  # cos z
    np.testing.assert_allclose(eb.coeffs[1, 2], [C_1_0, 1.0], rtol=1e-13)  # sin z
    np.testing.assert_allclose(eb.coeffs[2, 0], [2.0 * C_1_0, -1.0], rtol=1e-13)
    np.testing.assert_allclose(eb.coeffs[3, 0], [1.0, 2.0 * C_1_0], rtol=1e-13)


def test_eigenbasis_sideband_rotation():
    xi = 0.1
    eb = eigenbasis(xi, 0.0, 1.0, 0.0)
    scale = xi * DC_1_0 / (C_1_0**2 + 1.0)
    np.testing.assert_allclose(
        eb.coeffs[0, 2], 1j * scale * np.array([1.0, -C_1_0]), rtol=1e-12
    )
    np.testing.assert_allclose(
        eb.coeffs[1, 1], -1j * scale * np.array([1.0, -C_1_0]), rtol=1e-12
    )


def test_eigenbasis_amplitude_corrections():
    a = 0.01
    eb = eigenbasis(0.0, a, 1.0, 0.0)
    np.testing.assert_allclose(
        eb.coeffs[3, 1], [a / (2.0 * C_1_0), 0.0], rtol=1e-12
    )  # ~ (0.005729, 0)
    assert eb.coeffs[3, 1][0] == pytest.approx(0.00572938, rel=1e-5)
    np.testing.assert_allclose(eb.coeffs[2, 1], [a, 0.0], rtol=1e-13)


def test_pencil_vanishes_at_origin_of_parameters():
    bm = build_matrices(0.0, 0.0, 1.0, 0.0)
    assert np.abs(bm.Lmat).max() == 0.0
    np.testing.assert_allclose(bm.Imat, np.eye(4), atol=1e-15)
    # det(L - lambda*I) = lambda^4: every eigenvalue of I^-1 L is zero
    np.testing.assert_allclose(
        np.linalg.eigvals(np.linalg.solve(bm.Imat, bm.Lmat)), np.zeros(4), atol=1e-15
    )


def test_quartic_leading_coefficient_is_det_I():
    # the quartic det(L - lambda*I) is det(I) * prod(mu_k - lambda) over the
    # eigenvalues mu_k of I^-1 L: it vanishes at each of them, and its value
    # at lambda = 0 fixes the leading coefficient det(I)
    bm = build_matrices(0.01, 0.01, 1.3, 0.4)
    mu = 1j * bm.xi * roots_in_X(bm)
    scale = np.abs(bm.Lmat).max() ** 4
    for m in mu:
        assert abs(np.linalg.det(bm.Lmat - m * bm.Imat)) < 1e-12 * scale
    assert np.linalg.det(bm.Lmat) == pytest.approx(np.linalg.det(bm.Imat) * np.prod(mu), rel=1e-10)


def test_array_of_xi_stacks_the_float_pencils():
    xis = 0.02 * np.array(SIDEBAND_LADDER)
    stack = build_matrices(xis, 0.01, 1.3, 0.4)
    assert stack.Lmat.shape == stack.Imat.shape == (len(xis), 4, 4)
    for xi, L, I in zip(xis, stack.Lmat, stack.Imat):
        single = build_matrices(float(xi), 0.01, 1.3, 0.4)
        assert single.Lmat.shape == (4, 4)
        np.testing.assert_array_equal(L, single.Lmat)
        np.testing.assert_array_equal(I, single.Imat)


@pytest.mark.parametrize("kappa,bond", [(0.5, 0.0), (1.0, 0.0), (2.0, 1.0), (0.7, 0.2)])
def test_zero_amplitude_roots_are_real(kappa, bond):
    bm = build_matrices(0.01, 0.0, kappa, bond)
    roots = roots_in_X(bm)
    biggest = max(abs(r) for r in roots)
    assert max(abs(r.imag) for r in roots) < 1e-8 * (1.0 + biggest)
    assert classify_from_quartic(bm) is Stability.STABLE


def test_zero_amplitude_transport_pair():
    # two of the four roots sit at X = -kappa*c' (split at O(xi) by the
    # xi^2 dispersive rotation), the other two are the eigenvalues of the
    # symmetric 2x2 mean-mode block
    bm = build_matrices(0.01, 0.0, 1.0, 0.0)
    roots = sorted(roots_in_X(bm).real)
    near_transport = [r for r in roots if abs(r - (-DC_1_0)) < 5e-3]
    assert len(near_transport) == 2


def test_classification_matches_known_cases():
    assert classify_from_quartic(build_matrices(0.01, 0.01, 2.0, 0.0)) is Stability.UNSTABLE
    assert classify_from_quartic(build_matrices(0.01, 0.01, 0.5, 0.0)) is Stability.STABLE


def test_degenerate_quartic_raises():
    bm = BlochMatrices(
        xi=0.01,
        amplitude=0.0,
        kappa=1.0,
        bond=0.0,
        Lmat=np.zeros((4, 4), dtype=complex),
        Imat=np.zeros((4, 4), dtype=complex),
    )
    with pytest.raises(DegenerateQuarticError):
        classify_from_quartic(bm)


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


def probe_grid_points():
    kappas = [0.3, 0.5, 0.8, 1.5, 2.0, 3.0]
    bonds = [0.0, 0.05, 0.2, 1.0, 5.0]
    from fdsw.factors import Branch, factor_i1, factor_i2, factor_i3, factor_i4

    for bond in bonds:
        roots = []
        for which in ("i1", "i2", "i3", "i4"):
            roots += find_factor_roots(Model.FDSW2, which, bond, 0.02, 10.0)
        for kappa in kappas:
            if any(abs(kappa - r) < 0.05 for r in roots):
                continue
            detune = min(
                abs(factor_i1(kappa, bond)),
                abs(factor_i2(kappa, bond, Branch.MINUS)),
                abs(factor_i3(kappa, bond, Branch.MINUS)),
                abs(factor_i4(Model.FDSW2, kappa, bond)),
            )
            if detune < 0.05:
                continue
            yield kappa, bond


def test_band_classification_matches_index_sign():
    for kappa, bond in probe_grid_points():
        expected = Stability.UNSTABLE if index(Model.FDSW2, kappa, bond).delta < 0 else Stability.STABLE
        assert classify_band(1e-2, 1e-2, kappa, bond) is expected, (kappa, bond)


def test_classification_stable_under_parameter_halving():
    for kappa, bond in probe_grid_points():
        full = classify_band(1e-2, 1e-2, kappa, bond)
        halved = classify_band(5e-3, 5e-3, kappa, bond)
        assert full is halved, (kappa, bond)


def test_eigenvalues_match_the_quartic_route_on_the_probe_grid():
    # the roots the classification takes from one batched eigensolve are
    # those of the characteristic quartic, rung by rung, and so are the labels
    n_points = 0
    for kappa, bond in probe_grid_points():
        n_points += 1
        xis = 1e-2 * np.array(SIDEBAND_LADDER)
        stack = build_matrices(xis, 1e-2, kappa, bond)
        batched = np.linalg.eigvals(np.linalg.solve(stack.Imat, stack.Lmat)) / (1j * xis[:, None])
        rungs = []
        for k, xi in enumerate(xis):
            single = build_matrices(float(xi), 1e-2, kappa, bond)
            ref = reference_roots_in_X(single)
            error = min(np.abs(batched[k][list(p)] - ref).max() for p in permutations(range(4)))
            assert error <= 1e-10 * np.abs(ref).max(), (kappa, bond, xi)
            assert rung_is_unstable(batched[k]) == rung_is_unstable(ref), (kappa, bond, xi)
            assert classify_from_quartic(single) is (
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
