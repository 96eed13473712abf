import numpy as np
import pytest

from fdsw.dispersion import eval_dispersion
from fdsw.hill import MAX_N_MODES, WaveRefinementError, assemble, growth_rate, growth_rate_band
from fdsw.stokes import wave_train


def test_zero_amplitude_matrix_is_block_diagonal():
    N = 8
    prob = assemble(0.3, 0.0, 1.0, 0.0, N)
    dim = 2 * N + 1
    M = prob.matrix
    for block in (M[:dim, :dim], M[:dim, dim:], M[dim:, :dim], M[dim:, dim:]):
        off = block - np.diag(np.diag(block))
        assert np.abs(off).max() == 0.0


def test_zero_amplitude_spectrum_is_imaginary():
    prob = assemble(0.3, 0.0, 1.0, 0.0, 16)
    eigenvalues = np.linalg.eigvals(prob.matrix)
    assert np.abs(eigenvalues.real).max() < 1e-12


def test_zero_amplitude_block_eigenvalues():
    # mode n: lambda = i (n + xi) (c0 +- c(kappa |n + xi|)), frame speed c0
    xi, kappa, N = 0.3, 1.0, 16
    prob = assemble(xi, 0.0, kappa, 0.0, N)
    eigenvalues = np.linalg.eigvals(prob.matrix)
    c0 = eval_dispersion(kappa, 0.0).c
    expected = []
    for n in range(-N, N + 1):
        cw = eval_dispersion(kappa * abs(n + xi), 0.0).c
        expected += [1j * (n + xi) * (c0 + cw), 1j * (n + xi) * (c0 - cw)]
    # spectrum is purely imaginary; compare sorted by imaginary part
    eigenvalues = eigenvalues[np.argsort(eigenvalues.imag)]
    expected = np.array(expected)[np.argsort(np.array(expected).imag)]
    np.testing.assert_allclose(eigenvalues, expected, atol=1e-10)


def test_growth_zero_without_wave():
    assert growth_rate(0.01, 0.0, 1.0, 0.0, 32) == 0.0
    assert growth_rate(0.0, 0.0, 1.0, 0.0, 32) == 0.0


def test_growth_positive_above_critical_wavenumber():
    assert growth_rate(0.01, 0.01, 2.0, 0.0, 32) > 1e-6


def test_growth_negligible_below_critical_wavenumber():
    assert growth_rate(0.01, 0.01, 0.5, 0.0, 32) <= 1e-8


def test_four_branches_bifurcate_from_origin():
    prob = assemble(0.0, 0.01, 1.0, 0.0, 32)
    eigenvalues = np.linalg.eigvals(prob.matrix)
    near = eigenvalues[np.abs(eigenvalues) <= 0.1]
    assert near.size == 4


def test_refined_wave_matches_expansion_through_second_order():
    # the Newton-polished coefficients differ from the expansion by O(a^3)
    a = 0.01
    prob = assemble(0.0, a, 1.0, 0.0, 16)
    w = wave_train(a, 1.0, 0.0)
    np.testing.assert_allclose(prob.u_coeffs[:3], w.u_coeffs, atol=5.0 * a**3)
    np.testing.assert_allclose(prob.eta_coeffs[:3], w.eta_coeffs, atol=5.0 * a**3)
    assert prob.speed == pytest.approx(w.speed, abs=5.0 * a**3)
    # beyond the expansion's reach the coefficients keep decaying
    assert abs(prob.u_coeffs[3]) < abs(prob.u_coeffs[2])


def test_convolution_band_matches_wave_coefficients():
    a = 0.01
    N = 12
    prob = assemble(0.0, a, 1.0, 0.0, N)
    dim = 2 * N + 1
    # row of mode n=1 (index N+1): M[n, :dim] = i*n*(speed*e_n - u-convolution)
    unit = np.zeros(dim)
    unit[N + 1] = 1.0
    row = prob.speed * unit - prob.matrix[N + 1, :dim] / 1j
    assert row[N + 1].real == pytest.approx(prob.u_coeffs[0], abs=1e-14)
    assert row[N].real == pytest.approx(0.5 * prob.u_coeffs[1], abs=1e-14)
    assert row[N + 2].real == pytest.approx(0.5 * prob.u_coeffs[1], abs=1e-14)
    assert row[N - 1].real == pytest.approx(0.5 * prob.u_coeffs[2], abs=1e-14)
    assert row[N + 3].real == pytest.approx(0.5 * prob.u_coeffs[2], abs=1e-14)
    # and these agree with the second-order expansion to O(a^3)
    w = wave_train(a, 1.0, 0.0)
    assert row[N].real == pytest.approx(0.5 * w.u_coeffs[1], abs=5.0 * a**3)
    assert row[N - 1].real == pytest.approx(0.5 * w.u_coeffs[2], abs=5.0 * a**3)


def test_spectral_symmetry_pairs():
    # eigenvalues come in {lambda, -conj(lambda)} pairs at a > 0
    prob = assemble(0.01, 0.01, 2.0, 0.0, 16)
    eigenvalues = np.linalg.eigvals(prob.matrix)
    for target in -eigenvalues.conj():
        assert np.abs(eigenvalues - target).min() < 1e-8


def test_truncation_stability():
    g32 = growth_rate(0.01, 0.01, 2.0, 0.0, 32)
    g48 = growth_rate(0.01, 0.01, 2.0, 0.0, 48)
    assert abs(g48 - g32) < 1e-10


def test_band_sweep_catches_narrow_bands():
    # at larger Bond number the unstable sideband band sits below xi = 1e-2
    assert growth_rate(0.01, 0.01, 2.0, 5.0, 32) <= 1e-8
    assert growth_rate_band(0.01, 0.01, 2.0, 5.0, 32) > 1e-8


def test_n_modes_validation():
    with pytest.raises(ValueError):
        assemble(0.0, 0.0, 1.0, 0.0, 4)
    # the cap is checked before anything is allocated
    with pytest.raises(ValueError):
        assemble(0.0, 0.0, 1.0, 0.0, MAX_N_MODES + 1)


def test_refinement_failure_is_a_named_arithmetic_error():
    with pytest.raises(WaveRefinementError):
        growth_rate(0.01, 10.0, 1.0, 0.0, 32)
    assert issubclass(WaveRefinementError, ArithmeticError)
