import math

import numpy as np
import pytest
from conftest import hill_matrix, nearest_reference, probe_points
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fdsw.hill
from fdsw.bloch import Stability, classify_band
from fdsw.config import GROWTH_FLOOR, GROWTH_THRESHOLD, SIDEBAND_LADDER
from fdsw.factors import Model, index
from fdsw.dispersion import eval_dispersion, eval_dispersion_squared
from fdsw.hill import MAX_N_MODES, WaveRefinementError, growth_rate, growth_rate_band
from fdsw.stokes import POLISH_TOL, ResonanceError, polish_wave, wave_train


def _same_multiset(found, expected, tol):
    # every value of each set is within tol of some value of the other
    assert found.size == expected.size
    assert np.abs(found[:, None] - expected[None, :]).min(axis=1).max() < tol
    assert np.abs(found[:, None] - expected[None, :]).min(axis=0).max() < tol


def test_zero_amplitude_matrix_is_block_diagonal():
    N = 8
    M, _ = hill_matrix(0.3, 0.0, 1.0, 0.0, N)
    dim = 2 * N + 1
    for block in (M[:dim, :dim], M[:dim, dim:], M[dim:, :dim], M[dim:, dim:]):
        off = block - np.diag(np.diag(block))
        assert np.abs(off).max() == 0.0


def test_zero_amplitude_spectrum_is_imaginary():
    M, _ = hill_matrix(0.3, 0.0, 1.0, 0.0, 16)
    eigenvalues = 1j * np.linalg.eigvals(M)
    assert np.abs(eigenvalues.real).max() < 1e-12


def test_zero_amplitude_block_eigenvalues():
    # mode n: lambda = i (n + xi) (c0 +- c(kappa |n + xi|)), frame speed c0
    xi, kappa, N = 0.3, 1.0, 16
    M, _ = hill_matrix(xi, 0.0, kappa, 0.0, N)
    eigenvalues = 1j * np.linalg.eigvals(M)
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
    M, _ = hill_matrix(0.0, 0.01, 1.0, 0.0, 32)
    eigenvalues = 1j * np.linalg.eigvals(M)
    near = eigenvalues[np.abs(eigenvalues) <= 0.1]
    assert near.size == 4


def test_refined_wave_matches_expansion_through_second_order():
    # the Newton-polished coefficients differ from the expansion by O(a^3)
    a = 0.01
    _, wave = hill_matrix(0.0, a, 1.0, 0.0, 16)
    w = wave_train(a, 1.0, 0.0)
    np.testing.assert_allclose(wave.u_coeffs[:3], w.u_coeffs, atol=5.0 * a**3)
    np.testing.assert_allclose(wave.eta_coeffs[:3], w.eta_coeffs, atol=5.0 * a**3)
    assert wave.speed == pytest.approx(w.speed, abs=5.0 * a**3)
    # beyond the expansion's reach the coefficients keep decaying
    assert abs(wave.u_coeffs[3]) < abs(wave.u_coeffs[2])


def test_convolution_band_matches_wave_coefficients():
    a = 0.01
    N = 12
    M, wave = hill_matrix(0.0, a, 1.0, 0.0, N)
    dim = 2 * N + 1
    # row of mode n=1 (index N+1): M[n, :dim] = n*(speed*e_n - u-convolution)
    unit = np.zeros(dim)
    unit[N + 1] = 1.0
    row = wave.speed * unit - M[N + 1, :dim]
    assert row[N + 1] == pytest.approx(wave.u_coeffs[0], abs=1e-14)
    assert row[N] == pytest.approx(0.5 * wave.u_coeffs[1], abs=1e-14)
    assert row[N + 2] == pytest.approx(0.5 * wave.u_coeffs[1], abs=1e-14)
    assert row[N - 1] == pytest.approx(0.5 * wave.u_coeffs[2], abs=1e-14)
    assert row[N + 3] == pytest.approx(0.5 * wave.u_coeffs[2], abs=1e-14)
    # and these agree with the second-order expansion to O(a^3)
    w = wave_train(a, 1.0, 0.0)
    assert row[N] == pytest.approx(0.5 * w.u_coeffs[1], abs=5.0 * a**3)
    assert row[N - 1] == pytest.approx(0.5 * w.u_coeffs[2], abs=5.0 * a**3)


def test_spectral_symmetry_pairs():
    # eigenvalues come in {lambda, -conj(lambda)} pairs at a > 0
    M, _ = hill_matrix(0.01, 0.01, 2.0, 0.0, 16)
    eigenvalues = 1j * np.linalg.eigvals(M)
    for target in -eigenvalues.conj():
        assert np.abs(eigenvalues - target).min() < 1e-8


def test_truncation_stability():
    g32 = growth_rate(0.01, 0.01, 2.0, 0.0, 32)
    g48 = growth_rate(0.01, 0.01, 2.0, 0.0, 48)
    assert abs(g48 - g32) < 1e-10
    # both iterate on the same core truncation; the dense quartet of M itself holds them
    reference = nearest_reference(0.01, 0.01, 2.0, 0.0, 48)
    assert abs(g32 - reference) < 1e-10
    assert abs(g48 - reference) < 1e-10


def test_band_sweep_catches_narrow_bands():
    # at larger Bond number the unstable sideband band sits below xi = 1e-2
    assert growth_rate(0.01, 0.01, 2.0, 5.0, 32) <= 1e-8
    assert growth_rate_band(0.01, 0.01, 2.0, 5.0, 32) > 1e-8


def test_n_modes_validation():
    with pytest.raises(ValueError):
        growth_rate(0.0, 0.0, 1.0, 0.0, 4)
    # the cap is checked before anything is allocated
    with pytest.raises(ValueError):
        growth_rate(0.0, 0.0, 1.0, 0.0, MAX_N_MODES + 1)


@pytest.mark.parametrize(
    "func, args, message",
    [
        # xi = a = 0 has growth 0 without a solve; its arguments are checked all the same
        (growth_rate, (0.0, 0.0, math.nan, 0.0, 10**6),
         "kappa must be finite and positive, got nan"),
        (growth_rate, (0.0, 0.0, 1.0, -5.0, 3), "bond must be finite and nonnegative, got -5.0"),
        (growth_rate, (0.0, 0.0, 1.0, 0.0, 7), "n_modes must be in [8, 256], got 7"),
        # a size is an integer: a float one is rejected by value, not inside numpy
        (growth_rate, (0.01, 0.01, 2.0, 0.0, 16.5), "n_modes must be in [8, 256], got 16.5"),
        (growth_rate_band, (0.0, 0.0, 1.0, 0.0, MAX_N_MODES + 1), f"got {MAX_N_MODES + 1}"),
        (growth_rate, (math.nan, 0.01, 1.0, 0.0, 32), "xi must be finite, got nan"),
        (growth_rate, (0.01, math.nan, 1.0, 0.0, 32), "amplitude must be finite, got nan"),
        (growth_rate_band, (math.inf, 0.01, 1.0, 0.0, 32), "xi must be finite, got inf"),
        (growth_rate, (0.01, math.inf, 1.0, 0.0, 32), "amplitude must be finite, got inf"),
        (growth_rate, (0.6, 0.01, 1.0, 0.0, 32), "xi must be in [-1/2, 1/2], got 0.6"),
        # the second harmonic 2*kappa overflows; checked as the wave is built
        (growth_rate, (0.01, 0.01, 1e308, 0.0, 32), "so that 2*kappa is finite, got 1e+308"),
        (growth_rate_band, (-0.6, 0.01, 1.0, 0.0, 32), "xi must be in [-1/2, 1/2], got -0.6"),
        (growth_rate, (0.75, 0.01, 1.0, 0.0, 32), "xi must be in [-1/2, 1/2], got 0.75"),
    ],
    ids=[
        "kappa", "bond", "n_modes", "n_modes-float", "n_modes-band", "xi", "amplitude", "xi-band",
        "amplitude-inf", "xi-range", "kappa-harmonic", "xi-range-band", "xi-range-far",
    ],
)
def test_growth_rate_checks_its_arguments_before_any_polish(monkeypatch, func, args, message):
    def no_polish(*_):
        raise AssertionError("polished before the arguments were checked")

    monkeypatch.setattr(fdsw.hill, "polish_wave", no_polish)
    with pytest.raises(ValueError) as excinfo:
        func(*args)
    assert message in str(excinfo.value)


def test_unperturbed_growth_is_zero():
    assert growth_rate(0.0, 0.0, 2.0, 0.0, 32) == 0.0
    # a numpy integer is an integer size
    assert growth_rate(0.0, 0.0, 2.0, 0.0, np.int64(32)) == 0.0
    assert growth_rate_band(0.0, 0.0, 2.0, 0.0, 32) == 0.0


def test_refinement_failure_is_a_named_arithmetic_error():
    with pytest.raises(WaveRefinementError):
        growth_rate(0.01, 10.0, 1.0, 0.0, 32)
    assert issubclass(WaveRefinementError, ArithmeticError)


def test_overflowing_polish_is_a_refinement_error_without_warnings():
    # a**2 overflows: the polish sees a non-finite residual and says so,
    # with no numpy RuntimeWarning (an error under this suite) on the way
    with pytest.raises(WaveRefinementError):
        growth_rate(0.01, 1e300, 2.0, 0.0, 32)


@pytest.mark.parametrize(
    "xi, a, kappa, bond", [(0.3, 0.05, 1.2, 0.4), (0.0, 0.01, 1.0, 0.0), (-0.5, 0.02, 2.0, 3.0)]
)
def test_matrix_is_the_block_formula(xi, a, kappa, bond):
    # M = D [[c I - C_u, -S - C_eta], [-I, c I - C_u]], written out entry by entry
    N = 12
    M, wave = hill_matrix(xi, a, kappa, bond, N)
    modes = range(-N, N + 1)

    def conv(coeffs):
        # cos(k z) = (e^{ikz} + e^{-ikz})/2; the polished wave has fewer than 2N modes
        weight = [coeffs[0]] + [f / 2.0 for f in coeffs[1:]] + [0.0] * (2 * N)
        return np.array([[weight[abs(p - q)] for q in modes] for p in modes])

    ident = np.eye(2 * N + 1)
    symbol = np.diag([eval_dispersion_squared(kappa * abs(n + xi), bond) for n in modes])
    block_a = wave.speed * ident - conv(wave.u_coeffs)
    expected = np.vstack(
        [np.hstack([block_a, -symbol - conv(wave.eta_coeffs)]), np.hstack([-ident, block_a])]
    )
    expected *= np.array([n + xi for n in modes] * 2)[:, None]
    np.testing.assert_allclose(M, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("xi, a, kappa, bond", [(0.01, 0.01, 2.0, 0.0), (0.3, 0.05, 1.2, 0.4)])
def test_real_form_has_the_complex_spectrum(xi, a, kappa, bond):
    M, _ = hill_matrix(xi, a, kappa, bond, 16)
    assert M.dtype == np.float64
    _same_multiset(1j * np.linalg.eigvals(M), np.linalg.eigvals(1j * M), 1e-10)


@pytest.mark.parametrize("kappa, bond", [(2.0, 0.0), (2.0, 5.0), (0.8, 0.2)])
def test_band_is_the_max_over_its_ladder(kappa, bond):
    ladder = [growth_rate(0.01 * f, 0.01, kappa, bond, 32) for f in SIDEBAND_LADDER]
    assert growth_rate_band(0.01, 0.01, kappa, bond, 32) == max(ladder)


def test_band_polishes_the_wave_once(monkeypatch):
    calls = []
    polish = fdsw.hill.polish_wave

    def counted(wave):
        calls.append(wave)
        return polish(wave)

    monkeypatch.setattr(fdsw.hill, "polish_wave", counted)
    growth_rate_band(0.01, 0.01, 2.0, 5.0, 32)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kappa, bond",
    [
        # unstable bands below xi_max/8: only the rungs xi_max/16, xi_max/64 reach them
        (1.3634691743104606, 3.275174318693672),  # bench oracle, seed 2
        (2.0780499913728336, 1.4079533597958662),  # bench oracle, seed 3
    ],
)
def test_ladder_reaches_narrow_bands(kappa, bond):
    assert index(Model.FDSW2, kappa, bond).classification == "U"
    assert classify_band(0.01, 0.01, kappa, bond) is Stability.UNSTABLE
    assert growth_rate_band(0.01, 0.01, kappa, bond, 32) > GROWTH_THRESHOLD


def test_polish_diagnostics():
    _, wave = hill_matrix(0.01, 0.01, 2.0, 0.0, 16)
    assert wave.iterations >= 1
    assert wave.residual < POLISH_TOL
    # the unperturbed wave solves the system as it stands
    _, flat = hill_matrix(0.01, 0.0, 2.0, 0.0, 16)
    assert flat.iterations == 0
    assert flat.residual == 0.0


def _dense_reference(xi, a, kappa, bond, n_modes):
    # every eigenvalue of L = 1j*M within the origin radius 10*(|xi| + |a|): the dense solve
    eigenvalues = 1j * np.linalg.eigvals(hill_matrix(xi, a, kappa, bond, n_modes)[0])
    near = eigenvalues[np.abs(eigenvalues) <= 10.0 * (abs(xi) + abs(a))]
    return max(0.0, float(near.real.max())) if near.size else 0.0


def _count_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(matrix):
        calls.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def _record_rounds(monkeypatch):
    # the sideband rows of each round, the leading size of each step's basis,
    # and the number of modes each stage iterates on (its Schur complement rows)
    rounds, steps, sizes = [], [], []
    solver = fdsw.hill._SidebandBlocks.solver

    def recorded(blocks):
        sizes.append(blocks.symbol.shape[1])
        at = solver(blocks)

        def round_at(rows):
            rounds.append(list(rows))
            solve = at(rows)

            def step(y):
                steps.append(len(y))
                return solve(y)

            return step

        return round_at

    monkeypatch.setattr(fdsw.hill._SidebandBlocks, "solver", recorded)
    return rounds, steps, sizes


def test_quartet_growth_matches_dense_reference():
    points = list(probe_points())
    assert len(points) == 23
    for kappa, bond in points:
        for fraction in SIDEBAND_LADDER:
            xi = 1e-2 * fraction
            expected = _dense_reference(xi, 1e-2, kappa, bond, 32)
            assert abs(growth_rate(xi, 1e-2, kappa, bond, 32) - expected) <= 1e-10


def test_round_off_growth_is_within_the_floor():
    # at a = xi = 1e-300 the true growth underflows to 0 and round-off is
    # left: at most 1.05e-14 (N = 16) and 1.25e-14 (N = 32) over the
    # acceptance points, and at N = 256, (kappa, T) = (1.5, 5), 8.2e-14 on
    # one BLAS thread and 4.0e-13 on two (x86_64, OpenBLAS).  The CLI reads
    # growth within GROWTH_FLOOR as round-off; a machine where that margin
    # fails fails here
    for n_modes in (16, 32):
        growth = max(growth_rate(1e-300, 1e-300, k, t, n_modes) for k, t in probe_points())
        assert growth <= GROWTH_FLOOR
    # this point takes the dense solve
    assert growth_rate(1e-300, 1e-300, 1.5, 5.0, 256) <= GROWTH_FLOOR


def test_band_makes_no_dense_eigensolve(monkeypatch):
    calls = _count_eigvals(monkeypatch)
    assert growth_rate_band(1e-2, 1e-2, 2.0, 0.0, 32) > GROWTH_THRESHOLD
    assert calls == []


def test_fallback_is_the_dense_solve(monkeypatch):
    # D = diag(n + xi) is singular at xi = 0: the Ritz values are not finite,
    # and the sideband leaves for the dense solve after its first round
    expected = nearest_reference(0.0, 1e-2, 1.0, 0.0, 32)
    calls = _count_eigvals(monkeypatch)
    assert growth_rate(0.0, 1e-2, 1.0, 0.0, 32) == expected
    assert calls == [(1, 130, 130)]


@pytest.mark.parametrize(
    "kappa, bond, rounds",
    [
        # bench oracle seed 4: certified after 6 steps, while 8 steps miss the certificate
        (2.290395402968728, 0.027558633441806875, 1),
        # bench oracle seed 4 too
        (1.9829745594427113, 0.050027723958511544, 2),
    ],
)
def test_quartet_is_certified_without_a_dense_solve(monkeypatch, kappa, bond, rounds):
    expected = nearest_reference(1e-2, 1e-2, kappa, bond, 32)
    calls = _count_eigvals(monkeypatch)
    recorded, _, sizes = _record_rounds(monkeypatch)
    assert abs(growth_rate(1e-2, 1e-2, kappa, bond, 32) - expected) <= 1e-10
    assert calls == []
    assert recorded == [[0]] * rounds
    assert sizes == [2 * fdsw.hill.CORE_MODES + 1]


def test_fallback_at_xi_zero_keeps_its_value():
    assert growth_rate(0.0, 0.01, 1.0, 0.0, 32) == 2.0236852623830495e-09


def test_wide_ladder_is_certified_in_rounds(monkeypatch):
    # at xi_max = 0.2 three of the four rungs need more than 8 steps
    xis = [0.2 * fraction for fraction in SIDEBAND_LADDER]
    one_by_one = max(growth_rate(xi, 1e-2, 2.0, 5.0, 32) for xi in xis)
    reference = max(nearest_reference(xi, 1e-2, 2.0, 5.0, 32) for xi in xis)
    calls = _count_eigvals(monkeypatch)
    growth = growth_rate_band(0.2, 1e-2, 2.0, 5.0, 32)
    assert calls == []
    assert growth == one_by_one == 0.0
    assert abs(growth - reference) <= 1e-10


def test_uncertified_sidebands_share_one_dense_eigensolve(monkeypatch):
    # at kappa = 0.1 no rung of the ladder is certified in any round
    xis = [0.01 * fraction for fraction in SIDEBAND_LADDER]
    wave = fdsw.hill.polish_wave(wave_train(0.01, 0.1, 0.2))
    blocks = fdsw.hill._SidebandBlocks.build(xis, wave, 32)
    expected = []
    for row in range(len(xis)):
        eigenvalues = np.linalg.eigvals(blocks.dense([row]))[0]
        expected.append(eigenvalues[np.argsort(np.abs(eigenvalues))[:4]])
    reference = max(nearest_reference(xi, 0.01, 0.1, 0.2, 32) for xi in xis)
    calls = _count_eigvals(monkeypatch)
    np.testing.assert_array_equal(fdsw.hill._quartets(blocks), expected)
    assert calls == [(4, 130, 130)]
    assert growth_rate_band(0.01, 0.01, 0.1, 0.2, 32) == reference


def test_second_round_iterates_only_the_uncertified_rows(monkeypatch):
    rounds, steps, sizes = _record_rounds(monkeypatch)
    growth = growth_rate_band(0.01, 0.01, 1.3, 0.2, 32)
    # every round runs on the core truncation, and no sideband leaks from it
    assert sizes == [2 * fdsw.hill.CORE_MODES + 1]
    # the rung xi_max misses the certificate in the first round alone
    assert rounds == [[0, 1, 2, 3], [0]]
    iterations = fdsw.hill.SUBSPACE_ITERATIONS
    assert steps == [4] * iterations + [1] * iterations
    # with one round, that rung alone takes the dense solve, at the same label
    monkeypatch.setattr(fdsw.hill, "SUBSPACE_ROUNDS", 1)
    calls = _count_eigvals(monkeypatch)
    dense = growth_rate_band(0.01, 0.01, 1.3, 0.2, 32)
    assert calls == [(1, 130, 130)]
    assert abs(dense - growth) <= 1e-10


@pytest.mark.parametrize(
    "n_modes, a, expected",
    [
        # the values of the quartet solve before it had a core truncation
        (16, 0.01, 4.5776230656501125e-05),
        (16, 0.05, 0.0002463070936475007),
        (8, 0.01, 4.577623065651e-05),
    ],
)
def test_small_truncations_run_one_stage_on_M(monkeypatch, n_modes, a, expected):
    # n_modes <= CORE_MODES: the core is M itself, so every round runs on
    # Schur complements of M's 2N + 1 rows, in one stage, as without a core
    assert n_modes <= fdsw.hill.CORE_MODES
    rounds, _, sizes = _record_rounds(monkeypatch)
    assert growth_rate_band(0.01, a, 2.0, 0.0, n_modes) == expected
    assert sizes == [2 * n_modes + 1]
    assert rounds == [[0, 1, 2, 3]]


@pytest.mark.parametrize(
    "a, core",
    [
        # at a = 0.1 the wave's coefficients fall off slowly enough to leak from 16 modes
        (0.1, None),
        (0.03, 4),
    ],
)
def test_leaking_core_goes_on_with_the_full_truncation(monkeypatch, a, core):
    if core is not None:
        monkeypatch.setattr(fdsw.hill, "CORE_MODES", core)
    core = fdsw.hill.CORE_MODES
    expected = nearest_reference(1e-2, a, 2.0, 0.0, 32)
    calls = _count_eigvals(monkeypatch)
    rounds, steps, sizes = _record_rounds(monkeypatch)
    growth = growth_rate(1e-2, a, 2.0, 0.0, 32)
    # the core's own quartet is off by more: 7.6e-9 and 1.9e-7
    assert abs(growth - expected) <= 1e-10
    assert growth > GROWTH_THRESHOLD
    # certified on the core rows in one round, then on M within as many steps
    # again, in a first round of one step and a second of the rest
    assert sizes == [2 * core + 1, 65]
    assert rounds == [[0]] * 3
    assert steps == [1] * (2 * fdsw.hill.SUBSPACE_ITERATIONS)
    assert calls == []


def test_leaking_rungs_take_one_step_on_the_full_truncation(monkeypatch):
    # near the second-harmonic resonance (i3 = -0.008) the wave's harmonics fall
    # off slowly, and every rung leaks from the core
    xis = [0.01 * fraction for fraction in SIDEBAND_LADDER]
    reference = max(nearest_reference(xi, 0.03, 1.3, 0.2, 32) for xi in xis)
    calls = _count_eigvals(monkeypatch)
    rounds, steps, sizes = _record_rounds(monkeypatch)
    growth = growth_rate_band(0.01, 0.03, 1.3, 0.2, 32)
    assert abs(growth - reference) <= 1e-10
    # the rung xi_max leaks after a second core round; a single step on M,
    # from the embedded core bases, certifies all four
    assert sizes == [2 * fdsw.hill.CORE_MODES + 1, 65]
    assert rounds == [[0, 1, 2, 3], [0], [0, 1, 2, 3]]
    iterations = fdsw.hill.SUBSPACE_ITERATIONS
    assert steps == [4] * iterations + [1] * iterations + [4]
    assert calls == []


def test_fallback_quartet_is_nearest_the_origin():
    # at small kappa the eigenvalues of other modes n come within 10*(|xi| + |a|)
    # of the origin; the four nearest are the stable quartet the index predicts
    assert index(Model.FDSW2, 0.1, 0.2).classification == "S"
    assert growth_rate(0.0, 0.01, 0.1, 0.2, 32) == 0.0
    assert _dense_reference(0.0, 0.01, 0.1, 0.2, 32) > 1e-3


@pytest.mark.parametrize(
    "xi, kappa, bond", [(1e-2, 2.0, 0.0), (1.5625e-4, 1.2, 0.4), (0.3, 0.8, 5.0)]
)
def test_block_solve_matches_dense_solve(xi, kappa, bond):
    M, wave = hill_matrix(xi, 1e-2, kappa, bond, 32)
    blocks = fdsw.hill._SidebandBlocks.build([xi], wave, 32)
    y = np.random.default_rng(0).standard_normal((1, 130, 3))
    expected = np.linalg.solve(M, y[0])
    found = blocks.solver()([0])(y)[0]
    assert np.linalg.norm(found - expected) <= 1e-9 * np.linalg.norm(expected)
    product = M @ y[0]
    assert np.abs(blocks.apply(y, [0])[0] - product).max() <= 1e-12 * np.abs(product).max()
    assert blocks.frobenius()[0] == pytest.approx(np.linalg.norm(M), rel=1e-12)


@st.composite
def _sideband_blocks(draw):
    """Blocks of M at 1 to 3 random sidebands, with a nonempty mask of them."""
    sidebands = draw(st.integers(1, 3))
    # |xi| >= 1e-3 keeps D = diag(n + xi) invertible for the solve
    xi = st.floats(-0.5, 0.5).filter(lambda xi: abs(xi) >= 1e-3)
    xis = draw(st.lists(xi, min_size=sidebands, max_size=sidebands))
    amplitude = draw(st.floats(0.0, 0.05))
    kappa = draw(st.floats(0.2, 3.0))
    bond = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    n_modes = draw(st.integers(8, 64))
    rows = np.array(draw(st.lists(st.booleans(), min_size=sidebands, max_size=sidebands)))
    assume(rows.any())
    try:
        wave = polish_wave(wave_train(amplitude, kappa, bond))
    except (ResonanceError, WaveRefinementError):
        assume(False)
    modes = draw(st.integers(1, n_modes))
    seed = draw(st.integers(0, 2**32 - 1))
    return fdsw.hill._SidebandBlocks.build(xis, wave, n_modes), rows, modes, seed


@given(problem=_sideband_blocks())
@settings(max_examples=40, deadline=None)
def test_dense_apply_solver_and_truncation_state_one_M(problem):
    # M is stated once, by its blocks: its dense form, its product, its
    # block solve and its core truncation are one matrix
    blocks, rows, modes, seed = problem
    dense = blocks.dense(rows)
    x = np.random.default_rng(seed).standard_normal((int(rows.sum()), dense.shape[1], 3))
    product = blocks.apply(x, rows)
    bound = 1e-13 * (np.abs(dense) @ np.abs(x)).max()
    assert np.abs(dense @ x - product).max() <= bound
    # the solve's backward error, relative to ||M||_F ||M^-1 x||
    solved = blocks.solver()(rows)(x)
    residual = np.linalg.norm(blocks.apply(solved, rows) - x, axis=(1, 2))
    scale = np.linalg.norm(dense, axis=(1, 2)) * np.linalg.norm(solved, axis=(1, 2))
    assert np.all(residual <= 1e-13 * scale)
    # the truncation to -modes..modes is the central block of M, entry for entry
    dim = blocks.symbol.shape[1]
    central = np.arange(dim // 2 - modes, dim // 2 + modes + 1)
    kept = np.concatenate([central, dim + central])
    core = blocks.truncated(rows, modes).dense()
    np.testing.assert_array_equal(core, dense[:, kept][:, :, kept])
