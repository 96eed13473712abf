import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsw.bloch import classify_band
from fdsw.dispersion import eval_dispersion_squared
from fdsw.factors import Branch, IndexFlag, Model, factor_i3, index
from fdsw.hill import growth_rate
from fdsw.stokes import (
    POLISH_MODES,
    ResonanceError,
    _convolution_matrix,
    cos_product_matrix,
    harmonic_coeffs,
    polish_wave,
    residual_periodic,
    wave_jacobian,
    wave_residual,
    wave_symbol,
    wave_train,
)

H0_1_0 = -2.745403403584054097  # (3/4) c / (c^2 - 1) at kappa=1, T=0
H2_1_0 = 2.3410807605340818611  # (3/4) c / (c^2 - c(2)^2)
SPEED_A01 = 0.84692215520244506841  # c + (3/2) a^2 (h0 + h2/2 - 1/(8c)), a=0.1


def bisect_wilton(bond, lo, hi):
    f = lambda k: factor_i3(k, bond, Branch.FULL)
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f(mid)
    return 0.5 * (lo + hi)


def test_harmonic_coeffs_values():
    h0, h2 = harmonic_coeffs(1.0, 0.0)
    assert h0 == pytest.approx(H0_1_0, rel=1e-13)
    assert h2 == pytest.approx(H2_1_0, rel=1e-13)


def test_overflowing_second_harmonic_names_kappa():
    # 2*kappa is inf above DBL_MAX/2: the message names the kappa passed
    with pytest.raises(ValueError) as info:
        harmonic_coeffs(1e308, 0.0)
    assert str(info.value) == (
        "kappa must be at most 8.988465674311579e+307 so that 2*kappa is finite, got 1e+308"
    )
    # the largest kappa whose double is finite passes the check
    harmonic_coeffs(8.988465674311579e307, 0.0)


def test_h0_negative_without_surface_tension():
    # c < 1 at T = 0 forces the mean-flow coefficient negative
    for kappa in (0.1, 0.5, 1.0, 3.0, 10.0):
        h0, _ = harmonic_coeffs(kappa, 0.0)
        assert h0 < 0.0


def test_second_harmonic_resonance_error():
    wilton = bisect_wilton(0.2, 1.0, 1.5)
    with pytest.raises(ResonanceError) as info:
        harmonic_coeffs(wilton, 0.2)
    assert info.value.denominator == "second-harmonic"


def test_mean_flow_resonance_error():
    # for 0 < T < 1/3 the phase speed crosses 1 at some kappa
    from fdsw.dispersion import eval_dispersion

    f = lambda k: eval_dispersion(k, 0.2).c2 - 1.0
    lo, hi = 0.5, 5.0
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f(mid)
    with pytest.raises(ResonanceError) as info:
        harmonic_coeffs(0.5 * (lo + hi), 0.2)
    assert info.value.denominator == "mean-flow"


def test_wave_train_at_zero_amplitude():
    w = wave_train(0.0, 1.0, 0.0)
    assert w.eta_coeffs == (0.0, 0.0, 0.0)
    assert w.u_coeffs == (0.0, 0.0, 0.0)
    assert w.speed == pytest.approx(0.87269362089782969154, rel=1e-14)


def test_wave_train_second_order_values():
    w = wave_train(0.1, 1.0, 0.0)
    assert w.speed == pytest.approx(SPEED_A01, rel=1e-13)
    assert w.u_coeffs[0] == pytest.approx(0.01 * H0_1_0, rel=1e-13)
    assert w.u_coeffs[1] == 0.1
    assert w.u_coeffs[2] == pytest.approx(0.01 * H2_1_0, rel=1e-13)
    assert w.eta_coeffs[1] == pytest.approx(0.1 * 0.87269362089782969154, rel=1e-14)


def test_residual_zero_at_zero_amplitude():
    assert residual_periodic(wave_train(0.0, 1.0, 0.0), 16) == 0.0


def test_residual_cubic_scaling():
    residuals = {a: residual_periodic(wave_train(a, 1.0, 0.0), 16) for a in (1e-2, 1e-3, 1e-4)}
    slope = (math.log(residuals[1e-2]) - math.log(residuals[1e-4])) / (
        math.log(1e-2) - math.log(1e-4)
    )
    assert slope == pytest.approx(3.0, abs=0.2)
    # moderate constant: residual(1e-3) = C * 1e-9 with C of order one
    assert 1e-10 < residuals[1e-3] < 1e-7


def test_residual_requires_enough_modes():
    with pytest.raises(ValueError):
        residual_periodic(wave_train(0.01, 1.0, 0.0), 3)


def test_h2_pole_coincides_with_i3_root():
    # the resonance of the wave construction and the index pole are the
    # same kappa to within the bisection tolerance
    wilton = bisect_wilton(0.2, 1.0, 1.5)
    assert abs(factor_i3(wilton, 0.2, Branch.FULL)) < 1e-12
    with pytest.raises(ResonanceError):
        harmonic_coeffs(wilton, 0.2)
    # just outside the guard band both exist again
    h0, h2 = harmonic_coeffs(wilton + 1e-6, 0.2)
    assert abs(h2) > 1e4


# A point inside the index's pole guard where h2's own denominator s.c2 - c2k,
# one ulp of c**2 away from i3, sits just outside it (h2 = 7.7e9 there).
GUARD_EDGE = (0.9315858856942244, 0.25)


@pytest.mark.parametrize(
    "build",
    [
        lambda k, t: harmonic_coeffs(k, t),
        lambda k, t: wave_train(0.01, k, t),
        lambda k, t: classify_band(0.01, 0.01, k, t),
        lambda k, t: growth_rate(0.01, 0.01, k, t, 32),
    ],
    ids=["harmonic_coeffs", "wave_train", "classify_band", "growth_rate"],
)
def test_index_pole_is_a_second_harmonic_resonance(build):
    assert index(Model.FDSW2, *GUARD_EDGE).classification == "NearPole"
    with pytest.raises(ResonanceError) as info:
        build(*GUARD_EDGE)
    assert info.value.denominator == "second-harmonic"


# Brackets of the one Wilton root c(k) = c(2k) at each Bond number.
WILTON_BRACKETS = {
    0.05: (2.5, 4.0),
    0.1: (1.5, 3.0),
    0.2: (1.0, 1.5),
    0.25: (0.8, 1.1),
    0.3: (0.4, 0.8),
}


def _near_pole_i3(kappa, bond):
    flags = [index(model, kappa, bond).flags for model in (Model.FDSW2, Model.FDSW1)]
    assert flags[0] == flags[1]
    return IndexFlag.NEAR_POLE_I3 in flags[0]


def _second_harmonic_raises(kappa, bond):
    try:
        harmonic_coeffs(kappa, bond)
    except ResonanceError as exc:
        return exc.denominator == "second-harmonic"
    return False


def _guard_edge(bond, inside, outside):
    """A double where the index's pole flag changes, between inside and outside."""
    assert _near_pole_i3(inside, bond) and not _near_pole_i3(outside, bond)
    while (mid := 0.5 * (inside + outside)) not in (inside, outside):
        if _near_pole_i3(mid, bond):
            inside = mid
        else:
            outside = mid
    return inside


@pytest.mark.parametrize("bond", sorted(WILTON_BRACKETS))
def test_second_harmonic_guard_is_the_index_pole_guard(bond):
    # harmonic_coeffs raises exactly where the bidirectional index flags
    # NearPoleI3: across the guard band in 201 steps, and at every double
    # within 100 ulps of either edge, where the rounding of i3 decides
    wilton = bisect_wilton(bond, *WILTON_BRACKETS[bond])
    lo = _guard_edge(bond, wilton, wilton * (1.0 - 1e-7))
    hi = _guard_edge(bond, wilton, wilton * (1.0 + 1e-7))
    kappas = set(np.linspace(1.5 * lo - 0.5 * wilton, 1.5 * hi - 0.5 * wilton, 201).tolist())
    for edge in (lo, hi):
        below = above = edge
        for _ in range(100):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            kappas.update((below, above))
        kappas.add(edge)
    flagged = 0
    for kappa in sorted(kappas):
        near_pole = _near_pole_i3(kappa, bond)
        assert _second_harmonic_raises(kappa, bond) == near_pole, kappa
        flagged += near_pole
    assert 0 < flagged < len(kappas)


def loop_cos_product(f, g, n_out):
    """Cosine coefficients 0..n_out of the product of two cosine series."""
    out = np.zeros(n_out + 1)
    for i in range(len(f)):
        for j in range(len(g)):
            half = 0.5 * f[i] * g[j]
            for m in (i + j, abs(i - j)):
                if m <= n_out:
                    out[m] += half
    return out


def loop_residual(wave, modes):
    """The periodic residual evaluated term by term with the scalar symbol."""
    eta = np.zeros(modes + 1)
    u = np.zeros(modes + 1)
    eta[:3] = wave.eta_coeffs
    u[:3] = wave.u_coeffs
    c = wave.speed
    sym = np.array([eval_dispersion_squared(wave.kappa * n, wave.bond) for n in range(modes + 1)])
    r1 = -c * eta + sym * u + loop_cos_product(u, eta, modes)
    r2 = -c * u + eta + 0.5 * loop_cos_product(u, u, modes)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


@pytest.mark.parametrize("n_f, modes", [(3, 4), (6, 5), (13, 12), (30, 8)])
def test_cos_product_matrix_matches_loop(n_f, modes):
    rng = np.random.default_rng(n_f)
    f, g = rng.normal(size=n_f), rng.normal(size=modes + 1)
    expected = loop_cos_product(f, g, modes)
    np.testing.assert_allclose(cos_product_matrix(f, modes) @ g, expected, atol=1e-14)
    if n_f == modes + 1:
        np.testing.assert_allclose(cos_product_matrix(g, modes) @ f, expected, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    modes=st.integers(4, 20),
    f=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=45
    ),
)
def test_cos_product_matrix_is_the_folded_convolution(modes, f):
    # C[m, j] = T[m, j] + T[m, -j] on the exponential-mode convolution T, the
    # mean row halved, bit for bit (an overflowing sum is inf on both sides)
    f = np.array(f)
    with np.errstate(over="ignore"):
        conv = _convolution_matrix(f, modes)
        folded = conv[modes:, modes:] + conv[modes:, modes::-1]
        folded[0] *= 0.5
        assert np.array_equal(cos_product_matrix(f, modes), folded)


@pytest.mark.parametrize(
    "a, kappa, bond",
    [(1e-2, 1.0, 0.0), (1e-3, 1.0, 0.0), (1e-4, 1.0, 0.0), (0.05, 1.7, 0.2), (0.02, 0.4, 3.0)],
)
def test_residual_matches_term_by_term_evaluation(a, kappa, bond):
    wave = wave_train(a, kappa, bond)
    # the O(a) terms cancel, so agreement is to round-off of those terms
    assert residual_periodic(wave, 16) == pytest.approx(loop_residual(wave, 16), abs=1e-15 * a)


def test_analytic_jacobian_matches_central_difference():
    wave = polish_wave(wave_train(0.05, 1.3, 0.2))
    symbol = wave_symbol(1.3, 0.2, POLISH_MODES)
    rng = np.random.default_rng(3)
    x = np.concatenate([wave.eta_coeffs, wave.u_coeffs, [wave.speed]])
    x = x + 1e-2 * rng.normal(size=x.size)
    h = 1e-6
    numeric = np.empty((x.size, x.size))
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        forward = wave_residual(x + step, symbol, 0.05)
        numeric[:, j] = (forward - wave_residual(x - step, symbol, 0.05)) / (2 * h)
    exact = wave_jacobian(x, symbol)
    assert np.abs(exact - numeric).max() < 1e-6 * np.abs(exact).max()


def test_polish_solves_the_system():
    wave = wave_train(0.05, 1.3, 0.2)
    polished = polish_wave(wave)
    x = np.concatenate([polished.eta_coeffs, polished.u_coeffs, [polished.speed]])
    symbol = wave_symbol(1.3, 0.2, POLISH_MODES)
    assert np.abs(wave_residual(x, symbol, 0.05)).max() == polished.residual < 1e-12
    assert polished.u_coeffs[1] == pytest.approx(0.05, abs=1e-15)
    assert 1 <= polished.iterations < 25
