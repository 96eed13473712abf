"""Small-amplitude periodic traveling waves of the bidirectional model.

The 2*pi-periodic traveling-wave system (after one integration in z)

    -c*eta + c2(kappa*|d/dz|) u + u*eta = 0
    -c*u + eta + u**2/2 = 0

admits a one-parameter family of small even solutions.  Through second order
in the amplitude a,

    eta = a*c*cos z + a^2*((c*h0 - 1/4) + (c*h2 - 1/4)*cos 2z)
    u   = a*cos z   + a^2*(h0 + h2*cos 2z)
    c(a) = c + (3/2)*a^2*(h0 + h2/2 - 1/(8c))

with harmonic coefficients

    h0 = (3/4)*c/(c^2 - 1),      h2 = (3/4)*c/(c^2 - c(2k)^2).

h2 blows up at a second-harmonic (Wilton ripple) resonance c(k) = c(2k),
h0 at a mean-flow resonance c(k) = 1; both raise :class:`ResonanceError`.
The second-harmonic guard is the index's own: it tests the full factor i3
of :mod:`fdsw.factors`, so it fires exactly where the bidirectional index
flags NearPoleI3.

The system is written once, on cosine coefficients, in :func:`wave_residual`.
It is bilinear, so :func:`wave_jacobian` is its exact derivative, and
:func:`polish_wave` Newton-solves it from the expansion.
:func:`residual_periodic` measures the expansion's own residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import near_pole
from .dispersion import (
    eval_dispersion,
    eval_dispersion_squared,
    eval_dispersion_squared_array,
    second_harmonic,
)
from .factors import Branch, _factors


class ResonanceError(ValueError):
    """A resonance denominator of the wave expansion vanished.

    ``denominator`` is "mean-flow" for c(k)^2 - 1 (pole of h0) or
    "second-harmonic" for c(k)^2 - c(2k)^2 (pole of h2).
    """

    def __init__(self, denominator: str, kappa: float, bond: float):
        self.denominator = denominator
        super().__init__(
            f"{denominator} resonance at kappa={kappa!r}, bond={bond!r}: "
            "the wave expansion is singular here"
        )


def harmonic_coeffs(kappa: float, bond: float) -> tuple[float, float]:
    """Second-order harmonic coefficients (h0, h2) of the wave expansion."""
    s = eval_dispersion(kappa, bond)
    c2k = eval_dispersion_squared(second_harmonic(kappa), bond)
    if near_pole(s.c2 - 1.0, s.c2):
        raise ResonanceError("mean-flow", kappa, bond)
    # the guard reads the index's full i3, c**2 - c(2k)*c(2k), not s.c2 - c2k:
    # the two differ in the last ulp, and only i3 flags exactly NearPoleI3
    if near_pole(_factors(s, math.sqrt(c2k), Branch.FULL)[2], s.c2):
        raise ResonanceError("second-harmonic", kappa, bond)
    h0 = 0.75 * s.c / (s.c2 - 1.0)
    h2 = 0.75 * s.c / (s.c2 - c2k)
    return h0, h2


@dataclass(frozen=True)
class WaveTrain:
    """Truncated Stokes wave: cosine coefficients (mean, cos z, cos 2z)."""

    kappa: float
    bond: float
    amplitude: float
    eta_coeffs: tuple[float, float, float]
    u_coeffs: tuple[float, float, float]
    speed: float


def wave_train(amplitude: float, kappa: float, bond: float) -> WaveTrain:
    """Construct the wave train at amplitude a (profiles exact through a^2)."""
    s = eval_dispersion(kappa, bond)
    h0, h2 = harmonic_coeffs(kappa, bond)
    a2 = amplitude * amplitude
    eta = (a2 * (s.c * h0 - 0.25), amplitude * s.c, a2 * (s.c * h2 - 0.25))
    u = (a2 * h0, amplitude, a2 * h2)
    speed = s.c + 1.5 * a2 * (h0 + 0.5 * h2 - 1.0 / (8.0 * s.c))
    return WaveTrain(
        kappa=kappa,
        bond=bond,
        amplitude=amplitude,
        eta_coeffs=eta,
        u_coeffs=u,
        speed=speed,
    )


def _convolution_matrix(f: np.ndarray, modes: int) -> np.ndarray:
    """Multiplication by the cosine series f on exponential modes -modes..modes.

    cos(k z) = (e^{ikz} + e^{-ikz})/2, so f has the exponential weights
    w[0] = f[0], w[k] = f[k]/2, and entry (p, q) is w[|p - q|].
    Coefficients of f beyond 2*modes cannot reach the output and are ignored.
    """
    w = np.zeros(2 * modes + 1)
    take = min(len(f), w.size)
    w[:take] = 0.5 * f[:take]
    w[0] = f[0]
    n = np.arange(2 * modes + 1)
    return w[np.abs(n[:, None] - n)]


def cos_product_matrix(f: np.ndarray, modes: int) -> np.ndarray:
    """The matrix C(f) of multiplication by the cosine series f on modes 0..modes.

    ``C(f) @ g`` holds the cosine coefficients 0..modes of the product of
    f and g, g given on modes 0..modes.  It is the exponential-mode
    convolution T folded onto cosines: g_j cos(j z) has the weights g_j/2 on
    the modes +-j, and the coefficient of cos(m z) is twice the weight of
    mode m (once the weight of the mean), so

        C[m, j] = T[m, j] + T[m, -j],   halved on the mean row m = 0.

    The product is bilinear and symmetric, so C(f) @ g == C(g) @ f.
    """
    conv = _convolution_matrix(f, modes)
    out = conv[modes:, modes:] + conv[modes:, modes::-1]
    out[0] *= 0.5
    return out


# Newton polish of the traveling wave: cosine modes carried, the tolerance on
# the largest residual coefficient, and the iteration limit.
POLISH_MODES = 12
POLISH_TOL = 1e-12
POLISH_MAX_ITER = 25


class WaveRefinementError(ArithmeticError):
    """The Newton polish of the traveling wave did not converge."""


def wave_symbol(kappa: float, bond: float, modes: int) -> np.ndarray:
    """The multiplier c2(kappa*n) on cosine modes n = 0..modes."""
    return eval_dispersion_squared_array(kappa * np.arange(modes + 1), bond)


def wave_residual(x: np.ndarray, symbol: np.ndarray, amplitude: float) -> np.ndarray:
    """Residual of the periodic traveling-wave system, pinned by u_1 = a.

    ``x`` stacks the cosine coefficients of eta and u on modes 0..M and the
    speed c, so it has length 2*(M + 1) + 1; ``symbol`` is
    :func:`wave_symbol` on the same modes.  The result stacks the two
    equations mode by mode and then the pin u_1 - a.
    """
    eta, u, c = _unpack(x)
    conv_u = cos_product_matrix(u, len(u) - 1)
    r1 = -c * eta + symbol * u + conv_u @ eta
    r2 = -c * u + eta + 0.5 * (conv_u @ u)
    return np.concatenate([r1, r2, [u[1] - amplitude]])


def wave_jacobian(x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Exact Jacobian of :func:`wave_residual` in ``x``.

    The system is bilinear in (eta, u, c), so the derivative is exact:

        d r1 = (-c + C(u)) d eta + (diag(symbol) + C(eta)) d u - eta d c
        d r2 = d eta + (-c + C(u)) d u - u d c
        d pin = d u_1
    """
    eta, u, c = _unpack(x)
    modes = len(u) - 1
    m1 = modes + 1
    ident = np.eye(m1)
    shifted = cos_product_matrix(u, modes) - c * ident
    jac = np.zeros((x.size, x.size))
    jac[:m1, :m1] = shifted
    jac[:m1, m1:-1] = np.diag(symbol) + cos_product_matrix(eta, modes)
    jac[:m1, -1] = -eta
    jac[m1:-1, :m1] = ident
    jac[m1:-1, m1:-1] = shifted
    jac[m1:-1, -1] = -u
    jac[-1, m1 + 1] = 1.0
    return jac


def _pack(eta, u, c: float, modes: int) -> np.ndarray:
    x = np.zeros(2 * (modes + 1) + 1)
    x[: len(eta)] = eta
    x[modes + 1 : modes + 1 + len(u)] = u
    x[-1] = c
    return x


def _unpack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    m1 = (x.size - 1) // 2
    return x[:m1], x[m1:-1], x[-1]


@dataclass(frozen=True)
class PolishedWave:
    """The traveling wave solved to :data:`POLISH_TOL` on cosine modes 0..M.

    ``iterations`` counts the Newton steps taken (0 when the expansion
    already meets the tolerance, as at a = 0) and ``residual`` is the
    largest residual coefficient of the returned state.
    """

    wave: WaveTrain  # the second-order expansion the polish started from
    eta_coeffs: np.ndarray
    u_coeffs: np.ndarray
    speed: float
    iterations: int
    residual: float


def polish_wave(wave: WaveTrain) -> PolishedWave:
    """Newton-solve the traveling-wave system from the expansion ``wave``.

    The unknowns are the cosine coefficients of eta and u on modes
    0..:data:`POLISH_MODES` and the speed; u_1 stays pinned at the
    amplitude.  Raises :class:`WaveRefinementError` when the residual is not
    below :data:`POLISH_TOL` within :data:`POLISH_MAX_ITER` evaluations; an
    overflow or NaN on the way shows as a non-finite residual, so numpy's
    floating-point warnings are silenced.
    """
    symbol = wave_symbol(wave.kappa, wave.bond, POLISH_MODES)
    x = _pack(wave.eta_coeffs, wave.u_coeffs, wave.speed, POLISH_MODES)
    with np.errstate(all="ignore"):
        for iterations in range(POLISH_MAX_ITER):
            r = wave_residual(x, symbol, wave.amplitude)
            residual = float(np.max(np.abs(r)))
            if residual < POLISH_TOL or not math.isfinite(residual):
                break
            x = x - np.linalg.solve(wave_jacobian(x, symbol), r)
    if not residual < POLISH_TOL:
        raise WaveRefinementError(
            f"wave refinement did not converge at kappa={wave.kappa!r}, bond={wave.bond!r}"
        )
    eta, u, c = _unpack(x)
    return PolishedWave(
        wave=wave,
        eta_coeffs=eta,
        u_coeffs=u,
        speed=float(c),
        iterations=iterations,
        residual=residual,
    )


def residual_periodic(wave: WaveTrain, modes: int) -> float:
    """Largest Fourier-coefficient magnitude of the traveling-wave residual.

    The truncated profiles are put into :func:`wave_residual` on cosine
    modes 0..modes (the multiplier acts mode-wise as c2(kappa*n)); the
    truncation makes the result O(a^3).
    """
    if modes < 4:
        raise ValueError(f"modes must be >= 4, got {modes!r}")
    x = _pack(wave.eta_coeffs, wave.u_coeffs, wave.speed, modes)
    symbol = wave_symbol(wave.kappa, wave.bond, modes)
    return float(np.max(np.abs(wave_residual(x, symbol, wave.amplitude))))
