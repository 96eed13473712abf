"""Fourier truncation of the linearized operator about the wave train.

Independent spectral check on the index and the 4x4 pencil.  The
linearization in the frame moving with the wave speed c is

    L v = d/dz [[c - u,  -c2(kappa*|d/dz|) - eta], [-1,  c - u]] v,

and Floquet-decomposing perturbations as e^{i xi z} times 2*pi-periodic
functions conjugates the operator to L(xi) = e^{-i xi z} L e^{i xi z}.  On
the Fourier coefficients n = -N..N this is the dense complex matrix built
here: d/dz acts as i(n + xi), the multiplier as c2(kappa*|n + xi|), and the
profile multiplications as banded convolutions.

To stay independent of the second-order amplitude expansion, the wave the
operator is linearized about is first polished by Newton iteration on the
periodic traveling-wave system (to residual ~1e-12 on a short cosine
basis).  The O(a^3) profile corrections this adds are negligible almost
everywhere but decide the classification near eigenvalue collisions (small
group-speed derivative or small second-harmonic detuning).

Eigenvalues near the origin (the four branches bifurcating from zero)
decide modulational stability: a positive real part means instability with
growth rate max Re(lambda) in the e^{lambda*kappa*t} time normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import eval_dispersion_squared
from .stokes import WaveTrain, wave_train

# Eigenvalues within this multiple of (|xi| + |a|) of the origin belong to
# the bifurcating branch; everything farther is discarded.
ORIGIN_RADIUS_FACTOR = 10.0

# Cosine modes carried by the Newton polish of the traveling wave.
REFINE_MODES = 12

# Largest truncation accepted.  The dense complex matrix takes
# 16*(4N + 2)**2 bytes: 17 MB at N = 256, and its eigensolve grows as N**3.
MAX_N_MODES = 256


class WaveRefinementError(ArithmeticError):
    """The Newton polish of the traveling wave did not converge."""


def _cos_product(f: np.ndarray, g: np.ndarray, n_out: int) -> np.ndarray:
    out = np.zeros(n_out + 1)
    for i in range(len(f)):
        for j in range(len(g)):
            half = 0.5 * f[i] * g[j]
            for m in (i + j, abs(i - j)):
                if m <= n_out:
                    out[m] += half
    return out


def _refine_wave(
    wave: WaveTrain, modes: int = REFINE_MODES, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, float]:
    """Newton-polish (eta, u, c) on cosine modes 0..modes; u_1 stays pinned."""
    kappa, bond, a = wave.kappa, wave.bond, wave.amplitude
    symbol = np.array(
        [eval_dispersion_squared(kappa * n, bond) for n in range(modes + 1)]
    )
    m1 = modes + 1

    def residual(x: np.ndarray) -> np.ndarray:
        eta, u, c = x[:m1], x[m1 : 2 * m1], x[-1]
        r1 = -c * eta + symbol * u + _cos_product(u, eta, modes)
        r2 = -c * u + eta + 0.5 * _cos_product(u, u, modes)
        return np.concatenate([r1, r2, [u[1] - a]])

    x = np.zeros(2 * m1 + 1)
    x[:3] = wave.eta_coeffs
    x[m1 : m1 + 3] = wave.u_coeffs
    x[-1] = wave.speed
    for _ in range(25):
        r = residual(x)
        if np.max(np.abs(r)) < tol:
            break
        step = 1e-7
        jac = np.empty((x.size, x.size))
        for j in range(x.size):
            xp = x.copy()
            xp[j] += step
            jac[:, j] = (residual(xp) - r) / step
        x = x - np.linalg.solve(jac, r)
    else:
        raise WaveRefinementError(
            f"wave refinement did not converge at kappa={kappa!r}, bond={bond!r}"
        )
    return x[:m1], x[m1 : 2 * m1], float(x[-1])


@dataclass(frozen=True)
class HillProblem:
    """Truncated Floquet-Bloch matrix of the linearization."""

    xi: float
    amplitude: float
    kappa: float
    bond: float
    n_modes: int
    matrix: np.ndarray  # complex, dimension 2*(2*n_modes + 1)
    wave: WaveTrain  # second-order expansion the refinement started from
    eta_coeffs: np.ndarray  # refined cosine coefficients actually linearized about
    u_coeffs: np.ndarray
    speed: float


def _convolution_matrix(cos_coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """Multiplication by an even cosine polynomial on exponential modes -N..N."""
    dim = 2 * n_modes + 1
    out = np.zeros((dim, dim), dtype=complex)
    for mode, value in enumerate(cos_coeffs):
        weight = value if mode == 0 else 0.5 * value
        if weight == 0.0:
            continue
        for off in {mode, -mode}:
            idx = np.arange(max(0, off), min(dim, dim + off))
            out[idx, idx - off] += weight
    return out


def assemble(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> HillProblem:
    """Build the Floquet-Bloch matrix at sideband xi about the wave train."""
    if not 8 <= n_modes <= MAX_N_MODES:
        raise ValueError(f"n_modes must be in [8, {MAX_N_MODES}], got {n_modes!r}")
    wave = wave_train(amplitude, kappa, bond)
    if amplitude == 0.0:
        eta = np.zeros(REFINE_MODES + 1)
        u = np.zeros(REFINE_MODES + 1)
        speed = wave.speed
    else:
        eta, u, speed = _refine_wave(wave)
    n = np.arange(-n_modes, n_modes + 1)
    deriv = 1j * (n + xi)
    symbol = np.array(
        [eval_dispersion_squared(kappa * abs(m + xi), bond) for m in n]
    )
    conv_u = _convolution_matrix(u, n_modes)
    conv_eta = _convolution_matrix(eta, n_modes)
    ident = np.eye(2 * n_modes + 1, dtype=complex)
    top = np.hstack([speed * ident - conv_u, -np.diag(symbol) - conv_eta])
    bottom = np.hstack([-ident, speed * ident - conv_u])
    matrix = np.concatenate([deriv, deriv])[:, None] * np.vstack([top, bottom])
    return HillProblem(
        xi=xi,
        amplitude=amplitude,
        kappa=kappa,
        bond=bond,
        n_modes=n_modes,
        matrix=matrix,
        wave=wave,
        eta_coeffs=eta,
        u_coeffs=u,
        speed=speed,
    )


def growth_rate(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest real part among eigenvalues bifurcating from the origin.

    Eigenvalues are filtered to |lambda| <= 10*(|xi| + |a|); far branches are
    irrelevant to modulational stability.  Returns 0 for the unperturbed
    problem (xi = a = 0).
    """
    radius = ORIGIN_RADIUS_FACTOR * (abs(xi) + abs(amplitude))
    if radius == 0.0:
        return 0.0
    problem = assemble(xi, amplitude, kappa, bond, n_modes)
    eigenvalues = np.linalg.eigvals(problem.matrix)
    near = eigenvalues[np.abs(eigenvalues) <= radius]
    if near.size == 0:
        return 0.0
    return max(0.0, float(near.real.max()))


def growth_rate_band(
    xi_max: float,
    amplitude: float,
    kappa: float,
    bond: float,
    n_modes: int,
    n_xi: int = 4,
) -> float:
    """Largest growth rate over a dyadic sweep of sidebands (xi_max/2^j).

    Modulational instability is growth of some long-wavelength sideband; at
    finite amplitude the unstable xi-band can sit strictly below any single
    probe, so classification sweeps xi = xi_max, xi_max/2, ..., down to
    xi_max / 2**(n_xi - 1).
    """
    best = 0.0
    for j in range(n_xi):
        best = max(best, growth_rate(xi_max / 2**j, amplitude, kappa, bond, n_modes))
    return best
