"""Fourier truncation of the linearized operator about the wave train.

Independent spectral check on the index and the 4x4 pencil.  The
linearization in the frame moving with the wave speed c is

    L v = d/dz [[c - u,  -c2(kappa*|d/dz|) - eta], [-1,  c - u]] v,

and Floquet-decomposing perturbations as e^{i xi z} times 2*pi-periodic
functions conjugates the operator to L(xi) = e^{-i xi z} L e^{i xi z}.  On
the Fourier coefficients n = -N..N this is a dense matrix: d/dz acts as
i(n + xi), the multiplier as c2(kappa*|n + xi|), and the profile
multiplications as banded convolutions.  Only the derivative is complex, so
L(xi) = 1j*M(xi) with M real, and the eigenvalues of L are 1j times those of
M: one real eigensolve.

To stay independent of the second-order amplitude expansion, the wave the
operator is linearized about is first polished by Newton iteration on the
periodic traveling-wave system (:func:`fdsw.stokes.polish_wave`, to residual
below 1e-12 on a short cosine basis), once per (a, kappa, T) for a whole
sideband sweep.  The O(a^3) profile corrections this adds are negligible
almost everywhere but decide the classification near eigenvalue collisions
(small group-speed derivative or small second-harmonic detuning).

Eigenvalues near the origin (the four branches bifurcating from zero)
decide modulational stability: a positive real part means instability with
growth rate max Re(lambda) in the e^{lambda*kappa*t} time normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SIDEBAND_LADDER
from .dispersion import eval_dispersion_squared_array
from .stokes import PolishedWave, WaveRefinementError, WaveTrain, polish_wave, wave_train

# Eigenvalues within this multiple of (|xi| + |a|) of the origin belong to
# the bifurcating branch; everything farther is discarded.
ORIGIN_RADIUS_FACTOR = 10.0

# Largest truncation accepted.  The dense real matrix M takes 8*(4N + 2)**2
# bytes: 8.4 MB at N = 256 (its complex form L twice that), and its
# eigensolve grows as N**3.
MAX_N_MODES = 256


@dataclass(frozen=True)
class HillProblem:
    """Truncated Floquet-Bloch matrix of the linearization.

    ``real_matrix`` is the real M with L(xi) = 1j*M; ``matrix`` is L.
    ``newton_iterations`` and ``newton_residual`` report the polish of the
    wave the operator is linearized about.
    """

    xi: float
    amplitude: float
    kappa: float
    bond: float
    n_modes: int
    real_matrix: np.ndarray  # real, dimension 2*(2*n_modes + 1)
    wave: WaveTrain  # second-order expansion the refinement started from
    eta_coeffs: np.ndarray  # refined cosine coefficients actually linearized about
    u_coeffs: np.ndarray
    speed: float
    newton_iterations: int
    newton_residual: float

    @property
    def matrix(self) -> np.ndarray:
        """The complex operator L(xi) = 1j*M."""
        return 1j * self.real_matrix


def _check_n_modes(n_modes: int) -> None:
    if not 8 <= n_modes <= MAX_N_MODES:
        raise ValueError(f"n_modes must be in [8, {MAX_N_MODES}], got {n_modes!r}")


def _convolution_matrix(cos_coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """Multiplication by an even cosine polynomial on exponential modes -N..N."""
    # cos(m z) = (e^{imz} + e^{-imz})/2: entry (p, q) is the weight of |p - q|.
    weights = np.zeros(2 * n_modes + 1)
    take = min(len(cos_coeffs), weights.size)
    weights[:take] = 0.5 * cos_coeffs[:take]
    weights[0] = cos_coeffs[0]
    n = np.arange(2 * n_modes + 1)
    return weights[np.abs(n[:, None] - n)]


def _real_operator(xi: float, wave: PolishedWave, n_modes: int) -> np.ndarray:
    """The real M(xi) with L(xi) = 1j*M(xi)."""
    shifted = xi + np.arange(-n_modes, n_modes + 1)
    symbol = eval_dispersion_squared_array(wave.wave.kappa * np.abs(shifted), wave.wave.bond)
    conv_u = _convolution_matrix(wave.u_coeffs, n_modes)
    conv_eta = _convolution_matrix(wave.eta_coeffs, n_modes)
    ident = np.eye(2 * n_modes + 1)
    block = np.block(
        [
            [wave.speed * ident - conv_u, -np.diag(symbol) - conv_eta],
            [-ident, wave.speed * ident - conv_u],
        ]
    )
    return np.concatenate([shifted, shifted])[:, None] * block


def assemble(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> HillProblem:
    """Build the Floquet-Bloch matrix at sideband xi about the wave train."""
    _check_n_modes(n_modes)
    wave = polish_wave(wave_train(amplitude, kappa, bond))
    return HillProblem(
        xi=xi,
        amplitude=amplitude,
        kappa=kappa,
        bond=bond,
        n_modes=n_modes,
        real_matrix=_real_operator(xi, wave, n_modes),
        wave=wave.wave,
        eta_coeffs=wave.eta_coeffs,
        u_coeffs=wave.u_coeffs,
        speed=wave.speed,
        newton_iterations=wave.iterations,
        newton_residual=wave.residual,
    )


def _ladder_growth(
    xis: list[float], amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest growth rate over the sidebands ``xis``, one wave polish for all."""
    best = 0.0
    wave = None
    for xi in xis:
        radius = ORIGIN_RADIUS_FACTOR * (abs(xi) + abs(amplitude))
        if radius == 0.0:
            continue
        if wave is None:
            _check_n_modes(n_modes)
            wave = polish_wave(wave_train(amplitude, kappa, bond))
        # L = 1j*M with M real, so the eigenvalues of L are 1j times those of M.
        eigenvalues = 1j * np.linalg.eigvals(_real_operator(xi, wave, n_modes))
        near = eigenvalues[np.abs(eigenvalues) <= radius]
        if near.size:
            best = max(best, float(near.real.max()))
    return best


def growth_rate(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest real part among eigenvalues bifurcating from the origin.

    Eigenvalues are filtered to |lambda| <= 10*(|xi| + |a|); far branches are
    irrelevant to modulational stability.  Returns 0 for the unperturbed
    problem (xi = a = 0).
    """
    return _ladder_growth([xi], amplitude, kappa, bond, n_modes)


def growth_rate_band(
    xi_max: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest growth rate over the sidebands xi_max*f, f in SIDEBAND_LADDER.

    Modulational instability is growth of some long-wavelength sideband; at
    finite amplitude the unstable xi-band can sit strictly below any single
    probe, so classification sweeps the same ladder as
    :func:`fdsw.bloch.classify_band`.  The wave is polished once for the
    whole sweep.
    """
    xis = [xi_max * fraction for fraction in SIDEBAND_LADDER]
    return _ladder_growth(xis, amplitude, kappa, bond, n_modes)
