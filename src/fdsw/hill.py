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
M: every solve below is real.

To stay independent of the second-order amplitude expansion, the wave the
operator is linearized about is first polished by Newton iteration on the
periodic traveling-wave system (:func:`fdsw.stokes.polish_wave`, to residual
below 1e-12 on a short cosine basis), once per (a, kappa, T) for a whole
sideband sweep.  The O(a^3) profile corrections this adds are negligible
almost everywhere but decide the classification near eigenvalue collisions
(small group-speed derivative or small second-harmonic detuning).

The four eigenvalues nearest the origin (the branches bifurcating from
zero) decide modulational stability: a positive real part means instability
with growth rate max Re(lambda) in the e^{lambda*kappa*t} time
normalization.  They are found without the full spectrum: inverse subspace
iteration on a six-column block, with M^-1 applied through a Schur
complement of half the size, then Rayleigh-Ritz.  Each sideband's quartet is
certified by its Ritz residuals; a sideband that fails the certificate, or
cannot be solved this way (integer xi), takes the dense eigensolve of M with
the radius filter ORIGIN_RADIUS_FACTOR instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import SIDEBAND_LADDER
from .dispersion import check_domain, check_finite, eval_dispersion_squared_array
from .stokes import (
    PolishedWave,
    WaveRefinementError,
    _convolution_matrix,
    polish_wave,
    wave_train,
)

# The dense solve (the fallback of the quartet solve, and its test
# reference) keeps the eigenvalues within this multiple of (|xi| + |a|) of
# the origin as the bifurcating branch; everything farther is discarded.
ORIGIN_RADIUS_FACTOR = 10.0

# Largest truncation accepted.  The dense real matrix M takes 8*(4N + 2)**2
# bytes: 8.4 MB at N = 256 (its complex form L twice that).  The quartet
# solve never forms M; a Schur complement and its inverse take half of that
# per sideband.  Both solves grow as N**3: at N = 256 a four-sideband ladder
# took about 0.2 s by the quartet solve and 3 s by dense eigensolves (2-vCPU
# x86_64, one BLAS thread).
MAX_N_MODES = 256

# The quartet solve: inverse subspace iteration from the Fourier modes
# START_MODES of both components, which at zero amplitude span the quartet and
# the two fast n = +-1 branches beside it.  Each iteration shrinks the error
# in the quartet's subspace by the ratio of its modulus to that of the 7th
# eigenvalue nearest the origin.
START_MODES = (-1, 0, 1)
SUBSPACE_ITERATIONS = 8

# A quartet is certified when each of its unit Ritz pairs (mu, v) has
# |M v - mu v| <= QUARTET_TOL * ||M||_F: it is then the exact quartet of a
# matrix that close to M.  Uncertified sidebands take the dense solve.
QUARTET_TOL = 1e-12


@dataclass(frozen=True)
class HillProblem:
    """Truncated Floquet-Bloch matrix of the linearization at sideband xi.

    ``real_matrix`` is the real M with L(xi) = 1j*M; ``matrix`` is L.
    ``wave`` is the polished wave it is linearized about: its coefficients,
    speed and Newton diagnostics, and as ``wave.wave`` the second-order
    expansion (amplitude, kappa, bond) the polish started from.
    """

    xi: float
    n_modes: int
    real_matrix: np.ndarray  # real, dimension 2*(2*n_modes + 1)
    wave: PolishedWave

    @property
    def matrix(self) -> np.ndarray:
        """The complex operator L(xi) = 1j*M."""
        return 1j * self.real_matrix


def _check_problem(xis, amplitude: float, kappa: float, bond: float, n_modes: int) -> None:
    """Raise ValueError, naming the value, unless the problem is well posed."""
    check_domain(kappa, bond)
    check_finite([*(("xi", xi) for xi in xis), ("amplitude", amplitude)])
    if not 8 <= n_modes <= MAX_N_MODES:
        raise ValueError(f"n_modes must be in [8, {MAX_N_MODES}], got {n_modes!r}")


@dataclass(frozen=True)
class _SidebandBlocks:
    """M(xi) at several sidebands at once, through its blocks.

    M = D [[A, -S - C_eta], [-I, A]] with D = diag(n + xi, n + xi),
    A = c I - C_u and S = diag(c2(kappa |n + xi|)).  M x = y is
    x1 = A x2 - z2 with (A^2 - C_eta - S) x2 = z1 + A z2, z = D^-1 y, so a
    solve needs one dim x dim Schur complement per sideband, not the
    2*dim x 2*dim M.  A^2 - C_eta is shared; only S differs per sideband.
    Stacked operands have one leading row per sideband.  This is the one
    statement of M: :meth:`dense` forms it for :func:`assemble` and the dense
    solve, and the quartet solve uses :meth:`apply` and :meth:`solver`.
    """

    scale: np.ndarray  # the diagonal of D, (sidebands, 2*dim, 1)
    symbol: np.ndarray  # the diagonal of S, (sidebands, dim)
    block_a: np.ndarray
    conv_eta: np.ndarray

    @classmethod
    def build(cls, xis, wave: PolishedWave, n_modes: int) -> _SidebandBlocks:
        """The blocks at the sidebands ``xis``, about ``wave``."""
        shifted = np.asarray(xis, dtype=float)[:, None] + np.arange(-n_modes, n_modes + 1)
        symbol = eval_dispersion_squared_array(wave.wave.kappa * np.abs(shifted), wave.wave.bond)
        conv_u = _convolution_matrix(wave.u_coeffs, n_modes)
        return cls(
            scale=np.concatenate([shifted, shifted], axis=1)[..., None],
            symbol=symbol,
            block_a=wave.speed * np.eye(2 * n_modes + 1) - conv_u,
            conv_eta=_convolution_matrix(wave.eta_coeffs, n_modes),
        )

    def take(self, rows) -> _SidebandBlocks:
        """The blocks of the sidebands ``rows`` (an index or a mask)."""
        return replace(self, scale=self.scale[rows], symbol=self.symbol[rows])

    def dense(self) -> np.ndarray:
        """M itself, (sidebands, 2*dim, 2*dim)."""
        sidebands, dim = self.symbol.shape
        diag = np.zeros((sidebands, dim, dim))
        diag[:, np.arange(dim), np.arange(dim)] = self.symbol
        block = np.empty((sidebands, 2 * dim, 2 * dim))
        block[:, :dim, :dim] = self.block_a
        block[:, :dim, dim:] = -diag - self.conv_eta
        block[:, dim:, :dim] = -np.eye(dim)
        block[:, dim:, dim:] = self.block_a
        return self.scale * block

    def solver(self):
        """The map y -> M^-1 y; raises LinAlgError where a Schur complement is singular."""
        dim = self.symbol.shape[1]
        shared = self.block_a @ self.block_a - self.conv_eta
        schur = np.repeat(shared[None], len(self.symbol), axis=0)
        schur[:, np.arange(dim), np.arange(dim)] -= self.symbol
        schur_inv = np.linalg.inv(schur)

        def solve(y: np.ndarray) -> np.ndarray:
            z1, z2 = np.split(y / self.scale, 2, axis=1)
            x2 = schur_inv @ (z1 + self.block_a @ z2)
            return np.concatenate([self.block_a @ x2 - z2, x2], axis=1)

        return solve

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M x."""
        x1, x2 = np.split(x, 2, axis=1)
        top = self.block_a @ x1 - self.symbol[..., None] * x2 - self.conv_eta @ x2
        return self.scale * np.concatenate([top, self.block_a @ x2 - x1], axis=1)

    def frobenius(self) -> np.ndarray:
        """||M||_F per sideband, from the rows of D [A, -S - C_eta] and D [-I, A]."""
        rows = 1.0 + 2.0 * np.sum(self.block_a**2, axis=1) + np.sum(self.conv_eta**2, axis=1)
        rows = rows + self.symbol * (self.symbol + 2.0 * np.diag(self.conv_eta))
        _, shifted = np.split(self.scale[..., 0], 2, axis=1)
        return np.sqrt(np.sum(shifted**2 * rows, axis=1))


def assemble(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> HillProblem:
    """Build the Floquet-Bloch matrix at sideband xi about the wave train."""
    _check_problem([xi], amplitude, kappa, bond, n_modes)
    wave = polish_wave(wave_train(amplitude, kappa, bond))
    blocks = _SidebandBlocks.build([xi], wave, n_modes)
    return HillProblem(xi=xi, n_modes=n_modes, real_matrix=blocks.dense()[0], wave=wave)


def _dense_growth(real_matrix: np.ndarray, xi: float, amplitude: float) -> float:
    """Growth at one sideband from every eigenvalue of M within the origin radius."""
    radius = ORIGIN_RADIUS_FACTOR * (abs(xi) + abs(amplitude))
    # L = 1j*M with M real, so the eigenvalues of L are 1j times those of M.
    eigenvalues = 1j * np.linalg.eigvals(real_matrix)
    near = eigenvalues[np.abs(eigenvalues) <= radius]
    return float(near.real.max()) if near.size else 0.0


def _quartet_growth(blocks: _SidebandBlocks) -> np.ndarray:
    """Growth of the certified near-origin quartet at each sideband; nan where uncertified.

    Inverse subspace iteration from the modes START_MODES of both
    components, all sidebands at once, then Rayleigh-Ritz on the basis: the
    quartet is the four Ritz values of smallest modulus.  A sideband is
    uncertified where D is singular (integer xi), where a value is not
    finite, or where a Ritz residual exceeds QUARTET_TOL * ||M||_F.  Every
    sideband is uncertified when the batched inverse of the Schur
    complements fails.
    """
    sidebands, dim = blocks.symbol.shape
    growth = np.full(sidebands, np.nan)
    solvable = np.all(blocks.scale != 0.0, axis=(1, 2))
    if not solvable.any():
        return growth
    blocks = blocks.take(solvable)
    try:
        solve = blocks.solver()
    except np.linalg.LinAlgError:
        return growth
    start = dim // 2 + np.array(START_MODES)
    start = np.concatenate([start, dim + start])
    basis = np.zeros((len(blocks.symbol), 2 * dim, start.size))
    basis[:, start, np.arange(start.size)] = 1.0
    with np.errstate(all="ignore"):
        for _ in range(SUBSPACE_ITERATIONS):
            basis = np.linalg.qr(solve(basis))[0]
        image = blocks.apply(basis)
        projected = basis.transpose(0, 2, 1) @ image
        finite = np.all(np.isfinite(projected), axis=(1, 2))
        projected[~finite] = 0.0
        ritz, vectors = np.linalg.eig(projected)
        keep = np.argsort(np.abs(ritz), axis=1)[:, :4]
        ritz = np.take_along_axis(ritz, keep, axis=1)
        vectors = np.take_along_axis(vectors, keep[:, None, :], axis=2)
        # |M v - mu v| for the unit Ritz vectors v = basis @ w
        residual = np.linalg.norm((image - basis @ projected) @ vectors, axis=1)
        bound = QUARTET_TOL * blocks.frobenius()
    certified = finite & np.all(residual <= bound[:, None], axis=1)
    # lambda = 1j*mu, so Re(lambda) = -Im(mu)
    growth[np.flatnonzero(solvable)[certified]] = np.max(-ritz.imag, axis=1)[certified]
    return growth


def _ladder_growth(
    xis: list[float], amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest growth rate over the sidebands ``xis``, one wave polish for all.

    Each sideband takes the growth of its certified quartet, or of the dense
    solve where the quartet is not certified.
    """
    _check_problem(xis, amplitude, kappa, bond, n_modes)
    # xi = a = 0 is the unperturbed problem, with growth 0
    xis = [xi for xi in xis if abs(xi) + abs(amplitude) != 0.0]
    if not xis:
        return 0.0
    wave = polish_wave(wave_train(amplitude, kappa, bond))
    blocks = _SidebandBlocks.build(xis, wave, n_modes)
    best = 0.0
    for row, quartet in enumerate(_quartet_growth(blocks)):
        if np.isnan(quartet):
            quartet = _dense_growth(blocks.take([row]).dense()[0], xis[row], amplitude)
        best = max(best, float(quartet))
    return best


def growth_rate(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest real part among eigenvalues bifurcating from the origin.

    These are the certified quartet of the four eigenvalues nearest the
    origin; far branches are irrelevant to modulational stability.  Where the
    quartet is not certified, the dense solve keeps every eigenvalue with
    |lambda| <= ORIGIN_RADIUS_FACTOR*(|xi| + |a|).  Never below 0, and 0 for
    the unperturbed problem (xi = a = 0).
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
