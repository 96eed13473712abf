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
complement of half the size, in rounds that each end in Rayleigh-Ritz.
After each round a sideband whose quartet is certified by its Ritz residuals
locks and leaves the batch; the rest iterate on.  A sideband still
uncertified after the last round, or that cannot be solved this way
(integer xi), takes instead the four eigenvalues of smallest modulus of its
dense M.  Either way the quartet is the same four eigenvalues, and the
growth rate is read from it in one place.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

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
# eigenvalue nearest the origin.  The iterations run in at most
# SUBSPACE_ROUNDS rounds of SUBSPACE_ITERATIONS steps, each round on the
# sidebands not yet certified.  On the bench oracle ladders (xi_max = a = 1e-2,
# N = 32) 6 steps certify about 9 of 10 ladders in one round and the rest in
# two or three; 7 steps per round, or 5, cost more steps in all, and a 4th
# round sends fewer sidebands of larger xi to the dense solve than a cap of 3.
START_MODES = (-1, 0, 1)
SUBSPACE_ITERATIONS = 6
SUBSPACE_ROUNDS = 4

# A quartet is certified when each of its unit Ritz pairs (mu, v) has
# |M v - mu v| <= QUARTET_TOL * ||M||_F: it is then the exact quartet of a
# matrix that close to M.  Sidebands uncertified after the last round take
# the dense solve.
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
    if any(abs(xi) > 0.5 for xi in xis):
        raise ValueError(f"xi must be in [-1/2, 1/2], got {max(xis, key=abs)!r}")
    if not (isinstance(n_modes, numbers.Integral) and 8 <= n_modes <= MAX_N_MODES):
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

    def dense(self, rows=slice(None)) -> np.ndarray:
        """M itself at the sidebands ``rows`` (an index or a mask), (sidebands, 2*dim, 2*dim)."""
        symbol = self.symbol[rows]
        sidebands, dim = symbol.shape
        diag = np.zeros((sidebands, dim, dim))
        diag[:, np.arange(dim), np.arange(dim)] = symbol
        block = np.empty((sidebands, 2 * dim, 2 * dim))
        block[:, :dim, :dim] = self.block_a
        block[:, :dim, dim:] = -diag - self.conv_eta
        block[:, dim:, :dim] = -np.eye(dim)
        block[:, dim:, dim:] = self.block_a
        return self.scale[rows] * block

    def solver(self):
        """The map rows -> (y -> M^-1 y at the sidebands ``rows``).

        The Schur complements of every sideband are inverted here, once, and
        raise LinAlgError where one is singular.  Each ``rows`` selects its
        inverses and scales once, for every solve made with the map it
        returns; ``y`` has one leading row per selected sideband.
        """
        dim = self.symbol.shape[1]
        shared = self.block_a @ self.block_a - self.conv_eta
        schur = np.repeat(shared[None], len(self.symbol), axis=0)
        schur[:, np.arange(dim), np.arange(dim)] -= self.symbol
        schur_inv = np.linalg.inv(schur)

        def at(rows):
            inverse, scale = schur_inv[rows], self.scale[rows]

            def solve(y: np.ndarray) -> np.ndarray:
                z = y / scale
                x = np.empty_like(z)
                x[:, dim:] = inverse @ (z[:, :dim] + self.block_a @ z[:, dim:])
                x[:, :dim] = self.block_a @ x[:, dim:] - z[:, dim:]
                return x

            return solve

        return at

    def apply(self, x: np.ndarray, rows) -> np.ndarray:
        """M x at the sidebands ``rows``, one leading row of ``x`` per sideband."""
        dim = self.symbol.shape[1]
        x1, x2 = x[:, :dim], x[:, dim:]
        y = np.empty_like(x)
        y[:, :dim] = self.block_a @ x1 - self.symbol[rows, :, None] * x2 - self.conv_eta @ x2
        y[:, dim:] = self.block_a @ x2 - x1
        return self.scale[rows] * y

    def frobenius(self) -> np.ndarray:
        """||M||_F per sideband, from the rows of D [A, -S - C_eta] and D [-I, A]."""
        rows = 1.0 + 2.0 * np.sum(self.block_a**2, axis=1) + np.sum(self.conv_eta**2, axis=1)
        rows = rows + self.symbol * (self.symbol + 2.0 * np.diag(self.conv_eta))
        shifted = self.scale[:, self.symbol.shape[1] :, 0]
        return np.sqrt(np.sum(shifted**2 * rows, axis=1))


def assemble(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> HillProblem:
    """Build the Floquet-Bloch matrix at sideband xi about the wave train."""
    _check_problem([xi], amplitude, kappa, bond, n_modes)
    wave = polish_wave(wave_train(amplitude, kappa, bond))
    blocks = _SidebandBlocks.build([xi], wave, n_modes)
    return HillProblem(xi=xi, n_modes=n_modes, real_matrix=blocks.dense()[0], wave=wave)


def _rayleigh_ritz(blocks: _SidebandBlocks, basis: np.ndarray, rows) -> tuple:
    """Rayleigh-Ritz on the orthonormal ``basis`` at the sidebands ``rows``.

    Returns the four Ritz values of smallest modulus per sideband, their
    residuals |M v - mu v| for the unit Ritz vectors v, and whether the
    projected matrix is finite (where it is not, the values mean nothing).
    """
    image = blocks.apply(basis, rows)
    projected = basis.transpose(0, 2, 1) @ image
    finite = np.all(np.isfinite(projected), axis=(1, 2))
    projected[~finite] = 0.0
    ritz, vectors = np.linalg.eig(projected)
    keep = np.argsort(np.abs(ritz), axis=1)[:, :4]
    ritz = np.take_along_axis(ritz, keep, axis=1)
    vectors = np.take_along_axis(vectors, keep[:, None, :], axis=2)
    # v = basis @ w for the eigenvectors w of the projection
    residual = np.linalg.norm((image - basis @ projected) @ vectors, axis=1)
    return ritz, residual, finite


def _quartets(blocks: _SidebandBlocks) -> np.ndarray:
    """The quartet mu of M nearest the origin at each sideband, (sidebands, 4) complex.

    Inverse subspace iteration from the modes START_MODES of both
    components, in rounds of SUBSPACE_ITERATIONS steps on the live
    sidebands at once.  Each round ends in Rayleigh-Ritz on the basis: the
    quartet is the four Ritz values of smallest modulus.  A sideband is
    certified, and leaves the batch, where every value is finite and each
    Ritz residual is at most QUARTET_TOL * ||M||_F; where D is singular
    (integer xi) the values are not finite, and the sideband leaves too.
    After SUBSPACE_ROUNDS rounds every sideband not certified, and every
    sideband when the batched inverse of the Schur complements fails, takes
    the four eigenvalues of smallest modulus of its dense M, all of them in
    one stacked eigensolve.
    """
    sidebands, dim = blocks.symbol.shape
    quartets = np.empty((sidebands, 4), dtype=complex)
    certified = np.zeros(sidebands, dtype=bool)
    start = dim // 2 + np.array(START_MODES)
    start = np.concatenate([start, dim + start])
    basis = np.zeros((sidebands, 2 * dim, start.size))
    basis[:, start, np.arange(start.size)] = 1.0
    try:
        solver = blocks.solver()
    except np.linalg.LinAlgError:
        pass
    else:
        bound = QUARTET_TOL * blocks.frobenius()
        live = np.arange(sidebands)
        with np.errstate(all="ignore"):
            for _ in range(SUBSPACE_ROUNDS):
                solve = solver(live)
                for _ in range(SUBSPACE_ITERATIONS):
                    basis = np.linalg.qr(solve(basis))[0]
                ritz, residual, finite = _rayleigh_ritz(blocks, basis, live)
                done = finite & np.all(residual <= bound[live, None], axis=1)
                quartets[live[done]] = ritz[done]
                certified[live[done]] = True
                # a sideband with values not finite goes to the dense solve now
                live, basis = live[finite & ~done], basis[finite & ~done]
                if not live.size:
                    break
    if not certified.all():
        eigenvalues = np.linalg.eigvals(blocks.dense(~certified))
        keep = np.argsort(np.abs(eigenvalues), axis=1)[:, :4]
        quartets[~certified] = np.take_along_axis(eigenvalues, keep, axis=1)
    return quartets


def _ladder_growth(
    xis: list[float], amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest growth rate over the sidebands ``xis``, one wave polish for all."""
    _check_problem(xis, amplitude, kappa, bond, n_modes)
    # xi = a = 0 is the unperturbed problem, with growth 0
    xis = [xi for xi in xis if abs(xi) + abs(amplitude) != 0.0]
    if not xis:
        return 0.0
    wave = polish_wave(wave_train(amplitude, kappa, bond))
    quartets = _quartets(_SidebandBlocks.build(xis, wave, n_modes))
    # lambda = 1j*mu, so Re(lambda) = -Im(mu)
    return max(0.0, float(np.max(-quartets.imag)))


def growth_rate(
    xi: float, amplitude: float, kappa: float, bond: float, n_modes: int
) -> float:
    """Largest real part among eigenvalues bifurcating from the origin.

    These are the quartet of the four eigenvalues nearest the origin, from
    the certified quartet solve or, where it is not certified, from the dense
    eigensolve of M; far branches are irrelevant to modulational stability.
    Never below 0, and 0 for the unperturbed problem (xi = a = 0).
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
