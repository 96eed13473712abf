"""Projected 4x4 eigenvalue pencil for the sideband spectrum near zero.

Linearizing the model about a small wave train in the comoving frame and
Floquet-decomposing with sideband exponent xi, four eigenvalues bifurcate
from the zero eigenvalue at (xi, a) = (0, 0).  Restricted to the associated
four-dimensional invariant subspace (spanned by explicit Fourier polynomials
phi_1..phi_4), the eigenvalue problem becomes the pencil

    det(L(xi, a) - lambda * I(xi, a)) = 0

with explicit 4x4 matrices assembled below through orders xi^2 and a (the
O(xi^3 + xi^2 a + a^2) remainder is dropped).  Substituting lambda = i*xi*X
and testing the quartic's roots X for nonreal values classifies modulational
instability at small (xi, a).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import CLASSIFY_TOL, SIDEBAND_LADDER
from .dispersion import eval_dispersion
from .stokes import harmonic_coeffs

#: Order of the trigonometric basis used for the eigenfunctions:
#: constant, cos z, sin z, cos 2z, sin 2z.
HARMONICS = ("1", "cos z", "sin z", "cos 2z", "sin 2z")


class Stability(str, Enum):
    STABLE = "S"
    UNSTABLE = "U"


class DegenerateQuarticError(ArithmeticError):
    """The quartic's leading coefficient vanished; roots are meaningless."""


@dataclass(frozen=True)
class EigenBasis:
    """Fourier-polynomial basis phi_1..phi_4 of the bifurcating subspace.

    ``coeffs[j, h]`` is the complex 2-vector (surface, velocity component)
    multiplying the harmonic ``HARMONICS[h]`` in phi_{j+1}; ``p2`` is the
    xi^2 correction vector of phi_1, phi_2.
    """

    xi: float
    amplitude: float
    kappa: float
    bond: float
    coeffs: np.ndarray  # shape (4, 5, 2), complex
    p2: np.ndarray  # shape (2,), real


@dataclass(frozen=True)
class BlochMatrices:
    """The pencil (L, I) and the coefficients of det(L - lambda*I)."""

    xi: float
    amplitude: float
    kappa: float
    bond: float
    Lmat: np.ndarray  # 4x4 complex
    Imat: np.ndarray  # 4x4 complex
    quartic: np.ndarray  # 5 complex coefficients, ascending powers of lambda


def eigenbasis(xi: float, amplitude: float, kappa: float, bond: float) -> EigenBasis:
    """Basis of the four-dimensional subspace, through orders xi^2 and a."""
    s = eval_dispersion(kappa, bond)
    _, h2 = harmonic_coeffs(kappa, bond)
    c, cp, cpp = s.c, s.dc, s.d2c
    a = amplitude
    k2 = kappa * kappa

    p2 = (
        0.5
        * k2
        / (s.c2 + 1.0)
        * np.array(
            [
                -3.0 * c * cp * cp / (s.c2 + 1.0) + cpp,
                cp * cp * (2.0 * s.c2 - 1.0) / (s.c2 + 1.0) - c * cpp,
            ]
        )
    )
    rot = 1j * xi * kappa * cp / (s.c2 + 1.0) * np.array([1.0, -c])
    second = 0.5 * a * np.array([4.0 * c * h2 - 1.0, 4.0 * h2])

    phi = np.zeros((4, 5, 2), dtype=complex)
    # phi_1: (c,1) cos z + rot sin z + a-mean + a-cos2z + xi^2 p2 cos z
    phi[0, 1] = np.array([c, 1.0]) + xi * xi * p2
    phi[0, 2] = rot
    phi[0, 0] = a / (4.0 * c) * np.array([-c * (1.0 + 4.0 * c * h2), 1.0 - 4.0 * c * h2])
    phi[0, 3] = second
    # phi_2: (c,1) sin z - rot cos z + a-sin2z + xi^2 p2 sin z
    phi[1, 2] = np.array([c, 1.0]) + xi * xi * p2
    phi[1, 1] = -rot
    phi[1, 4] = second
    # phi_3: (2c,-1) + a (1,0) cos z - xi^2 k^2 c/6 (1,0)
    phi[2, 0] = np.array([2.0 * c, -1.0]) - xi * xi * k2 * c / 6.0 * np.array([1.0, 0.0])
    phi[2, 1] = a * np.array([1.0, 0.0])
    # phi_4: (1,2c) + a/(2c) (1,0) cos z - xi^2 k^2/12 (1,0)
    phi[3, 0] = np.array([1.0, 2.0 * c]) - xi * xi * k2 / 12.0 * np.array([1.0, 0.0])
    phi[3, 1] = a / (2.0 * c) * np.array([1.0, 0.0])
    return EigenBasis(xi=xi, amplitude=amplitude, kappa=kappa, bond=bond, coeffs=phi, p2=p2)


def _pencil_determinant(L: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Coefficients of det(L - lambda*I), ascending in lambda (length 5).

    det(L - lambda*I) = det(I) * det(I^-1 L - lambda), and for a 4x4 matrix
    det(A - lambda) is the characteristic polynomial np.poly(A).
    """
    quartic = np.linalg.det(I) * np.poly(np.linalg.solve(I, L))
    return np.asarray(quartic[::-1], dtype=complex)


def build_matrices(xi: float, amplitude: float, kappa: float, bond: float) -> BlochMatrices:
    """Assemble L(xi, a), I(xi, a) and the quartic det(L - lambda*I)."""
    s = eval_dispersion(kappa, bond)
    _, h2 = harmonic_coeffs(kappa, bond)
    c, c2, cp, cpp = s.c, s.c2, s.dc, s.d2c
    a = amplitude
    q = 4.0 * c2 + 1.0

    Lmat = np.zeros((4, 4), dtype=complex)
    # O(a): nonlinear coupling of the sin-z mode into the mean modes
    Lmat[3, 1] += 0.25 * a * (c2 + 1.0)
    # O(xi): transport of the four modes
    Lmat[0, 0] += 1j * xi * (-kappa * cp)
    Lmat[1, 1] += 1j * xi * (-kappa * cp)
    Lmat[2, 2] += 1j * xi * c * (4.0 * c2 + 5.0) / q
    Lmat[2, 3] += 1j * xi * (-(4.0 * c2 - 1.0) / q)
    Lmat[3, 2] += 1j * xi * (-(4.0 * c2 - 1.0) / q)
    Lmat[3, 3] += 1j * xi * c * (4.0 * c2 - 3.0) / q
    # O(xi*a): cross couplings
    big_l = (
        (4.0 * c * (1.0 - c2) * h2 - kappa * c * cp - 1.0 - 5.0 * c2)
        / (2.0 * c * (c2 + 1.0))
    )
    l31 = 4.0 * c * (1.0 - c2) * h2 - 2.0 - c2
    l41 = (4.0 * c * (1.0 - c2) * h2 - 2.0 * (c2 + 1.0) - 4.0 * c2 * c2) / (2.0 * c)
    Lmat[0, 2] += 1j * xi * a * big_l * 2.0 * c
    Lmat[0, 3] += 1j * xi * a * big_l
    Lmat[2, 0] += 1j * xi * a * l31 / (2.0 * q)
    Lmat[3, 0] += 1j * xi * a * l41 / (2.0 * q)
    # O(xi^2): dispersive rotation of the cos/sin pair
    disp = 0.5 * xi * xi * kappa * (2.0 * cp + kappa * cpp)
    Lmat[0, 1] += disp
    Lmat[1, 0] -= disp

    Imat = np.eye(4, dtype=complex)
    alpha = (4.0 * c * (1.0 - 2.0 * c2) * h2 - 1.0) / (4.0 * c * (c2 + 1.0) * q)
    Imat[0, 2] += a * alpha * 2.0 * q
    Imat[2, 0] += a * alpha * (c2 + 1.0)
    beta = (1.0 - 6.0 * c * h2) / (2.0 * (c2 + 1.0) * q)
    Imat[0, 3] += a * beta * 2.0 * q
    Imat[3, 0] += a * beta * (c2 + 1.0)
    gamma = kappa * cp / (4.0 * c * (c2 + 1.0) ** 2 * q)
    Imat[1, 2] += -1j * xi * a * gamma * 4.0 * c * q
    Imat[1, 3] += -1j * xi * a * gamma * 2.0 * q
    Imat[2, 1] += -1j * xi * a * gamma * 2.0 * c * (c2 + 1.0)
    Imat[3, 1] += -1j * xi * a * gamma * (c2 + 1.0)

    return BlochMatrices(
        xi=xi,
        amplitude=amplitude,
        kappa=kappa,
        bond=bond,
        Lmat=Lmat,
        Imat=Imat,
        quartic=_pencil_determinant(Lmat, Imat),
    )


def classify_from_quartic(bm: BlochMatrices) -> Stability:
    """Stable/unstable from the roots of the quartic in X = lambda/(i*xi).

    Unstable iff some root X has |Im X| > CLASSIFY_TOL * (1 + max |X|), i.e. some
    bifurcating eigenvalue leaves the imaginary axis.
    """
    xi = bm.xi
    lead = bm.quartic[4]
    scale = max(abs(v) for v in bm.quartic)
    if scale == 0.0 or abs(lead) < 1e-12 * scale:
        raise DegenerateQuarticError(
            f"leading quartic coefficient {lead!r} is negligible against {scale!r}"
        )
    powers = np.array([(1j * xi) ** n for n in range(5)])
    coeffs = bm.quartic * powers  # quartic in X, ascending
    roots = np.roots(coeffs[::-1])
    worst = max(abs(r.imag) for r in roots)
    biggest = max(abs(r) for r in roots)
    if worst > CLASSIFY_TOL * (1.0 + biggest):
        return Stability.UNSTABLE
    return Stability.STABLE


def classify_band(xi_max: float, amplitude: float, kappa: float, bond: float) -> Stability:
    """Unstable iff some sideband xi_max*f, f in SIDEBAND_LADDER, has a nonreal root X.

    At finite amplitude the unstable xi-band can sit strictly inside
    (0, xi_max), so classification sweeps a ladder of sidebands.
    """
    for fraction in SIDEBAND_LADDER:
        bm = build_matrices(xi_max * fraction, amplitude, kappa, bond)
        if classify_from_quartic(bm) is Stability.UNSTABLE:
            return Stability.UNSTABLE
    return Stability.STABLE
