"""Projected 4x4 eigenvalue pencil for the sideband spectrum near zero.

Linearizing the model about a small wave train in the comoving frame and
Floquet-decomposing with sideband exponent xi, four eigenvalues bifurcate
from the zero eigenvalue at (xi, a) = (0, 0).  Restricted to the associated
four-dimensional invariant subspace (spanned by explicit Fourier polynomials
phi_1..phi_4), the eigenvalue problem becomes the pencil

    det(L(xi, a) - lambda * I(xi, a)) = 0

with explicit 4x4 matrices written order by order in (xi, a) through xi^2
and a (the O(xi^3 + xi^2 a + a^2) remainder is dropped).  Its roots are the
eigenvalues of I^-1 L, with no polynomial in between; with lambda = i*xi*X, a
nonreal root X at some sideband classifies modulational instability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import CLASSIFY_TOL, SIDEBAND_LADDER
from .dispersion import check_finite, eval_dispersion
from .stokes import harmonic_coeffs

#: Order of the trigonometric basis used for the eigenfunctions:
#: constant, cos z, sin z, cos 2z, sin 2z.
HARMONICS = ("1", "cos z", "sin z", "cos 2z", "sin 2z")


class Stability(str, Enum):
    STABLE = "S"
    UNSTABLE = "U"


class DegenerateQuarticError(ArithmeticError):
    """I(xi) cannot be inverted, or a root of det(L - lambda*I) is not finite."""


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
    """The pencil (L, I) at one sideband xi, or at each of an array of them."""

    xi: float | np.ndarray
    amplitude: float
    kappa: float
    bond: float
    Lmat: np.ndarray  # complex, (4, 4), or (sidebands, 4, 4) for an array of xi
    Imat: np.ndarray  # likewise


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


def pencil_orders(kappa: float, bond: float) -> tuple[dict, dict]:
    """The pencil order by order in (xi, a).

    (L, I), each a dict from (i, j) to the 4x4 coefficient matrix of xi^i a^j.
    """
    s = eval_dispersion(kappa, bond)
    _, h2 = harmonic_coeffs(kappa, bond)
    c, c2, cp, cpp = s.c, s.c2, s.dc, s.d2c
    q = 4.0 * c2 + 1.0
    L_a, L_xi, L_xia, L_xi2, I_a, I_xia = np.zeros((6, 4, 4), dtype=complex)

    # O(a): nonlinear coupling of the sin-z mode into the mean modes
    L_a[3, 1] = 0.25 * (c2 + 1.0)
    # O(xi): transport of the four modes
    L_xi[0, 0] = L_xi[1, 1] = -1j * kappa * cp
    L_xi[2, 2] = 1j * c * (4.0 * c2 + 5.0) / q
    L_xi[2, 3] = L_xi[3, 2] = -1j * (4.0 * c2 - 1.0) / q
    L_xi[3, 3] = 1j * c * (4.0 * c2 - 3.0) / q
    # O(xi*a): cross couplings
    big_l = (
        (4.0 * c * (1.0 - c2) * h2 - kappa * c * cp - 1.0 - 5.0 * c2)
        / (2.0 * c * (c2 + 1.0))
    )
    l31 = 4.0 * c * (1.0 - c2) * h2 - 2.0 - c2
    l41 = (4.0 * c * (1.0 - c2) * h2 - 2.0 * (c2 + 1.0) - 4.0 * c2 * c2) / (2.0 * c)
    L_xia[0, 2] = 2j * c * big_l
    L_xia[0, 3] = 1j * big_l
    L_xia[2, 0] = 1j * l31 / (2.0 * q)
    L_xia[3, 0] = 1j * l41 / (2.0 * q)
    # O(xi^2): dispersive rotation of the cos/sin pair
    L_xi2[0, 1] = 0.5 * kappa * (2.0 * cp + kappa * cpp)
    L_xi2[1, 0] = -L_xi2[0, 1]

    alpha = (4.0 * c * (1.0 - 2.0 * c2) * h2 - 1.0) / (4.0 * c * (c2 + 1.0) * q)
    I_a[0, 2] = 2.0 * q * alpha
    I_a[2, 0] = (c2 + 1.0) * alpha
    beta = (1.0 - 6.0 * c * h2) / (2.0 * (c2 + 1.0) * q)
    I_a[0, 3] = 2.0 * q * beta
    I_a[3, 0] = (c2 + 1.0) * beta
    gamma = kappa * cp / (4.0 * c * (c2 + 1.0) ** 2 * q)
    I_xia[1, 2] = -4j * c * q * gamma
    I_xia[1, 3] = -2j * q * gamma
    I_xia[2, 1] = -2j * c * (c2 + 1.0) * gamma
    I_xia[3, 1] = -1j * (c2 + 1.0) * gamma
    return (
        {(0, 1): L_a, (1, 0): L_xi, (1, 1): L_xia, (2, 0): L_xi2},
        {(0, 0): np.eye(4, dtype=complex), (0, 1): I_a, (1, 1): I_xia},
    )


def build_matrices(xi, amplitude: float, kappa: float, bond: float) -> BlochMatrices:
    """L(xi, a) and I(xi, a): 4x4 at a float xi, stacked over a 1-d array of xi."""
    check_finite([*(("xi", x) for x in np.ravel(xi).tolist()), ("amplitude", amplitude)])
    x = np.asarray(xi, dtype=float)[..., None, None]
    Lmat, Imat = (
        sum(x**i * amplitude**j * m for (i, j), m in orders.items())
        for orders in pencil_orders(kappa, bond)
    )
    return BlochMatrices(xi=xi, amplitude=amplitude, kappa=kappa, bond=bond, Lmat=Lmat, Imat=Imat)


def classify_from_quartic(bm: BlochMatrices) -> Stability:
    """Stable/unstable from the roots X = lambda/(i*xi) of det(L - lambda*I) = 0.

    The roots are the eigenvalues of I^-1 L over i*xi, for every sideband of
    a stack in one call.  Unstable iff some sideband has a root with
    |Im X| > CLASSIFY_TOL * (1 + max |X|), i.e. some bifurcating eigenvalue
    leaves the imaginary axis.
    """
    xi = np.asarray(bm.xi, dtype=float)
    bad = ~np.isfinite(xi) | (xi == 0.0)
    if bad.any():
        raise ValueError(f"xi must be finite and nonzero, got {float(xi[bad][0])!r}")
    try:
        roots = np.linalg.eigvals(np.linalg.solve(bm.Imat, bm.Lmat)) / (1j * xi[..., None])
    except np.linalg.LinAlgError as err:
        raise DegenerateQuarticError(f"det(L - lambda*I) has no finite roots: {err}") from err
    if not np.isfinite(roots).all():
        raise DegenerateQuarticError(f"det(L - lambda*I) has a non-finite root: {roots!r}")
    worst = np.abs(roots.imag).max(axis=-1)
    biggest = np.abs(roots).max(axis=-1)
    if (worst > CLASSIFY_TOL * (1.0 + biggest)).any():
        return Stability.UNSTABLE
    return Stability.STABLE


def classify_band(xi_max: float, amplitude: float, kappa: float, bond: float) -> Stability:
    """Unstable iff some sideband xi_max*f, f in SIDEBAND_LADDER, has a nonreal root X.

    At finite amplitude the unstable xi-band can sit strictly inside
    (0, xi_max), so classification takes the whole ladder, in one stack.
    """
    xis = xi_max * np.array(SIDEBAND_LADDER)
    return classify_from_quartic(build_matrices(xis, amplitude, kappa, bond))
