"""The 4x4 sideband pencil: a sign oracle for modulational instability.

Linearizing the model about a small wave train in the comoving frame and
Floquet-decomposing with sideband exponent xi, four eigenvalues bifurcate
from the zero eigenvalue at (xi, a) = (0, 0).  Projected onto the
four-dimensional invariant subspace they span (the Fourier polynomials
phi_1..phi_4 from which the entries below were derived), the eigenvalue
problem becomes the pencil

    det(L(xi, a) - lambda * I(xi, a)) = 0

with explicit 4x4 matrices written order by order in (xi, a) through xi^2
and a (the O(xi^3 + xi^2 a + a^2) remainder is dropped).  Its roots are the
eigenvalues of I^-1 L; with lambda = i*xi*X, a nonreal root X at some
sideband classifies modulational instability.

Only that sign is an answer: the growth Re lambda is not Hill's.  Each
maximized over xi at a = 1e-3, the pencil's peak growth is c(kappa) times
Hill's (0.69426 against c = 0.69427 at (kappa, T) = (2, 0), 2.30820 against
2.30818 at (2.5, 2)); which entries carry the extra c is not yet known
(docs/numerics.md).  Quantitative growth rates come from :mod:`fdsw.hill`.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .config import CLASSIFY_TOL, SIDEBAND_LADDER
from .dispersion import check_finite, eval_dispersion
from .stokes import harmonic_coeffs


class Stability(str, Enum):
    STABLE = "S"
    UNSTABLE = "U"


class DegeneratePencilError(ArithmeticError):
    """I(xi) cannot be inverted, or a root of det(L - lambda*I) is not finite."""


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


def build_matrices(
    xi, amplitude: float, kappa: float, bond: float
) -> tuple[np.ndarray, np.ndarray]:
    """(L, I) at (xi, a): 4x4 complex at a float xi, stacked over a 1-d array of xi."""
    check_finite([*(("xi", x) for x in np.ravel(xi).tolist()), ("amplitude", amplitude)])
    x = np.asarray(xi, dtype=float)[..., None, None]
    return tuple(
        sum(x**i * amplitude**j * m for (i, j), m in orders.items())
        for orders in pencil_orders(kappa, bond)
    )


def classify_pencil(Lmat: np.ndarray, Imat: np.ndarray, xi) -> Stability:
    """Stable/unstable from the roots X = lambda/(i*xi) of det(L - lambda*I) = 0.

    ``xi`` is the sideband of a 4x4 pair, or the 1-d array of sidebands of
    a stack.  The roots are the eigenvalues of I^-1 L over i*xi, for every
    sideband in one call.  Unstable iff some sideband has a root with
    |Im X| > CLASSIFY_TOL * (1 + max |X|), i.e. some bifurcating eigenvalue
    leaves the imaginary axis.
    """
    xi = np.asarray(xi, dtype=float)
    bad = ~np.isfinite(xi) | (xi == 0.0)
    if bad.any():
        raise ValueError(f"xi must be finite and nonzero, got {float(xi[bad][0])!r}")
    try:
        roots = np.linalg.eigvals(np.linalg.solve(Imat, Lmat)) / (1j * xi[..., None])
    except np.linalg.LinAlgError as err:
        raise DegeneratePencilError(f"det(L - lambda*I) has no finite roots: {err}") from err
    if not np.isfinite(roots).all():
        raise DegeneratePencilError(f"det(L - lambda*I) has a non-finite root: {roots!r}")
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
    return classify_pencil(*build_matrices(xis, amplitude, kappa, bond), xis)
