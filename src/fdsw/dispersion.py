"""Capillary-gravity dispersion of unit-depth water waves.

The nondimensional phase speed of the linearized water-wave problem over
finite depth (unit depth, unit gravity) with surface tension is

    c(k)**2 = (1 + T*k**2) * tanh(k) / k,

where k > 0 is the wave number and T >= 0 the Bond number.  Everything the
instability analysis needs -- c, c', c'', the group speed (k*c)' and its
derivative (k*c)'' -- follows from closed-form differentiation of c**2:

    m(k)   = tanh(k)/k
    m'(k)  = (k*sech(k)**2 - tanh(k)) / k**2
    m''(k) = 2*(tanh(k) - k*sech(k)**2 - k**2*sech(k)**2*tanh(k)) / k**3

    (c**2)'  = 2*T*k*m + (1 + T*k**2)*m'
    (c**2)'' = 2*T*m + 4*T*k*m' + (1 + T*k**2)*m''

    c'  = (c**2)' / (2*c)
    c'' = ((c**2)'' - 2*c'**2) / (2*c)

For k below ``SERIES_KAPPA_THRESHOLD`` the direct forms of m' and m'' lose
roughly k**-2 digits to cancellation, so a Maclaurin expansion of tanh(k)/k
(truncated at k**8) is used instead.

The formulas are written once, in plain arithmetic that serves Python
floats and numpy arrays alike.  :func:`eval_dispersion` evaluates one point
with ``math``; :func:`eval_dispersion_array` evaluates whole arrays with
``np.tanh``/``np.sqrt`` and picks the series branch per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this wave number m, m', m'' are evaluated from the series branch.
SERIES_KAPPA_THRESHOLD = 1e-2

# Maclaurin coefficients of tanh(k)/k = 1 + S2*k^2 + S4*k^4 + S6*k^6 + S8*k^8.
_S2 = -1.0 / 3.0
_S4 = 2.0 / 15.0
_S6 = -17.0 / 315.0
_S8 = 62.0 / 2835.0


def _kernel_series(kappa):
    x2 = kappa * kappa
    m = 1.0 + x2 * (_S2 + x2 * (_S4 + x2 * (_S6 + x2 * _S8)))
    m1 = kappa * (2.0 * _S2 + x2 * (4.0 * _S4 + x2 * (6.0 * _S6 + x2 * (8.0 * _S8))))
    m2 = 2.0 * _S2 + x2 * (12.0 * _S4 + x2 * (30.0 * _S6 + x2 * (56.0 * _S8)))
    return m, m1, m2


def _kernel_direct(kappa, tanh=math.tanh):
    t = tanh(kappa)
    s = 1.0 - t * t
    m = t / kappa
    m1 = (kappa * s - t) / (kappa * kappa)
    m2 = 2.0 * (t - kappa * s - kappa * kappa * s * t) / (kappa * kappa * kappa)
    return m, m1, m2


def _kernel(kappa: float) -> tuple[float, float, float]:
    """tanh(k)/k and its first two derivatives."""
    if kappa < SERIES_KAPPA_THRESHOLD:
        return _kernel_series(kappa)
    return _kernel_direct(kappa)


def _kernel_array(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_kernel` on every element of an array."""
    # Both branches run on every element; the one not picked may overflow
    # (series at large kappa) or divide by an underflowed kappa**3 (direct).
    series = _kernel_series(kappa)
    direct = _kernel_direct(kappa, np.tanh)
    small = kappa < SERIES_KAPPA_THRESHOLD
    return tuple(np.where(small, a, b) for a, b in zip(series, direct))


@dataclass(frozen=True)
class DispersionSample:
    """Phase speed and derivative quantities at (kappa, bond).

    The fields are floats from :func:`eval_dispersion` and arrays, broadcast
    over kappa and bond, from :func:`eval_dispersion_array`.

    Attributes
    ----------
    c, c2 : phase speed c(kappa) and its square (c2 == c*c exactly).
    dc, d2c : first and second derivatives of c.
    cg : group speed (kappa*c)' == c + kappa*dc.
    dcg : derivative of the group speed (kappa*c)'' == 2*dc + kappa*d2c.
    """

    kappa: float
    bond: float
    c: float
    c2: float
    dc: float
    d2c: float
    cg: float
    dcg: float


def _sample(kappa, bond, m, m1, m2, sqrt) -> DispersionSample:
    q = 1.0 + bond * kappa * kappa
    c2 = q * m
    dc2 = 2.0 * bond * kappa * m + q * m1
    d2c2 = 2.0 * bond * m + 4.0 * bond * kappa * m1 + q * m2
    c = sqrt(c2)
    dc = dc2 / (2.0 * c)
    d2c = (d2c2 - 2.0 * dc * dc) / (2.0 * c)
    return DispersionSample(
        kappa=kappa,
        bond=bond,
        c=c,
        c2=c * c,
        dc=dc,
        d2c=d2c,
        cg=c + kappa * dc,
        dcg=2.0 * dc + kappa * d2c,
    )


def eval_dispersion(kappa: float, bond: float) -> DispersionSample:
    """Evaluate c(kappa; T) and all derivative quantities.

    Parameters
    ----------
    kappa : wave number, must be finite and > 0.
    bond : surface-tension coefficient T, must be finite and >= 0.
    """
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and positive, got {kappa!r}")
    if not (bond >= 0.0 and math.isfinite(bond)):
        raise ValueError(f"bond must be finite and nonnegative, got {bond!r}")
    return _sample(kappa, bond, *_kernel(kappa), math.sqrt)


def eval_dispersion_array(kappa, bond) -> DispersionSample:
    """:func:`eval_dispersion` at every point of ``kappa`` and ``bond``, broadcast.

    The result's fields are arrays.  Values that overflow become inf or nan
    without a warning, as the float arithmetic of :func:`eval_dispersion`
    does.
    """
    kappa = np.asarray(kappa, dtype=float)
    bond = np.asarray(bond, dtype=float)
    if not np.all((kappa > 0.0) & np.isfinite(kappa)):
        raise ValueError("kappa must be finite and positive everywhere")
    if not np.all((bond >= 0.0) & np.isfinite(bond)):
        raise ValueError("bond must be finite and nonnegative everywhere")
    with np.errstate(all="ignore"):
        return _sample(kappa, bond, *_kernel_array(kappa), np.sqrt)


def eval_dispersion_squared(kappa: float, bond: float) -> float:
    """The Fourier-multiplier symbol c(kappa)**2 = (1 + T*kappa**2)*tanh(kappa)/kappa.

    Unlike :func:`eval_dispersion` this accepts kappa = 0, where the symbol
    extends continuously to 1 (needed when the multiplier acts on the mean
    mode of a periodic function).
    """
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa!r}")
    if not (bond >= 0.0 and math.isfinite(bond)):
        raise ValueError(f"bond must be finite and nonnegative, got {bond!r}")
    if kappa == 0.0:
        return 1.0
    m, _, _ = _kernel(kappa)
    return (1.0 + bond * kappa * kappa) * m
