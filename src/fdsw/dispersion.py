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
``np.tanh``/``np.sqrt`` and picks the series branch per element; likewise
:func:`eval_dispersion_squared` and :func:`eval_dispersion_squared_array`
for the Fourier-multiplier symbol alone, and :func:`eval_speed` and
:func:`eval_speed_array` for c and c**2 alone (what the index reads at the
second harmonic 2*k).  These compute m = tanh(k)/k without its derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Below this wave number m, m', m'' are evaluated from the series branch.
SERIES_KAPPA_THRESHOLD = 1e-2

# Maclaurin coefficients of tanh(k)/k = 1 + S2*k^2 + S4*k^4 + S6*k^6 + S8*k^8.
_S2 = -1.0 / 3.0
_S4 = 2.0 / 15.0
_S6 = -17.0 / 315.0
_S8 = 62.0 / 2835.0


def _ratio_series(kappa):
    x2 = kappa * kappa
    return 1.0 + x2 * (_S2 + x2 * (_S4 + x2 * (_S6 + x2 * _S8)))


def _ratio_direct(kappa, tanh=math.tanh):
    return tanh(kappa) / kappa


def _kernel_series(kappa):
    x2 = kappa * kappa
    m = _ratio_series(kappa)
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


def _pick(kappa: float, series, direct):
    """``series(kappa)`` below SERIES_KAPPA_THRESHOLD, else ``direct(kappa)``.

    ``series`` and ``direct`` are the kernel's branches (m, m', m'') or the
    ratio's (m alone).
    """
    if kappa < SERIES_KAPPA_THRESHOLD:
        return series(kappa)
    return direct(kappa)


def _pick_array(kappa: np.ndarray, series, direct):
    """:func:`_pick` on every element of an array.

    The direct branch always runs and may divide by an underflowed kappa**3
    at small elements; the series branch, which overflows at large kappa,
    runs only if some element takes it.
    """
    picked = direct(kappa, np.tanh)
    small = kappa < SERIES_KAPPA_THRESHOLD
    if small.any():
        picked = np.where(small, series(kappa), picked)
    return picked


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


class PhaseSpeed(NamedTuple):
    """The fields c and c2 of a :class:`DispersionSample` alone."""

    c: float
    c2: float


def _speed(kappa, bond, m, sqrt) -> tuple:
    """(q, c, c2): q = 1 + T*kappa**2, c = sqrt(q*m) and c2 = c*c."""
    q = 1.0 + bond * kappa * kappa
    c = sqrt(q * m)
    return q, c, c * c


def _sample(kappa, bond, m, m1, m2, sqrt) -> DispersionSample:
    q, c, c2 = _speed(kappa, bond, m, sqrt)
    dc2 = 2.0 * bond * kappa * m + q * m1
    d2c2 = 2.0 * bond * m + 4.0 * bond * kappa * m1 + q * m2
    dc = dc2 / (2.0 * c)
    d2c = (d2c2 - 2.0 * dc * dc) / (2.0 * c)
    return DispersionSample(
        kappa=kappa,
        bond=bond,
        c=c,
        c2=c2,
        dc=dc,
        d2c=d2c,
        cg=c + kappa * dc,
        dcg=2.0 * dc + kappa * d2c,
    )


def check_domain(kappa: float | None, bond: float, zero_kappa: bool = False) -> None:
    """Raise ValueError, naming the value, unless kappa and bond are in the domain.

    That is finite kappa > 0 (>= 0 with ``zero_kappa``; None skips kappa)
    and finite bond >= 0, in float arithmetic.
    """
    if not (
        kappa is None or (kappa >= 0.0 if zero_kappa else kappa > 0.0) and math.isfinite(kappa)
    ):
        sign = "nonnegative" if zero_kappa else "positive"
        raise ValueError(f"kappa must be finite and {sign}, got {kappa!r}")
    if not (bond >= 0.0 and math.isfinite(bond)):
        raise ValueError(f"bond must be finite and nonnegative, got {bond!r}")


def check_finite(named_values) -> None:
    """Raise ValueError, naming the value, unless every (name, value) pair has a finite value."""
    for name, value in named_values:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _domain_arrays(kappa, bond, zero_kappa: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``kappa`` and ``bond`` as float arrays, each point checked as by :func:`check_domain`."""
    kappa = np.asarray(kappa, dtype=float)
    bond = np.asarray(bond, dtype=float)
    good_kappa = ((kappa >= 0.0) if zero_kappa else (kappa > 0.0)) & np.isfinite(kappa)
    if not good_kappa.all():
        check_domain(float(kappa[~good_kappa].flat[0]), 0.0, zero_kappa)
    good_bond = (bond >= 0.0) & np.isfinite(bond)
    if not good_bond.all():
        check_domain(None, float(bond[~good_bond].flat[0]))
    return kappa, bond


def eval_dispersion(kappa: float, bond: float) -> DispersionSample:
    """Evaluate c(kappa; T) and all derivative quantities.

    Parameters
    ----------
    kappa : wave number, must be finite and > 0.
    bond : surface-tension coefficient T, must be finite and >= 0.
    """
    check_domain(kappa, bond)
    return _sample(kappa, bond, *_pick(kappa, _kernel_series, _kernel_direct), math.sqrt)


def eval_dispersion_array(kappa, bond) -> DispersionSample:
    """:func:`eval_dispersion` at every point of ``kappa`` and ``bond``, broadcast.

    The result's fields are arrays.  Values that overflow become inf or nan
    without a warning, as the float arithmetic of :func:`eval_dispersion`
    does.
    """
    kappa, bond = _domain_arrays(kappa, bond)
    with np.errstate(all="ignore"):
        kernel = _pick_array(kappa, _kernel_series, _kernel_direct)
        return _sample(kappa, bond, *kernel, np.sqrt)


def eval_speed(kappa: float, bond: float) -> PhaseSpeed:
    """c and c2 of :func:`eval_dispersion` alone, bit for bit.

    The index reads only these at the second harmonic 2*kappa.
    """
    check_domain(kappa, bond)
    m = _pick(kappa, _ratio_series, _ratio_direct)
    return PhaseSpeed(*_speed(kappa, bond, m, math.sqrt)[1:])


def eval_speed_array(kappa, bond) -> PhaseSpeed:
    """c and c2 of :func:`eval_dispersion_array` alone, bit for bit."""
    kappa, bond = _domain_arrays(kappa, bond)
    with np.errstate(all="ignore"):
        m = _pick_array(kappa, _ratio_series, _ratio_direct)
        return PhaseSpeed(*_speed(kappa, bond, m, np.sqrt)[1:])


def eval_dispersion_squared(kappa: float, bond: float) -> float:
    """The Fourier-multiplier symbol c(kappa)**2 = (1 + T*kappa**2)*tanh(kappa)/kappa.

    Unlike :func:`eval_dispersion` this accepts kappa = 0, where the symbol
    extends continuously to 1 (needed when the multiplier acts on the mean
    mode of a periodic function).
    """
    check_domain(kappa, bond, zero_kappa=True)
    if kappa == 0.0:
        return 1.0
    return (1.0 + bond * kappa * kappa) * _pick(kappa, _ratio_series, _ratio_direct)


def eval_dispersion_squared_array(kappa, bond) -> np.ndarray:
    """:func:`eval_dispersion_squared` at every point of ``kappa`` and ``bond``, broadcast.

    kappa = 0 maps to 1, as in the scalar form: the series branch of the
    kernel is exact there.
    """
    kappa, bond = _domain_arrays(kappa, bond, zero_kappa=True)
    with np.errstate(all="ignore"):
        return (1.0 + bond * kappa * kappa) * _pick_array(kappa, _ratio_series, _ratio_direct)
