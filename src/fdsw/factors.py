"""Modulational instability index and its four factors.

For each model the index of a small 2*pi/kappa-periodic wave train is

    delta(kappa) = i1 * i2 * i4 / i3,

negative exactly when the wave train is modulationally (Benjamin-Feir)
unstable.  The factors share a common dispersion core:

    i1 = (kappa*c)''                 -- group-speed extremum (mechanism R1)
    i2 = ((kappa*c)')**2 - 1         -- long/short wave resonance (R2)
    i3 = c(kappa)**2 - c(2*kappa)**2 -- second-harmonic resonance (R3)
    i4 = model-dependent             -- dispersion/nonlinearity balance (R4)

The bidirectional systems (FDSW1, FDSW2) use the full i2, i3 above; the
unidirectional equations (Whitham, FDCH) only see the right-moving branch of
the dispersion, so their index uses the one-sided factors

    i2- = (kappa*c)' - 1,    i3- = c(kappa) - c(2*kappa).

The factor formulas are written once and serve one point (:func:`index`,
``factor_i*``) and whole arrays (:func:`factor_arrays`, :func:`index_labels`)
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import BOND_THIRD_TOL, POLE_TOL
from .dispersion import DispersionSample, eval_dispersion, eval_dispersion_array


class Model(str, Enum):
    """Which shallow-water model's nonlinearity enters i4."""

    WHITHAM = "whitham"
    FDCH = "fdch"
    FDSW1 = "fdsw1"
    FDSW2 = "fdsw2"

    @property
    def unidirectional(self) -> bool:
        return self in (Model.WHITHAM, Model.FDCH)

    @property
    def branch(self) -> Branch:
        """The branch of i2 and i3 that enters this model's index."""
        return Branch.MINUS if self.unidirectional else Branch.FULL


class Branch(str, Enum):
    FULL = "full"
    MINUS = "minus"
    PLUS = "plus"


class IndexFlag(str, Enum):
    NEAR_POLE_I3 = "NearPoleI3"
    BOND_ONE_THIRD = "BondOneThird"
    OUTSIDE_VALIDITY = "OutsideValidity"


def _factors(
    s: DispersionSample, s2: DispersionSample, branch: Branch, model: Model | None = None
) -> tuple:
    """(i1, i2, i3, i4) from the samples at kappa and 2*kappa.

    i2 and i3 are taken on ``branch``; i4 is None without a model.  Works
    on float and array samples alike.
    """
    if branch is Branch.FULL:
        i2 = s.cg * s.cg - 1.0
        i3 = s.c2 - s2.c2
    elif branch is Branch.MINUS:
        i2 = s.cg - 1.0
        i3 = s.c - s2.c
    else:
        i2 = s.cg + 1.0
        i3 = s.c + s2.c
    i4 = None if model is None else _I4[model](s, s2)
    return s.dcg, i2, i3, i4


def _samples(kappa: float, bond: float) -> tuple[DispersionSample, DispersionSample]:
    return eval_dispersion(kappa, bond), eval_dispersion(2.0 * kappa, bond)


def _array_samples(kappa, bond) -> tuple[DispersionSample, DispersionSample]:
    kappa = np.asarray(kappa, dtype=float)
    return eval_dispersion_array(kappa, bond), eval_dispersion_array(2.0 * kappa, bond)


def factor_i1(kappa: float, bond: float) -> float:
    """(kappa*c)'' -- vanishes where the group speed has an extremum."""
    return eval_dispersion(kappa, bond).dcg


def factor_i2(kappa: float, bond: float, branch: Branch = Branch.FULL) -> float:
    """((kappa*c)')**2 - 1, or its one-sided factor (kappa*c)' -+ 1."""
    return _factors(*_samples(kappa, bond), Branch(branch))[1]


def factor_i3(kappa: float, bond: float, branch: Branch = Branch.FULL) -> float:
    """c(kappa)**2 - c(2*kappa)**2, or the one-sided c(kappa) -+ c(2*kappa)."""
    return _factors(*_samples(kappa, bond), Branch(branch))[2]


def _i4_fdsw2(s: DispersionSample, s2: DispersionSample) -> float:
    k = s.kappa
    i2 = s.cg * s.cg - 1.0
    i3 = s.c2 - s2.c2
    return 9.0 * s.c2 * i2 + i3 * (
        3.0 + 15.0 * s.c2 + 6.0 * k * s.c * s.dc - k * k * s.dc * s.dc
    )


def _i4_fdsw1(s: DispersionSample, s2: DispersionSample) -> float:
    # Coefficients cross-validated against a direct Floquet-Bloch computation
    # for this system: unique sign change at kappa = 1.610 for T = 0 and
    # scaled threshold kappa_c(T)*sqrt(T) -> 1.054 as T -> infinity.
    k = s.kappa
    c2, c4 = s.c2, s.c2 * s.c2
    return (
        3.0 * c2
        + 15.0 * c4
        - 6.0 * s2.c2 * (c2 + 2.0)
        + 18.0 * k * s.c * c2 * s.dc
        + k * k * s.dc * s.dc * (5.0 * c2 + 4.0 * s2.c2)
    )


def _i4_whitham(s: DispersionSample, s2: DispersionSample) -> float:
    i2m = s.cg - 1.0
    i3m = s.c - s2.c
    return 2.0 * i3m + i2m


def _i4_fdch(s: DispersionSample, s2: DispersionSample) -> float:
    k = s.kappa
    i2m = s.cg - 1.0
    i3m = s.c - s2.c
    k2 = k * k
    return (
        3.0 * i2m
        - i2m * i3m
        + 6.0 * i3m
        - k2 / 12.0 * (57.0 * i2m + 34.0 * i3m)
        + k2 * k2 / 108.0 * (198.0 * i2m + 35.0 * i3m)
    )


_I4 = {
    Model.FDSW2: _i4_fdsw2,
    Model.FDSW1: _i4_fdsw1,
    Model.WHITHAM: _i4_whitham,
    Model.FDCH: _i4_fdch,
}


def factor_i4(model: Model, kappa: float, bond: float) -> float:
    """The nonlinearity factor of the index for the given model."""
    return _I4[Model(model)](*_samples(kappa, bond))


def factor_arrays(model: Model, kappa, bond) -> tuple[np.ndarray, ...]:
    """(i1, i2, i3, i4) of the model's index at every point, broadcast.

    The same values as ``index(model, k, T)`` gives one point at a time,
    up to the last-ulp difference between ``np.tanh`` and ``math.tanh``.
    Overflow gives inf or nan without a warning.
    """
    model = Model(model)
    s, s2 = _array_samples(kappa, bond)
    with np.errstate(all="ignore"):
        return _factors(s, s2, model.branch, model)


@dataclass(frozen=True)
class IndexReport:
    """Factor values, index value and guard flags at one (kappa, bond)."""

    kappa: float
    bond: float
    i1: float
    i2: float
    i3: float
    i4: float
    delta: float | None
    flags: frozenset[IndexFlag] = field(default_factory=frozenset)

    @property
    def classification(self) -> str:
        """One of 'S', 'U', 'NearPole', 'Inconclusive', 'OutsideValidity'."""
        if IndexFlag.BOND_ONE_THIRD in self.flags:
            return "Inconclusive"
        if IndexFlag.NEAR_POLE_I3 in self.flags:
            return "NearPole"
        if IndexFlag.OUTSIDE_VALIDITY in self.flags:
            return "OutsideValidity"
        return "U" if self.delta is not None and self.delta < 0.0 else "S"


def _on_bond_third(bond):
    return abs(bond - 1.0 / 3.0) < BOND_THIRD_TOL


def _near_pole(i3, s: DispersionSample):
    return abs(i3) < POLE_TOL * (1.0 + s.c2)


def index(model: Model, kappa: float, bond: float) -> IndexReport:
    """Assemble the modulational instability index at (kappa, bond).

    delta < 0 classifies the wave train as modulationally unstable, delta > 0
    as stable.  Near a second-harmonic resonance (i3 within the pole guard)
    delta is undefined and the NearPoleI3 flag is set; on the Bond-number
    line T = 1/3 the classification is inconclusive and BondOneThird is set;
    where delta overflows to inf or nan, OutsideValidity is set.  kappa and
    bond must be finite (ValueError otherwise).
    """
    model = Model(model)
    s, s2 = _samples(kappa, bond)
    i1, i2, i3, i4 = _factors(s, s2, model.branch, model)

    flags = set()
    if _on_bond_third(bond):
        flags.add(IndexFlag.BOND_ONE_THIRD)
    if _near_pole(i3, s):
        flags.add(IndexFlag.NEAR_POLE_I3)
        delta = None
    else:
        delta = i1 * i2 * i4 / i3
        if not math.isfinite(delta):
            flags.add(IndexFlag.OUTSIDE_VALIDITY)
    return IndexReport(
        kappa=kappa,
        bond=bond,
        i1=i1,
        i2=i2,
        i3=i3,
        i4=i4,
        delta=delta,
        flags=frozenset(flags),
    )


_LABELS = np.array(["S", "U", "NearPole", "Inconclusive", "OutsideValidity"], dtype=object)
_S, _U, _NEAR_POLE, _INCONCLUSIVE, _OUTSIDE_VALIDITY = range(len(_LABELS))


def index_labels(model: Model, kappa, bond) -> np.ndarray:
    """``index(model, k, T).classification`` at every point, broadcast.

    Returns an object array of the label strings, in one array pass.
    """
    model = Model(model)
    s, s2 = _array_samples(kappa, bond)
    with np.errstate(all="ignore"):
        i1, i2, i3, i4 = _factors(s, s2, model.branch, model)
        delta = i1 * i2 * i4 / i3
        # The first condition that holds picks the label, in the precedence
        # of IndexReport.classification.
        code = np.select(
            [_on_bond_third(s.bond), _near_pole(i3, s), ~np.isfinite(delta), delta < 0.0],
            [_INCONCLUSIVE, _NEAR_POLE, _OUTSIDE_VALIDITY, _U],
            default=_S,
        )
    return _LABELS[code]
