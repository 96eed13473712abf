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

from .config import near_pole, on_bond_third
from .dispersion import (
    DispersionSample,
    PhaseSpeed,
    eval_dispersion,
    eval_dispersion_array,
    eval_speed,
    eval_speed_array,
)


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


class IndexFlag(str, Enum):
    NEAR_POLE_I3 = "NearPoleI3"
    BOND_ONE_THIRD = "BondOneThird"
    OUTSIDE_VALIDITY = "OutsideValidity"


# The label precedence: the first flag that is set, in this order, names a
# point; a point with no flag is U where delta < 0 and S otherwise.
_FLAG_LABELS = {
    IndexFlag.BOND_ONE_THIRD: "Inconclusive",
    IndexFlag.NEAR_POLE_I3: "NearPole",
    IndexFlag.OUTSIDE_VALIDITY: "OutsideValidity",
}


def _factors(
    s: DispersionSample, s2: PhaseSpeed, branch: Branch, model: Model | None = None
) -> tuple:
    """(i1, i2, i3, i4) from the sample at kappa and the speed at 2*kappa.

    i2 and i3 are taken on ``branch``, which must be the model's branch when
    a model is given: i4 is built from them.  i4 is None without a model.
    Works on float and array samples alike.
    """
    if branch is Branch.FULL:
        i2 = s.cg * s.cg - 1.0
        i3 = s.c2 - s2.c2
    else:
        i2 = s.cg - 1.0
        i3 = s.c - s2.c
    i4 = None if model is None else _I4[model](s, s2, i2, i3)
    return s.dcg, i2, i3, i4


# The factors read only c and c2 at the second harmonic 2*kappa.
def _samples(kappa: float, bond: float) -> tuple[DispersionSample, PhaseSpeed]:
    return eval_dispersion(kappa, bond), eval_speed(2.0 * kappa, bond)


def _array_samples(kappa, bond) -> tuple[DispersionSample, PhaseSpeed]:
    kappa = np.asarray(kappa, dtype=float)
    # above DBL_MAX/2 the doubled kappa is inf, which the domain check rejects
    with np.errstate(over="ignore"):
        kappa2 = 2.0 * kappa
    return eval_dispersion_array(kappa, bond), eval_speed_array(kappa2, bond)


def factor_i1(kappa: float, bond: float) -> float:
    """(kappa*c)'' -- vanishes where the group speed has an extremum."""
    return eval_dispersion(kappa, bond).dcg


def factor_i2(kappa: float, bond: float, branch: Branch = Branch.FULL) -> float:
    """((kappa*c)')**2 - 1, or its one-sided factor (kappa*c)' - 1."""
    return _factors(*_samples(kappa, bond), Branch(branch))[1]


def factor_i3(kappa: float, bond: float, branch: Branch = Branch.FULL) -> float:
    """c(kappa)**2 - c(2*kappa)**2, or the one-sided c(kappa) - c(2*kappa)."""
    return _factors(*_samples(kappa, bond), Branch(branch))[2]


# Each i4 takes the samples and the model's own i2 and i3 from _factors.
def _i4_fdsw2(s: DispersionSample, s2: PhaseSpeed, i2, i3) -> float:
    k = s.kappa
    return 9.0 * s.c2 * i2 + i3 * (
        3.0 + 15.0 * s.c2 + 6.0 * k * s.c * s.dc - k * k * s.dc * s.dc
    )


def _i4_fdsw1(s: DispersionSample, s2: PhaseSpeed, i2, i3) -> float:
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


def _i4_whitham(s: DispersionSample, s2: PhaseSpeed, i2m, i3m) -> float:
    return 2.0 * i3m + i2m


def _i4_fdch(s: DispersionSample, s2: PhaseSpeed, i2m, i3m) -> float:
    k = s.kappa
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
    model = Model(model)
    return _factors(*_samples(kappa, bond), model.branch, model)[3]


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
        for flag, label in _FLAG_LABELS.items():
            if flag in self.flags:
                return label
        return "U" if self.delta is not None and self.delta < 0.0 else "S"


def _near_pole(i3, s: DispersionSample, branch: Branch):
    # The guard is relative to i3's own scale: c**2 for the full factor,
    # c for the one-sided ones.
    return near_pole(i3, s.c2 if branch is Branch.FULL else s.c)


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
    if on_bond_third(bond):
        flags.add(IndexFlag.BOND_ONE_THIRD)
    if _near_pole(i3, s, model.branch):
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


# index_labels' label codes: the flags' labels in precedence order, then U, then S.
_LABELS = np.array([*_FLAG_LABELS.values(), "U", "S"], dtype=object)


def index_labels(model: Model, kappa, bond) -> np.ndarray:
    """``index(model, k, T).classification`` at every point, broadcast.

    Returns an object array of the label strings, in one array pass.
    """
    model = Model(model)
    s, s2 = _array_samples(kappa, bond)
    with np.errstate(all="ignore"):
        i1, i2, i3, i4 = _factors(s, s2, model.branch, model)
        delta = i1 * i2 * i4 / i3
        flags = {
            IndexFlag.BOND_ONE_THIRD: on_bond_third(s.bond),
            IndexFlag.NEAR_POLE_I3: _near_pole(i3, s, model.branch),
            IndexFlag.OUTSIDE_VALIDITY: ~np.isfinite(delta),
        }
        # the first condition that holds picks the label
        conditions = [flags[flag] for flag in _FLAG_LABELS] + [delta < 0.0]
        code = np.select(conditions, list(range(len(conditions))), default=len(conditions))
    return _LABELS[code]
