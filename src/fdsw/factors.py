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
alike.  So is the rule that flags a point: one helper states delta and the
BondOneThird, NearPoleI3 and OutsideValidity conditions for a float or an
array sample, and points, diagram grids and the stability intervals of
``analysis.classify_intervals`` are all classified by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress

import numpy as np

from .config import near_pole, on_bond_third
from .dispersion import (
    DispersionSample,
    eval_dispersion,
    eval_dispersion_array,
    eval_dispersion_squared,
    eval_dispersion_squared_array,
    second_harmonic,
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


def _factors(s: DispersionSample, c_2k, branch: Branch, model: Model | None = None) -> tuple:
    """(i1, i2, i3, i4) from the sample at kappa and the speed c_2k at 2*kappa.

    i2 and i3 are taken on ``branch``, which must be the model's branch when
    a model is given: i4 is built from them.  i4 is None without a model.
    Works on float and array samples alike.
    """
    if branch is Branch.FULL:
        i2 = s.cg * s.cg - 1.0
        i3 = s.c2 - c_2k * c_2k
    else:
        i2 = s.cg - 1.0
        i3 = s.c - c_2k
    i4 = None if model is None else _I4[model](s, c_2k, i2, i3)
    return s.dcg, i2, i3, i4


# The factors read only c at the second harmonic 2*kappa: the root of the
# symbol there, which is eval_dispersion's c at 2*kappa bit for bit.
def _samples(kappa: float, bond: float) -> tuple[DispersionSample, float]:
    s = eval_dispersion(kappa, bond)
    return s, math.sqrt(eval_dispersion_squared(second_harmonic(kappa), bond))


def _array_samples(kappa, bond) -> tuple[DispersionSample, np.ndarray]:
    kappa = np.asarray(kappa, dtype=float)
    s = eval_dispersion_array(kappa, bond)
    return s, np.sqrt(eval_dispersion_squared_array(second_harmonic(kappa), bond))


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
def _i4_fdsw2(s: DispersionSample, c_2k, i2, i3) -> float:
    k = s.kappa
    return 9.0 * s.c2 * i2 + i3 * (
        3.0 + 15.0 * s.c2 + 6.0 * k * s.c * s.dc - k * k * s.dc * s.dc
    )


def _i4_fdsw1(s: DispersionSample, c_2k, i2, i3) -> float:
    # Coefficients cross-validated against a direct Floquet-Bloch computation
    # for this system: unique sign change at kappa = 1.610 for T = 0 and
    # scaled threshold kappa_c(T)*sqrt(T) -> 1.054 as T -> infinity.
    k = s.kappa
    c2, c4, c2_2k = s.c2, s.c2 * s.c2, c_2k * c_2k
    return (
        3.0 * c2
        + 15.0 * c4
        - 6.0 * c2_2k * (c2 + 2.0)
        + 18.0 * k * s.c * c2 * s.dc
        + k * k * s.dc * s.dc * (5.0 * c2 + 4.0 * c2_2k)
    )


def _i4_whitham(s: DispersionSample, c_2k, i2m, i3m) -> float:
    return 2.0 * i3m + i2m


def _i4_fdch(s: DispersionSample, c_2k, i2m, i3m) -> float:
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
    s, c_2k = _array_samples(kappa, bond)
    with np.errstate(all="ignore"):
        return _factors(s, c_2k, model.branch, model)


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


def _flag_rule(s: DispersionSample, c_2k, model: Model) -> tuple:
    """The factors, delta = i1*i2*i4/i3 and the flag conditions at the sample.

    The one statement of when a point is flagged, for a float sample and an
    array sample alike: the conditions come in ``_FLAG_LABELS`` order, as
    bools or bool arrays.  delta is not defined at a pole, which is never
    also OutsideValidity: a float sample gives None there, an array sample
    whatever the division gives (evaluate it under ``np.errstate``).
    """
    i1, i2, i3, i4 = _factors(s, c_2k, model.branch, model)
    pole = _near_pole(i3, s, model.branch)
    if isinstance(s.kappa, np.ndarray):
        delta = i1 * i2 * i4 / i3
        outside = ~(pole | np.isfinite(delta))
    else:
        delta = None if pole else i1 * i2 * i4 / i3
        outside = not (pole or math.isfinite(delta))
    return (i1, i2, i3, i4), delta, (on_bond_third(s.bond), pole, outside)


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
    factors, delta, conditions = _flag_rule(*_samples(kappa, bond), model)
    flags = frozenset(compress(_FLAG_LABELS, conditions))
    return IndexReport(kappa, bond, *factors, delta, flags)


# The label codes of _label_codes index this array: the flags' labels in
# precedence order, then U, then S.
_LABELS = np.array([*_FLAG_LABELS.values(), "U", "S"], dtype=object)


def _label_codes(model: Model, kappa, bond) -> np.ndarray:
    """The index into ``_LABELS`` of each point's label, as uint8, broadcast."""
    model = Model(model)
    s, c_2k = _array_samples(kappa, bond)
    with np.errstate(all="ignore"):
        _, delta, flags = _flag_rule(s, c_2k, model)
        # the first condition that holds picks the label
        conditions = [*flags, delta < 0.0]
        code = np.select(conditions, list(range(len(conditions))), default=len(conditions))
    return code.astype(np.uint8)


def index_labels(model: Model, kappa, bond) -> np.ndarray:
    """``index(model, k, T).classification`` at every point, broadcast.

    Returns an object array of the label strings, in one array pass.
    """
    return _LABELS[_label_codes(model, kappa, bond)]
