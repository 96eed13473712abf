import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsw.dispersion import eval_dispersion
from fdsw.factors import (
    Branch,
    IndexFlag,
    Model,
    factor_arrays,
    factor_i1,
    factor_i2,
    factor_i3,
    factor_i4,
    index,
    index_labels,
)

I1_1_0 = -0.41040652201376677615  # 2*c'(1) + c''(1), mpmath reference
I3_1_0 = 0.27958036591785644615  # tanh(1) - tanh(2)/2


def test_i1_small_kappa_behavior():
    # kappa*c = kappa - kappa^3/6 + ..., so (kappa*c)'' = -kappa + O(kappa^3)
    for kappa in (1e-3, 1e-2):
        assert factor_i1(kappa, 0.0) == pytest.approx(-kappa, rel=2e-2)


def test_i1_negative_and_value():
    assert factor_i1(1.0, 0.0) < 0.0
    assert factor_i1(1.0, 0.0) == pytest.approx(I1_1_0, rel=1e-12)


def test_i2_long_wave_limit_and_sign():
    assert abs(factor_i2(1e-5, 0.0)) < 1e-8
    assert factor_i2(1.0, 0.0) < 0.0


def test_i3_value_and_sign():
    assert factor_i3(1.0, 0.0) == pytest.approx(I3_1_0, rel=1e-13)
    assert factor_i3(1.0, 0.0, Branch.FULL) > 0.0


# The full factors are the one-sided ones times their right-moving partners
# (kappa*c)' + 1 and c(kappa) + c(2*kappa), taken here from the dispersion.
def plus_i2(kappa, bond):
    return eval_dispersion(kappa, bond).cg + 1.0


def plus_i3(kappa, bond):
    return eval_dispersion(kappa, bond).c + eval_dispersion(2.0 * kappa, bond).c


@pytest.mark.parametrize("kappa,bond", [(0.3, 0.0), (1.0, 0.0), (2.5, 0.1), (1.3, 2.0), (7.0, 0.5)])
def test_branch_products(kappa, bond):
    full2 = factor_i2(kappa, bond, Branch.FULL)
    assert full2 == pytest.approx(
        factor_i2(kappa, bond, Branch.MINUS) * plus_i2(kappa, bond),
        rel=1e-15,
        abs=1e-15,
    )
    full3 = factor_i3(kappa, bond, Branch.FULL)
    assert full3 == pytest.approx(
        factor_i3(kappa, bond, Branch.MINUS) * plus_i3(kappa, bond),
        rel=1e-15,
        abs=1e-15,
    )


@given(
    kappa=st.floats(min_value=1e-2, max_value=20.0),
    bond=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=150, deadline=None)
def test_branch_products_property(kappa, bond):
    full = factor_i2(kappa, bond, Branch.FULL)
    split = factor_i2(kappa, bond, Branch.MINUS) * plus_i2(kappa, bond)
    assert full == pytest.approx(split, rel=1e-14, abs=1e-14)


def test_branch_accepts_plain_strings():
    assert factor_i2(1.0, 0.0, "minus") == factor_i2(1.0, 0.0, Branch.MINUS)
    assert factor_i3(1.0, 0.0, "full") == factor_i3(1.0, 0.0, Branch.FULL)


def test_branch_is_full_or_minus():
    with pytest.raises(ValueError, match="'plus' is not a valid Branch"):
        factor_i2(1.0, 0.0, "plus")


def test_i4_fdsw2_sign_change_location():
    assert factor_i4(Model.FDSW2, 0.5, 0.0) > 0.0
    assert factor_i4(Model.FDSW2, 2.0, 0.0) < 0.0
    assert factor_i4(Model.FDSW2, 1.006, 0.0) > 0.0
    assert factor_i4(Model.FDSW2, 1.010, 0.0) < 0.0


@pytest.mark.parametrize(
    "model,lo,hi",
    [
        (Model.WHITHAM, 1.144, 1.148),
        (Model.FDCH, 1.418, 1.422),
        (Model.FDSW1, 1.608, 1.612),
    ],
)
def test_i4_sign_changes_at_critical_wavenumbers(model, lo, hi):
    assert factor_i4(model, lo, 0.0) * factor_i4(model, hi, 0.0) < 0.0


def test_index_classifications_at_t0():
    assert index(Model.FDSW2, 2.0, 0.0).classification == "U"
    assert index(Model.FDSW2, 0.5, 0.0).classification == "S"
    assert index(Model.FDSW2, 2.0, 0.0).delta < 0.0
    assert index(Model.FDSW2, 0.5, 0.0).delta > 0.0


def test_index_delta_assembly():
    rep = index(Model.FDSW2, 1.7, 0.3)
    expected = rep.i1 * rep.i2 * rep.i4 / rep.i3
    assert rep.delta == pytest.approx(expected, rel=1e-15)
    assert rep.i2 == factor_i2(1.7, 0.3, Branch.FULL)
    assert rep.i3 == factor_i3(1.7, 0.3, Branch.FULL)


def test_index_unidirectional_uses_minus_branches():
    rep = index(Model.WHITHAM, 1.0, 0.0)
    assert rep.i2 == factor_i2(1.0, 0.0, Branch.MINUS)
    assert rep.i3 == factor_i3(1.0, 0.0, Branch.MINUS)
    assert rep.delta == pytest.approx(rep.i1 * rep.i2 * rep.i4 / rep.i3, rel=1e-15)


def test_whitham_stability_flips_at_critical_wavenumber():
    assert index(Model.WHITHAM, 1.0, 0.0).classification == "S"
    assert index(Model.WHITHAM, 1.3, 0.0).classification == "U"


def test_near_pole_flag_at_second_harmonic_resonance():
    # bisect the Wilton point c(kappa) = c(2 kappa) at T = 0.2
    lo, hi = 1.0, 1.5
    f = lambda k: factor_i3(k, 0.2, Branch.FULL)
    f_lo = f(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f(mid)
    wilton = 0.5 * (lo + hi)
    rep = index(Model.FDSW2, wilton, 0.2)
    # the exact set: a merged guard must not also flag OutsideValidity here
    assert rep.flags == {IndexFlag.NEAR_POLE_I3}
    assert rep.delta is None
    assert rep.classification == "NearPole"
    assert index_labels(Model.FDSW2, wilton, 0.2) == "NearPole"


def _bisect_i3(bond, lo, hi, branch):
    f = lambda k: factor_i3(k, bond, branch)
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f(mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "model, kappa, bond",
    [(Model.WHITHAM, 3.0, 1e19), (Model.WHITHAM, 1.0, 1e20), (Model.FDCH, 0.1, 1e22)],
)
def test_one_sided_pole_guard_scales_with_c(model, kappa, bond):
    # far from any resonance at large T: the one-sided i3 is of order c, so
    # a guard of order c**2 would call these nodes NearPole
    rep = index(model, kappa, bond)
    assert IndexFlag.NEAR_POLE_I3 not in rep.flags
    assert rep.classification == index(model, kappa, 1e18).classification == "U"
    assert index_labels(model, kappa, bond) == "U"


@pytest.mark.parametrize("model", [Model.WHITHAM, Model.FDCH])
def test_one_sided_pole_guard_keeps_second_harmonic_resonance(model):
    wilton = _bisect_i3(0.2, 1.0, 1.5, Branch.MINUS)
    assert index(model, wilton, 0.2).classification == "NearPole"
    assert index_labels(model, wilton, 0.2) == "NearPole"


def test_bond_one_third_flag():
    rep = index(Model.FDSW2, 1.0, 0.333333333)
    assert rep.flags == {IndexFlag.BOND_ONE_THIRD}
    assert math.isfinite(rep.delta)
    assert rep.classification == "Inconclusive"
    assert index_labels(Model.FDSW2, 1.0, 0.333333333) == "Inconclusive"
    assert IndexFlag.BOND_ONE_THIRD not in index(Model.FDSW2, 1.0, 0.34).flags


@pytest.mark.parametrize("model", list(Model))
def test_two_flag_point_keeps_both_flags_and_no_third(model):
    # on the T = 1/3 band and, at small kappa, inside the pole guard too:
    # both flags are set, delta is undefined, and OutsideValidity is not
    # added by the undefined quotient
    kappa, bond = 1e-3, 0.3333333333333333
    rep = index(model, kappa, bond)
    assert rep.flags == {IndexFlag.BOND_ONE_THIRD, IndexFlag.NEAR_POLE_I3}
    assert rep.delta is None
    assert rep.classification == "Inconclusive"
    assert index_labels(model, kappa, bond) == "Inconclusive"


def test_index_rejects_non_finite_inputs():
    for kappa, bond in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            index(Model.FDSW2, kappa, bond)


def test_overflow_is_outside_validity_not_stable():
    rep = index(Model.FDSW2, 1.0, 1e300)
    assert rep.flags == {IndexFlag.OUTSIDE_VALIDITY}
    assert math.isnan(rep.delta)
    assert rep.classification == "OutsideValidity"
    assert index_labels(Model.FDSW2, 1.0, 1e300) == "OutsideValidity"


def test_fdsw2_t0_factor_signs_on_grid():
    for i in range(1000):
        kappa = 0.01 * math.exp(math.log(2000.0) * i / 999.0)  # 0.01 .. 20
        assert factor_i1(kappa, 0.0) < 0.0
        assert factor_i2(kappa, 0.0) < 0.0
        assert factor_i3(kappa, 0.0) > 0.0


@pytest.mark.parametrize("model", list(Model))
def test_doubled_kappa_overflow_is_a_domain_error(model):
    # above DBL_MAX/2 the second harmonic 2*kappa is inf: the same
    # ValueError, naming the kappa passed, on the scalar and the array path,
    # and no overflow warning
    message = re.escape(
        "kappa must be at most 8.988465674311579e+307 so that 2*kappa is finite, got 1e+308"
    )
    for call in (index, index_labels, factor_arrays):
        with pytest.raises(ValueError, match=message):
            call(model, 1e308, 0.0)
    with pytest.raises(ValueError, match=message):
        factor_i4(model, 1e308, 0.0)


# (kappa, bond, the value named): the kappa check comes first, and an array
# names its first bad element
_KAPPA_MESSAGE = "kappa must be finite and positive, got {!r}"
_BOND_MESSAGE = "bond must be finite and nonnegative, got {!r}"
_DOMAIN_ERRORS = [
    *((kappa, 0.2, _KAPPA_MESSAGE.format(kappa)) for kappa in (math.nan, 0.0, -1.0, math.inf)),
    *((1.0, bond, _BOND_MESSAGE.format(bond)) for bond in (-1.0, math.inf, math.nan)),
    (math.nan, -1.0, _KAPPA_MESSAGE.format(math.nan)),
    (0.0, math.inf, _KAPPA_MESSAGE.format(0.0)),
    (np.array([1.0, -1.0, math.nan]), np.array([0.2, math.nan, -1.0]), _KAPPA_MESSAGE.format(-1.0)),
    (np.array([[1.0], [2.0]]), np.array([0.2, math.inf, -1.0]), _BOND_MESSAGE.format(math.inf)),
]


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("kappa,bond,message", _DOMAIN_ERRORS)
def test_array_domain_errors_name_the_first_bad_value(model, kappa, bond, message):
    # the array entry points check each point once, with the scalar path's
    # message; the suite turns a RuntimeWarning into an error, so none is raised
    calls = [factor_arrays, index_labels]
    if np.ndim(kappa) == np.ndim(bond) == 0:
        calls.append(index)
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(model, kappa, bond)
