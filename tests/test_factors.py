import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsw.factors import (
    Branch,
    IndexFlag,
    Model,
    factor_i1,
    factor_i2,
    factor_i3,
    factor_i4,
    index,
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


@pytest.mark.parametrize("kappa,bond", [(0.3, 0.0), (1.0, 0.0), (2.5, 0.1), (1.3, 2.0), (7.0, 0.5)])
def test_branch_products(kappa, bond):
    full2 = factor_i2(kappa, bond, Branch.FULL)
    assert full2 == pytest.approx(
        factor_i2(kappa, bond, Branch.MINUS) * factor_i2(kappa, bond, Branch.PLUS),
        rel=1e-15,
        abs=1e-15,
    )
    full3 = factor_i3(kappa, bond, Branch.FULL)
    assert full3 == pytest.approx(
        factor_i3(kappa, bond, Branch.MINUS) * factor_i3(kappa, bond, Branch.PLUS),
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
    split = factor_i2(kappa, bond, Branch.MINUS) * factor_i2(kappa, bond, Branch.PLUS)
    assert full == pytest.approx(split, rel=1e-14, abs=1e-14)


def test_branch_accepts_plain_strings():
    assert factor_i2(1.0, 0.0, "minus") == factor_i2(1.0, 0.0, Branch.MINUS)
    assert factor_i3(1.0, 0.0, "plus") == factor_i3(1.0, 0.0, Branch.PLUS)


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
    rep = index(Model.FDSW2, 0.5 * (lo + hi), 0.2)
    assert IndexFlag.NEAR_POLE_I3 in rep.flags
    assert rep.delta is None
    assert rep.classification == "NearPole"


def test_bond_one_third_flag():
    rep = index(Model.FDSW2, 1.0, 0.333333333)
    assert IndexFlag.BOND_ONE_THIRD in rep.flags
    assert rep.classification == "Inconclusive"
    assert IndexFlag.BOND_ONE_THIRD not in index(Model.FDSW2, 1.0, 0.34).flags


def test_index_rejects_non_finite_inputs():
    for kappa, bond in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            index(Model.FDSW2, kappa, bond)


def test_overflow_is_outside_validity_not_stable():
    rep = index(Model.FDSW2, 1.0, 1e300)
    assert IndexFlag.OUTSIDE_VALIDITY in rep.flags
    assert rep.classification == "OutsideValidity"


def test_fdsw2_t0_factor_signs_on_grid():
    for i in range(1000):
        kappa = 0.01 * math.exp(math.log(2000.0) * i / 999.0)  # 0.01 .. 20
        assert factor_i1(kappa, 0.0) < 0.0
        assert factor_i2(kappa, 0.0) < 0.0
        assert factor_i3(kappa, 0.0) > 0.0
