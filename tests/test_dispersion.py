import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from fdsw.dispersion import (
    SERIES_KAPPA_THRESHOLD,
    _kernel_direct,
    _kernel_series,
    eval_dispersion,
    eval_dispersion_array,
    eval_dispersion_squared,
)

# mpmath (50 digits) reference values
C_1_0 = 0.87269362089782969154
C_1_1 = 1.2341751544701950352
TANH_1 = 0.76159415595576488812
TANH2_OVER_2 = 0.48201379003790844197
DC_1_0 = -0.19572723242223277472
D2C_1_0 = -0.018952057169301226718


def test_values_at_kappa_one():
    s = eval_dispersion(1.0, 0.0)
    assert s.c == pytest.approx(C_1_0, rel=1e-14)
    assert eval_dispersion(1.0, 1.0).c == pytest.approx(C_1_1, rel=1e-14)


def test_closed_form_derivatives_at_kappa_one():
    s = eval_dispersion(1.0, 0.0)
    assert s.dc == pytest.approx(DC_1_0, rel=1e-13)
    assert s.d2c == pytest.approx(D2C_1_0, rel=1e-12)


def test_long_wave_limit():
    # c = 1 - kappa^2/6 + O(kappa^4) for T = 0
    for kappa in (1e-3, 1e-4):
        s = eval_dispersion(kappa, 0.0)
        assert s.c == pytest.approx(1.0 - kappa * kappa / 6.0, abs=kappa**4)


def test_squared_symbol():
    assert eval_dispersion_squared(2.0, 0.0) == pytest.approx(TANH2_OVER_2, rel=1e-14)
    assert eval_dispersion_squared(1.0, 0.0) == pytest.approx(TANH_1, rel=1e-14)
    assert eval_dispersion_squared(0.0, 0.0) == 1.0
    assert eval_dispersion_squared(0.0, 7.3) == 1.0


def test_domain_errors():
    with pytest.raises(ValueError):
        eval_dispersion(0.0, 0.0)
    with pytest.raises(ValueError):
        eval_dispersion(-1.0, 0.0)
    with pytest.raises(ValueError):
        eval_dispersion(1.0, -0.1)
    with pytest.raises(ValueError):
        eval_dispersion_squared(-1e-8, 0.0)
    with pytest.raises(ValueError):
        eval_dispersion(float("nan"), 0.0)
    with pytest.raises(ValueError):
        eval_dispersion(math.inf, 0.0)
    with pytest.raises(ValueError):
        eval_dispersion(1.0, math.inf)
    with pytest.raises(ValueError):
        eval_dispersion_squared(math.inf, 0.0)
    with pytest.raises(ValueError):
        eval_dispersion_array(np.array([1.0, math.inf]), 0.0)
    with pytest.raises(ValueError):
        eval_dispersion_array(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        eval_dispersion_array(1.0, np.array([0.0, -1.0]))


def test_array_kernel_matches_scalar():
    # The series branch is the same arithmetic, so it agrees exactly; the
    # direct branch differs only through np.tanh vs math.tanh (a few ulp),
    # amplified by the branch's cancellation (about kappa**-2 ulp, so 400 at
    # kappa = 0.05) in the derivatives.
    kappas = np.array([1e-4, 5e-3, SERIES_KAPPA_THRESHOLD * (1 - 1e-9), 0.05, 0.7, 1.0, 3.0, 17.0])
    bonds = np.array([0.0, 0.2, 1.0 / 3.0, 10.0])
    arr = eval_dispersion_array(kappas[:, None], bonds[None, :])
    for i, kappa in enumerate(kappas.tolist()):
        for j, bond in enumerate(bonds.tolist()):
            s = eval_dispersion(kappa, bond)
            for name in ("c", "c2", "dc", "d2c", "cg", "dcg"):
                got, want = getattr(arr, name)[i, j], getattr(s, name)
                if kappa < SERIES_KAPPA_THRESHOLD:
                    assert got == want, (name, kappa, bond)
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (name, kappa, bond)


def test_internal_consistency_exact():
    for kappa in (0.05, 0.5, 1.0, 3.0, 17.0):
        for bond in (0.0, 0.2, 1.0):
            s = eval_dispersion(kappa, bond)
            assert s.c2 == s.c * s.c
            assert s.cg == s.c + kappa * s.dc
            assert s.dcg == 2.0 * s.dc + kappa * s.d2c


@given(
    kappa=st.floats(min_value=1e-3, max_value=30.0),
    bond=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_sample_identities_property(kappa, bond):
    s = eval_dispersion(kappa, bond)
    assert s.c > 0.0
    assert s.c2 == s.c * s.c
    assert s.cg == s.c + kappa * s.dc
    assert s.dcg == 2.0 * s.dc + kappa * s.d2c


FD_KAPPAS = [0.05 * i for i in range(1, 201)]  # 0.05 .. 10
FD_BONDS = [0.0, 0.1, 1.0 / 3.0, 1.0, 10.0]


@pytest.mark.parametrize("bond", FD_BONDS)
def test_derivatives_match_finite_differences(bond):
    # dc from c, d2c from dc, cg from kappa*c, dcg from cg: each first-order
    # central difference of the previous closed form, relative error <= 1e-6.
    for kappa in FD_KAPPAS:
        h = 1e-6 * max(1.0, kappa)
        lo = eval_dispersion(kappa - h, bond)
        hi = eval_dispersion(kappa + h, bond)
        s = eval_dispersion(kappa, bond)
        fd_dc = (hi.c - lo.c) / (2.0 * h)
        fd_d2c = (hi.dc - lo.dc) / (2.0 * h)
        fd_cg = ((kappa + h) * hi.c - (kappa - h) * lo.c) / (2.0 * h)
        fd_dcg = (hi.cg - lo.cg) / (2.0 * h)
        assert fd_dc == pytest.approx(s.dc, rel=1e-6, abs=1e-9)
        assert fd_d2c == pytest.approx(s.d2c, rel=1e-6, abs=1e-9)
        assert fd_cg == pytest.approx(s.cg, rel=1e-6)
        assert fd_dcg == pytest.approx(s.dcg, rel=1e-6, abs=1e-9)


def test_series_and_direct_branches_agree_near_threshold():
    # Window just above the switch: series truncation error and direct-branch
    # cancellation error are both below 5e-13 here, so the branches agree to
    # 1e-12 relative in all three kernel outputs.
    assert SERIES_KAPPA_THRESHOLD == 1e-2
    for kappa in (0.020, 0.022, 0.024, 0.026):
        ser = _kernel_series(kappa)
        dir_ = _kernel_direct(kappa)
        for a, b in zip(ser, dir_):
            assert a == pytest.approx(b, rel=1e-12)


def test_branch_switch_is_seamless():
    below = eval_dispersion(SERIES_KAPPA_THRESHOLD * (1 - 1e-9), 0.5)
    above = eval_dispersion(SERIES_KAPPA_THRESHOLD * (1 + 1e-9), 0.5)
    assert below.c == pytest.approx(above.c, rel=1e-10)
    assert below.d2c == pytest.approx(above.d2c, rel=1e-8)


def test_gravity_wave_monotonicity():
    # T = 0: c < 1, c strictly decreasing, and (kappa*c)'' < 0 throughout.
    prev = None
    for i in range(1, 201):
        kappa = 0.05 * i
        s = eval_dispersion(kappa, 0.0)
        assert 0.0 < s.c < 1.0
        assert s.dc < 0.0
        assert s.dcg < 0.0
        if prev is not None:
            assert s.c < prev
        prev = s.c
