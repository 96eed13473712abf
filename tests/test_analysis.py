import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdsw.analysis
from fdsw.analysis import (
    CRITICAL_K_MAX,
    GRID_BLOCK_NODES,
    MAX_RESOLUTION,
    MIN_KAPPA,
    PASS_POINTS,
    ROOT_TOL,
    SCAN_POINTS,
    InconclusiveBondError,
    MechanismCurve,
    classify_intervals,
    critical_wavenumber,
    find_factor_roots,
    large_T_limit,
    stability_diagram,
)
from fdsw.factors import (
    Model,
    factor_i1,
    factor_i2,
    factor_i3,
    factor_i4,
    index,
    index_labels,
)


def test_fdsw2_unique_i4_root_at_t0():
    roots = find_factor_roots(Model.FDSW2, "i4", 0.0, 0.1, 20.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.008, abs=0.002)


def test_whitham_i4_root_at_t0():
    roots = find_factor_roots(Model.WHITHAM, "i4", 0.0, 0.1, 20.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.146, abs=0.002)


def test_i3_has_no_roots_without_surface_tension():
    assert find_factor_roots(Model.FDSW2, "i3", 0.0, 0.1, 20.0) == []


def test_find_factor_roots_validates_range():
    with pytest.raises(ValueError):
        find_factor_roots(Model.FDSW2, "i4", 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        find_factor_roots(Model.FDSW2, "i9", 0.0, 0.1, 1.0)


def _scalar_roots(f, k_lo, k_hi, points):
    """Reference: scan and bisect one point at a time with the scalar factors."""
    grid = [float(k) for k in np.geomspace(k_lo, k_hi, points)]
    values = [f(k) for k in grid]
    roots = []
    for i in range(points - 1):
        if values[i] == 0.0:
            roots.append(grid[i])
        elif values[i] * values[i + 1] < 0.0:
            lo, hi, f_lo = grid[i], grid[i + 1], values[i]
            while hi - lo > ROOT_TOL:
                mid = 0.5 * (lo + hi)
                f_mid = f(mid)
                if f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            roots.append(0.5 * (lo + hi))
    return roots


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("bond", [0.0, 0.2, 0.5, 3.0])
def test_batched_roots_match_scalar_scan(model, bond):
    # np.tanh and math.tanh may differ in the last ulp, which can flip one
    # bisection step: roots agree to twice the bisection tolerance.
    branch = model.branch
    factors = {
        "i1": lambda k: factor_i1(k, bond),
        "i2": lambda k: factor_i2(k, bond, branch),
        "i3": lambda k: factor_i3(k, bond, branch),
        "i4": lambda k: factor_i4(model, k, bond),
    }
    for which, f in factors.items():
        got = find_factor_roots(model, which, bond, 0.05, 20.0)
        want = _scalar_roots(f, 0.05, 20.0, SCAN_POINTS)
        assert len(got) == len(want), which
        for a, b in zip(got, want):
            assert abs(a - b) <= 2 * ROOT_TOL, which


def test_roots_are_sorted_and_bisected_tightly():
    roots = find_factor_roots(Model.FDSW2, "i4", 0.2, 0.05, 30.0)
    assert roots == sorted(roots)
    assert len(roots) == 2
    from fdsw.factors import factor_i4

    for r in roots:
        assert abs(factor_i4(Model.FDSW2, r + 1e-9, 0.2)) < 1e-6 or abs(
            factor_i4(Model.FDSW2, r - 1e-9, 0.2)
        ) < 1e-6


def _reference_bisect(evaluate, lo, hi, f_lo):
    """Reference: the masked vector bisection with one factor pass per step."""
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    root = np.empty_like(lo)
    iterations = np.zeros(lo.size, dtype=int)
    hit = np.zeros(lo.size, dtype=bool)
    active = np.nonzero(hi - lo > ROOT_TOL)[0]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        f_mid = evaluate(mid, active)
        iterations[active] += 1
        exact = f_mid == 0.0
        with np.errstate(all="ignore"):
            left = ~exact & (f_lo[active] * f_mid < 0.0)
        right = ~exact & ~left
        hi[active[left]] = mid[left]
        lo[active[right]] = mid[right]
        f_lo[active[right]] = f_mid[right]
        done = active[exact]
        hit[done] = True
        root[done] = mid[exact]
        lo[done] = mid[exact] - 0.5 * ROOT_TOL
        hi[done] = mid[exact] + 0.5 * ROOT_TOL
        active = active[~exact]
        active = active[hi[active] - lo[active] > ROOT_TOL]
    root[~hit] = 0.5 * (lo[~hit] + hi[~hit])
    return root, lo, hi, iterations


def _passes_for(iterations):
    """Factor passes a bisection needs when each pass takes every step its depth allows."""
    steps_left, passes = iterations.copy(), 0
    while (steps_left > 0).any():
        live = steps_left > 0
        steps_left[live] -= fdsw.analysis._pass_depth(int(live.sum()))
        passes += 1
    return passes


def _assert_bisect_matches_reference(evaluate, lo, hi, f_lo):
    passes = []

    def counting(kappa, sel):
        passes.append(None)
        return evaluate(kappa, sel)

    got = fdsw.analysis._bisect(counting, lo, hi, f_lo)
    want = _reference_bisect(evaluate, lo, hi, f_lo)
    for name, g, w in zip(("root", "lo", "hi", "iterations"), got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    assert len(passes) == _passes_for(want[3])


def _captured_bisect_calls(monkeypatch, run):
    """The arguments of every _bisect call that ``run()`` makes."""
    calls = []
    real = fdsw.analysis._bisect

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fdsw.analysis, "_bisect", recording)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("bond", [0.0, 0.1, 2.0])
def test_bisect_matches_one_step_reference_on_intervals(monkeypatch, model, bond):
    calls = _captured_bisect_calls(
        monkeypatch, lambda: classify_intervals(model, bond, 0.05, 30.0)
    )
    assert len(calls) == 1 and calls[0][1].size > 0
    _assert_bisect_matches_reference(*calls[0])


def test_bisect_matches_one_step_reference_on_diagram_curves(monkeypatch):
    calls = _captured_bisect_calls(
        monkeypatch, lambda: stability_diagram(Model.FDSW2, resolution=2)
    )
    (evaluate, lo, hi, f_lo), = calls
    # hundreds of brackets: the first passes are plain one-step bisection
    assert fdsw.analysis._pass_depth(lo.size) == 1
    _assert_bisect_matches_reference(evaluate, lo, hi, f_lo)


def test_bisect_exact_zero_at_first_and_deeper_midpoints():
    # on [0.5, 1] the midpoints are dyadic: 0.75 is the first, 0.625 the
    # second and 0.53125 the fourth, all inside one pass
    for zeros in ([0.75], [0.625], [0.53125], [0.75, 0.625, 0.53125]):
        zeros = np.array(zeros)
        lo, hi = np.full(zeros.size, 0.5), np.ones(zeros.size)

        def evaluate(kappa, sel):
            return kappa - zeros[sel]

        assert fdsw.analysis._pass_depth(zeros.size) >= 4
        _assert_bisect_matches_reference(evaluate, lo, hi, lo - zeros)
        root, lo_out, hi_out, iterations = fdsw.analysis._bisect(evaluate, lo, hi, lo - zeros)
        assert root.tolist() == zeros.tolist()
        assert iterations.tolist() == [{0.75: 1, 0.625: 2, 0.53125: 4}[z] for z in zeros]
        assert (hi_out - lo_out).tolist() == pytest.approx([ROOT_TOL] * zeros.size)


def test_bisect_brackets_of_unequal_width_stop_at_different_steps():
    # widths 1e-9, 4e-9 and 1: they stop after 4, 6 and 34 steps, the first
    # two inside the first pass
    lo = np.array([1.0, 2.0, 3.0])
    hi = lo + np.array([1e-9, 4e-9, 1.0])
    zeros = lo + np.array([math.sqrt(2) * 3e-10, math.pi * 1e-9, 1.0 / math.e])

    def evaluate(kappa, sel):
        return np.sin(kappa - zeros[sel])

    f_lo = evaluate(lo, np.arange(3))
    _assert_bisect_matches_reference(evaluate, lo, hi, f_lo)
    _, _, _, iterations = fdsw.analysis._bisect(evaluate, lo, hi, f_lo)
    assert iterations.tolist() == [4, 6, 34]
    assert fdsw.analysis._pass_depth(3) > 6


# f(k) = scale*(k - r) on each bracket.  A finite scale with r a midpoint of
# the bracket's subtree puts an exact zero there; 1e-200 makes f_lo*f_mid
# underflow to +-0.0 (a step to the right); nan and +-inf scales give nan
# and +-inf values.
_SCALES = (1.0, -1.0, 3e5, 1e-200, -1e-200, 1e200, math.nan, math.inf, -math.inf)
_F_LO_OVERRIDES = (0.0, -0.0, 1e-200, -1e-200, math.nan, math.inf, -math.inf)


@st.composite
def _bisect_problems(draw):
    n = draw(st.sampled_from([1, 2, 3, 64, 300, 600]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # kappa below 2**19, where one-step bisection stops at ROOT_TOL
    lo = 10.0 ** rng.uniform(-4.0, 5.0, n)
    hi = lo + 10.0 ** rng.uniform(-11.0, 5.0, n) * np.minimum(1.0, lo)
    where = rng.uniform(-0.2, 1.2, n)
    r = lo + where * (hi - lo)
    # a zero at a node d steps down the subtree, d = 0 .. 12
    for i in np.nonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0])))[0]:
        a, b = lo[i], hi[i]
        for _ in range(rng.integers(0, 13)):
            mid = 0.5 * (a + b)
            a, b = (a, mid) if rng.random() < 0.5 else (mid, b)
        r[i] = 0.5 * (a + b)
    scales = draw(st.lists(st.sampled_from(_SCALES), min_size=1, max_size=3))
    scale = rng.choice(np.array(scales), n)

    def evaluate(kappa, sel):
        with np.errstate(all="ignore"):
            return scale[sel] * (kappa - r[sel])

    f_lo = evaluate(lo, np.arange(n))
    overrides = draw(st.lists(st.sampled_from(_F_LO_OVERRIDES), max_size=3))
    for value, i in zip(overrides, rng.integers(0, n, len(overrides))):
        f_lo[i] = value
    return evaluate, lo, hi, f_lo


@given(problem=_bisect_problems())
@settings(max_examples=40, deadline=None)
def test_bisect_matches_one_step_reference_property(problem):
    _assert_bisect_matches_reference(*problem)


def test_bisect_underflowed_product_steps_right():
    # f_lo*f_mid = 1e-200 * -1e-200 is -0.0, not < 0: the step goes right
    # although f changes sign, as in one-step bisection
    lo, hi = np.array([1.0]), np.array([2.0])

    def evaluate(kappa, sel):
        return np.where(kappa < 1.25, 1e-200, -1e-200)

    _assert_bisect_matches_reference(evaluate, lo, hi, evaluate(lo, None))
    _, lo_out, hi_out, _ = fdsw.analysis._bisect(evaluate, lo, hi, evaluate(lo, None))
    assert hi_out[0] == 2.0 and lo_out[0] > 2.0 - 1e-9


def test_critical_wavenumber_bisects_several_steps_per_factor_pass(monkeypatch):
    passes = []
    real = fdsw.analysis.factor_arrays

    def counting(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(fdsw.analysis, "factor_arrays", counting)
    result = critical_wavenumber(Model.FDSW2, 0.0)
    # one scan, then 26 bisection steps in at most 4 passes (27 passes with
    # one step per pass)
    assert result.iterations == 26
    assert len(passes) <= 5
    assert max(np.size(kappa) for _, kappa, _ in passes[1:]) <= PASS_POINTS


KNOWN_CRITICAL = {
    Model.WHITHAM: 1.146,
    Model.FDCH: 1.420,
    Model.FDSW1: 1.610,
    Model.FDSW2: 1.008,
}


@pytest.mark.parametrize("model,expected", sorted(KNOWN_CRITICAL.items()))
def test_critical_wavenumbers_at_t0(model, expected):
    result = critical_wavenumber(model, 0.0)
    assert not result.divergent
    assert result.kappa_c == pytest.approx(expected, abs=0.002)
    assert result.bracket[0] <= result.kappa_c <= result.bracket[1]
    assert result.bracket[1] - result.bracket[0] <= 1e-10
    assert result.iterations > 0
    # the recorded bracket still straddles the sign change
    from fdsw.factors import factor_i4

    assert factor_i4(model, result.bracket[0], 0.0) * factor_i4(model, result.bracket[1], 0.0) <= 0.0


# kappa_c and its bracket (float.hex) and the step count at each (model, T):
# a change to the bisection or to the factor arithmetic that moves one bit
# of a threshold fails here.
FROZEN_CRITICAL = [
    ('whitham', 0.0, '0x1.2562a840cc99ep+0', '0x1.2562a840adda3p+0', '0x1.2562a840eb59ap+0', 27),
    ('whitham', 0.05, '0x1.03fadf5a54769p+0', '0x1.03fadf5a1dd1ap+0', '0x1.03fadf5a8b1b8p+0', 26),
    ('whitham', 0.2, '0x1.70627f6e44debp-1', '0x1.70627f6df7b1ep-1', '0x1.70627f6e920b8p-1', 26),
    ('whitham', 0.5, '0x1.dd19578123aeap+1', '0x1.dd1957810a9ffp+1', '0x1.dd1957813cbd4p+1', 28),
    ('whitham', 3.0, '0x1.ac34b33b52c6ap-1', '0x1.ac34b33af905fp-1', '0x1.ac34b33bac874p-1', 26),
    ('whitham', 300.0, '0x1.5905d6ba22e91p-2', '0x1.5905d6b991ce4p-2', '0x1.5905d6bab403ep-2', 25),
    ('fdch', 0.0, '0x1.6b9d76d5fd28ep+0', '0x1.6b9d76d5d6f91p+0', '0x1.6b9d76d62358ap+0', 27),
    ('fdch', 0.05, '0x1.667170706a198p+0', '0x1.6671707044693p+0', '0x1.667170708fc9cp+0', 27),
    ('fdch', 0.2, '0x1.3eec85ee63232p+0', '0x1.3eec85ee41a62p+0', '0x1.3eec85ee84a02p+0', 27),
    ('fdch', 0.5, '0x1.6afbb2fc0f718p+0', '0x1.6afbb2fbe941cp+0', '0x1.6afbb2fc35a15p+0', 27),
    ('fdch', 3.0, '0x1.44ad1e5046aeap+0', '0x1.44ad1e5024872p+0', '0x1.44ad1e5068d62p+0', 27),
    ('fdch', 300.0, '0x1.304181584c97cp-4', '0x1.304181564b9f6p-4', '0x1.3041815a4d903p-4', 23),
    ('fdsw1', 0.0, '0x1.9c1cf8978c912p+0', '0x1.9c1cf897614edp+0', '0x1.9c1cf897b7d38p+0', 27),
    ('fdsw1', 0.05, '0x1.2b6b61ed960fcp+0', '0x1.2b6b61ed76b38p+0', '0x1.2b6b61edb56c1p+0', 27),
    ('fdsw1', 0.2, '0x1.7829518d36269p-1', '0x1.7829518ce6ec2p-1', '0x1.7829518d85610p-1', 26),
    ('fdsw1', 0.5, '0x1.0c8f7345e8a13p+1', '0x1.0c8f7345da914p+1', '0x1.0c8f7345f6b12p+1', 28),
    ('fdsw1', 3.0, '0x1.0c1912a3d02d9p-1', '0x1.0c1912a397dcap-1', '0x1.0c1912a4087e8p-1', 26),
    ('fdsw1', 300.0, '0x1.f104b682c792dp-5', '0x1.f104b67c3d808p-5', '0x1.f104b68951a52p-5', 22),
    ('fdsw2', 0.0, '0x1.01f50b9cd302cp+0', '0x1.01f50b9c9cb95p+0', '0x1.01f50b9d094c2p+0', 26),
    ('fdsw2', 0.05, '0x1.e2bd004531dc7p-1', '0x1.e2bd0044cc2fap-1', '0x1.e2bd004597894p-1', 26),
    ('fdsw2', 0.2, '0x1.6bfd83fe7bb46p-1', '0x1.6bfd83fe2f08ep-1', '0x1.6bfd83fec85ffp-1', 26),
    ('fdsw2', 0.5, '0x1.1b943a093665ep+3', '0x1.1b943a0932ac4p+3', '0x1.1b943a093a1f8p+3', 30),
    ('fdsw2', 3.0, '0x1.4f830ecd0a5eep+0', '0x1.4f830ecce713ap+0', '0x1.4f830ecd2daa2p+0', 27),
    ('fdsw2', 300.0, '0x1.1362893617e98p+0', '0x1.13628935faed5p+0', '0x1.1362893634e5ap+0', 27),
]


@pytest.mark.parametrize("model,bond,kappa_c,lo,hi,iterations", FROZEN_CRITICAL)
def test_critical_wavenumber_frozen_bits(model, bond, kappa_c, lo, hi, iterations):
    result = critical_wavenumber(Model(model), bond)
    assert result.kappa_c.hex() == kappa_c
    assert tuple(x.hex() for x in result.bracket) == (lo, hi)
    assert result.iterations == iterations


def test_critical_scans_share_one_window(monkeypatch):
    # i4 is scanned in kappa, then for T > 1 once in y, on one grid; the
    # large-T limit scans that grid in y
    grids = []
    real = fdsw.analysis._factor_roots

    def counting(model, which, bonds, grid, scale=1.0):
        grids.append(grid)
        return real(model, which, bonds, grid, scale)

    monkeypatch.setattr(fdsw.analysis, "_factor_roots", counting)
    assert critical_wavenumber(Model.WHITHAM, 1e30).divergent
    assert len(grids) == 2
    assert not critical_wavenumber(Model.FDSW2, 0.2).divergent
    assert len(grids) == 3
    assert large_T_limit(Model.FDSW1).limit is not None
    assert len(grids) == 4
    assert all(np.array_equal(grid, grids[0]) for grid in grids)
    assert grids[0][0] == MIN_KAPPA and grids[0][-1] == CRITICAL_K_MAX


def test_critical_wavenumber_rejects_bond_third():
    with pytest.raises(InconclusiveBondError):
        critical_wavenumber(Model.FDSW2, 1.0 / 3.0)


def _i4_limit(model, y):
    """The closed-form T -> infinity limit of i4 at y = kappa*sqrt(T), in mpmath.

    c**2 -> 1 + y**2, c(2k)**2 -> 1 + 4y**2, (kc)' -> (1 + 2y**2)/sqrt(1 + y**2),
    k c c' -> y**2 and k**2 c'**2 -> y**4/(1 + y**2), as docs/numerics.md states.
    """
    c2, c2_2 = 1 + y**2, 1 + 4 * y**2
    if model is Model.FDSW1:
        return (
            3 * c2 + 15 * c2**2 - 6 * c2_2 * (c2 + 2) + 18 * c2 * y**2
            + y**4 / c2 * (5 * c2 + 4 * c2_2)
        )
    i2m = (1 + 2 * y**2) / mpmath.sqrt(c2) - 1
    i3m = mpmath.sqrt(c2) - mpmath.sqrt(c2_2)
    return 3 * i2m - i2m * i3m + 6 * i3m


@pytest.mark.parametrize("model,guess", [(Model.FDSW1, 1.054), (Model.FDCH, 1.283)])
def test_large_T_limit_brackets_the_closed_form_root(model, guess):
    with mpmath.workdps(40):
        exact = mpmath.findroot(lambda y: _i4_limit(model, y), guess)
    est = large_T_limit(model)
    lo, hi = est.bracket
    assert lo <= exact <= hi
    assert lo <= est.limit <= hi and hi - lo <= ROOT_TOL


@pytest.mark.parametrize("model", [Model.WHITHAM, Model.FDSW2])
def test_large_T_limit_is_none_where_the_threshold_diverges(model):
    est = large_T_limit(model)
    assert est.limit is None and est.bracket is None


# 1e8: kappa_c is still above MIN_KAPPA; 1.2e8 (fdsw1) and 1.7e8 (fdch): it
# is not, and the scan in y finds it; 1e154: i4 jumps from +inf to -inf
# inside the kappa windows, which brackets no root.
@pytest.mark.parametrize("bond", [1e8, 1.2e8, 1.7e8, 1e10, 1e20, 1e100, 1e154, 1e300])
@pytest.mark.parametrize("model", [Model.FDSW1, Model.FDCH])
def test_scaled_threshold_reaches_the_limit(model, bond):
    result = critical_wavenumber(model, bond)
    assert result.kappa_c * math.sqrt(bond) == pytest.approx(
        large_T_limit(model).limit, rel=1e-6
    )


def test_overflow_is_not_a_root():
    # fdsw1's i4 at T = 1e154 is +inf below kappa = 0.5866 and -inf above:
    # overflow, not a sign change (at T = 1e150 it is positive on both sides)
    assert find_factor_roots(Model.FDSW1, "i4", 1e154, 0.1, 1.0) == []


def test_overflow_is_not_divergence():
    # at T = 1e152 fdsw2's threshold (-> 1.0733 in kappa) is still found; at
    # 1e154 i4 is not finite at part of the scan, which certifies nothing
    assert critical_wavenumber(Model.FDSW2, 1e152).kappa_c == pytest.approx(1.0733, abs=1e-4)
    with pytest.raises(ValueError, match=r"bond=1e\+154: i4 overflows"):
        critical_wavenumber(Model.FDSW2, 1e154)


@pytest.mark.parametrize("bond", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda T: critical_wavenumber(Model.FDSW2, T),
        lambda T: classify_intervals(Model.FDSW2, T, 0.05, 30.0),
    ],
    ids=["critical", "intervals"],
)
def test_bad_bond_rejected_by_value_before_any_scan(monkeypatch, call, bond):
    def no_scan(*_):
        raise AssertionError("scanned before the Bond number was checked")

    monkeypatch.setattr(fdsw.analysis, "_factor_roots", no_scan)
    with pytest.raises(ValueError, match=f"bond must be finite and nonnegative, got {bond!r}"):
        call(bond)


def test_intervals_fdsw2_low_tension():
    pieces = classify_intervals(Model.FDSW2, 0.2, 0.05, 30.0)
    labels = [label for _, label in pieces]
    assert labels == ["S", "U", "S", "U", "S", "U"]
    # intervals tile the range
    assert pieces[0][0][0] == 0.05
    assert pieces[-1][0][1] == 30.0
    for (first, second) in zip(pieces[:-1], pieces[1:]):
        assert first[0][1] == second[0][0]


def test_no_pole_where_c2_is_small():
    # at T = 0 and large kappa c**2 ~ 1/kappa, and the pole guard is relative
    # to that scale: no absolute floor flags a resonance there
    for model in Model:
        for kappa in (1e10, 1e20):
            assert index(model, kappa, 0.0).classification == "U"
            assert index_labels(model, kappa, 0.0) == "U"
    (_, first), (last, label) = classify_intervals(Model.FDSW2, 0.0, 1e-4, 1e150)
    assert (first, last[1], label) == ("S", 1e150, "U")


@pytest.mark.parametrize(
    "k_lo, k_hi",
    [(0.05, math.inf), (0.05, 1e308), (math.nan, 30.0), (0.05, math.nan), (1e-8, 30.0)],
)
def test_intervals_reject_meaningless_ranges(k_lo, k_hi):
    with pytest.raises(ValueError, match="k_lo < k_hi"):
        classify_intervals(Model.FDSW2, 0.2, k_lo, k_hi)


def test_bisection_stops_at_adjacent_floats(monkeypatch):
    # at T = 1e-14 the i1 and i3 roots lie near 4e6 and 7e6, where the float
    # spacing exceeds ROOT_TOL, so no bracket there gets narrower than ROOT_TOL
    passes = []
    factor_arrays = fdsw.analysis.factor_arrays

    def bounded(*args):
        passes.append(None)
        if len(passes) > 100:
            raise RuntimeError("the bisection does not stop")
        return factor_arrays(*args)

    monkeypatch.setattr(fdsw.analysis, "factor_arrays", bounded)
    (root,) = find_factor_roots(Model.FDSW2, "i1", 1e-14, 1e6, 1e7)
    assert root == pytest.approx(3933198.931903285, rel=1e-12)
    pieces = classify_intervals(Model.FDSW2, 1e-14, 0.05, 1e8)
    far = [hi for (_, hi), _ in pieces[:-1] if hi > 1e6]
    # the second-harmonic resonance c(k) = c(2k) at 2*T*kappa**2 = 1
    wilton = 1.0 / math.sqrt(2e-14)
    assert far == [pytest.approx(root, rel=1e-12), pytest.approx(wilton, rel=1e-12)]


def test_intervals_fdsw2_no_tension_and_high_tension():
    labels = [label for _, label in classify_intervals(Model.FDSW2, 0.0, 0.05, 20.0)]
    assert labels == ["S", "U"]
    labels = [label for _, label in classify_intervals(Model.FDSW2, 2.0, 0.05, 20.0)]
    assert labels == ["S", "U"]


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("bond", [0.0, 1e-6, 0.2, 1.0 / 3.0 - 1e-8, 1.0 / 3.0 + 1e-8, 2.0, 1e6])
def test_interval_labels_are_the_index_at_geometric_midpoints(model, bond):
    pieces = classify_intervals(model, bond, 0.05, 30.0)
    mids = [math.sqrt(lo * hi) for (lo, hi), _ in pieces]
    labels = [label for _, label in pieces]
    assert labels == [index(model, mid, bond).classification for mid in mids]
    assert labels == index_labels(model, mids, bond).tolist()


def test_diagram_grid_and_curves():
    diagram = stability_diagram(Model.FDSW2, resolution=60)
    assert diagram.labels.shape == (60, 60)
    # node (i, j) sits at kappa = kappas[i], y = ys[j]
    assert diagram.bonds[0, 1] == (diagram.ys[1] / diagram.kappas[0]) ** 2
    # the node (kappa=2, y=0) is unstable at T=0
    i = int(np.argmin(np.abs(diagram.kappas - 2.0)))
    assert diagram.kappas[i] == pytest.approx(2.0) and diagram.ys[0] == 0.0
    assert diagram.bonds[i, 0] == 0.0
    assert diagram.labels[i, 0] == "U"
    # R4 curve crosses the kappa-axis at the critical wave number
    r4 = next(c for c in diagram.curves if c.mechanism == "R4")
    axis_points = [k for k, y in r4.points if y == 0.0]
    assert any(abs(k - 1.008) < 0.002 for k in axis_points)
    assert {c.mechanism for c in diagram.curves} == {"R1", "R2", "R3", "R4"}


def test_diagram_inconclusive_on_bond_third_line():
    # a 2x2 grid whose node (1.5, 1.5/sqrt(3)) lies on the line T = 1/3
    y = 1.5 / math.sqrt(3.0)
    diagram = stability_diagram(Model.FDSW2, kmax=1.5, ymax=y, resolution=2)
    assert diagram.kappas[1] == 1.5 and diagram.ys[1] == y
    assert abs(diagram.bonds[1, 1] - 1.0 / 3.0) < 1e-9
    assert diagram.labels[1, 1] == "Inconclusive"


@pytest.mark.parametrize("model", list(Model))
def test_diagram_grid_matches_scalar_index(model):
    diagram = stability_diagram(model, resolution=25)
    for kappa, bonds, labels in zip(
        diagram.kappas.tolist(), diagram.bonds.tolist(), diagram.labels.tolist()
    ):
        for y, bond, label in zip(diagram.ys.tolist(), bonds, labels):
            assert bond == (y / kappa) ** 2
            assert label == index(model, kappa, bond).classification


def _one_pass_grid(model, kappas, ys):
    """The diagram grid in one pass over all nodes: the reference of the blocked grid."""
    ratios = (ys[None, :] / kappas[:, None]).ravel().tolist()
    bonds = np.array(list(map(math.pow, ratios, itertools.repeat(2.0))))
    bonds = bonds.reshape(kappas.size, ys.size)
    return bonds, index_labels(model, kappas[:, None], bonds)


@pytest.mark.parametrize("block_nodes", [GRID_BLOCK_NODES, 1])
@pytest.mark.parametrize("model", list(Model))
def test_blocked_grid_matches_one_pass_reference(monkeypatch, model, block_nodes):
    # 200 rows: blocks of 163 rows and a short last block of 37 by default,
    # 200 blocks of one row with the constant patched to 1.  The window
    # crosses T = 1/3, and its corner node sits on the second-harmonic
    # resonance at T = 0.2 (NearPole).
    monkeypatch.setattr(fdsw.analysis, "GRID_BLOCK_NODES", block_nodes)
    resolution = 200
    assert resolution % (GRID_BLOCK_NODES // resolution) > 0  # a short last block
    wilton = find_factor_roots(Model.FDSW2, "i3", 0.2, 1.0, 1.5)[0]
    diagram = stability_diagram(
        model, kmax=wilton, ymax=wilton * math.sqrt(0.2), resolution=resolution
    )
    bonds, labels = _one_pass_grid(model, diagram.kappas, diagram.ys)
    assert diagram.bonds.tobytes() == bonds.tobytes()
    assert diagram.labels.tolist() == labels.tolist()
    assert bonds.min() < 1.0 / 3.0 < bonds.max()
    assert {"S", "NearPole"} <= set(labels.ravel())
    assert labels[-1, -1] == "NearPole"


def _python_square(x: float) -> float:
    try:
        return x**2
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("resolution", [600, 2000])
def test_grid_bond_numbers_are_pythons_square(resolution):
    # the grid's T = (y/kappa)**2 from np.float_power is bit for bit the
    # libm pow of Python's **, on the default window at 600 and 2000 nodes
    # a side; numpy's x*x differs from it at some nodes of both
    diagram = stability_diagram(Model.FDSW2, resolution=resolution)
    product_differs = 0
    for start in range(0, resolution, 100):
        rows = slice(start, start + 100)
        ratios = (diagram.ys[None, :] / diagram.kappas[rows, None]).ravel()
        expected = np.array([_python_square(r) for r in ratios.tolist()])
        assert np.float_power(ratios, 2.0).tobytes() == expected.tobytes()
        assert diagram.bonds[rows].tobytes() == expected.tobytes()
        product_differs += np.count_nonzero(ratios * ratios != expected)
    assert product_differs > 0


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_power_square_is_pythons_square_on_every_finite_double(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    with np.errstate(over="ignore"):
        got = np.float_power(x, 2.0)
    expected = np.array([_python_square(v) for v in x.tolist()], dtype=float)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", list(Model))
def test_diagram_codes_are_uint8_and_name_the_index_labels(model):
    # the second window crosses T = 1/3, and its corner node sits on the
    # second-harmonic resonance at T = 0.2 (NearPole)
    wilton = find_factor_roots(Model.FDSW2, "i3", 0.2, 1.0, 1.5)[0]
    for k_max, y_max, resolution in ((3.0, 3.0, 60), (wilton, wilton * math.sqrt(0.2), 50)):
        diagram = stability_diagram(model, k_max, y_max, resolution)
        assert diagram.codes.dtype == np.uint8
        assert diagram.codes.shape == (resolution, resolution)
        labels = index_labels(model, diagram.kappas[:, None], diagram.bonds)
        assert diagram.labels.dtype == object
        assert diagram.labels.tolist() == labels.tolist()
    assert diagram.bonds.min() < 1.0 / 3.0 < diagram.bonds.max()
    assert diagram.labels[-1, -1] == "NearPole"


@pytest.mark.parametrize("model", list(Model))
def test_batched_labels_match_index_at_guarded_nodes(model):
    wilton = find_factor_roots(Model.FDSW2, "i3", 0.2, 1.0, 1.5)[0]
    kappas = np.array([0.005, 0.3, 1.0, wilton, 1.5, 2.2, 7.0])
    bonds = np.array([0.0, 0.05, 0.2, 1.0 / 3.0, 1.0 / 3.0 + 5e-10, 0.34, 10.0, 1e300])
    labels = index_labels(model, kappas[:, None], bonds[None, :])
    for i, kappa in enumerate(kappas.tolist()):
        for j, bond in enumerate(bonds.tolist()):
            assert labels[i, j] == index(model, kappa, bond).classification, (kappa, bond)
    assert {"S", "U", "Inconclusive"} <= set(labels.ravel())
    # at T = 1e300 delta overflows (bidirectional models) or i3 falls
    # inside the pole guard (unidirectional): never a plain "S"
    assert "S" not in set(labels[:, -1])
    if not model.unidirectional:
        assert set(labels[:, -1]) == {"OutsideValidity"}
    if model is Model.FDSW2:
        assert labels[3, 2] == "NearPole"


def test_diagram_curves_lie_on_grid_label_boundaries():
    diagram = stability_diagram(Model.FDSW2, resolution=100)
    res = 100
    ys = diagram.ys.tolist()
    kappas = diagram.kappas.tolist()
    labels = diagram.labels
    checked = 0
    for curve in diagram.curves:
        for k, y in curve.points:
            if not (0.3 <= k <= 2.7 and 0.3 <= y <= 2.7):
                continue
            i = min(range(len(kappas)), key=lambda idx: abs(kappas[idx] - k))
            j = min(range(len(ys)), key=lambda idx: abs(ys[idx] - y))
            seen = {
                labels[ii, jj]
                for ii in range(max(0, i - 2), min(res, i + 3))
                for jj in range(max(0, j - 2), min(res, j + 3))
            }
            assert len(seen) >= 2, (curve.mechanism, k, y, seen)
            checked += 1
    assert checked > 20


def _no_work(*args, **kwargs):
    raise AssertionError("an invalid input reached the grid or a scan")


def test_diagram_validates_inputs(monkeypatch):
    # a numpy integer is an integer size
    assert stability_diagram(Model.FDSW2, resolution=np.int64(2)).codes.shape == (2, 2)
    # each is rejected by value before any grid or factor scan
    monkeypatch.setattr(fdsw.analysis, "_label_codes", _no_work)
    monkeypatch.setattr(fdsw.analysis, "_factor_roots", _no_work)
    with pytest.raises(ValueError):
        stability_diagram(Model.FDSW2, resolution=1)
    with pytest.raises(ValueError):
        stability_diagram(Model.FDSW2, kmax=-1.0)
    with pytest.raises(ValueError):
        stability_diagram(Model.FDSW2, kmax=math.inf)
    for ymax in (math.nan, -1.0):
        with pytest.raises(ValueError, match=rf"x \(0\.0, {ymax!r}\) needs 0 < ymax < inf$"):
            stability_diagram(Model.FDSW2, ymax=ymax)
    # a size is an integer: a float one is rejected by value, not inside numpy
    with pytest.raises(ValueError, match=r"^resolution must be in \[2, 2000\], got 600\.0$"):
        stability_diagram(Model.FDSW2, resolution=600.0)


def test_diagram_resolution_cap():
    # checked before the grid is allocated
    with pytest.raises(ValueError, match="resolution"):
        stability_diagram(Model.FDSW2, resolution=MAX_RESOLUTION + 1)
