"""format_g17 against CPython's own "%.17g", value by value."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsw.g17 import format_g17


def percent_17g(values) -> list[bytes]:
    return [b"%.17g" % x for x in np.asarray(values, dtype=float).ravel().tolist()]


def assert_formats_as_percent_17g(values):
    got = format_g17(values)
    assert got.dtype == np.dtype("S24") and got.shape == np.shape(values)
    want = percent_17g(values)
    bad = [(x, g, w) for x, g, w in zip(np.ravel(values).tolist(), got.ravel().tolist(), want)
           if g != w]
    assert bad == [], bad[:5]


def ties() -> list[float]:
    """Doubles x with x * 10**k = P + 1/2 exactly, P an even 17-digit integer.

    Round-half-even gives P, round-half-up P + 1: one per scale
    k = 1..22, from 1e15 (fixed notation) down to 1e-6 (scientific).
    """
    found = []
    for k in range(1, 23):
        m = -(-2 * 10**16 // 5**k) | 1  # the first odd m with m * 5**k / 2 >= 10**16
        while (m * 5**k // 2) % 2:
            m += 2
        x = m / 2 ** (k + 1)  # exact: m < 2**53
        assert Fraction(x) * 10**k == Fraction(m * 5**k, 2)
        found.append(x)
    return found


def powers_of_ten_and_neighbours() -> list[float]:
    values = []
    for e in range(-8, 19):
        p = float(f"1e{e}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return values


FIXED = [
    0.0, -0.0, 5e-324, 2.0**53 - 2, 2.0**53, 2.0**53 + 2, 1e16, 0.5, 0.125, 2.5e-5,
    1e-6, 1e17, np.nextafter(1e17, 0.0), 1.0 / 3.0, 2.0 / 3.0, 123456789.0, 1e-5 / 3.0,
    -1.5, float("inf"), float("-inf"), float("nan"), 1.7976931348623157e308,
]


def test_fixed_cases_format_as_percent_17g():
    assert_formats_as_percent_17g(np.array(FIXED + powers_of_ten_and_neighbours()))


def test_round_half_even_ties():
    values = np.array(ties())
    assert len(values) == 22
    assert_formats_as_percent_17g(values)
    # the ties are real: rounding half up would print other digits
    assert format_g17(np.array([1e15 + 0.25]))[0] == b"1000000000000000.2"


def test_seeded_log_uniform_sample():
    rng = np.random.default_rng(20261018)
    values = 10.0 ** rng.uniform(-9.0, 20.0, 1_000_000)
    assert_formats_as_percent_17g(values)


def test_shape_and_block_independence():
    values = 10.0 ** np.linspace(-7.0, 18.0, 600).reshape(20, 30)
    blocks = np.concatenate([format_g17(values[i : i + 7]) for i in range(0, 20, 7)])
    assert np.array_equal(blocks, format_g17(values))
    assert format_g17(np.array([])).shape == (0,)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1).map(_double), min_size=1, max_size=50))
def test_every_double_formats_as_percent_17g(values):
    # every bit pattern: NaNs, infinities, -0.0, subnormals and all exponents
    assert_formats_as_percent_17g(np.array(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-6, 1e17, exclude_max=True), min_size=1, max_size=50))
def test_arithmetic_range_formats_as_percent_17g(values):
    assert_formats_as_percent_17g(np.array(values))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_hypothesis_floats_format_as_percent_17g(values):
    assert_formats_as_percent_17g(np.array(values))


@pytest.mark.parametrize("values", [[0.0] * 5, [1e-300, 1e300]])
def test_fallback_only_blocks(values):
    assert_formats_as_percent_17g(np.array(values))
