"""Shared numerical tolerances, and the one statement of each guard on them.

These are used across modules so that, e.g., the second-harmonic resonance
detected by the wave construction is the pole guard of the instability
index: both test the index's own i3 with :func:`near_pole`, so they flag
exactly the same points.
"""

# Relative guard for vanishing resonance denominators (see near_pole).
POLE_TOL = 1e-10

# Half-width of the Bond-number band around T = 1/3 on which the index is
# inconclusive (the long-wave expansion of the group speed degenerates there).
BOND_THIRD_TOL = 1e-9

# Default probe parameters for the 4x4 pencil / spectral classifications:
# small enough to sit inside the asymptotic regime, far above round-off.
DEFAULT_XI = 1e-2
DEFAULT_AMPLITUDE = 1e-2

# Sidebands probed by the band classifications (the pencil and Hill), as
# fractions of xi_max: four probes spaced by 4 reach xi_max/64, below the
# narrow unstable bands of finite-amplitude trains near mechanism boundaries.
SIDEBAND_LADDER = (1.0, 1.0 / 4.0, 1.0 / 16.0, 1.0 / 64.0)

# Relative imaginary-part tolerance used when classifying the pencil's roots X.
CLASSIFY_TOL = 1e-6

# Growth rates below this threshold count as spectrally stable, at the
# default amplitude; see growth_threshold for other amplitudes.
GROWTH_THRESHOLD = 1e-8

# Hill growth that round-off alone makes.  At a = xi = 1e-300, where the
# true growth underflows to 0, the largest growth over the 23 acceptance
# points is 1.05e-14, 1.25e-14, 3.7e-14 and 3.98e-13 at N = 16, 32, 64 and
# 256 (3.5e-14 over 200 random points at N = 32, 3.2e-13 over 25 at
# N = 256; x86_64, numpy 2.4 with OpenBLAS, one thread).  A growth_threshold
# below this floor, 2.5 times the largest, cannot tell growth from round-off.
GROWTH_FLOOR = 1e-12


def growth_threshold(amplitude: float) -> float:
    """The spectral-stability threshold on Hill growth at this amplitude.

    Growth in an unstable band scales as amplitude**2, so the threshold
    does too: GROWTH_THRESHOLD * (amplitude / DEFAULT_AMPLITUDE)**2, which
    is exactly GROWTH_THRESHOLD at DEFAULT_AMPLITUDE (and 0 at amplitude 0,
    where the flat state has no growth).
    """
    return GROWTH_THRESHOLD * (amplitude / DEFAULT_AMPLITUDE) ** 2


def near_pole(d, scale):
    """True where |d| < POLE_TOL * scale, d a denominator of natural scale ``scale``."""
    return abs(d) < POLE_TOL * scale


def on_bond_third(bond):
    """True where the Bond number lies in the inconclusive band around T = 1/3."""
    return abs(bond - 1.0 / 3.0) < BOND_THIRD_TOL
