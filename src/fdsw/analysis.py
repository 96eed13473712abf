"""Root finding on factor curves, critical wave numbers, stability diagrams.

The stability boundary of a model decomposes into the zero sets of the four
index factors (mechanisms R1..R4).  This module locates those roots in
kappa at fixed Bond number, extracts the critical wave number kappa_c
(the R4 crossing) and the large-surface-tension limit of the scaled
threshold kappa_c*sqrt(T), splits a kappa-range into classified stability
intervals, and assembles (kappa, kappa*sqrt(T)) stability diagrams.

All root finding goes through one batched finder, :func:`_factor_roots`:
a sign-change scan of the factors on a (Bond number x kappa) grid, then a
masked vector bisection of every bracket at once, several steps per factor
pass when few brackets are left.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import on_bond_third
from .dispersion import check_domain
from .factors import _LABELS, Model, _label_codes, factor_arrays, index_labels

# Scan density and bisection tolerance for factor root finding.  The factors
# are smooth and cheap; a dense scan guards against close root pairs near the
# Bond line T = 1/3.
SCAN_POINTS = 2000
ROOT_TOL = 1e-10

# Smallest and largest ends of a kappa range, both inclusive.  Near
# kappa = 1e-6 the factors i2 and i3 fall to round-off and scan nodes turn
# into spurious roots; MIN_KAPPA, where critical_wavenumber's scan starts,
# keeps two decades from that.  Above MAX_KAPPA the second-harmonic samples
# 2*kappa and the geometric midpoints sqrt(k_lo*k_hi) of classify_intervals
# are no longer finite.  Other ranges are rejected before any array work.
MIN_KAPPA = 1e-4
MAX_KAPPA = 1e150

# The window of critical_wavenumber and large_T_limit: i4 is scanned on
# [MIN_KAPPA, CRITICAL_K_MAX] in kappa and, for T > 1, on the same grid in
# y = kappa*sqrt(T); a divergence certificate covers both scans.
CRITICAL_K_MAX = 50.0

# The Bond number at which large_T_limit scans i4 in y.  Its corrections to
# the T -> infinity limit are O(y**2/T), below one ulp for y <= CRITICAL_K_MAX
# from T ~ 1e20 on; at 1e100 the smallest kappa = y/sqrt(T) scanned is 1e-54,
# so kappa**4 (in fdch's i4) is still a normal float.
LIMIT_BOND = 1e100

# Bond numbers (rays through the origin) along which the diagram's mechanism
# curves are traced, T = 0 among them.
CURVE_SAMPLES = 200

# Smallest kappa of the curves' scan, [CURVE_K_MIN, kmax].  A diagram needs
# kmax above it, so its first grid node kmax/resolution is at least 5e-7.
CURVE_K_MIN = 1e-3

# Points per factor pass of the bisection.  A factor pass on one point costs
# nearly as much as one on a few hundred (about 0.08 against 0.11 ms for 511
# points, see docs/numerics.md), so a few live brackets take several
# bisection steps per pass (see _bisect).
PASS_POINTS = 512

# Largest diagram resolution accepted.  Peak memory grows by about 9 bytes
# per grid node (its Bond number and label code), resolution**2 nodes: about
# 74 MB measured at the cap (see docs/numerics.md).
MAX_RESOLUTION = 2000

# Diagram grid nodes classified per block, in whole kappa rows (at least
# one).  The temporaries of a block stay near the cache; only the Bond
# numbers and the label codes span the whole grid.  Every node's arithmetic
# is the same whatever the block, so the grid does not depend on it.
GRID_BLOCK_NODES = 2**15

MECHANISM_FACTORS = ("i1", "i2", "i3", "i4")
MECHANISM_NAMES = {"i1": "R1", "i2": "R2", "i3": "R3", "i4": "R4"}


class InconclusiveBondError(ValueError):
    """The classification is inconclusive on the Bond line T = 1/3."""


@dataclass(frozen=True)
class _Roots:
    """Roots found by :func:`_factor_roots`, one entry per root.

    Entries are ordered by factor, then Bond number, then kappa.  A scan
    node where the factor is exactly zero is a root with a zero-width
    bracket and no iterations.  ``finite`` tells whether every scanned
    value was finite: only then does an empty result mean no sign change.
    """

    factor: np.ndarray  # index into the factors searched
    ray: np.ndarray  # index into the Bond numbers
    root: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    iterations: np.ndarray
    finite: bool


def _scan_grid(k_lo: float, k_hi: float, points: int) -> np.ndarray:
    if not MIN_KAPPA <= k_lo < k_hi <= MAX_KAPPA:
        raise ValueError(
            f"need {MIN_KAPPA:g} <= k_lo < k_hi <= {MAX_KAPPA:g}, got ({k_lo!r}, {k_hi!r})"
        )
    return np.geomspace(k_lo, k_hi, points)


def _factor_rows(which: Sequence[str]) -> list[int]:
    unknown = [w for w in which if w not in MECHANISM_FACTORS]
    if unknown:
        raise ValueError(f"unknown factor {unknown[0]!r}")
    return [MECHANISM_FACTORS.index(w) for w in which]


def _factor_roots(
    model: Model, which: Sequence[str], bonds: np.ndarray, grid: np.ndarray, scale: float = 1.0
) -> _Roots:
    """Every sign change of the named factors along every Bond number.

    The factors are scanned on ``grid`` (s = kappa*scale, shared by all
    Bond numbers) in one array pass; every bracket with a strict sign change
    is then bisected down to ROOT_TOL in s, all brackets at once, and the
    roots and brackets are returned in s.  Sign changes are products of
    finite neighbours below zero, as in float arithmetic: an overflowed or
    underflowed product raises no warning.  A jump to or from inf or nan is
    overflow and brackets nothing.
    """
    rows = _factor_rows(which)
    bonds = np.asarray(bonds, dtype=float)
    values = np.stack(factor_arrays(model, grid[None, :] / scale, bonds[:, None]))[rows]
    finite = np.isfinite(values)
    zero = values == 0.0
    event = zero.copy()
    with np.errstate(all="ignore"):
        change = values[..., :-1] * values[..., 1:] < 0.0
    event[..., :-1] |= change & finite[..., :-1] & finite[..., 1:]
    factor, ray, i = np.nonzero(event)
    lo = grid[i]
    bracketed = ~zero[factor, ray, i]
    hi = lo.copy()
    hi[bracketed] = grid[i[bracketed] + 1]

    b = np.nonzero(bracketed)[0]
    b_rows = np.asarray(rows)[factor[b]]
    b_bonds = bonds[ray[b]]

    def evaluate(s: np.ndarray, sel: np.ndarray) -> np.ndarray:
        table = np.stack(factor_arrays(model, s / scale, b_bonds[sel]))
        return table[b_rows[sel], np.arange(sel.size)]

    root, iterations = lo.copy(), np.zeros(lo.size, dtype=int)
    root[b], lo[b], hi[b], iterations[b] = _bisect(
        evaluate, lo[b], hi[b], values[factor[b], ray[b], i[b]]
    )
    return _Roots(
        factor=factor, ray=ray, root=root, lo=lo, hi=hi, iterations=iterations,
        finite=bool(finite.all()),
    )


def _pass_depth(n_live: int) -> int:
    """Bisection steps per factor pass for ``n_live`` brackets.

    The largest depth whose subtrees, 2**depth - 1 points per bracket, fit
    in PASS_POINTS points, and at least 1.
    """
    return max(1, (PASS_POINTS // n_live + 1).bit_length() - 1)


def _subtree_ends(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """Every end the next ``depth`` bisection steps of [lo, hi] can reach.

    Row i holds 2**depth + 1 points in increasing order: column 0 is lo,
    the last column hi, and the node at column p, with h the lowest set
    bit of p, is the midpoint ``0.5*(lo + hi)`` of the bracket between
    columns p - h and p + h, computed from those very ends.  So each
    interior column is bisection's own midpoint bit for bit: the root of
    the subtree is column 2**(depth - 1), and the children of node p are
    p - h/2 and p + h/2.
    """
    ends = np.stack([lo, hi], axis=1)
    for _ in range(depth):
        mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
        finer = np.empty((ends.shape[0], 2 * ends.shape[1] - 1))
        finer[:, ::2] = ends
        finer[:, 1::2] = mid
        ends = finer
    return ends


def _splittable(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Brackets wider than ROOT_TOL whose midpoint lies strictly inside.

    Above kappa ~ 1e6 the float spacing exceeds ROOT_TOL, and a bracket of
    adjacent floats has its midpoint at an end: bisection stops there.
    """
    mid = 0.5 * (lo + hi)
    return (hi - lo > ROOT_TOL) & (lo < mid) & (mid < hi)


def _bisect(evaluate, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray):
    """Bisect every bracket down to ROOT_TOL, or to adjacent floats, at once.

    ``evaluate(kappa, sel)`` gives the function of brackets ``sel`` at
    ``kappa`` (``sel`` may repeat a bracket).  Returns (root, lo, hi,
    iterations) per bracket; a midpoint where the function is exactly zero
    is the root, with a bracket of width ROOT_TOL around it.

    A pass evaluates, in one call, every midpoint that the next
    ``_pass_depth(n_live)`` steps of each live bracket could visit (see
    :func:`_subtree_ends`), then decides every node of those subtrees at
    once.  The left end of node p's bracket is column p - h, the pass's lo
    or a stored midpoint, so its function value is known before any step
    is taken.  Each node's step is then the plain bisection step as array
    expressions over (brackets x nodes): the same sign test of f_lo*f_mid,
    the same exact-zero rule and the same width test of the half it keeps.
    A walk of ``depth - 1`` gathers through the resulting next-node table
    follows each bracket down to the node where it stops, and the pass
    writes that node's bracket back.  So the results and the iteration
    counts, which count steps, not passes, do not depend on the depth.
    """
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    root = np.empty_like(lo)
    iterations = np.zeros(lo.size, dtype=int)
    hit = np.zeros(lo.size, dtype=bool)
    active = np.nonzero(_splittable(lo, hi))[0]
    while active.size:
        depth = _pass_depth(active.size)
        ends = _subtree_ends(lo[active], hi[active], depth)
        mid = ends[:, 1:-1]
        f_mid = evaluate(mid.ravel(), np.repeat(active, mid.shape[1])).reshape(mid.shape)
        # f at every end but hi; node p (column 1 .. 2**depth - 1), with h the
        # lowest set bit of p, bisects [p - h, p + h] in step depth - log2(h)
        f = np.concatenate([f_lo[active, None], f_mid], axis=1)
        p = np.arange(f.shape[1])
        h = p & -p
        exact = f == 0.0
        with np.errstate(all="ignore"):
            left = ~exact & (f[:, p - h] * f < 0.0)
        go_on = ~exact & np.where(
            left, _splittable(ends[:, p - h], ends[:, p]), _splittable(ends[:, p], ends[:, p + h])
        )
        # every node's next node: the child the step keeps, or the node itself
        # where the bracket stops or the subtree ends (h = 1); column 0 is lo,
        # no node, and the walk never reaches it
        rows = np.arange(active.size)
        base = rows * f.shape[1]
        step_to = np.where(go_on, np.where(left, p - h // 2, p + h // 2), p)
        step_to = (step_to + base[:, None]).ravel()
        node = base + f.shape[1] // 2
        for _ in range(depth - 1):
            node = step_to[node]
        node -= base
        # write back the half each bracket kept at its last node
        half, went_left = h[node], left[rows, node]
        iterations[active] += depth - np.log2(half).astype(int)
        kept_lo = np.where(went_left, node - half, node)
        lo[active] = ends[rows, kept_lo]
        hi[active] = ends[rows, np.where(went_left, node, node + half)]
        f_lo[active] = f[rows, kept_lo]
        zero = exact[rows, node]
        done, root_at = active[zero], ends[rows[zero], node[zero]]
        hit[done] = True
        root[done] = root_at
        lo[done] = root_at - 0.5 * ROOT_TOL
        hi[done] = root_at + 0.5 * ROOT_TOL
        active = active[go_on[rows, node]]
    root[~hit] = 0.5 * (lo[~hit] + hi[~hit])
    return root, lo, hi, iterations


def find_factor_roots(
    model: Model,
    which: str,
    bond: float,
    k_lo: float,
    k_hi: float,
) -> list[float]:
    """All sign changes of the chosen factor on [k_lo, k_hi], sorted.

    Log-spaced scan followed by bisection to absolute tolerance 1e-10 in
    kappa.  No roots is an empty list, not an error.
    """
    grid = _scan_grid(k_lo, k_hi, SCAN_POINTS)
    return _factor_roots(model, (which,), [bond], grid).root.tolist()


@dataclass(frozen=True)
class CriticalResult:
    """Critical wave number at one Bond number, or a divergence certificate."""

    model: Model
    bond: float
    kappa_c: float | None  # None when divergent
    bracket: tuple[float, float] | None
    iterations: int

    @property
    def divergent(self) -> bool:
        return self.kappa_c is None


def _critical_scan(model: Model, bond: float, scale: float) -> _Roots:
    """The roots of i4 at ``bond`` in s = kappa*scale on [MIN_KAPPA, CRITICAL_K_MAX]."""
    grid = _scan_grid(MIN_KAPPA, CRITICAL_K_MAX, SCAN_POINTS)
    return _factor_roots(model, ("i4",), [bond], grid, scale)


def critical_wavenumber(model: Model, bond: float) -> CriticalResult:
    """Smallest root of i4 (mechanism R4) at fixed Bond number.

    For T = 0 and T > 1/3 this root is unique and is the threshold above
    which small wave trains are modulationally unstable.  i4 is scanned on
    [MIN_KAPPA, CRITICAL_K_MAX] in kappa and, for T > 1 where that finds no
    root, on the same grid in y = kappa*sqrt(T), which reaches the
    thresholds kappa_c ~ y/sqrt(T) below MIN_KAPPA that a large T gives.
    Where no scan finds a root and i4 was finite at every scanned node, the
    result certifies divergence on the windows scanned (kappa_c = None);
    otherwise ValueError names the bond.  A scan node where i4 is
    exactly zero is returned as is, with a zero-width bracket.  Before any
    scan, a bond on the line T = 1/3 raises InconclusiveBondError and one
    not finite and >= 0 raises ValueError.
    """
    check_domain(None, bond)
    if on_bond_third(bond):
        raise InconclusiveBondError(
            f"bond={bond!r} is on the T=1/3 line where the index is inconclusive"
        )
    model = Model(model)
    finite = True
    for scale in (1.0, math.sqrt(bond)) if bond > 1.0 else (1.0,):
        found = _critical_scan(model, bond, scale)
        if found.root.size:
            return CriticalResult(
                model=model, bond=bond, kappa_c=float(found.root[0]) / scale,
                bracket=(float(found.lo[0]) / scale, float(found.hi[0]) / scale),
                iterations=int(found.iterations[0]),
            )
        finite &= found.finite
    if not finite:
        raise ValueError(
            f"bond={bond!r}: i4 overflows on the scan, so neither a threshold "
            "nor its divergence can be certified"
        )
    return CriticalResult(model=model, bond=bond, kappa_c=None, bracket=None, iterations=0)


@dataclass(frozen=True)
class LimitEstimate:
    """The large-surface-tension limit y_inf of kappa_c(T)*sqrt(T)."""

    model: Model
    limit: float | None  # None where the scaled threshold has no finite limit
    bracket: tuple[float, float] | None


def large_T_limit(model: Model) -> LimitEstimate:
    """The root y_inf of i4 as T -> infinity at fixed y = kappa*sqrt(T).

    The scaled threshold is the ordinate of the R4 curve in the
    (kappa, kappa*sqrt(T)) plane, the quantity with a finite large-T limit
    for the models that have one (fdsw1, fdch).  It is found by the scan in
    y of critical_wavenumber, at LIMIT_BOND, where i4 equals its limit to
    the last ulp.  No root there is ``limit = None``: the threshold of
    whitham and fdsw2 grows without bound in y.
    """
    model = Model(model)
    found = _critical_scan(model, LIMIT_BOND, math.sqrt(LIMIT_BOND))
    if not found.root.size:
        return LimitEstimate(model=model, limit=None, bracket=None)
    return LimitEstimate(
        model=model,
        limit=float(found.root[0]),
        bracket=(float(found.lo[0]), float(found.hi[0])),
    )


def classify_intervals(
    model: Model, bond: float, k_lo: float, k_hi: float
) -> list[tuple[tuple[float, float], str]]:
    """Split [k_lo, k_hi] at all factor roots and label each piece.

    Delimiters are the roots of i1, i2, i3 (the i3 roots are the poles of
    the index) and i4; each resulting interval is labeled by the index
    classification at its geometric midpoint sqrt(lo*hi), all of them in
    one ``index_labels`` call: the rule of the diagram grid at that point.
    """
    check_domain(None, bond)
    grid = _scan_grid(k_lo, k_hi, SCAN_POINTS)
    delimiters = _factor_roots(model, MECHANISM_FACTORS, [bond], grid).root
    edges = [k_lo, *sorted(delimiters.tolist()), k_hi]
    pieces = list(zip(edges[:-1], edges[1:]))
    mids = [math.sqrt(lo * hi) for lo, hi in pieces]
    return list(zip(pieces, index_labels(model, mids, bond).tolist()))


@dataclass(frozen=True)
class MechanismCurve:
    mechanism: str  # R1..R4
    points: list[tuple[float, float]]  # (kappa, kappa*sqrt(T)), ordered by T


@dataclass(frozen=True, eq=False)
class StabilityDiagram:
    """A classified grid, kept as arrays, and the mechanism curves.

    Node (i, j) sits at kappa = kappas[i], kappa*sqrt(T) = ys[j].
    """

    model: Model
    kappas: np.ndarray  # (n,)
    ys: np.ndarray  # (n,) kappa*sqrt(T)
    bonds: np.ndarray  # (n, n) T = (y/kappa)**2
    codes: np.ndarray  # (n, n) uint8 label codes of the index classification
    curves: list[MechanismCurve]

    @property
    def labels(self) -> np.ndarray:
        """The (n, n) object array of label strings, as ``index_labels`` gives."""
        return _LABELS[self.codes]


def stability_diagram(
    model: Model, kmax: float = 3.0, ymax: float = 3.0, resolution: int = 600
) -> StabilityDiagram:
    """Classified grid plus mechanism curves in the (kappa, kappa*sqrt(T)) plane.

    The window is (0, kmax] x [0, ymax], anchored at the origin.  Node
    (i, j) of the grid sits at kappa = kmax*(i + 1)/resolution (kappa = 0
    is left out) and kappa*sqrt(T) = ymax*j/(resolution - 1).  Curves are
    traced by fixed-T root finding in kappa on [CURVE_K_MIN, kmax],
    converted to the scaled plane.  Before any grid or scan work, a
    ValueError naming the window rejects it unless 0 < ymax < inf and
    CURVE_K_MIN < kmax <= MAX_KAPPA, and unless the curves' largest Bond
    number (ymax/CURVE_K_MIN)**2 is a positive float; a Bond number beyond
    float range, in the curves or the grid, is rejected the same way.
    """
    model = Model(model)
    if not (isinstance(resolution, numbers.Integral) and 2 <= resolution <= MAX_RESOLUTION):
        raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}], got {resolution!r}")
    window = f"window (0.0, {kmax!r}) x (0.0, {ymax!r})"
    if not 0.0 < ymax < math.inf:
        raise ValueError(f"{window} needs 0 < ymax < inf")
    if not CURVE_K_MIN < kmax <= MAX_KAPPA:
        raise ValueError(
            f"{window}: its curves are scanned on [{CURVE_K_MIN!r}, kmax], "
            f"which needs {CURVE_K_MIN!r} < kmax <= {MAX_KAPPA:g}"
        )
    kappas = np.arange(1, resolution + 1) * kmax / resolution
    ys = np.arange(resolution) * ymax / (resolution - 1)
    try:
        t_max = (ymax / CURVE_K_MIN) ** 2
        if not t_max > 0.0:
            raise ValueError(
                f"{window} is too narrow: the curves' largest Bond number "
                f"(ymax/{CURVE_K_MIN!r})**2 underflows to 0"
            )
        # T = (y/kappa)**2 as Python's float ** computes it: np.float_power
        # calls libm pow, as ** does, while numpy's square (x*x) and its
        # array-exponent power differ from pow in the last ulp at some nodes,
        # and the grid CSV prints T to 17 digits.
        bonds = np.empty((resolution, resolution))
        codes = np.empty((resolution, resolution), dtype=np.uint8)
        step = max(1, GRID_BLOCK_NODES // resolution)
        for start in range(0, resolution, step):
            rows = slice(start, start + step)
            with np.errstate(over="raise"):
                np.float_power(ys[None, :] / kappas[rows, None], 2.0, out=bonds[rows])
            codes[rows] = _label_codes(model, kappas[rows, None], bonds[rows])
    except (OverflowError, FloatingPointError):
        raise ValueError(f"{window} has Bond numbers beyond float range") from None

    # Fixed T is a ray of slope sqrt(T) through the origin; each mechanism
    # curve is swept by bisecting its factor along rays of increasing slope.
    rays = np.array([0.0] + list(np.geomspace(1e-4, t_max, CURVE_SAMPLES - 1)))
    found = _factor_roots(model, MECHANISM_FACTORS, rays, _scan_grid(CURVE_K_MIN, kmax, 400))
    y = found.root * np.sqrt(rays[found.ray])
    keep = y <= ymax
    curves = []
    for row, which in enumerate(MECHANISM_FACTORS):
        sel = keep & (found.factor == row)
        points = list(zip(found.root[sel].tolist(), y[sel].tolist()))
        curves.append(MechanismCurve(mechanism=MECHANISM_NAMES[which], points=points))
    return StabilityDiagram(
        model=model, kappas=kappas, ys=ys, bonds=bonds, codes=codes, curves=curves
    )
