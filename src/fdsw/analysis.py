"""Root finding on factor curves, critical wave numbers, stability diagrams.

The stability boundary of a model decomposes into the zero sets of the four
index factors (mechanisms R1..R4).  This module locates those roots in
kappa at fixed Bond number, extracts the critical wave number kappa_c
(the R4 crossing), runs the large-surface-tension protocol on the scaled
threshold kappa_c*sqrt(T), splits a kappa-range into classified stability
intervals, and assembles (kappa, kappa*sqrt(T)) stability diagrams.

All root finding goes through one batched finder, :func:`_factor_roots`:
a sign-change scan of the factors on a (Bond number x kappa) grid, then a
masked vector bisection of every bracket at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .config import BOND_THIRD_TOL
from .factors import Model, factor_arrays, index, index_labels

# Scan density and bisection tolerance for factor root finding.  The factors
# are smooth and cheap; a dense scan guards against close root pairs near the
# Bond line T = 1/3.
SCAN_POINTS = 2000
ROOT_TOL = 1e-10

MECHANISM_FACTORS = ("i1", "i2", "i3", "i4")
MECHANISM_NAMES = {"i1": "R1", "i2": "R2", "i3": "R3", "i4": "R4"}


class InconclusiveBondError(ValueError):
    """The classification is inconclusive on the Bond line T = 1/3."""


@dataclass(frozen=True)
class _Roots:
    """Roots found by :func:`_factor_roots`, one entry per root.

    Entries are ordered by factor, then Bond number, then kappa.  A scan
    node where the factor is exactly zero is a root with a zero-width
    bracket and no iterations.
    """

    factor: np.ndarray  # index into the factors searched
    ray: np.ndarray  # index into the Bond numbers
    root: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    iterations: np.ndarray


def _scan_grid(k_lo: float, k_hi: float, points: int) -> np.ndarray:
    if not 0.0 < k_lo < k_hi:
        raise ValueError(f"need 0 < k_lo < k_hi, got ({k_lo!r}, {k_hi!r})")
    return np.geomspace(k_lo, k_hi, points)


def _factor_rows(which: Sequence[str]) -> list[int]:
    unknown = [w for w in which if w not in MECHANISM_FACTORS]
    if unknown:
        raise ValueError(f"unknown factor {unknown[0]!r}")
    return [MECHANISM_FACTORS.index(w) for w in which]


def _factor_roots(
    model: Model, which: Sequence[str], bonds: np.ndarray, grid: np.ndarray
) -> _Roots:
    """Every sign change of the named factors along every Bond number.

    The factors are scanned on ``grid`` (kappa, shared by all Bond numbers)
    in one array pass; every bracket with a strict sign change is then
    bisected down to ROOT_TOL in kappa, all brackets at once.  Sign changes
    are products of neighbours below zero, as in float arithmetic: an
    overflowed or underflowed product raises no warning.
    """
    rows = _factor_rows(which)
    bonds = np.asarray(bonds, dtype=float)
    values = np.stack(factor_arrays(model, grid[None, :], bonds[:, None]))[rows]
    zero = values == 0.0
    event = zero.copy()
    with np.errstate(all="ignore"):
        event[..., :-1] |= values[..., :-1] * values[..., 1:] < 0.0
    factor, ray, i = np.nonzero(event)
    lo = grid[i]
    bracketed = ~zero[factor, ray, i]
    hi = lo.copy()
    hi[bracketed] = grid[i[bracketed] + 1]

    b = np.nonzero(bracketed)[0]
    b_rows = np.asarray(rows)[factor[b]]
    b_bonds = bonds[ray[b]]

    def evaluate(kappa: np.ndarray, sel: np.ndarray) -> np.ndarray:
        table = np.stack(factor_arrays(model, kappa, b_bonds[sel]))
        return table[b_rows[sel], np.arange(sel.size)]

    root, iterations = lo.copy(), np.zeros(lo.size, dtype=int)
    root[b], lo[b], hi[b], iterations[b] = _bisect(
        evaluate, lo[b], hi[b], values[factor[b], ray[b], i[b]]
    )
    return _Roots(factor=factor, ray=ray, root=root, lo=lo, hi=hi, iterations=iterations)


def _bisect(evaluate, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray):
    """Bisect every bracket down to ROOT_TOL at once.

    ``evaluate(kappa, sel)`` gives the function of brackets ``sel`` at
    ``kappa``.  Returns (root, lo, hi, iterations) per bracket; a midpoint
    where the function is exactly zero is the root, with a bracket of width
    ROOT_TOL around it.
    """
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


def find_factor_roots(
    model: Model,
    which: str,
    bond: float,
    k_lo: float,
    k_hi: float,
    scan_points: int = SCAN_POINTS,
) -> list[float]:
    """All sign changes of the chosen factor on [k_lo, k_hi], sorted.

    Log-spaced scan followed by bisection to absolute tolerance 1e-10 in
    kappa.  No roots is an empty list, not an error.
    """
    grid = _scan_grid(k_lo, k_hi, scan_points)
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


def critical_wavenumber(
    model: Model,
    bond: float,
    k_max: float = 50.0,
    allow_bond_third: bool = False,
) -> CriticalResult:
    """Smallest root of i4 (mechanism R4) at fixed Bond number.

    For T = 0 and T > 1/3 this root is unique and is the threshold above
    which small wave trains are modulationally unstable.  If no sign change
    exists up to k_max, the scan is extended once to 4*k_max before a
    divergence certificate (kappa_c = None) is returned.  A scan node where
    i4 is exactly zero is returned as is, with a zero-width bracket.
    """
    if k_max < 20.0:
        raise ValueError(f"k_max must be >= 20, got {k_max!r}")
    if abs(bond - 1.0 / 3.0) < BOND_THIRD_TOL and not allow_bond_third:
        raise InconclusiveBondError(
            f"bond={bond!r} is on the T=1/3 line where the index is inconclusive"
        )
    model = Model(model)
    for hi in (k_max, 4.0 * k_max):
        found = _factor_roots(model, ("i4",), [bond], np.geomspace(1e-4, hi, SCAN_POINTS))
        if found.root.size:
            return CriticalResult(
                model=model,
                bond=bond,
                kappa_c=float(found.root[0]),
                bracket=(float(found.lo[0]), float(found.hi[0])),
                iterations=int(found.iterations[0]),
            )
    return CriticalResult(model=model, bond=bond, kappa_c=None, bracket=None, iterations=0)


class Verdict(str, Enum):
    CONVERGED = "Converged"
    DIVERGENT = "Divergent"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class LimitEstimate:
    """Large-surface-tension behavior of the scaled threshold kappa_c*sqrt(T)."""

    model: Model
    bonds: tuple[float, ...]
    kappa_values: tuple[float | None, ...]
    scaled_values: tuple[float | None, ...]
    verdict: Verdict
    limit: float | None  # scaled threshold at the largest T when converged


def large_T_limit(
    model: Model,
    bond_sequence: Sequence[float] = (1.0, 10.0, 100.0, 1000.0),
    conv_tol: float = 1e-3,
    div_increment: float = 0.1,
) -> LimitEstimate:
    """Track kappa_c(T)*sqrt(T) over an increasing Bond sequence.

    The scaled threshold is the ordinate of the R4 curve in the
    (kappa, kappa*sqrt(T)) plane, which is the quantity with a finite
    large-T limit for the models that have one.  Verdicts:

    - Divergent: the tail of the sequence (last three values) is strictly
      increasing and the last increment exceeds ``div_increment``, or the
      threshold escaped the search range altogether.
    - Converged: the last two values differ by less than ``conv_tol``.
    """
    bonds = tuple(bond_sequence)
    if len(bonds) < 2 or any(b2 <= b1 for b1, b2 in zip(bonds, bonds[1:])):
        raise ValueError("bond_sequence must be increasing with at least two entries")
    kappas: list[float | None] = []
    scaled: list[float | None] = []
    for T in bonds:
        res = critical_wavenumber(model, T)
        kappas.append(res.kappa_c)
        scaled.append(None if res.kappa_c is None else res.kappa_c * math.sqrt(T))

    verdict = Verdict.UNDETERMINED
    limit = None
    if scaled[-1] is None:
        verdict = Verdict.DIVERGENT
    else:
        tail = [y for y in scaled[-3:] if y is not None]
        increasing = all(b > a for a, b in zip(tail, tail[1:]))
        last_two = [y for y in scaled[-2:] if y is not None]
        last_inc = last_two[1] - last_two[0] if len(last_two) == 2 else math.inf
        if increasing and last_inc > div_increment:
            verdict = Verdict.DIVERGENT
        elif abs(last_inc) < conv_tol:
            verdict = Verdict.CONVERGED
            limit = scaled[-1]
    return LimitEstimate(
        model=Model(model),
        bonds=bonds,
        kappa_values=tuple(kappas),
        scaled_values=tuple(scaled),
        verdict=verdict,
        limit=limit,
    )


def classify_intervals(
    model: Model, bond: float, k_lo: float, k_hi: float
) -> list[tuple[tuple[float, float], str]]:
    """Split [k_lo, k_hi] at all factor roots and label each piece.

    Delimiters are the roots of i1, i2, i3 (the i3 roots are the poles of
    the index) and i4; each resulting interval is labeled by the index
    classification at its geometric midpoint.
    """
    grid = _scan_grid(k_lo, k_hi, SCAN_POINTS)
    delimiters = _factor_roots(model, MECHANISM_FACTORS, [bond], grid).root
    edges = [k_lo] + sorted(delimiters.tolist()) + [k_hi]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = math.sqrt(lo * hi)
        out.append(((lo, hi), index(model, mid, bond).classification))
    return out


@dataclass(frozen=True)
class GridPoint:
    kappa: float
    kappa_sqrtT: float
    bond: float
    label: str


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
    labels: np.ndarray  # (n, n) index classification, strings
    curves: list[MechanismCurve]

    @property
    def grid(self) -> list[GridPoint]:
        """The nodes as a list, kappa varying slowest."""
        ys = self.ys.tolist()
        return [
            GridPoint(kappa=k, kappa_sqrtT=y, bond=b, label=lab)
            for k, bonds, labels in zip(self.kappas.tolist(), self.bonds.tolist(), self.labels)
            for y, b, lab in zip(ys, bonds, labels.tolist())
        ]


def stability_diagram(
    model: Model,
    k_range: tuple[float, float] = (0.0, 3.0),
    ksqrtT_range: tuple[float, float] = (0.0, 3.0),
    resolution: int = 600,
    curve_samples: int = 200,
) -> StabilityDiagram:
    """Classified grid plus mechanism curves in the (kappa, kappa*sqrt(T)) plane.

    Grid nodes exclude kappa = 0 (the left edge is open); rows are ordered
    by kappa then kappa*sqrt(T).  Curves are traced by fixed-T root finding
    in kappa, converted to the scaled plane.
    """
    model = Model(model)
    if resolution < 2 or curve_samples < 2:
        raise ValueError("resolution and curve_samples must be >= 2")
    k_lo, k_hi = k_range
    y_lo, y_hi = ksqrtT_range
    finite = all(math.isfinite(v) for v in (*k_range, *ksqrtT_range))
    if not (finite and k_hi > k_lo >= 0.0 and y_hi > y_lo >= 0.0):
        raise ValueError(f"bad window {k_range!r} x {ksqrtT_range!r}")
    kappas = k_lo + np.arange(1, resolution + 1) * (k_hi - k_lo) / resolution
    ys = y_lo + np.arange(resolution) * (y_hi - y_lo) / (resolution - 1)
    scan_lo = max(k_lo, 1e-3)
    try:
        # T = (y/kappa)**2 as Python's float ** computes it (libm pow): numpy's
        # square differs from it in the last ulp at some nodes, and the grid
        # CSV prints T to 17 digits.
        ratios = (ys[None, :] / kappas[:, None]).ravel().tolist()
        bonds = np.array(list(map(math.pow, ratios, itertools.repeat(2.0))))
        bonds = bonds.reshape(resolution, resolution)
        t_max = (y_hi / scan_lo) ** 2
    except OverflowError:
        raise ValueError(
            f"window {k_range!r} x {ksqrtT_range!r} has Bond numbers beyond float range"
        ) from None
    labels = index_labels(model, kappas[:, None], bonds)

    # Fixed T is a ray of slope sqrt(T) through the origin; each mechanism
    # curve is swept by bisecting its factor along rays of increasing slope.
    rays = np.array([0.0] + list(np.geomspace(1e-4, t_max, curve_samples - 1)))
    found = _factor_roots(model, MECHANISM_FACTORS, rays, _scan_grid(scan_lo, k_hi, 400))
    y = found.root * np.sqrt(rays[found.ray])
    keep = (y_lo <= y) & (y <= y_hi)
    curves = []
    for row, which in enumerate(MECHANISM_FACTORS):
        sel = keep & (found.factor == row)
        points = list(zip(found.root[sel].tolist(), y[sel].tolist()))
        curves.append(MechanismCurve(mechanism=MECHANISM_NAMES[which], points=points))
    return StabilityDiagram(
        model=model, kappas=kappas, ys=ys, bonds=bonds, labels=labels, curves=curves
    )
