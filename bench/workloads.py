"""The three benchmark workloads: seeded inputs, one case at a time, checks.

A workload draws its case list from a ``random.Random`` seeded on the
command line, runs one case through the public ``fdsw`` API (``api`` holds
the entry points, wrapped when tracing) and checks each answer afterwards,
outside the timed region.  ``check`` returns ``(problem, hard)``: ``problem``
is None for a correct answer; ``hard`` marks an answer that contradicts a
frozen reference or a sign-change certificate, as opposed to a disagreement
between the three stability methods.  ``raise_is_hard`` says the same of a
case that raised.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fdsw import Model, index
from fdsw.config import DEFAULT_AMPLITUDE, DEFAULT_XI, GROWTH_THRESHOLD
from fdsw.factors import Branch, factor_i1, factor_i2, factor_i3, factor_i4
from fdsw.analysis import find_factor_roots

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _factors(model: Model, bond: float):
    branch = Branch.MINUS if model.unidirectional else Branch.FULL
    return (
        lambda k: factor_i1(k, bond),
        lambda k: factor_i2(k, bond, branch),
        lambda k: factor_i3(k, bond, branch),
        lambda k: factor_i4(model, k, bond),
    )


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_bins(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    """n equal bins of [lo, hi] in log scale.

    Drawing one input per bin (stratified sampling) keeps the mix of cheap
    and costly cases nearly the same from seed to seed.
    """
    ratio = (hi / lo) ** (1.0 / n)
    return [(lo * ratio**i, lo * ratio ** (i + 1)) for i in range(n)]


# ----------------------------------------------------------------- diagram
DIAGRAM_MODELS = (Model.FDSW2, Model.WHITHAM)
DIAGRAM_RESOLUTION = 600
DIAGRAM_WINDOW = 3.0  # (0, 3] x [0, 3] in (kappa, kappa*sqrt(T))
CURVE_TOL = 1e-9  # allows last-ulp bisection flips, nothing more
GRID_HEADER = "kappa,kappa_sqrtT,bond,label"
CURVES_HEADER = "mechanism,kappa,kappa_sqrtT"


def read_diagram(grid_path, curves_path) -> tuple[list[str], str, dict[str, list]]:
    """Labels in row order, the grid CSV's SHA-256 and curve points by mechanism."""
    with open(grid_path, "rb") as fh:
        data = fh.read()
    grid_sha256 = hashlib.sha256(data).hexdigest()
    header, *rows = data.decode().splitlines()
    if header != GRID_HEADER:
        raise ValueError(f"{grid_path}: unexpected header")
    labels = [row.rsplit(",", 1)[1] for row in rows]
    curves: dict[str, list] = {}
    with open(curves_path) as fh:
        if fh.readline().rstrip("\n") != CURVES_HEADER:
            raise ValueError(f"{curves_path}: unexpected header")
        for line in fh:
            mech, k, y = line.rstrip("\n").split(",")
            curves.setdefault(mech, []).append((float(k), float(y)))
    return labels, grid_sha256, curves


def load_reference(model: Model) -> dict:
    with open(REFERENCE_DIR / f"diagram-{model.value}.json") as fh:
        ref = json.load(fh)
    ref["labels"] = [lab for lab, run in ref["labels_rle"] for _ in range(run)]
    return ref


def compare_diagram(
    ref: dict, labels: list[str], grid_sha256: str, curves: dict[str, list]
) -> str | None:
    """None if the grid CSV is byte-identical and curve points within CURVE_TOL.

    Labels are compared one by one first, so that a wrong label is reported
    by its node; the hash then catches any other change to the grid CSV,
    such as a coordinate or its 17-digit formatting.
    """
    want = ref["labels"]
    if len(labels) != len(want):
        return f"{len(labels)} grid rows, reference has {len(want)}"
    bad = [i for i, (a, b) in enumerate(zip(labels, want)) if a != b]
    if bad:
        n = ref["resolution"]
        shown = ", ".join(f"node (i={i // n}, j={i % n}) {labels[i]}!={want[i]}" for i in bad[:3])
        return f"{len(bad)} grid labels differ from reference: {shown}"
    if grid_sha256 != ref["grid_sha256"]:
        return "grid CSV differs from reference in its coordinates or formatting (labels equal)"
    for mech, points in ref["curves"].items():
        got = curves.get(mech, [])
        if len(got) != len(points):
            return f"{mech}: {len(got)} curve points, reference has {len(points)}"
        worst = max(
            (max(abs(k - rk), abs(y - ry)) for (k, y), (rk, ry) in zip(got, points)),
            default=0.0,
        )
        if not worst <= CURVE_TOL:
            return f"{mech}: curve point off reference by {worst:.3g}"
    extra = set(curves) - set(ref["curves"])
    if extra:
        return f"unexpected mechanisms {sorted(extra)}"
    return None


@dataclass
class Diagram:
    """`fdsw diagram --resolution 600` for fdsw2 and whitham; one case per model."""

    name = "diagram"
    raise_is_hard = True
    out_dir: Path

    def make_cases(self, rng) -> list:
        cases = list(DIAGRAM_MODELS)
        rng.shuffle(cases)
        return cases

    def warm_up(self, api) -> None:
        api.index(Model.FDSW2, 1.0, 0.0)
        find_factor_roots(Model.FDSW2, "i4", 0.0, 1e-3, DIAGRAM_WINDOW)
        with contextlib.redirect_stdout(io.StringIO()):
            api.cli_main(["index", "--kappa", "1", "--bond", "0"])

    def describe(self, model: Model) -> str:
        return f"diagram model={model.value}"

    def run(self, api, model: Model):
        grid = self.out_dir / f"diagram-{model.value}.csv"
        curves = self.out_dir / f"diagram-{model.value}_curves.csv"
        argv = [
            "diagram",
            "--model", model.value,
            "--resolution", str(DIAGRAM_RESOLUTION),
            "--kmax", str(DIAGRAM_WINDOW),
            "--ymax", str(DIAGRAM_WINDOW),
            "--out", str(grid),
            "--curves-out", str(curves),
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            rc = api.cli_main(argv)
        return rc, grid, curves

    def output_bytes(self, answer) -> int:
        _, grid, curves = answer
        return os.path.getsize(grid) + os.path.getsize(curves)

    def check(self, model: Model, answer):
        rc, grid, curves = answer
        try:
            if rc != 0:
                return f"exit code {rc}", True
            return compare_diagram(load_reference(model), *read_diagram(grid, curves)), True
        finally:
            for path in (grid, curves):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)


# -------------------------------------------------------------- thresholds
CRITICAL_T0 = {Model.WHITHAM: 1.146, Model.FDCH: 1.420, Model.FDSW1: 1.610, Model.FDSW2: 1.008}
CRITICAL_T0_TOL = 0.002
# Bond numbers per model, one log-uniform draw per log bin of [1e-3, 1e3],
# each list plus T = 0.
# Unequal counts keep the median case inside the critical_wavenumber cluster
# and the 90th percentile inside the classify_intervals cluster, instead of
# in the gap between the two.
CRITICAL_BONDS = 15
INTERVAL_BONDS = 9
BOND_RANGE = (1e-3, 1e3)
INTERVAL_RANGE = (0.05, 30.0)
EDGE_PROBE = 1e-8  # half-width around a returned root; 100x the bisection tolerance
CRITICAL_SCAN = (1e-4, 200.0)  # critical_wavenumber's scan, extended once
# Fixed log grid on which factor_i4 must not change sign below a returned
# root (or anywhere, for a divergence certificate); about three times as
# dense as critical_wavenumber's own scan.
CERTIFICATE_GRID = tuple(float(k) for k in np.geomspace(*CRITICAL_SCAN, 6001))


@functools.lru_cache(maxsize=None)
def _i4_sign_change_below(model: Model, bond: float, upto: float) -> tuple | None:
    """First pair of neighbours across which i4 changes sign or vanishes.

    The points are those of CERTIFICATE_GRID below `upto`, then `upto`
    itself; None if i4 keeps one sign on all of them.  Cached, because
    every pass repeats the same cases and a correct answer repeats too.
    """
    i4 = _factors(model, bond)[3]
    ks = [k for k in CERTIFICATE_GRID if k < upto] + [upto]
    prev_k, prev_v = ks[0], i4(ks[0])
    for k in ks[1:]:
        v = i4(k)
        if prev_v * v <= 0.0:
            return prev_k, k
        prev_k, prev_v = k, v
    return None


@dataclass
class Thresholds:
    """critical_wavenumber and classify_intervals, one scalar chain at a time."""

    name = "thresholds"
    raise_is_hard = True
    out_dir: Path

    def make_cases(self, rng) -> list:
        cases = []
        for model in Model:
            for kind, count in (("critical", CRITICAL_BONDS), ("intervals", INTERVAL_BONDS)):
                bonds = [0.0] + [_log_uniform(rng, *b) for b in _log_bins(*BOND_RANGE, count)]
                cases += [(kind, model, bond) for bond in bonds]
        rng.shuffle(cases)
        return cases

    def warm_up(self, api) -> None:
        api.critical_wavenumber(Model.WHITHAM, 0.0)
        api.classify_intervals(Model.WHITHAM, 1.0, *INTERVAL_RANGE)

    def describe(self, case) -> str:
        kind, model, bond = case
        return f"{kind} model={model.value} bond={bond!r}"

    def run(self, api, case):
        kind, model, bond = case
        if kind == "critical":
            return api.critical_wavenumber(model, bond)
        return api.classify_intervals(model, bond, *INTERVAL_RANGE)

    def output_bytes(self, answer) -> int:
        return 0

    def check(self, case, answer):
        kind, model, bond = case
        if kind == "critical":
            return self._check_critical(model, bond, answer), True
        return self._check_intervals(model, bond, answer), True

    @staticmethod
    def _check_critical(model, bond, res) -> str | None:
        i4 = _factors(model, bond)[3]
        if res.kappa_c is None:
            earlier = _i4_sign_change_below(model, bond, CRITICAL_SCAN[1])
            if earlier is not None:
                return f"divergent, but i4 changes sign on {earlier!r}"
            return None
        if bond == 0.0 and abs(res.kappa_c - CRITICAL_T0[model]) > CRITICAL_T0_TOL:
            return f"kappa_c={res.kappa_c:.6f}, table says {CRITICAL_T0[model]}"
        lo, hi = res.bracket
        if not lo <= res.kappa_c <= hi:
            return f"kappa_c={res.kappa_c!r} outside its bracket ({lo!r}, {hi!r})"
        if i4(lo) * i4(hi) > 0.0:
            return f"i4 does not change sign across bracket ({lo!r}, {hi!r})"
        earlier = _i4_sign_change_below(model, bond, lo)
        if earlier is not None:
            return f"kappa_c={res.kappa_c!r} is not the smallest root: i4 changes sign on {earlier!r}"
        return None

    @staticmethod
    def _check_intervals(model, bond, pieces) -> str | None:
        k_lo, k_hi = INTERVAL_RANGE
        if not pieces:
            return "no intervals"
        edges = [pieces[0][0][0]] + [hi for (_, hi), _ in pieces]
        if edges[0] != k_lo or edges[-1] != k_hi:
            return f"intervals do not span [{k_lo}, {k_hi}]"
        for ((_, hi), _), ((lo, _), _) in zip(pieces, pieces[1:]):
            if hi != lo:
                return f"gap between {hi!r} and {lo!r}"
        if any(b < a for a, b in zip(edges, edges[1:])):
            return "interval edges decrease"
        factors = _factors(model, bond)
        for root in edges[1:-1]:
            a, b = root - EDGE_PROBE, root + EDGE_PROBE
            if not any(f(a) * f(b) <= 0.0 for f in factors):
                return f"no factor changes sign across edge {root!r}"
        for (lo, hi), label in pieces:
            want = index(model, math.sqrt(lo * hi), bond).classification
            if label != want:
                return f"interval ({lo!r}, {hi!r}) labelled {label}, index says {want}"
        return None


# ------------------------------------------------------------------ oracle
ORACLE_CASES = 100
ORACLE_PER_BOND = 5  # few per Bond number, so failures near one R4 crossing do not cluster
ORACLE_TRIES_PER_BIN = 100
ORACLE_KAPPA = (0.3, 3.0)
ORACLE_BOND = (0.02, 5.0)
HILL_MODES = 32
PROBE_MARGIN = 0.05  # distance to a factor root, and minimum |factor|
WARM_POINT = (2.0, 0.0)


def admissible_probe(kappa: float, bond: float, roots: list[float]) -> bool:
    """The filter of the acceptance suite's oracle-triangle probe points."""
    if any(abs(kappa - r) < PROBE_MARGIN for r in roots):
        return False
    detune = min(
        abs(factor_i1(kappa, bond)),
        abs(factor_i2(kappa, bond, Branch.MINUS)),
        abs(factor_i3(kappa, bond, Branch.MINUS)),
        abs(factor_i4(Model.FDSW2, kappa, bond)),
    )
    return detune >= PROBE_MARGIN


@dataclass
class Oracle:
    """index, 4x4 pencil and Hill spectrum at one fdsw2 point per case."""

    name = "oracle"
    # The wave polish can fail to converge at an admissible point; that point
    # then has no Hill verdict, like a disagreement, not a wrong answer.
    raise_is_hard = False
    out_dir: Path

    def make_cases(self, rng) -> list:
        n_bonds = ORACLE_CASES // ORACLE_PER_BOND
        bonds = [0.0] + [_log_uniform(rng, *b) for b in _log_bins(*ORACLE_BOND, n_bonds - 1)]
        cases: list[tuple[float, float]] = []
        while len(cases) < ORACLE_CASES:
            # a bin with no admissible point leaves a gap, filled by extra bonds
            bond = bonds.pop(0) if bonds else _log_uniform(rng, *ORACLE_BOND)
            roots = []
            for which in ("i1", "i2", "i3", "i4"):
                roots += find_factor_roots(Model.FDSW2, which, bond, 0.02, 10.0)
            for k_bin in _log_bins(*ORACLE_KAPPA, ORACLE_PER_BOND):
                for _ in range(ORACLE_TRIES_PER_BIN):
                    kappa = _log_uniform(rng, *k_bin)
                    if admissible_probe(kappa, bond, roots):
                        cases.append((kappa, bond))
                        break
        del cases[ORACLE_CASES:]
        rng.shuffle(cases)
        return cases

    def warm_up(self, api) -> None:
        self.run(api, WARM_POINT)

    def describe(self, case) -> str:
        kappa, bond = case
        return f"oracle kappa={kappa!r} bond={bond!r}"

    def run(self, api, case):
        kappa, bond = case
        delta = api.index(Model.FDSW2, kappa, bond).delta
        pencil = api.classify_band(DEFAULT_XI, DEFAULT_AMPLITUDE, kappa, bond).value
        growth = api.growth_rate_band(DEFAULT_XI, DEFAULT_AMPLITUDE, kappa, bond, HILL_MODES)
        return delta, pencil, growth

    def output_bytes(self, answer) -> int:
        return 0

    def check(self, case, answer):
        delta, pencil, growth = answer
        if pencil not in ("S", "U") or not math.isfinite(growth):
            return f"malformed answer delta={delta!r} pencil={pencil!r} growth={growth!r}", True
        by_index = "NearPole" if delta is None else ("U" if delta < 0.0 else "S")
        labels = (by_index, pencil, "U" if growth > GROWTH_THRESHOLD else "S")
        if len(set(labels)) > 1:
            return (
                f"index/pencil/hill = {'/'.join(labels)} (growth={growth:.3g})",
                False,
            )
        return None, False


WORKLOADS = {cls.name: cls for cls in (Diagram, Thresholds, Oracle)}
