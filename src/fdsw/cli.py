"""Command-line front end.

Subcommands: index, critical, diagram, hill, intervals.  Numeric output is
deterministic (17 significant digits, LF line endings); --format json emits
machine-readable records.  Exit codes: 0 success, 2 domain/validation
error (including a wave polish that does not converge), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .analysis import (
    InconclusiveBondError,
    classify_intervals,
    critical_wavenumber,
    large_T_limit,
    stability_diagram,
)
from .bloch import DegenerateQuarticError
from .config import GROWTH_THRESHOLD
from .factors import Model, index
from .hill import MAX_N_MODES, WaveRefinementError, growth_rate
from .stokes import ResonanceError


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    """Validated arguments of one CLI invocation."""

    command: str
    model: Model | None = None
    bond: float | None = None
    bonds: tuple[float, ...] | None = None
    kappa: float | None = None
    xi: float | None = None
    amplitude: float | None = None
    n_modes: int | None = None
    resolution: int | None = None
    k_lo: float | None = None
    k_hi: float | None = None
    k_max: float | None = None
    y_max: float | None = None
    out: str | None = None
    curves_out: str | None = None
    format: str = "csv"
    limit: bool = False
    conv_tol: float = 1e-2

    def validate(self) -> None:
        if self.kappa is not None and not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"precondition violated: finite kappa > 0 (got {self.kappa})")
        if self.bond is not None and not (self.bond >= 0.0 and math.isfinite(self.bond)):
            raise ValueError(f"precondition violated: finite bond >= 0 (got {self.bond})")
        if self.bonds is not None and any(not (b >= 0.0 and math.isfinite(b)) for b in self.bonds):
            raise ValueError(f"precondition violated: finite bond >= 0 (got {self.bonds})")
        for label, value in (("kmax", self.k_max), ("ymax", self.y_max)):
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"precondition violated: finite {label} > 0 (got {value})")
        if self.xi is not None and not abs(self.xi) <= 0.5:
            raise ValueError(f"precondition violated: |xi| <= 1/2 (got {self.xi})")
        if self.amplitude is not None and not math.isfinite(self.amplitude):
            raise ValueError(f"precondition violated: finite amplitude (got {self.amplitude})")
        if self.n_modes is not None and not 8 <= self.n_modes <= MAX_N_MODES:
            raise ValueError(
                f"precondition violated: 8 <= n_modes <= {MAX_N_MODES} (got {self.n_modes})"
            )
        if self.resolution is not None and self.resolution < 2:
            raise ValueError(f"precondition violated: resolution >= 2 (got {self.resolution})")


def _cmd_index(cfg: RunConfig) -> int:
    rep = index(cfg.model, cfg.kappa, cfg.bond)
    record = {
        "command": "index",
        "model": cfg.model.value,
        "kappa": rep.kappa,
        "bond": rep.bond,
        "i1": rep.i1,
        "i2": rep.i2,
        "i3": rep.i3,
        "i4": rep.i4,
        "delta": rep.delta,
        "flags": sorted(f.value for f in rep.flags),
        "classification": rep.classification,
    }
    if cfg.format == "json":
        print(json.dumps(record))
    else:
        for key in ("model", "kappa", "bond", "i1", "i2", "i3", "i4"):
            value = record[key]
            print(f"{key} = {_fmt(value) if isinstance(value, float) else value}")
        print(f"delta = {'undefined' if rep.delta is None else _fmt(rep.delta)}")
        print(f"flags = {','.join(record['flags']) if record['flags'] else 'none'}")
        print(f"classification = {rep.classification}")
    return 0


def _cmd_critical(cfg: RunConfig) -> int:
    if cfg.limit:
        bonds = cfg.bonds if cfg.bonds else (1.0, 10.0, 100.0, 1000.0)
        est = large_T_limit(cfg.model, bonds, conv_tol=cfg.conv_tol)
        record = {
            "command": "critical",
            "model": cfg.model.value,
            "bonds": list(est.bonds),
            "kappa_c": list(est.kappa_values),
            "kappa_c_scaled": list(est.scaled_values),
            "verdict": est.verdict.value,
            "limit": est.limit,
        }
        if cfg.format == "json":
            print(json.dumps(record))
        else:
            print("bond,kappa_c,kappa_c_scaled")
            for T, k, y in zip(est.bonds, est.kappa_values, est.scaled_values):
                ks = _fmt(k) if k is not None else "divergent"
                ys = _fmt(y) if y is not None else "divergent"
                print(f"{_fmt(T)},{ks},{ys}")
            tail = "" if est.limit is None else f" {_fmt(est.limit)}"
            print(f"verdict = {est.verdict.value}{tail}")
        return 0
    bonds = cfg.bonds if cfg.bonds else (cfg.bond if cfg.bond is not None else 0.0,)
    if not isinstance(bonds, tuple):
        bonds = (bonds,)
    rows = [critical_wavenumber(cfg.model, b) for b in bonds]
    if cfg.format == "json":
        record = {
            "command": "critical",
            "model": cfg.model.value,
            "results": [
                {"bond": r.bond, "kappa_c": r.kappa_c, "divergent": r.divergent}
                for r in rows
            ],
        }
        print(json.dumps(record))
    else:
        print("bond,kappa_c")
        for r in rows:
            print(f"{_fmt(r.bond)},{_fmt(r.kappa_c) if r.kappa_c is not None else 'divergent'}")
    return 0


def _cmd_intervals(cfg: RunConfig) -> int:
    pieces = classify_intervals(cfg.model, cfg.bond, cfg.k_lo, cfg.k_hi)
    if cfg.format == "json":
        record = {
            "command": "intervals",
            "model": cfg.model.value,
            "bond": cfg.bond,
            "intervals": [
                {"k_lo": lo, "k_hi": hi, "label": lab} for (lo, hi), lab in pieces
            ],
        }
        print(json.dumps(record))
    else:
        print("k_lo,k_hi,label")
        for (lo, hi), lab in pieces:
            print(f"{_fmt(lo)},{_fmt(hi)},{lab}")
    return 0


def _cmd_diagram(cfg: RunConfig) -> int:
    diagram = stability_diagram(
        cfg.model,
        k_range=(0.0, cfg.k_max),
        ksqrtT_range=(0.0, cfg.y_max),
        resolution=cfg.resolution,
    )
    # One kappa row at a time; each kappa and y is formatted once.
    ys = [_fmt(y) for y in diagram.ys.tolist()]
    with open(cfg.out, "w", newline="\n") as fh:
        fh.write("kappa,kappa_sqrtT,bond,label\n")
        for kappa, bonds, labels in zip(diagram.kappas.tolist(), diagram.bonds, diagram.labels):
            head = _fmt(kappa)
            fh.write(
                "".join(
                    f"{head},{y},{_fmt(bond)},{label}\n"
                    for y, bond, label in zip(ys, bonds.tolist(), labels.tolist())
                )
            )
    curve_lines = ["mechanism,kappa,kappa_sqrtT"]
    for curve in diagram.curves:
        curve_lines += [
            f"{curve.mechanism},{_fmt(k)},{_fmt(y)}" for k, y in curve.points
        ]
    with open(cfg.curves_out, "w", newline="\n") as fh:
        fh.write("\n".join(curve_lines) + "\n")
    print(f"wrote {diagram.labels.size} grid points to {cfg.out}")
    print(f"wrote curves to {cfg.curves_out}")
    return 0


def _cmd_hill(cfg: RunConfig) -> int:
    growth = growth_rate(cfg.xi, cfg.amplitude, cfg.kappa, cfg.bond, cfg.n_modes)
    rep = index(cfg.model, cfg.kappa, cfg.bond)
    spectrally_unstable = growth > GROWTH_THRESHOLD
    if rep.classification in ("S", "U"):
        index_unstable = rep.classification == "U"
        agreement = "AGREES" if spectrally_unstable == index_unstable else "DISAGREES"
    else:
        agreement = "UNDECIDED"
    record = {
        "command": "hill",
        "model": cfg.model.value,
        "kappa": cfg.kappa,
        "bond": cfg.bond,
        "xi": cfg.xi,
        "amplitude": cfg.amplitude,
        "n_modes": cfg.n_modes,
        "growth_rate": growth,
        "index_classification": rep.classification,
        "agreement": agreement,
    }
    if cfg.format == "json":
        print(json.dumps(record))
    else:
        print(f"growth_rate = {_fmt(growth)}")
        print(f"index_classification = {rep.classification}")
        print(f"agreement = {agreement}")
    return 0


_DISPATCH = {
    "index": _cmd_index,
    "critical": _cmd_critical,
    "diagram": _cmd_diagram,
    "hill": _cmd_hill,
    "intervals": _cmd_intervals,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsw",
        description="Modulational instability of full-dispersion shallow-water wave trains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--model",
        choices=[m.value for m in Model],
        default="fdsw2",
        help="which model's index to use (default fdsw2)",
    )
    common.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("index", parents=[common], help="evaluate the instability index")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--bond", type=float, default=0.0)

    p = sub.add_parser("critical", parents=[common], help="critical wave number(s)")
    p.add_argument("--bond", type=float, action="append", dest="bonds")
    p.add_argument("--limit", action="store_true", help="run the large-T protocol")
    p.add_argument(
        "--conv-tol",
        type=float,
        default=1e-2,
        help="convergence tolerance on the scaled threshold (default 1e-2)",
    )

    p = sub.add_parser("diagram", parents=[common], help="stability diagram CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--curves-out", default=None)
    p.add_argument("--resolution", type=int, default=600)
    p.add_argument("--kmax", type=float, default=3.0)
    p.add_argument("--ymax", type=float, default=3.0)

    p = sub.add_parser("hill", parents=[common], help="spectral growth rate")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--amplitude", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--bond", type=float, default=0.0)
    p.add_argument(
        "--n-modes",
        type=int,
        default=32,
        help=f"Fourier modes -N..N of the truncation, 8 <= N <= {MAX_N_MODES} (default 32)",
    )

    p = sub.add_parser("intervals", parents=[common], help="stability intervals in kappa")
    p.add_argument("--bond", type=float, required=True)
    p.add_argument("--k-lo", type=float, default=0.05)
    p.add_argument("--k-hi", type=float, default=30.0)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.model = Model(args.model)
    cfg.format = args.format
    if args.command == "index":
        cfg.kappa, cfg.bond = args.kappa, args.bond
    elif args.command == "critical":
        cfg.bonds = tuple(args.bonds) if args.bonds else None
        cfg.limit = args.limit
        cfg.conv_tol = args.conv_tol
        if cfg.bonds and len(cfg.bonds) == 1 and not cfg.limit:
            cfg.bond = cfg.bonds[0]
    elif args.command == "diagram":
        cfg.out = args.out
        cfg.curves_out = (
            args.curves_out
            if args.curves_out
            else (args.out[:-4] if args.out.endswith(".csv") else args.out) + "_curves.csv"
        )
        cfg.resolution = args.resolution
        cfg.k_max, cfg.y_max = args.kmax, args.ymax
    elif args.command == "hill":
        cfg.xi, cfg.amplitude = args.xi, args.amplitude
        cfg.kappa, cfg.bond = args.kappa, args.bond
        cfg.n_modes = args.n_modes
    elif args.command == "intervals":
        cfg.bond = args.bond
        cfg.k_lo, cfg.k_hi = args.k_lo, args.k_hi
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        return _DISPATCH[args.command](cfg)
    except (
        ValueError,
        ResonanceError,
        InconclusiveBondError,
        DegenerateQuarticError,
        WaveRefinementError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
