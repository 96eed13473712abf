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
import os
import sys

import numpy as np

from .analysis import classify_intervals, critical_wavenumber, large_T_limit, stability_diagram
from .config import GROWTH_FLOOR, growth_threshold
from .factors import _LABELS, Model, index
from .g17 import format_g17
from .hill import MAX_N_MODES, WaveRefinementError, growth_rate


# Grid nodes whose Bond numbers format_g17 formats at a time, in whole
# kappa rows (at least one): its temporaries, about 30 arrays of 8 bytes a
# node, stay near the cache and do not grow with the grid.
FORMAT_BLOCK_NODES = 2**13


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _validate(args: argparse.Namespace) -> None:
    """The checks no library function owns; the library checks the rest, before any work."""
    if args.command == "hill" and args.model != Model.FDSW2:
        raise ValueError(
            f"hill: the spectrum is that of the fdsw2 system only, so it cannot check "
            f"the {args.model} index; use --model fdsw2"
        )
    if args.command == "diagram":
        curves_out = _curves_path(args)
        if os.path.realpath(curves_out) == os.path.realpath(args.out):
            raise ValueError(f"the curves file {curves_out} is the grid file {args.out}")


def _emit(fmt: str, record: dict | None, lines: list[str]) -> None:
    """Print the JSON record or the CSV lines, as --format asks.

    Every handler returns its record and its lines; a command without a
    record (diagram) prints its lines in either format.  JSON has no NaN or
    infinity (RFC 8259): a record's non-finite numbers (the index values at
    an OutsideValidity point) print as null.
    """
    if fmt == "json" and record is not None:
        finite = {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in record.items()
        }
        print(json.dumps(finite, allow_nan=False))
    else:
        print("\n".join(lines))


def _cmd_index(args: argparse.Namespace) -> tuple[dict, list[str]]:
    rep = index(args.model, args.kappa, args.bond)
    record = {
        "command": "index",
        "model": args.model,
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
    lines = [f"model = {args.model}"]
    lines += [f"{key} = {_fmt(record[key])}" for key in ("kappa", "bond", "i1", "i2", "i3", "i4")]
    lines += [
        f"delta = {'undefined' if rep.delta is None else _fmt(rep.delta)}",
        f"flags = {','.join(record['flags']) if record['flags'] else 'none'}",
        f"classification = {rep.classification}",
    ]
    return record, lines


def _cmd_critical(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if args.limit:
        limit = large_T_limit(args.model).limit
        record = {"command": "critical", "model": args.model, "limit": limit}
        return record, [f"limit = {'none' if limit is None else _fmt(limit)}"]
    bonds = tuple(args.bonds) if args.bonds else (0.0,)
    rows = [critical_wavenumber(args.model, b) for b in bonds]
    record = {
        "command": "critical",
        "model": args.model,
        "results": [
            {"bond": r.bond, "kappa_c": r.kappa_c, "divergent": r.divergent} for r in rows
        ],
    }
    lines = ["bond,kappa_c"] + [
        f"{_fmt(r.bond)},{'divergent' if r.divergent else _fmt(r.kappa_c)}" for r in rows
    ]
    return record, lines


def _cmd_intervals(args: argparse.Namespace) -> tuple[dict, list[str]]:
    pieces = classify_intervals(args.model, args.bond, args.k_lo, args.k_hi)
    record = {
        "command": "intervals",
        "model": args.model,
        "bond": args.bond,
        "intervals": [{"k_lo": lo, "k_hi": hi, "label": lab} for (lo, hi), lab in pieces],
    }
    lines = ["k_lo,k_hi,label"] + [f"{_fmt(lo)},{_fmt(hi)},{lab}" for (lo, hi), lab in pieces]
    return record, lines


def _curves_path(args: argparse.Namespace) -> str:
    return args.curves_out or (
        (args.out[:-4] if args.out.endswith(".csv") else args.out) + "_curves.csv"
    )


def _cmd_diagram(args: argparse.Namespace) -> tuple[None, list[str]]:
    curves_out = _curves_path(args)
    diagram = stability_diagram(args.model, args.kmax, args.ymax, args.resolution)
    # A block of kappa rows at a time, each node's ",y,T,label\n" is joined
    # by numpy string arrays: the y pieces are formatted once per diagram,
    # format_g17 prints the Bond numbers exactly as _fmt does without a call
    # per node, and the label codes pick their line ends.  A row is written
    # as its kappa string joined with its nodes' strings.
    ypieces = np.array([b",%s," % _fmt(y).encode() for y in diagram.ys.tolist()])
    label_lines = np.array([b",%s\n" % label.encode() for label in _LABELS])
    step = max(1, FORMAT_BLOCK_NODES // diagram.ys.size)
    with open(args.out, "wb") as fh:
        fh.write(b"kappa,kappa_sqrtT,bond,label\n")
        for start in range(0, diagram.kappas.size, step):
            rows = slice(start, start + step)
            nodes = np.char.add(
                np.char.add(ypieces, format_g17(diagram.bonds[rows])),
                label_lines[diagram.codes[rows]],
            )
            for kappa, row in zip(diagram.kappas[rows].tolist(), nodes):
                k = _fmt(kappa).encode()
                fh.write(k + k.join(row.tolist()))
    curve_lines = ["mechanism,kappa,kappa_sqrtT"]
    for curve in diagram.curves:
        curve_lines += [
            f"{curve.mechanism},{_fmt(k)},{_fmt(y)}" for k, y in curve.points
        ]
    with open(curves_out, "w", newline="\n") as fh:
        fh.write("\n".join(curve_lines) + "\n")
    return None, [
        f"wrote {diagram.codes.size} grid points to {args.out}",
        f"wrote curves to {curves_out}",
    ]


def _cmd_hill(args: argparse.Namespace) -> tuple[dict, list[str]]:
    growth = growth_rate(args.xi, args.amplitude, args.kappa, args.bond, args.n_modes)
    rep = index(args.model, args.kappa, args.bond)
    threshold = growth_threshold(args.amplitude)
    # where the threshold is under the round-off floor, growth within the floor
    # decides nothing; at a = 0 there is no wave train to decide about
    within_floor = threshold < GROWTH_FLOOR and growth <= GROWTH_FLOOR
    if rep.classification in ("S", "U") and not within_floor:
        index_unstable = rep.classification == "U"
        agreement = "AGREES" if (growth > threshold) == index_unstable else "DISAGREES"
    else:
        agreement = "UNDECIDED"
    record = {
        "command": "hill",
        "model": args.model,
        "kappa": args.kappa,
        "bond": args.bond,
        "xi": args.xi,
        "amplitude": args.amplitude,
        "n_modes": args.n_modes,
        "growth_rate": growth,
        "index_classification": rep.classification,
        "agreement": agreement,
    }
    lines = [
        f"growth_rate = {_fmt(growth)}",
        f"index_classification = {rep.classification}",
        f"agreement = {agreement}",
    ]
    return record, lines


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
    which = p.add_mutually_exclusive_group()
    which.add_argument("--bond", type=float, action="append", dest="bonds")
    which.add_argument(
        "--limit",
        action="store_true",
        help="the large-surface-tension limit of kappa_c*sqrt(T)",
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _validate(args)
        _emit(args.format, *_DISPATCH[args.command](args))
        return 0
    except (ValueError, WaveRefinementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
