import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import pytest

import fdsw.analysis
import fdsw.hill
from fdsw.analysis import MAX_RESOLUTION, find_factor_roots, stability_diagram
from fdsw.cli import _fmt, main
from fdsw.factors import Model, index
from fdsw.hill import MAX_N_MODES


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_unstable_case(capsys):
    code, out, _ = run_cli(capsys, "index", "--model", "fdsw2", "--kappa", "2", "--bond", "0")
    assert code == 0
    assert "classification = U" in out


def test_index_stable_case(capsys):
    code, out, _ = run_cli(capsys, "index", "--model", "fdsw2", "--kappa", "0.5", "--bond", "0")
    assert code == 0
    assert "classification = S" in out


def test_index_inconclusive_on_bond_third(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--model", "fdsw2", "--kappa", "1", "--bond", "0.333333333"
    )
    assert code == 0
    assert "BondOneThird" in out
    assert "classification = Inconclusive" in out


def test_index_json_lists_both_flags_of_a_two_flag_point(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--kappa", "0.001", "--bond", "0.3333333333333333",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["flags"] == ["BondOneThird", "NearPoleI3"]
    assert record["delta"] is None
    assert record["classification"] == "Inconclusive"


def test_index_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--model", "fdsw2", "--kappa", "1.7", "--bond", "0.25",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    rep = index(Model(record["model"]), record["kappa"], record["bond"])
    assert abs(rep.delta - record["delta"]) <= 1e-12 * abs(rep.delta)
    assert record["classification"] == rep.classification


def test_index_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "index", "--model", "fdsw2", "--kappa", "-2", "--bond", "0")
    assert code == 2
    assert "kappa" in err


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "index", "--model", "whitham", "--kappa", "1.3", "--bond", "0.1")
    _, second, _ = run_cli(capsys, "index", "--model", "whitham", "--kappa", "1.3", "--bond", "0.1")
    assert first == second


def test_critical_table(capsys):
    code, out, _ = run_cli(capsys, "critical", "--model", "whitham", "--bond", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bond,kappa_c"
    kappa_c = float(lines[1].split(",")[1])
    assert kappa_c == pytest.approx(1.146, abs=0.002)


def test_critical_limit_protocol(capsys):
    code, out, _ = run_cli(capsys, "critical", "--model", "fdsw1", "--limit", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["limit"] == pytest.approx(1.054, abs=0.01)

    code, out, _ = run_cli(capsys, "critical", "--model", "fdsw2", "--limit")
    assert code == 0
    assert out == "limit = none\n"


@pytest.mark.parametrize("model,bond", [("fdsw1", "1.2e8"), ("fdch", "1.7e8")])
def test_critical_below_min_kappa_prints_a_number(capsys, model, bond):
    # kappa_c ~ y_inf/sqrt(T) is below MIN_KAPPA = 1e-4 here
    code, out, err = run_cli(capsys, "critical", "--model", model, "--bond", bond)
    assert code == 0 and err == ""
    kappa_c = float(out.split("\n")[1].split(",")[1])
    assert 9e-5 < kappa_c < 1e-4


def test_critical_limit_excludes_bond(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["critical", "--limit", "--bond", "1"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_intervals_command(capsys):
    code, out, _ = run_cli(
        capsys, "intervals", "--model", "fdsw2", "--bond", "0.2",
        "--k-lo", "0.05", "--k-hi", "30",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k_lo,k_hi,label"
    labels = [line.split(",")[2] for line in lines[1:]]
    assert labels == ["S", "U", "S", "U", "S", "U"]


def test_hill_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "hill", "--model", "fdsw2", "--xi", "0.01", "--amplitude", "0.01",
        "--kappa", "2", "--bond", "0", "--n-modes", "32",
    )
    assert code == 0
    assert "agreement = AGREES" in out
    code, out, _ = run_cli(
        capsys, "hill", "--model", "fdsw2", "--xi", "0.01", "--amplitude", "0",
        "--kappa", "1", "--bond", "0", "--n-modes", "32",
    )
    assert "growth_rate = 0" in out
    assert "agreement = AGREES" in out


def test_hill_small_kappa_fallback_agrees_with_the_index(capsys):
    # xi = 0 takes the dense solve; its quartet is the four eigenvalues nearest 0
    code, out, _ = run_cli(
        capsys, "hill", "--xi", "0", "--amplitude", "0.01", "--kappa", "0.1", "--bond", "0.2",
    )
    assert code == 0
    assert "growth_rate = 0\n" in out
    assert "agreement = AGREES" in out


def test_hill_threshold_scales_with_amplitude_squared(capsys):
    # growth 3.9e-10 at a = 1e-3 is g/a**2 = 3.9e-4, the same as at
    # a = 1e-2: the threshold 1e-8 * (a/1e-2)**2 counts it as unstable
    args = (
        "hill", "--xi", "1.5625e-5", "--amplitude", "1e-3",
        "--kappa", "2.4409949038898686", "--bond", "1.2712400379054625",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    growth = float(re.search(r"growth_rate = (\S+)", out).group(1))
    assert 3.9e-10 < growth < 3.95e-10
    assert "index_classification = U" in out
    assert "agreement = AGREES" in out
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    record = json.loads(out)
    assert record["agreement"] == "AGREES" and record["growth_rate"] == growth


def test_hill_validation(capsys):
    code, _, err = run_cli(
        capsys, "hill", "--model", "fdsw2", "--xi", "0.9", "--amplitude", "0.01",
        "--kappa", "1", "--bond", "0",
    )
    assert code == 2
    assert "xi" in err


@pytest.mark.parametrize("model", ["whitham", "fdch", "fdsw1"])
def test_hill_rejects_models_without_a_spectral_oracle(capsys, model):
    code, out, err = run_cli(
        capsys, "hill", "--model", model, "--xi", "0.01", "--amplitude", "0.01",
        "--kappa", "1.3", "--bond", "0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "fdsw2" in err


def test_diagram_files(tmp_path, capsys):
    out_path = tmp_path / "diagram.csv"
    code, _, _ = run_cli(
        capsys, "diagram", "--model", "fdsw2", "--out", str(out_path),
        "--resolution", "60",
    )
    assert code == 0
    content = out_path.read_bytes()
    lines = content.decode().splitlines()
    assert lines[0] == "kappa,kappa_sqrtT,bond,label"
    assert b"\r" not in content
    assert "2,0,0,U" in lines
    assert len(lines) == 1 + 60 * 60
    curves_path = tmp_path / "diagram_curves.csv"
    curve_lines = curves_path.read_text().splitlines()
    assert curve_lines[0] == "mechanism,kappa,kappa_sqrtT"
    r4_axis = [
        line for line in curve_lines[1:]
        if line.startswith("R4") and line.endswith(",0")
    ]
    assert any(abs(float(line.split(",")[1]) - 1.008) < 0.002 for line in r4_axis)


def test_diagram_csv_matches_grid_points(tmp_path, capsys):
    # the CSV equals one line per grid node with every field formatted by
    # _fmt, on windows whose numbers print with e+ and e- exponents, with a
    # Bond number of 0 and with every label
    wilton = find_factor_roots(Model.FDSW2, "i3", 0.2, 1.0, 1.5)[0]
    windows = [
        (Model.WHITHAM, 3.0, 3.0, 30),
        (Model.FDSW2, 2e-3, 1e-6, 5),  # e- exponents
        (Model.FDSW2, 1e20, 1e20, 4),  # e+ exponents, NearPole far out
        (Model.FDSW1, 3.0, 1e140, 4),  # e+ Bond numbers, OutsideValidity
        (Model.FDSW2, 1.5, 1.5 / math.sqrt(3.0), 2),  # Inconclusive on T = 1/3
        (Model.FDCH, wilton, wilton * math.sqrt(0.2), 4),  # NearPole at T = 0.2
    ]
    out_path = tmp_path / "d.csv"
    text, labels = "", set()
    for model, kmax, ymax, resolution in windows:
        code, _, err = run_cli(
            capsys, "diagram", "--model", model.value, "--out", str(out_path),
            "--kmax", repr(kmax), "--ymax", repr(ymax), "--resolution", str(resolution),
        )
        assert code == 0 and err == ""
        diagram = stability_diagram(model, kmax, ymax, resolution)
        lines = ["kappa,kappa_sqrtT,bond,label"] + [
            f"{_fmt(kappa)},{_fmt(y)},{_fmt(bond)},{label}"
            for kappa, row_bonds, row_labels in zip(
                diagram.kappas.tolist(), diagram.bonds.tolist(), diagram.labels.tolist()
            )
            for y, bond, label in zip(diagram.ys.tolist(), row_bonds, row_labels)
        ]
        expected = "\n".join(lines) + "\n"
        assert out_path.read_bytes() == expected.encode()
        text += expected
        labels |= set(diagram.labels.ravel())
    assert labels == {"S", "U", "NearPole", "Inconclusive", "OutsideValidity"}
    assert "e+" in text and "e-" in text
    assert re.search(r",0,[A-Za-z]+\n", text)


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"


@pytest.mark.parametrize("model", ["fdsw2", "whitham"])
def test_diagram_grid_bytes_match_bench_reference(tmp_path, capsys, model):
    # the benchmark's contract for its diagram workload: the grid CSV byte
    # for byte, and every curve point exactly (the benchmark allows 1e-9)
    reference = json.loads((REFERENCE_DIR / f"diagram-{model}.json").read_text())
    out_path, curves_path = tmp_path / "grid.csv", tmp_path / "curves.csv"
    code, _, _ = run_cli(
        capsys, "diagram", "--model", model, "--out", str(out_path),
        "--curves-out", str(curves_path),
        "--resolution", str(reference["resolution"]), "--kmax", "3.0", "--ymax", "3.0",
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == reference["grid_sha256"]
    header, *lines = curves_path.read_text().splitlines()
    assert header == "mechanism,kappa,kappa_sqrtT"
    curves = {}
    for line in lines:
        mechanism, kappa, y = line.split(",")
        curves.setdefault(mechanism, []).append([float(kappa), float(y)])
    assert {m: len(p) for m, p in curves.items()} == {
        m: len(p) for m, p in reference["curves"].items()
    }
    assert curves == reference["curves"]


def percent_template_grid(diagram) -> bytes:
    """The grid CSV as written with one "%.17g" conversion per Bond number.

    This is the row-template writer that format_g17 replaced, kept as the
    byte reference for the diagram CLI.
    """
    pieces = [""] + [f",{_fmt(y)},%.17g,%s\n" for y in diagram.ys.tolist()]
    fields = [None] * (2 * diagram.ys.size)
    rows = ["kappa,kappa_sqrtT,bond,label\n"]
    for kappa, bonds, labels in zip(diagram.kappas.tolist(), diagram.bonds, diagram.labels):
        fields[::2] = bonds.tolist()
        fields[1::2] = labels.tolist()
        rows.append(_fmt(kappa).join(pieces) % tuple(fields))
    return "".join(rows).encode()


@pytest.mark.parametrize(
    "model, kmax, ymax, resolution",
    [
        *((model, 3.0, 3.0, 600) for model in Model),
        # Bond numbers below 1e-6 (printed by %.17g itself), in e-05 and e-06
        # notation, and in fixed notation, beside the T = 0 column
        (Model.FDSW2, 3.0, 0.03, 50),
        # Bond numbers across 1e17, where fixed notation ends
        (Model.WHITHAM, 3.0, 3e9, 40),
        (Model.FDSW1, 3.0, 1e140, 4),
    ],
)
def test_diagram_grid_bytes_match_percent_template(tmp_path, capsys, model, kmax, ymax, resolution):
    out_path = tmp_path / "grid.csv"
    code, _, err = run_cli(
        capsys, "diagram", "--model", model.value, "--out", str(out_path),
        "--kmax", repr(kmax), "--ymax", repr(ymax), "--resolution", str(resolution),
    )
    assert code == 0 and err == ""
    diagram = stability_diagram(model, kmax, ymax, resolution)
    assert out_path.read_bytes() == percent_template_grid(diagram)
    bonds = diagram.bonds[diagram.bonds > 0.0]
    if resolution < 600:  # the window reaches the branch it is here for
        assert bonds.min() < 1e-6 or bonds.max() >= 1e17
    if ymax == 0.03:
        assert ((1e-6 <= bonds) & (bonds < 1e-5)).any() and ((1e-5 <= bonds) & (bonds < 1e-4)).any()


def test_diagram_rejects_curves_path_naming_the_grid_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for curves_out in ("same.csv", "./same.csv", str(tmp_path / "same.csv")):
        code, out, err = run_cli(
            capsys, "diagram", "--out", "same.csv", "--curves-out", curves_out,
            "--resolution", "4",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        # rejected before any grid work: nothing was written
        assert not (tmp_path / "same.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ("--kmax", "5e-324", "--resolution", "3"),  # the first kappa node underflows
        ("--ymax", "5e-324"),  # the curves' largest Bond number underflows
        ("--kmax", "1e-300", "--ymax", "1e-300"),
        ("--kmax", "1e-3"),  # the curves' kappa scan starts at 1e-3
    ],
)
def test_degenerate_diagram_windows_exit_2(tmp_path, capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "diagram", *args, "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: window ")
    assert "Warning" not in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "kmax, ymax, resolution",
    [
        ("1", "1e160", "600"),  # the curves' largest Bond number overflows
        ("2e-3", "1e151", "4"),  # only the grid's largest Bond number overflows
    ],
)
def test_overflowing_window_exits_2_without_a_warning(tmp_path, capsys, kmax, ymax, resolution):
    out_path = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "diagram", "--kmax", kmax, "--ymax", ymax, "--resolution", resolution,
            "--out", str(out_path),
        )
    assert code == 2
    assert out == ""
    window = f"(0.0, {float(kmax)!r}) x (0.0, {float(ymax)!r})"
    assert err == f"error: window {window} has Bond numbers beyond float range\n"
    assert not out_path.exists()


def test_hill_xi_out_of_range_message(capsys):
    for xi in ("0.6", "-0.6"):
        code, out, err = run_cli(
            capsys, "hill", "--xi", xi, "--amplitude", "0.01", "--kappa", "1",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: xi must be in [-1/2, 1/2], got {float(xi)}\n"
    # the library checks finiteness first
    code, out, err = run_cli(capsys, "hill", "--xi", "nan", "--amplitude", "0.01", "--kappa", "1")
    assert (code, out, err) == (2, "", "error: xi must be finite, got nan\n")


# Invalid invocations and the offending value each error message names.
HILL_01 = ("hill", "--xi", "0.01", "--amplitude", "0.01", "--kappa", "1")
HILL_0 = ("hill", "--xi", "0", "--amplitude", "0")
HALF_MAX_KAPPA = "at most 8.988465674311579e+307 so that 2*kappa is finite, got 1e+308"
INVALID = {
    ("index", "--kappa", "inf"): "inf",
    ("index", "--kappa", "nan"): "nan",
    ("index", "--kappa", "1", "--bond", "inf"): "inf",
    ("critical", "--bond", "nan"): "nan",
    ("diagram", "--kmax", "inf", "--out", "unused.csv"): "inf",
    ("diagram", "--ymax", "-1", "--out", "unused.csv"): "-1.0",
    ("diagram", "--ymax", "1e200", "--resolution", "2", "--out", "unused.csv"): "1e+200",
    (*HILL_01, "--n-modes", str(MAX_N_MODES + 1)): str(MAX_N_MODES + 1),
    ("index", "--kappa", "-1"): "-1.0",
    ("index", "--kappa", "0"): "0.0",
    ("index", "--kappa", "1", "--bond", "-1"): "-1.0",
    ("critical", "--bond", "-1"): "-1.0",
    ("diagram", "--kmax", "nan", "--out", "unused.csv"): "nan",
    ("diagram", "--kmax", "0", "--out", "unused.csv"): "0.0",
    ("diagram", "--ymax", "1e200", "--out", "unused.csv"): "1e+200",
    ("diagram", "--resolution", "1", "--out", "unused.csv"): "1",
    ("diagram", "--resolution", str(MAX_RESOLUTION + 1), "--out", "unused.csv"): "2001",
    (*HILL_01, "--n-modes", "7"): "7",
    ("hill", "--xi", "0.6", "--amplitude", "0.01", "--kappa", "1"): "0.6",
    # xi = a = 0 has growth 0 without a solve, but its arguments are still checked
    (*HILL_0, "--kappa", "1", "--n-modes", str(MAX_N_MODES + 1)): str(MAX_N_MODES + 1),
    (*HILL_0, "--kappa", "1", "--n-modes", "7"): "7",
    (*HILL_0, "--kappa", "nan"): "nan",
    (*HILL_0, "--kappa", "1", "--bond", "-1"): "-1.0",
    ("intervals", "--bond", "0.2", "--k-hi", "inf"): "inf",
    ("intervals", "--bond", "0.2", "--k-lo", "1e-8"): "1e-08",
    ("intervals", "--bond", "0.2", "--k-lo", "5", "--k-hi", "2"): "5.0, 2.0",
    ("intervals", "--bond", "nan"): "nan",
    ("intervals", "--bond", "-1"): "-1.0",
    ("critical", "--bond", "inf"): "inf",
    ("intervals", "--bond", "inf"): "inf",
    # the second harmonic 2*kappa overflows: the message names the kappa passed
    ("index", "--kappa", "1e308"): HALF_MAX_KAPPA,
    (*HILL_01[:-1], "1e308"): HALF_MAX_KAPPA,
}


def _no_work(*args, **kwargs):
    raise AssertionError("an invalid input reached a grid, a scan or a polish")


@pytest.mark.parametrize("args", list(INVALID))
def test_invalid_inputs_exit_2(capsys, monkeypatch, args):
    # each is rejected by value before any grid, factor scan or wave polish
    for module, name in (
        (fdsw.analysis, "_label_codes"),
        (fdsw.analysis, "_factor_roots"),
        (fdsw.hill, "polish_wave"),
    ):
        monkeypatch.setattr(module, name, _no_work)
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert INVALID[args] in err


def test_index_overflow_is_outside_validity(capsys):
    code, out, _ = run_cli(capsys, "index", "--model", "fdsw2", "--kappa", "1", "--bond", "1e300")
    assert code == 0
    assert "classification = OutsideValidity" in out


def test_hill_refinement_failure_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "hill", "--amplitude", "10", "--kappa", "1", "--xi", "0.01",
    )
    assert code == 2
    assert out == ""
    assert "did not converge" in err


def test_hill_at_the_index_pole_is_a_resonance_error(capsys):
    # inside the index's pole guard the wave expansion is singular too: the
    # command names the resonance instead of failing the polish of a huge wave
    args = ("--kappa", "0.9315858856942244", "--bond", "0.25")
    code, out, _ = run_cli(capsys, "index", *args)
    assert code == 0 and "classification = NearPole" in out
    code, out, err = run_cli(capsys, "hill", "--xi", "0.01", "--amplitude", "0.01", *args)
    assert (code, out) == (2, "")
    assert err == (
        "error: second-harmonic resonance at kappa=0.9315858856942244, bond=0.25: "
        "the wave expansion is singular here\n"
    )


def test_hill_overflowing_amplitude_prints_one_error_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "hill", "--xi", "0.01", "--amplitude", "1e300", "--kappa", "2",
        )
    assert code == 2
    assert out == ""
    assert err.startswith("error: wave refinement did not converge")
    assert err.count("\n") == 1


def test_intervals_accept_the_smallest_kappa(capsys):
    code, out, err = run_cli(capsys, "intervals", "--bond", "0.2", "--k-lo", "1e-4")
    assert code == 0 and err == ""
    lines = out.split("\n")
    assert lines[1].startswith("0.0001,")
    assert [line.rsplit(",", 1)[1] for line in lines[1:-1]] == list("SUSUSU")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize(
    "args, csv_lines",
    [
        # the README's OutsideValidity example
        (("index", "--kappa", "1", "--bond", "1e300"), ["i4 = nan", "delta = nan"]),
        (("index", "--model", "fdsw1", "--kappa", "3", "--bond", "1e140"), ["delta = -inf"]),
    ],
)
def test_json_prints_non_finite_numbers_as_null(capsys, args, csv_lines):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert code == 0 and err == ""
    record = json.loads(out, parse_constant=_reject_constant)
    nulls = [line.split(" = ")[0] for line in csv_lines]
    assert [key for key, value in record.items() if value is None] == nulls
    assert record["classification"] == "OutsideValidity"
    # the CSV output is unchanged: it prints the numbers as %.17g does
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert set(csv_lines) <= set(out.split("\n"))


def test_diagram_io_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "diagram", "--model", "fdsw2",
        "--out", str(tmp_path / "missing_dir" / "d.csv"), "--resolution", "24",
    )
    assert code == 3
    assert "i/o error" in err


@pytest.mark.parametrize(
    "args",
    [
        # i4 overflows on part of the scan: no threshold and no divergence
        ("critical", "--model", "fdsw2", "--bond", "1e154"),
        ("critical", "--model", "fdsw2", "--bond", "1e300"),
        # nothing is printed for the bond scanned before the failing one
        ("critical", "--model", "fdsw2", "--bond", "0", "--bond", "1e154"),
        # the cap is enforced by validation, before any grid is allocated
        ("diagram", "--resolution", str(MAX_RESOLUTION + 1), "--out", "unused.csv"),
        # rejected before any array work: no numpy warning precedes the error
        ("intervals", "--bond", "0.2", "--k-hi", "inf"),
        ("intervals", "--bond", "0.2", "--k-hi", "1e308"),
        # its factor scan would end beyond MAX_KAPPA
        ("diagram", "--kmax", "1e200", "--resolution", "8", "--out", "unused.csv"),
        # below MIN_KAPPA the factors are round-off and every scan node a root
        ("intervals", "--bond", "0.2", "--k-lo", "1e-8"),
        ("intervals", "--bond", "0.2", "--k-lo", "1e-200"),
    ],
)
def test_meaningless_limits_exit_2(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# The output contract of every subcommand: exact JSON key order, and the
# exact CSV lines as patterns (header, line count and layout).
NUM = r"-?\d(\.\d+)?(e[+-]\d+)?|-?\d+(\.\d+)?"
CONTRACT = {
    "index": (
        ("index", "--kappa", "2", "--bond", "0"),
        ["command", "model", "kappa", "bond", "i1", "i2", "i3", "i4", "delta", "flags",
         "classification"],
        ["model = fdsw2",
         *(f"{key} = ({NUM})" for key in ("kappa", "bond", "i1", "i2", "i3", "i4")),
         f"delta = ({NUM})", "flags = none", "classification = U"],
    ),
    "critical": (
        ("critical", "--model", "whitham", "--bond", "0", "--bond", "2"),
        ["command", "model", "results"],
        ["bond,kappa_c", f"0,({NUM})", f"2,({NUM}|divergent)"],
    ),
    "critical-limit": (
        ("critical", "--model", "fdsw1", "--limit"),
        ["command", "model", "limit"],
        [f"limit = ({NUM})"],
    ),
    "intervals": (
        ("intervals", "--bond", "0.2"),
        ["command", "model", "bond", "intervals"],
        ["k_lo,k_hi,label", *(f"({NUM}),({NUM}),{label}" for label in "SUSUSU")],
    ),
    "hill": (
        ("hill", "--xi", "0.01", "--amplitude", "0.01", "--kappa", "2"),
        ["command", "model", "kappa", "bond", "xi", "amplitude", "n_modes", "growth_rate",
         "index_classification", "agreement"],
        [f"growth_rate = ({NUM})", "index_classification = U", "agreement = AGREES"],
    ),
}
RECORD_ITEM_KEYS = {
    "critical": ("results", ["bond", "kappa_c", "divergent"]),
    "intervals": ("intervals", ["k_lo", "k_hi", "label"]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_output_contract(capsys, name, fmt):
    args, keys, patterns = CONTRACT[name]
    code, out, err = run_cli(capsys, *args, "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        assert out.count("\n") == 1 and out.endswith("\n")
        record = json.loads(out)
        assert list(record) == keys
        assert record["command"] == args[0]
        if name in RECORD_ITEM_KEYS:
            field, item_keys = RECORD_ITEM_KEYS[name]
            assert record[field] and all(list(item) == item_keys for item in record[field])
    else:
        lines = out.split("\n")
        assert lines.pop() == ""
        assert len(lines) == len(patterns)
        for line, pattern in zip(lines, patterns):
            assert re.fullmatch(pattern, line), (line, pattern)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_diagram_output_contract(tmp_path, capsys, fmt):
    grid, curves = tmp_path / "g.csv", tmp_path / "c.csv"
    code, out, err = run_cli(
        capsys, "diagram", "--out", str(grid), "--curves-out", str(curves),
        "--resolution", "12", "--format", fmt,
    )
    assert code == 0 and err == ""
    # the diagram command prints the same two lines in either format
    assert out == f"wrote 144 grid points to {grid}\nwrote curves to {curves}\n"
    grid_lines = grid.read_text().split("\n")
    assert grid_lines.pop() == ""
    assert grid_lines[0] == "kappa,kappa_sqrtT,bond,label"
    assert len(grid_lines) == 1 + 12 * 12
    label = "S|U|NearPole|Inconclusive|OutsideValidity"
    for line in grid_lines[1:]:
        assert re.fullmatch(f"({NUM}),({NUM}),({NUM}),({label})", line), line
    curve_lines = curves.read_text().split("\n")
    assert curve_lines.pop() == ""
    assert curve_lines[0] == "mechanism,kappa,kappa_sqrtT"
    assert len(curve_lines) > 1
    for line in curve_lines[1:]:
        assert re.fullmatch(f"R[1-4],({NUM}),({NUM})", line), line
