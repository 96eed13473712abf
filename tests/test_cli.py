import json

import pytest

from fdsw.analysis import stability_diagram
from fdsw.cli import main
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
    assert record["verdict"] == "Converged"
    assert record["limit"] == pytest.approx(1.054, abs=0.01)

    code, out, _ = run_cli(capsys, "critical", "--model", "fdsw2", "--limit", "--format", "json")
    record = json.loads(out)
    assert record["verdict"] == "Divergent"


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


def test_hill_validation(capsys):
    code, _, err = run_cli(
        capsys, "hill", "--model", "fdsw2", "--xi", "0.9", "--amplitude", "0.01",
        "--kappa", "1", "--bond", "0",
    )
    assert code == 2
    assert "xi" in err


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
    # the streamed CSV equals one line per GridPoint, formatted as _fmt does
    out_path = tmp_path / "d.csv"
    code, _, _ = run_cli(
        capsys, "diagram", "--model", "whitham", "--out", str(out_path), "--resolution", "30",
    )
    assert code == 0
    diagram = stability_diagram(Model.WHITHAM, resolution=30)
    lines = ["kappa,kappa_sqrtT,bond,label"] + [
        f"{p.kappa:.17g},{p.kappa_sqrtT:.17g},{p.bond:.17g},{p.label}" for p in diagram.grid
    ]
    assert out_path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "args",
    [
        ("index", "--kappa", "inf"),
        ("index", "--kappa", "nan"),
        ("index", "--kappa", "1", "--bond", "inf"),
        ("critical", "--bond", "nan"),
        ("diagram", "--kmax", "inf", "--out", "unused.csv"),
        ("diagram", "--ymax", "-1", "--out", "unused.csv"),
        ("diagram", "--ymax", "1e200", "--resolution", "2", "--out", "unused.csv"),
        # the cap is enforced by validation, before any matrix is allocated
        ("hill", "--xi", "0.01", "--amplitude", "0.01", "--kappa", "1",
         "--n-modes", str(MAX_N_MODES + 1)),
    ],
)
def test_invalid_inputs_exit_2(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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


def test_diagram_io_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "diagram", "--model", "fdsw2",
        "--out", str(tmp_path / "missing_dir" / "d.csv"), "--resolution", "24",
    )
    assert code == 3
    assert "i/o error" in err
