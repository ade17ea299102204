import csv
import json
import shutil

import numpy as np
import pytest

from kgbound import (NEUTRAL_PION_M0C2, ParticleSpec, PhysicalConstants,
                     PotentialSpec, SolverConfig, solve_spectrum)
from kgbound.cli import main
from kgbound.model import CouplingMode
from kgbound.rootfind import SpectrumTable

from conftest import fixture_path


def read_table(path):
    """Manifest comment lines, then parsed CSV rows (header first)."""
    comments = []
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(next(csv.reader([line])))
    return comments, rows


def test_version_reports_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "kgbound" in capsys.readouterr().out


def test_missing_mode_is_usage_error(capsys):
    assert main(["solve"]) == 1
    assert "--mode is required" in capsys.readouterr().err


def test_unknown_mode_is_usage_error(capsys):
    assert main(["solve", "--mode", "vector"]) == 1


def test_paper_grid_csv_is_byte_stable(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["solve", "--mode", "emes", "--paper-grid",
                 "--output", str(a)]) == 0
    assert main(["solve", "--mode", "emes", "--paper-grid",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    comments, rows = read_table(a)
    assert not any("timestamp" in c for c in comments)
    assert any(c.startswith("# command: solve --paper-grid") for c in comments)
    header, data = rows[0], rows[1:]
    assert header == ["delta", "lambda_b", "line", "E00", "E10", "E11",
                      "E20", "E21", "E22", "E30", "E31", "E32", "E33"]
    assert len(data) == 18
    assert all(len(r) == 13 for r in data)
    assert [r[2] for r in data] == ["lower", "upper"] * 9


def test_paper_grid_reports_absent_cells(tmp_path):
    out = tmp_path / "emos.csv"
    assert main(["solve", "--mode", "emos", "--paper-grid",
                 "--output", str(out)]) == 0
    _, rows = read_table(out)
    for row in rows[1:]:
        cells = row[3:]
        if row[1] in ("-0.00300", "0.00000"):
            assert cells == ["None"] * 10
        elif row[2] == "upper":
            assert any(cell != "None" for cell in cells)
        else:
            assert cells == ["None"] * 10


def test_paper_grid_rejects_explicit_delta(capsys):
    assert main(["solve", "--mode", "emes", "--paper-grid",
                 "--delta", "0.003"]) == 1
    assert "drop the explicit" in capsys.readouterr().err


def test_check_passes_on_matching_fixture(capsys):
    rc = main(["solve", "--mode", "pv",
               "--check", str(fixture_path("pv"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check: PASS (0 mismatches" in out


def test_check_flags_extra_root_unless_allowed(tmp_path, capsys):
    # one genuine root sits where the reference table reports none, so the
    # strict comparison must fail and the explicit opt-out must pass
    rc = main(["solve", "--mode", "emes",
               "--check", str(fixture_path("emes"))])
    out = capsys.readouterr().out
    assert rc == 3
    assert "EXTRA" in out and "E33 lower" in out
    assert "check: FAIL (1 mismatches" in out

    rc = main(["solve", "--mode", "emes",
               "--check", str(fixture_path("emes")), "--allow-extra-roots"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(allowed)" in out
    assert "check: PASS (0 mismatches" in out


def test_check_catches_doctored_fixture(tmp_path, capsys):
    doctored = tmp_path / "doctored.csv"
    shutil.copy(fixture_path("pv"), doctored)
    with open(doctored, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("E11")
    for row in rows[1:]:
        if row[col] != "None":
            row[col] = f"{float(row[col]) + 0.1:.5f}"
            break
    with open(doctored, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    rc = main(["solve", "--mode", "pv", "--check", str(doctored)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "DEVIATION" in out


def test_check_missing_fixture_is_usage_error(tmp_path, capsys):
    rc = main(["solve", "--mode", "pv",
               "--check", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "cannot read fixture" in capsys.readouterr().err


def test_solve_json_round_trips(tmp_path):
    out = tmp_path / "ps.json"
    assert main(["solve", "--mode", "ps", "--delta", "0.003",
                 "--lambda-b", "0.003", "--format", "json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    restored = SpectrumTable.from_payload(payload["table"])

    constants = PhysicalConstants()
    particle = ParticleSpec.with_compton_lambda(NEUTRAL_PION_M0C2, constants)
    pot = PotentialSpec.from_lambda_b(A=200.0, delta=0.003, lambda_b=0.003,
                                      particle=particle,
                                      mode=CouplingMode.PURE_SCALAR)
    direct = solve_spectrum(constants, particle, pot, n_max=3,
                            config=SolverConfig())
    assert restored == direct


def test_sweep_single_point_matches_solve(tmp_path):
    sweep_out = tmp_path / "sweep.json"
    solve_out = tmp_path / "solve.json"
    assert main(["sweep", "--mode", "emes", "--axis", "delta",
                 "--start", "0.003", "--stop", "0.003", "--step", "0.001",
                 "--format", "json", "--output", str(sweep_out)]) == 0
    assert main(["solve", "--mode", "emes", "--delta", "0.003",
                 "--format", "json", "--output", str(solve_out)]) == 0
    sweep = json.loads(sweep_out.read_text(encoding="utf-8"))
    solve = json.loads(solve_out.read_text(encoding="utf-8"))
    assert len(sweep["points"]) == 1
    assert sweep["points"][0]["value"] == 0.003
    assert sweep["points"][0]["table"] == solve["table"]


def test_sweep_rejects_bad_step(capsys):
    assert main(["sweep", "--mode", "emes", "--axis", "delta",
                 "--start", "0.0", "--stop", "0.003", "--step", "0.0"]) == 1
    assert "--step must be positive" in capsys.readouterr().err


def test_solve_accepts_spaced_negative_exponent(capsys):
    base = ["solve", "--mode", "ps", "--nmax", "1", "--format", "json"]
    assert main(base + ["--delta", "-5e-05"]) == 0
    spaced = json.loads(capsys.readouterr().out)
    assert main(base + ["--delta=-5e-05"]) == 0
    joined = json.loads(capsys.readouterr().out)
    assert spaced["manifest"]["delta"] == -5e-05
    assert spaced["table"] == joined["table"]
    with pytest.raises(SystemExit) as exit_info:
        main(base + ["--delta", "-x"])
    assert exit_info.value.code == 1


def test_sweep_accepts_spaced_negative_exponent(capsys):
    assert main(["sweep", "--mode", "ps", "--axis", "delta", "--nmax", "0",
                 "--start", "-5e-3", "--stop", "-5e-3", "--step", "0.001",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["value"] for p in payload["points"]] == [-5e-3]


def test_grid_points_above_bound_is_usage_error(capsys):
    # rejected while the options are resolved, before any grid exists
    assert main(["solve", "--mode", "ps", "--nmax=0",
                 "--grid-points=1000000000"]) == 1
    assert "grid_points" in capsys.readouterr().err


def test_wavefunction_csv_layout(tmp_path):
    out = tmp_path / "wf.csv"
    assert main(["wavefunction", "--mode", "ps", "--n", "0", "--l", "0",
                 "--points", "64", "--output", str(out)]) == 0
    comments, rows = read_table(out)
    line_comments = [c for c in comments if c.startswith("# line ")]
    assert len(line_comments) == 2
    assert line_comments[0].startswith("# line lower:")
    assert line_comments[1].startswith("# line upper:")
    for c in line_comments:
        assert "nodes=0" in c and "tail_ratio=" in c

    header, data = rows[0], rows[1:]
    assert header == ["r", "u_lower", "V_lower", "mc2_lower",
                      "u_upper", "V_upper", "mc2_upper"]
    assert len(data) == 64
    origin = data[0]
    assert float(origin[0]) == 0.0
    assert float(origin[1]) == 0.0 and float(origin[4]) == 0.0
    assert origin[2] == "" and origin[3] == ""
    assert origin[5] == "" and origin[6] == ""
    interior = data[32]
    assert interior[2] != "" and interior[3] != ""


def test_wavefunction_requires_present_line(capsys):
    rc = main(["wavefunction", "--mode", "emos", "--n", "0", "--l", "0",
               "--line", "lower"])
    assert rc == 2
    assert "absent" in capsys.readouterr().err


def test_wavefunction_normalize(tmp_path):
    out = tmp_path / "wf.json"
    assert main(["wavefunction", "--mode", "emes", "--n", "1", "--l", "0",
                 "--line", "upper", "--points", "400", "--normalize",
                 "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    r = np.asarray(payload["r"])
    u = np.asarray(payload["lines"][0]["u"])
    assert payload["lines"][0]["line"] == "upper"
    assert np.trapezoid(u * u, r) == pytest.approx(1.0, rel=1e-12)


def test_aim_verify_certificate_passes(capsys):
    assert main(["aim-verify", "--nmax", "2", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "certificate: PASS" in out
    assert "level n=2: 2/2 seeds terminate exactly -> PASS" in out


def test_aim_verify_perturbed_tau_fails(capsys):
    assert main(["aim-verify", "--nmax", "1", "--seeds", "1",
                 "--perturb"]) == 2
    out = capsys.readouterr().out
    assert "certificate: FAIL" in out
    assert "0/1 perturbed seeds terminate" in out


def test_aim_verify_honors_level_cap(capsys):
    assert main(["aim-verify", "--nmax", "9"]) == 1
    assert "exceeds the level cap" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# solver setup\n"
                   "mode = ps\n"
                   "delta = 0.003\n"
                   "grid-points = 512\n",
                   encoding="utf-8")
    out = tmp_path / "a.json"
    assert main(["solve", "--config", str(cfg), "--format", "json",
                 "--output", str(out)]) == 0
    manifest = json.loads(out.read_text(encoding="utf-8"))["manifest"]
    assert manifest["mode"] == "ps"
    assert manifest["delta"] == 0.003
    assert manifest["grid_points"] == 512

    # explicit flags outrank the config file
    assert main(["solve", "--config", str(cfg), "--delta", "-0.003",
                 "--format", "json", "--output", str(out)]) == 0
    manifest = json.loads(out.read_text(encoding="utf-8"))["manifest"]
    assert manifest["delta"] == -0.003
    assert manifest["grid_points"] == 512

    # absent everywhere falls back to the built-in defaults
    assert main(["solve", "--mode", "ps", "--format", "json",
                 "--output", str(out)]) == 0
    manifest = json.loads(out.read_text(encoding="utf-8"))["manifest"]
    assert manifest["delta"] == 0.0
    assert manifest["grid_points"] == 4000


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling = emes\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["solve", "--mode", "ps",
                 "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err
