import csv
import dataclasses
import json
import shutil
import warnings

import numpy as np
import pytest

from kgbound import (NEUTRAL_PION_M0C2, ParticleSpec, PhysicalConstants,
                     PotentialSpec, SolverConfig, solve_spectrum)
from kgbound.cli import DEFAULT_AIM_CAP, MAX_AXIS_POINTS, main
from kgbound.special import MAX_RADIAL_POINTS
from kgbound.model import CouplingMode

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

    constants = PhysicalConstants()
    particle = ParticleSpec.with_compton_lambda(NEUTRAL_PION_M0C2, constants)
    pot = PotentialSpec.from_lambda_b(A=200.0, delta=0.003, lambda_b=0.003,
                                      particle=particle,
                                      mode=CouplingMode.PURE_SCALAR)
    direct = solve_spectrum(constants, particle, pot, n_max=3,
                            config=SolverConfig())
    assert payload["table"] == direct.to_payload()


def test_huge_delta_solves_without_warnings(capsys):
    # g = 1 + delta E overflows to inf; the kernel must flag it, not warn
    assert main(["solve", "--mode", "emes", "--delta=1e300"]) == 0
    assert capsys.readouterr().err == ""


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


SWEEP_PS = ["sweep", "--mode", "ps", "--axis", "delta", "--nmax=0"]


def test_sweep_axis_values_are_start_plus_k_step(capsys):
    assert main(SWEEP_PS + ["--start=-0.001", "--stop=0.0005",
                            "--step=0.0005", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert ([p["value"] for p in payload["points"]]
            == [-0.001 + k * 0.0005 for k in range(4)])


@pytest.mark.parametrize("flag", ["--step=nan", "--stop=inf",
                                  "--start=-inf"])
def test_sweep_rejects_non_finite_axis(flag, capsys):
    argv = {"--start": "--start=-0.001", "--stop": "--stop=0.001",
            "--step": "--step=0.0005"}
    argv[flag.split("=")[0]] = flag
    assert main(SWEEP_PS + list(argv.values())) == 1
    assert "must be finite" in capsys.readouterr().err


def test_sweep_rejects_axis_above_point_bound(capsys):
    # counted from (stop - start) / step, before any value exists
    assert main(SWEEP_PS + ["--start=-0.001", "--stop=0.001",
                            "--step=1e-300"]) == 1
    assert f"more than {MAX_AXIS_POINTS} points" in capsys.readouterr().err
    # a step below the spacing of doubles near start never passes stop
    assert main(SWEEP_PS + ["--start=1.0", "--stop=1.0",
                            "--step=1e-300"]) == 1
    assert f"more than {MAX_AXIS_POINTS} points" in capsys.readouterr().err


def test_solver_defaults_come_from_solver_config(capsys):
    assert main(["solve", "--mode", "ps", "--nmax=0", "--format", "json"]) == 0
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    defaults = dataclasses.asdict(SolverConfig())
    assert {k: manifest[k] for k in defaults} == defaults
    assert main(["solve", "--mode", "ps", "--nmax=0", "--format", "json",
                 "--tol-energy=1e-10"]) == 0
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    assert manifest["tol_energy"] == 1e-10
    assert manifest["max_iter"] == defaults["max_iter"]
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    assert f"(default {SolverConfig().tol_energy})" in capsys.readouterr().out


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


def test_wavefunction_points_above_bound_is_usage_error(capsys):
    # rejected before the cell is solved or any radius exists
    assert main(["wavefunction", "--mode", "ps", "--n=0", "--l=0",
                 "--points=1000000000"]) == 1
    err = capsys.readouterr().err
    assert f"--points must be in [16, {MAX_RADIAL_POINTS}]" in err
    assert "Traceback" not in err


def test_wavefunction_infinite_r_max_is_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wavefunction", "--mode", "ps", "--n=0", "--l=0",
                     "--points=64", "--r-max", "inf"]) == 1
    err = capsys.readouterr().err
    assert "--r-max must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    # g r rounds to 0 at the first radius past the origin
    (["--mode", "ps", "--n=0", "--l=0", "--r-max=7.4e-323", "--delta=-0.005",
      "--line", "upper"], "g r underflows to 0"),
    # V and m c^2 overflow to -inf at subnormal radii
    (["--mode", "emes", "--n=1", "--l=0", "--r-max=1e-320", "--format",
      "json"], "V is not finite"),
])
def test_wavefunction_at_vanishing_radii_is_domain_error(argv, message,
                                                         capsys):
    assert main(["wavefunction", "--points=16"] + argv) == 1
    out, err = capsys.readouterr()
    assert f"kgbound: error: {message}" in err
    assert out == ""


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


def test_aim_verify_perturbed_tau_on_a_lower_level_is_no_alarm(capsys):
    # This draw has eta = 60, where 1.01 tau_40 = tau_39 exactly, so level
    # 40 terminates at the perturbed tau as exact arithmetic demands.
    assert main(["aim-verify", "--nmax=40", "--cap=40", "--seeds=1",
                 "--seed=248", "--perturb"]) == 2
    out = capsys.readouterr().out
    assert "level n=40: 1/1 perturbed seeds terminate" in out
    assert "certificate: FAIL" in out
    assert "warning" not in out


def test_aim_verify_honors_level_cap(capsys):
    assert main(["aim-verify", "--nmax", str(DEFAULT_AIM_CAP + 1)]) == 1
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


def test_lambda_is_not_settable(tmp_path, capsys):
    # lambda is always hbar_c / m0c2; the coupling is set by lambda_b alone,
    # and --lambda is not taken as an abbreviation of --lambda-b
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--mode", "ps", "--lambda=1.5"])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --lambda=1.5" in capsys.readouterr().err
    cfg = tmp_path / "lambda.cfg"
    cfg.write_text("mode = ps\nlambda = 1.5\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "unknown key 'lambda'" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["solve", "--mode", "ps",
                 "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


# The 14 keys a --config file may set, each the long name of a flag; keys
# are case-insensitive and '-' and '_' are interchangeable.
CONFIG_VALUES = {
    "mode": ("ps", "emes"), "branch": ("plus", "minus"),
    "m0c2": ("130.0", "135.0"),
    "a": ("180.0", "190.0"), "delta": ("0.001", "-0.001"),
    "lambda_b": ("0.002", "-0.002"), "hbar_c": ("197.0", "198.0"),
    "grid_points": ("800", "900"), "tol_energy": ("1e-10", "2e-10"),
    "tol_residual": ("1e-8", "2e-8"), "max_iter": ("60", "70"),
    "window_margin": ("1e-6", "2e-6"), "nmax": ("1", "2"), "lmax": ("0", "1"),
}
FLAG_NAMES = {"a": "--A", "lambda_b": "--lambda-b"}


def _config_text(which, spell=lambda key: key):
    return "".join(f"{spell(key)} = {values[which]}\n"
                   for key, values in CONFIG_VALUES.items())


def _flags(which):
    return [f"{FLAG_NAMES.get(key, '--' + key.replace('_', '-'))}="
            f"{values[which]}" for key, values in CONFIG_VALUES.items()]


def _solve_json(argv, capsys):
    assert main(["solve", "--format", "json"] + argv) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["manifest"]["timestamp"]
    return payload


def test_config_accepts_every_key_as_its_flag(tmp_path, capsys):
    cfg = tmp_path / "all.cfg"
    # mixed case and '-' for '_' must not matter
    cfg.write_text(_config_text(0, lambda k: k.upper().replace("_", "-")),
                   encoding="utf-8")
    from_file = _solve_json(["--config", str(cfg)], capsys)
    assert from_file == _solve_json(_flags(0), capsys)
    manifest = from_file["manifest"]
    assert (manifest["lambda"], manifest["A"]) == (197.0 / 130.0, 180.0)
    assert (manifest["delta"], manifest["lambda_b"]) == (0.001, 0.002)
    assert (manifest["nmax"], manifest["lmax"]) == (1, 0)
    assert manifest["branch"] == "plus" and manifest["grid_points"] == 800


def test_config_flags_outrank_the_file(tmp_path, capsys):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(_config_text(0), encoding="utf-8")
    assert (_solve_json(["--config", str(cfg)] + _flags(1), capsys)
            == _solve_json(_flags(1), capsys))


@pytest.mark.parametrize("key", ["grid_points", "max_iter", "nmax", "lmax"])
def test_config_int_key_rejects_fraction(key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"mode = ps\n{key} = 3.5\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config key {key!r}: cannot parse '3.5'" in err
    assert "Traceback" not in err


def test_config_delta_is_allowed_with_paper_grid(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("mode = ps\ndelta = 0.003\nlambda-b = 0.003\n",
                   encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--paper-grid"]) == 0
    assert "# command: solve --paper-grid" in capsys.readouterr().out
    assert main(["solve", "--config", str(cfg), "--paper-grid",
                 "--delta=0.003"]) == 1
    assert "drop the explicit" in capsys.readouterr().err


def test_config_is_read_by_wavefunction_and_sweep(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # wavefunction has no --nmax; the key is accepted and has no effect
    cfg.write_text("mode = ps\ndelta = 0.002\nlambda_b = 0.001\nnmax = 1\n",
                   encoding="utf-8")
    assert main(["wavefunction", "--config", str(cfg), "--n=0", "--l=0",
                 "--points=32", "--format", "json"]) == 0
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    assert (manifest["mode"], manifest["delta"]) == ("ps", 0.002)
    assert manifest["lambda_b"] == 0.001
    assert main(["sweep", "--config", str(cfg), "--axis", "delta",
                 "--start=0.0", "--stop=0.0", "--step=0.001",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["mode"] == "ps"
    assert payload["manifest"]["nmax"] == 1
    assert payload["manifest"]["fixed_lambda_b"] == 0.001
    assert len(payload["points"][0]["table"]["cells"]) == 3


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "ps", "--nmax=0"],
    ["solve", "--mode", "pv", "--check", fixture_path("pv")],
])
def test_unwritable_output_is_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    assert main(argv + ["--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert f"kgbound: error: cannot write {target}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-300"])
def test_check_tol_must_be_finite_and_non_negative(tol, capsys):
    assert main(["solve", "--mode", "pv", "--check", fixture_path("pv"),
                 f"--check-tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert "--check-tol must be finite and non-negative" in captured.err
    assert "check:" not in captured.out


@pytest.mark.parametrize("m0c2", ["0", "-0.0", "-1"])
def test_non_positive_m0c2_is_usage_error(m0c2, capsys):
    # checked before lambda = hbar_c / m0c2 divides by it
    assert main(["solve", "--mode", "ps", f"--m0c2={m0c2}"]) == 1
    err = capsys.readouterr().err
    assert "kgbound: error: m0c2 must be positive" in err
    assert "Traceback" not in err


def test_wavefunction_warns_when_node_count_is_not_n(capsys):
    # c > 0 puts all n roots of the polynomial on r > 0; the grid sign
    # changes of a degree-60 line fall short of them
    argv = ["wavefunction", "--mode", "ps", "--n=60", "--l=0", "--points=100"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    nodes = {line.split("nodes=")[1].split()[0]
             for line in out.splitlines() if line.startswith("# line ")}
    assert len(nodes) == 1 and nodes != {"60"}
    count = nodes.pop()
    assert err == "".join(f"kgbound: warning: {name} line has {count} "
                          f"sign changes on the grid, but n=60\n"
                          for name in ("lower", "upper"))
    # a line whose count is n, and a minus-branch line with c < 0
    for argv in (["wavefunction", "--mode", "ps", "--n=3", "--l=1"],
                 ["wavefunction", "--mode", "ps", "--A=60", "--n=1",
                  "--l=0", "--branch", "minus"]):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
