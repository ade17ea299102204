import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbound import (NEUTRAL_PION_M0C2, ParticleSpec, PhysicalConstants,
                     PotentialSpec, SolverConfig, solve_spectrum)
from kgbound.rootfind import CellResult, SpectrumTable, solve_spectra
from kgbound import cli, rootfind
from kgbound.cli import (CSV_CHUNK_ROWS, DEFAULT_AIM_CAP, GRID_VALUES,
                         MAX_AXIS_POINTS, PaddedColumn, main, write_csv)
from kgbound.special import MAX_RADIAL_POINTS
from kgbound.model import CouplingMode
from kgbound.quantization import SpectrumEntry

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


def _run_main(argv):
    """(rc, stdout, stderr) of one main() call, each call on fresh streams."""
    return _run_main_on(argv, io.StringIO())


def _run_main_on(argv, stdout):
    """(rc, stdout, stderr) of one main() call on the given stdout."""
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, stdout.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_of_a_process():
    # a good command, an argparse usage error, --version, the good command
    # again: the parser built by the first call must answer each of them
    # as a freshly built one does, on the streams of the call itself
    commands = (["aim-verify", "--nmax", "2", "--seeds", "2"],
                ["aim-verify", "--nmax", "x"],
                ["--version"],
                ["aim-verify", "--nmax", "2", "--seeds", "2"])
    fresh = []
    for argv in commands:
        cli._shared_parser.cache_clear()
        fresh.append(_run_main(argv))
    assert [rc for rc, _, _ in fresh] == [0, 1, 0, 0]
    assert "invalid int value" in fresh[1][2]
    cli._shared_parser.cache_clear()
    assert [_run_main(argv) for argv in commands] == fresh
    assert cli._shared_parser.cache_info().misses == 1


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


# sha256 of `solve --mode M --paper-grid` as CSV.  Two runs agreeing says
# nothing about a change that moves every run alike; these pins hold the
# bytes across commits.  Re-pin only with the reason in CHANGES.md.
PAPER_GRID_SHA256 = {
    "emes": "3216ed4e5a5cb132d3580ad939b47250772092228ea574ff30b9f53f529ff37c",
    "emos": "ae9e5242240edeb2221eadcab5db50420901e215a7cc3004e297fb459cd7eee1",
    "pv": "8e2a0c966d2a107c780286c49f9ab37fef5a1b158b521e18bc483e8ec89079e2",
    "ps": "2568ed38118b2de32c1a8acc3680a113c172f3bbc12b20646e160f3dcee512b1",
}


@pytest.mark.parametrize("mode", sorted(PAPER_GRID_SHA256))
def test_paper_grid_csv_bytes_are_pinned(tmp_path, mode):
    out = tmp_path / "grid.csv"
    assert main(["solve", "--mode", mode, "--paper-grid",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        PAPER_GRID_SHA256[mode]


# sha256 of `sweep ... --format json`, taken before the sweep's brackets
# were refined in lock step.  Every mode and both branches; the first,
# third and last refine enough brackets to take the lock step, and the
# last two hold failed entries (77 and 28).
SWEEP_JSON_SHA256 = [
    (["--mode", "emes", "--axis", "delta", "--start=-0.003", "--stop=0.003",
      "--step=0.0005", "--nmax=3"],
     "a4b86046efe781c89027136e2a58deac07cde589573055c8b856d1fb62bb452b"),
    (["--mode", "emos", "--axis", "lambda_b", "--start=-0.004",
      "--stop=0.004", "--step=0.001", "--A=300", "--delta=0.002",
      "--branch", "minus", "--nmax=3"],
     "9a2f5e7a57691e4f38975322181d21e80b7f0e16b8ce79d95290e4b82579e3ec"),
    (["--mode", "pv", "--axis", "delta", "--start=0", "--stop=0.004",
      "--step=0.0005", "--A=150", "--lambda-b=0.001", "--branch", "minus",
      "--nmax=5"],
     "eec89c5f9fe38c1f9790ff52d77bd2aecb526eab80f6957e220003b458c55a8f"),
    (["--mode", "ps", "--axis", "delta", "--start=0", "--stop=0.002",
      "--step=0.001", "--nmax=2", "--max-iter=8", "--tol-energy=1e-300",
      "--tol-residual=1e-300"],
     "b675b93e1ead1930ac86886b2954a34be6aae92c4696a91cd2e2a7d3deb4037e"),
    (["--mode", "emes", "--axis", "delta", "--start=-0.003", "--stop=0.003",
      "--step=0.0005", "--nmax=3", "--max-iter=8", "--tol-energy=1e-300",
      "--tol-residual=1e-300"],
     "1511fe3cf8ca334e8d54fd1d657289e8c1f3e4a8d38f70ca3e0f187e379144f0"),
]


@pytest.mark.parametrize("argv, digest", SWEEP_JSON_SHA256)
def test_sweep_json_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep"] + argv + ["--format", "json", "--output",
                                    str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, spectra", [
    (["solve", "--mode", "ps", "--nmax=100000"], 1),
    (["sweep", "--mode", "ps", "--axis", "delta", "--start=0",
      "--stop=0.002", "--step=0.001", "--nmax=100000"], 3),
])
def test_too_many_cells_are_refused_before_any_is_built(argv, spectra,
                                                        capsys, monkeypatch):
    # 5e9 cells per spectrum: without the bound the test fails here, before
    # the cell list is built
    def listed(*args):
        raise AssertionError("the cell list was built")

    monkeypatch.setattr(rootfind, "spectrum_cells", listed)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"kgbound: error: n_max=100000, l_max=None over {spectra} "
                   f"spectrum(s) is {spectra * 5000150001} cells, more than "
                   f"the {rootfind.MAX_CELLS} one command solves\n")


def test_sweep_reports_the_first_error_in_point_order(capsys):
    # delta = 0 solves, and its brackets are refined before the overflow
    # at delta = 1e300 is raised
    assert main(["sweep", "--mode", "emes", "--axis", "delta", "--start=0",
                 "--stop=1e300", "--step=1e300", "--nmax=1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("kgbound: error: residual nan at E=0.033752687921980495 "
                   "in cell (n=0, l=0): an input overflows double precision\n")


@pytest.mark.parametrize("argv", [
    # k2 = alpha^2 (w^2 - 2w) is inf - inf
    ["solve", "--mode", "emos", "--A=1e308", "--nmax=1"],
    ["solve", "--mode", "emos", "--A=1e308", "--nmax=0"],
    ["sweep", "--mode", "emos", "--A=1e308", "--nmax=1", "--axis", "delta",
     "--start=0", "--stop=0.001", "--step=0.001"],
    ["solve", "--mode", "emos", "--delta=-1e308", "--lambda-b=1e308",
     "--nmax=1"],
    # alpha = A / hbar_c is inf
    ["solve", "--mode", "pv", "--hbar-c=1e-320"],
])
def test_non_finite_coefficients_are_a_domain_error(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("kgbound: error: coefficients alpha=")
    assert err.endswith(": an input overflows double precision\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "ps", "--nmax=2"],
    ["solve", "--mode", "emos", "--delta=0.003", "--nmax=1",
     "--format", "json"],
    ["sweep", "--mode", "pv", "--axis", "lambda_b", "--start=0.0",
     "--stop=0.002", "--step=0.001", "--nmax=1"],
    ["wavefunction", "--mode", "ps", "--n=1", "--l=0", "--points=64"],
])
def test_output_is_byte_stable(argv, tmp_path):
    # an output depends only on its argv: no clock, no run-to-run state.
    # Two runs within one second would share a clock's reading, so the
    # date itself must not appear either.
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    today = datetime.now(timezone.utc).date().isoformat()
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    for day in {today, datetime.now(timezone.utc).date().isoformat()}:
        assert day.encode() not in a.read_bytes()


def test_json_states_each_input_once(capsys):
    # the manifest echoes the inputs; tables hold only their cells
    entry_keys = {f.name for f in dataclasses.fields(SpectrumEntry)}
    assert "branch" not in entry_keys
    assert main(["solve", "--mode", "ps", "--nmax=1", "--branch", "minus",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["branch"] == "minus"
    assert set(payload["table"]) == {"cells"}
    for cell in payload["table"]["cells"]:
        assert set(cell) == {"n", "l", "entries"}
        for entry in cell["entries"]:
            assert set(entry) == entry_keys

    assert main(["solve", "--mode", "ps", "--paper-grid",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["branch"] == "plus"
    assert ([(t["delta"], t["lambda_b"]) for t in payload["tables"]]
            == [(d, b) for d in GRID_VALUES for b in GRID_VALUES])
    for table in payload["tables"]:
        assert set(table) == {"delta", "lambda_b", "cells"}


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


def write_fixture(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def pv_fixture_rows():
    with open(fixture_path("pv"), encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("keep, missing", [
    (0, 18),    # an empty file
    (1, 18),    # the header alone
    (17, 2),    # the last block's two lines dropped
])
def test_check_counts_each_solved_block_without_a_fixture_row(
        keep, missing, tmp_path, capsys):
    fixture = tmp_path / "short.csv"
    write_fixture(fixture, pv_fixture_rows()[:keep])
    assert main(["solve", "--mode", "pv", "--check", str(fixture)]) == 3
    out = capsys.readouterr().out
    assert out.count("MISSING fixture row") == missing
    assert f"check: FAIL ({missing} mismatches" in out
    if keep == 17:
        assert ("MISSING fixture row delta=0.00300 lambda_b=0.00300 upper\n"
                in out)


def test_check_refuses_a_header_lacking_an_energy_column(tmp_path, capsys):
    rows = pv_fixture_rows()
    col = rows[0].index("E33")
    fixture = tmp_path / "no_e33.csv"
    write_fixture(fixture, [row[:col] + row[col + 1:] for row in rows])
    assert main(["solve", "--mode", "pv", "--check", str(fixture)]) == 1
    captured = capsys.readouterr()
    assert "malformed fixture" in captured.err and "lacks E33" in captured.err
    assert "check:" not in captured.out


@pytest.mark.parametrize("field, value", [
    ("delta", "abc"), ("E11", "abc"), ("E11", "nan"), ("E11", "inf")])
def test_check_refuses_a_malformed_fixture_row(field, value, tmp_path,
                                               capsys):
    rows = pv_fixture_rows()
    rows[1][rows[0].index(field)] = value
    fixture = tmp_path / "bad_row.csv"
    write_fixture(fixture, rows)
    assert main(["solve", "--mode", "pv", "--check", str(fixture)]) == 1
    captured = capsys.readouterr()
    assert "malformed fixture row" in captured.err
    assert "check:" not in captured.out


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


def test_huge_delta_is_a_domain_error_without_warnings(capsys):
    # delta E overflows and K = 0 * inf is NaN at every valid scan node: a
    # residual that is not a number is refused, not read as "no root"
    assert main(["solve", "--mode", "emes", "--delta=1e300"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("kgbound: error: residual") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # residuals near 1e200: their products in the scan overflow
    ["--mode", "emos", "--A=2.4241658830338614e+287",
     "--hbar-c=2.255277768092945e+170", "--m0c2=1.6272639648371856e+143",
     "--delta=-2.2215949413666025e-234",
     "--lambda-b=-4.1486868896324757e-187"],
    # den = 0 at a pole node next to den = -inf
    ["--mode", "emos", "--A=4.0306430240365194e-115",
     "--hbar-c=5.352007356757907e-152", "--m0c2=1.173689402962899e+39",
     "--delta=-1.5942460270078323e+255",
     "--lambda-b=-1.8041930359473994e-291", "--branch", "minus"],
])
def test_extreme_finite_residuals_scan_without_warnings(argv, capsys):
    assert main(["solve", "--nmax=0"] + argv) == 0
    assert capsys.readouterr().err == ""


def test_window_whose_margin_rounds_away_is_scanned_inside_it(capsys):
    # -m0c2 + 1e-6 rounds to -m0c2; the scan starts one double inside
    assert main(["solve", "--mode", "pv", "--nmax=0", "--m0c2=1e300"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("absent,eta complex over the whole window") == 2


def test_window_wider_than_the_largest_double_is_a_domain_error(capsys):
    assert main(["solve", "--mode", "ps", "--nmax=0", "--m0c2=1e308"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("kgbound: error: energy window (")
    assert err.endswith(") is wider than the largest double\n")
    assert err.count("\n") == 1


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


def test_sweep_rejects_stop_below_start(capsys):
    assert main(["sweep", "--mode", "emes", "--axis", "delta",
                 "--start", "0.003", "--stop", "0.0", "--step", "0.001"]) == 1
    assert "--stop must not be below --start" in capsys.readouterr().err


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


@pytest.mark.parametrize("axis,flag", [("lambda_b", "--lambda-b=nan"),
                                       ("delta", "--delta=inf")])
def test_sweep_rejects_non_finite_flag_of_swept_quantity(axis, flag, capsys):
    # the axis overrides the flag, but the manifest records it
    assert main(["sweep", "--mode", "ps", "--axis", axis, "--start=0.0",
                 "--stop=0.0", "--step=0.001", "--nmax=0", flag]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_sweep_rejects_axis_above_point_bound(capsys):
    # counted from (stop - start) / step, before any value exists
    assert main(SWEEP_PS + ["--start=-0.001", "--stop=0.001",
                            "--step=1e-300"]) == 1
    assert f"more than {MAX_AXIS_POINTS} points" in capsys.readouterr().err


def test_sweep_axis_whose_span_overflows_is_usage_error(capsys):
    # three points, but stop - start is past the largest double
    assert main(SWEEP_PS + ["--start=-1e308", "--stop=1e308",
                            "--step=1e308"]) == 1
    err = capsys.readouterr().err
    assert "axis span --stop - --start = 1e+308 - -1e+308 overflows" in err
    assert "more than" not in err


@pytest.mark.parametrize("start,step", [(1e300, 1.0), (1.0, 1e-300)])
def test_sweep_axis_of_one_point_needs_no_step(start, step, capsys):
    # start == stop is one point however little the step would advance it
    assert main(SWEEP_PS + [f"--start={start!r}", f"--stop={start!r}",
                            f"--step={step!r}", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["value"] for p in payload["points"]] == [start]


def test_sweep_step_below_spacing_of_doubles_is_usage_error(capsys):
    # 45 points by the quotient, but 1 + k * 1e-17 rounds back to 1.0
    assert main(SWEEP_PS + ["--start=1.0", "--stop=1.0000000000000004",
                            "--step=1e-17"]) == 1
    out, err = capsys.readouterr()
    assert "--step=1e-17 does not advance the axis value 1.0" in err
    assert out == ""


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


CSV_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                              5e-324, 1e16, 1e-5]) | st.floats()
CSV_TEXT = (st.text(st.sampled_from(',"\r\n a'), max_size=4)
            | st.text(max_size=4))
CSV_VALUES = (st.none() | st.integers(-10 ** 30, 10 ** 30) | CSV_FLOATS
              | CSV_TEXT)


@st.composite
def csv_tables(draw):
    """(header, columns): float arrays, padded float arrays and lists of
    Python values, tiled from small drawn pools to chunk-sized lengths."""
    nrows = draw(st.sampled_from([0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                  CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    header = draw(st.lists(CSV_TEXT, min_size=2, max_size=5))
    columns = []
    for _ in header:
        kind = draw(st.sampled_from(["array", "padded", "values"]))
        if kind == "values":
            pool = draw(st.lists(CSV_VALUES, min_size=1, max_size=12))
            columns.append([pool[k] for k in rng.integers(len(pool),
                                                          size=nrows)])
            continue
        pool = np.array(draw(st.lists(CSV_FLOATS, min_size=1, max_size=12)))
        blanks = draw(st.integers(0, nrows)) if kind == "padded" else 0
        values = pool[rng.integers(len(pool), size=nrows - blanks)]
        columns.append(PaddedColumn(blanks, values) if kind == "padded"
                       else values)
    return header, columns


@settings(deadline=None)
@given(csv_tables())
def test_write_csv_equals_csv_writer(table):
    header, columns = table
    got = io.StringIO()
    write_csv(got, header, columns)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c if isinstance(c, list) else c.tolist()
                           for c in columns)))
    # the first differing line, not pytest's slow diff of the whole text
    lines = itertools.zip_longest(got.getvalue().split("\n"),
                                  want.getvalue().split("\n"))
    assert next(((k, a, b) for k, (a, b) in enumerate(lines) if a != b),
                None) is None


JSON_RESIDUALS = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan,
                                math.inf, -math.inf]), st.floats())
JSON_ENERGIES = st.floats(allow_nan=False, allow_infinity=False)
# quotes, backslashes, control characters, non-ASCII (also outside the
# basic plane) and everything else
JSON_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from('"\\/\x00\x01\x1f\x7f\b\f\n\r\t'
                                     'a \u00e9\u2028\ufffd\U0001f600')),
    st.text())
LINES = ["lower", "upper"]
STATUSES = ["converged", "absent", "failed"]


@st.composite
def json_sweeps(draw):
    """Tables of one layout, as the points of a sweep: their entries agree
    in every field but the energy and the residual, drawn per table.
    Each entry of the layout differs from one base entry in at most one
    field, and each cell from one base cell in n or in l."""
    base = (draw(st.sampled_from(LINES)), draw(st.sampled_from(STATUSES)),
            draw(st.integers(0, 10 ** 20)), draw(JSON_TEXT))
    variants = [base] + [
        base[:k] + (draw(field),) + base[k + 1:]
        for k, field in enumerate((st.sampled_from(LINES),
                                   st.sampled_from(STATUSES),
                                   st.integers(0, 10 ** 20), JSON_TEXT))]
    n, l = draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 10 ** 6))
    layout = [(cell_n, cell_l, draw(st.lists(st.sampled_from(variants),
                                             min_size=2, max_size=4)))
              for cell_n, cell_l in draw(st.lists(st.sampled_from(
                  [(n, l), (n + 1, l), (n, l + 1)]), max_size=4))]
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        cells = []
        for n, l, fields in layout:
            # an absent line holds no float, as the solver makes it
            entries = [SpectrumEntry(
                n=n, l=l, line=line,
                energy=(draw(JSON_ENERGIES) if status == "converged"
                        else None if status == "absent"
                        else draw(st.one_of(st.none(), JSON_ENERGIES))),
                residual_at_root=(None if status == "absent"
                                  else draw(JSON_RESIDUALS)),
                iterations=iterations, status=status, detail=detail)
                for line, status, iterations, detail in fields]
            cells.append(CellResult(n=n, l=l, lower=entries[0],
                                    upper=entries[1],
                                    extras=tuple(entries[2:])))
        tables.append(SpectrumTable(cells=tuple(cells)))
    return tables


@settings(deadline=None)
@given(tables=json_sweeps(), picks=st.lists(st.integers(0, 2), max_size=5),
       manifest=st.dictionaries(JSON_TEXT, st.one_of(
           st.none(), st.booleans(), st.integers(), JSON_RESIDUALS,
           JSON_TEXT), max_size=4))
def test_write_json_equals_json_dumps_of_the_payload(tables, picks,
                                                     manifest):
    points = [(k * 0.5, tables[k % len(tables)]) for k in picks]
    document = {"manifest": manifest, "axis": "delta",
                "table": {"cells": tables[0].cells},
                "points": [{"value": v, "table": {"cells": t.cells}}
                           for v, t in points],
                "tables": [{"delta": v, "cells": t.cells}
                           for v, t in points]}
    want = json.dumps({
        "manifest": manifest, "axis": "delta",
        "table": tables[0].to_payload(),
        "points": [{"value": v, "table": t.to_payload()} for v, t in points],
        "tables": [{"delta": v, **t.to_payload()} for v, t in points]})
    got = io.StringIO()
    cli.write_json(got, document)
    assert got.getvalue() == want + "\n"


def _json_tables_through_main(capsys):
    """(stdout, payload) of a solve, a paper-grid and a sweep with failed
    entries, the payload built from the library's own tables."""
    constants = PhysicalConstants()
    particle = ParticleSpec.with_compton_lambda(NEUTRAL_PION_M0C2, constants)

    def pot(mode, delta, lambda_b):
        return PotentialSpec(A=cli.DEFAULT_A, delta=delta, lambda_b=lambda_b,
                             mode=CouplingMode.parse(mode))

    assert main(["solve", "--mode", "emos", "--delta=0.002", "--branch",
                 "minus", "--nmax=4", "--format", "json"]) == 0
    table = solve_spectrum(constants, particle, pot("emos", 0.002, 0.0),
                           n_max=4, branch="minus")
    yield capsys.readouterr().out, {"table": table.to_payload()}

    assert main(["solve", "--mode", "ps", "--paper-grid",
                 "--format", "json"]) == 0
    yield capsys.readouterr().out, {"tables": [
        {"delta": d, "lambda_b": b,
         **solve_spectrum(constants, particle, pot("ps", d, b),
                          n_max=3).to_payload()}
        for d in GRID_VALUES for b in GRID_VALUES]}

    assert main(["sweep", "--mode", "ps", "--axis", "delta", "--start=0",
                 "--stop=0.002", "--step=0.001", "--nmax=2", "--max-iter=8",
                 "--tol-energy=1e-300", "--tol-residual=1e-300",
                 "--format", "json"]) == 0
    values = [0.0, 0.001, 0.002]
    config = SolverConfig(max_iter=8, tol_energy=1e-300, tol_residual=1e-300)
    tables = solve_spectra(constants, particle,
                           [pot("ps", v, 0.0) for v in values], n_max=2,
                           config=config)
    yield capsys.readouterr().out, {"axis": "delta", "points": [
        {"value": v, "table": t.to_payload()}
        for v, t in zip(values, tables)]}


def test_json_tables_equal_json_dumps_of_their_payload(capsys):
    failed = 0
    for out, payload in _json_tables_through_main(capsys):
        manifest = json.loads(out)["manifest"]
        assert out == json.dumps({"manifest": manifest, **payload}) + "\n"
        failed += out.count('"status": "failed"')
    assert failed > 0


def _bits(value):
    return None if value is None else float(value).hex()


@pytest.mark.parametrize("extra,to_file", [
    (["--line", "both"], False), (["--line", "lower"], False),
    (["--normalize"], False), (["--line", "both"], True)])
def test_wavefunction_csv_fields_equal_json_values(extra, to_file, tmp_path,
                                                   capsys):
    argv = ["wavefunction", "--mode", "ps", "--n=2", "--l=1",
            "--delta=0.003", "--points=300"] + extra

    def run(fmt):
        path = tmp_path / f"wf.{fmt}"
        out = ["--output", str(path)] if to_file else []
        assert main(argv + ["--format", fmt] + out) == 0
        return path.read_text(encoding="utf-8") if to_file \
            else capsys.readouterr().out

    rows = list(csv.reader(line for line in run("csv").splitlines()
                           if not line.startswith("#")))
    payload = json.loads(run("json"))
    expected = [("r", payload["r"])] + [
        (f"{col}_{blk['line']}", blk[col])
        for blk in payload["lines"] for col in ("u", "V", "mc2")]
    assert rows[0] == [name for name, _ in expected]
    assert len(rows) == 301
    for k, (_, values) in enumerate(expected):
        fields = [row[k] for row in rows[1:]]
        assert [_bits(v) for v in values] == [_bits(f or None) for f in fields]
    # the r = 0 row: V and mc2 blank in CSV, null in JSON
    assert rows[1][2:4] == ["", ""]
    assert all(blk["V"][0] is None and blk["mc2"][0] is None
               for blk in payload["lines"])


def test_solve_csv_detail_round_trips_to_json(capsys):
    argv = ["solve", "--mode", "emes", "--nmax=3"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert '"single root, negative"' in text
    rows = list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))
    assert main(argv + ["--format", "json"]) == 0
    entries = [e for cell in json.loads(capsys.readouterr().out)["table"]
               ["cells"] for e in cell["entries"]]
    assert [r["detail"] for r in rows] == [e["detail"] for e in entries]
    assert "single root, negative" in [r["detail"] for r in rows]


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


WAVE_N60 = ["wavefunction", "--mode", "ps", "--n=60", "--l=0",
            "--line", "upper"]


def test_wavefunction_reads_zero_where_u_underflows(capsys):
    # 1F1(-60; c; x) passes the largest double near x = 1e6 while u itself
    # has long underflowed; the polynomial is carried in scaled form
    assert main(WAVE_N60 + ["--r-max=2e8", "--points=100000",
                            "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert "overflows" not in err
    u = json.loads(out)["lines"][0]["u"]
    nonzero = np.flatnonzero(u)
    assert nonzero.size > 0 and np.isfinite(u).all()
    assert not any(u[nonzero[-1] + 1:])
    assert len(u) - nonzero[-1] > 90_000


def test_wavefunction_underflowing_on_every_sample_is_an_error(capsys):
    assert main(WAVE_N60 + ["--r-max=1e9", "--points=100"]) == 2
    out, err = capsys.readouterr()
    assert err == "kgbound: wave function vanished on the whole grid\n"
    assert out == ""


@pytest.mark.parametrize("grid", [["--r-max=1e200", "--points=100"],
                                  ["--r-max=1e130", "--points=1000"]])
def test_wavefunction_past_a_polynomial_overflow_vanishes(grid, capsys):
    # one unscaled recurrence step would overflow at these radii
    assert main(WAVE_N60 + grid) == 2
    out, err = capsys.readouterr()
    assert err == "kgbound: wave function vanished on the whole grid\n"
    assert out == ""


@pytest.mark.parametrize("argv,name", [(["--n=-1", "--l=0"], "n"),
                                       (["--n=0", "--l=-1"], "l")])
def test_negative_quantum_number_is_usage_error(argv, name, capsys):
    assert main(["wavefunction", "--mode", "ps"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"kgbound: error: {name} must be a non-negative integer, "
                   "got -1\n")


def test_unknown_mode_names_the_modes(capsys):
    assert main(["solve", "--mode", "nope"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("kgbound: error: unknown coupling mode 'nope'; expected "
                   "one of emes, emos, pv, ps\n")


def test_wavefunction_with_hbar_c_squared_underflowing_is_a_domain_error(
        capsys):
    assert main(["wavefunction", "--mode", "emes", "--n=0", "--l=0",
                 "--A=1e-300", "--hbar-c=1e-300", "--points=16"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "underflows double precision" in err and "Traceback" not in err


def test_wavefunction_requires_present_line(capsys):
    rc = main(["wavefunction", "--mode", "emos", "--n", "0", "--l", "0",
               "--line", "lower"])
    assert rc == 2
    assert "absent" in capsys.readouterr().err


def test_wavefunction_with_both_lines_absent_is_an_error(capsys):
    # eta is complex over the whole pv (0, 0) window
    assert main(["wavefunction", "--mode", "pv", "--n=0", "--l=0"]) == 2
    assert ("no spectral line found for (n=0, l=0) in mode pv"
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("flag, message", [
    ("--cap=-1", "--cap must be non-negative"),
    ("--nmax=-1", "--nmax must be non-negative"),
    ("--seeds=0", "--seeds must be at least 1"),
])
def test_aim_verify_rejects_out_of_range_counts(flag, message, capsys):
    assert main(["aim-verify", flag]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_aim_verify_honors_level_cap(capsys):
    assert main(["aim-verify", "--nmax", str(DEFAULT_AIM_CAP + 1)]) == 1
    assert "exceeds the level cap" in capsys.readouterr().err


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_EMPTY_SHA256 = _sha256("")

# (argv, rc, sha256 of stdout, sha256 of stderr) of `aim-verify`, taken on
# the Fraction-coefficient Poly before it moved to integer numerators over
# one denominator.  The last success pin is level 32, the default cap.
AIM_VERIFY_SHA256 = [
    (["--nmax", "8", "--seeds", "5"], 0,
     "fc240abab485c9b4879adaf2cbc40ff1a0ebe38507a91804b402d9a4de2cfd89",
     _EMPTY_SHA256),
    (["--nmax", "12", "--seeds", "5", "--seed", "47"], 0,
     "ff5d860b40579fc2a3e287362870030f4314e6d12c6b0689c57acb00fa489baf",
     _EMPTY_SHA256),
    (["--nmax", "12", "--seeds", "5", "--seed", "47", "--perturb"], 2,
     "868fddee8187f1d29b06dab35fb81f6ed4ecdb451febf804a43ef9685de55b5c",
     _EMPTY_SHA256),
    (["--nmax", "32", "--seeds", "1"], 0,
     "57fe60b68c4a956de76b874000e2c6d0a91ebfcb7b86937fde92413802fdc69d",
     _EMPTY_SHA256),
    (["--nmax=-1"], 1, _EMPTY_SHA256,
     "dfa5afeed41e17c7016efb226c06cdd501c9d372e980ddfa130865119ddd8fe1"),
    (["--seeds=0"], 1, _EMPTY_SHA256,
     "1e4450909f177bfd4ebd572aab2a024bd2fbed6f42adca3829a1fd8856069408"),
    (["--nmax", "33"], 1, _EMPTY_SHA256,
     "ce51c1d4020365a1ffd931daa7650a74e6533a206e81cc6c5effb8db5b5aef7a"),
]


@pytest.mark.parametrize("argv, rc, out_digest, err_digest", AIM_VERIFY_SHA256)
def test_aim_verify_outputs_are_pinned(argv, rc, out_digest, err_digest,
                                       capsys):
    assert main(["aim-verify"] + argv) == rc
    captured = capsys.readouterr()
    assert (_sha256(captured.out), _sha256(captured.err)) == \
        (out_digest, err_digest)


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


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text("mode = ps\ndelta 0.003\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["solve", "--mode", "ps",
                 "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text, message", [
    ("--config", b"mode = ps\n\xff\n", "cannot read config"),
    ("--check", b"delta,lambda_b\n\xff\n", "cannot read fixture"),
])
def test_undecodable_input_file_is_usage_error(flag, text, message, tmp_path,
                                               capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text)
    assert main(["solve", "--mode", "ps", flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kgbound: error: {message} {path}: 'utf-8' codec")
    assert err.count("\n") == 1


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
    return json.loads(capsys.readouterr().out)


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


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")


# One command per way output reaches stdout: the table writer (CSV and
# JSON), the --check report and aim-verify's text.
STDOUT_COMMANDS = [
    ["solve", "--mode", "ps", "--nmax=1"],
    ["solve", "--mode", "pv", "--check", fixture_path("pv")],
    ["wavefunction", "--mode", "ps", "--n=2", "--l=1", "--points=20000"],
    ["sweep", "--mode", "ps", "--axis", "delta", "--start=0", "--stop=0.001",
     "--step=0.001", "--format", "json"],
    ["aim-verify", "--nmax", "2", "--seeds", "1"],
]


@needs_dev_full
@pytest.mark.parametrize("argv", STDOUT_COMMANDS)
def test_full_stdout_is_usage_error(argv):
    # buffered as a real stdout is, so the error may come at the last flush
    err = io.StringIO()
    with open("/dev/full", "w", encoding="utf-8") as stdout:
        with (contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(err)):
            assert main(argv) == 1
        # the buffer still holds what it could not write; the flush on
        # close, like the interpreter's at exit, must find os.devnull
        assert (os.fstat(stdout.fileno()).st_rdev
                == os.stat(os.devnull).st_rdev)
    assert err.getvalue() == ("kgbound: error: cannot write stdout: "
                              "[Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv", STDOUT_COMMANDS)
def test_stdout_closed_by_its_reader_exits_1_silently(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    err = io.StringIO()
    with open(write_end, "w", encoding="utf-8") as stdout:
        with (contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(err)):
            assert main(argv) == 1
        # the descriptor now writes to os.devnull, so the flush on close,
        # like the interpreter's at exit, meets no closed pipe
        assert (os.fstat(write_end).st_rdev
                == os.stat(os.devnull).st_rdev)
    assert err.getvalue() == ""


def _run_cli(argv, stdout):
    """Run the CLI in a new interpreter, whose stdout is flushed at exit
    as the console script's is.  PYTHONUNBUFFERED is dropped: unbuffered,
    every write fails at once and nothing is left for that flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "kgbound.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@needs_dev_full
def test_full_stdout_exits_1_in_a_real_process():
    with open("/dev/full", "w") as full:
        proc = _run_cli(["solve", "--mode", "ps"], full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.decode() == ("kgbound: error: cannot write stdout: "
                            "[Errno 28] No space left on device\n")


def test_stdout_closed_by_its_reader_exits_1_in_a_real_process():
    proc = _run_cli(["wavefunction", "--mode", "ps", "--n=2", "--l=1",
                     "--points=20000"], subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


class _RaisingStdout(io.StringIO):
    """A stdout whose every write raises error."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


# argparse prints these itself, inside parse_args, and drops the OSError
# of its own write
PARSER_STDOUT_COMMANDS = [["--version"], ["--help"], ["solve", "--help"]]


@pytest.mark.parametrize("argv", PARSER_STDOUT_COMMANDS)
def test_parser_output_to_a_full_stdout_is_usage_error(argv):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    rc, _, err = _run_main_on(argv, _RaisingStdout(full))
    assert rc == 1
    assert err == f"kgbound: error: cannot write stdout: {full}\n"


@pytest.mark.parametrize("argv", PARSER_STDOUT_COMMANDS)
def test_parser_output_to_a_closed_pipe_exits_1_silently(argv):
    rc, _, err = _run_main_on(argv, _RaisingStdout(BrokenPipeError()))
    assert (rc, err) == (1, "")


@pytest.mark.parametrize("argv", PARSER_STDOUT_COMMANDS)
def test_parser_output_is_printed_with_exit_0(argv):
    rc, out, err = _run_main(argv)
    assert (rc, err) == (0, "")
    assert out.startswith("kgbound " if argv == ["--version"] else "usage:")


@needs_dev_full
@pytest.mark.parametrize("argv", PARSER_STDOUT_COMMANDS)
def test_parser_output_to_dev_full_exits_1_in_a_real_process(argv):
    with open("/dev/full", "w") as full:
        proc = _run_cli(argv, full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.decode() == ("kgbound: error: cannot write stdout: "
                            "[Errno 28] No space left on device\n")


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


def test_m0c2_whose_lambda_overflows_names_m0c2(capsys):
    # lambda is derived as hbar_c / m0c2; no flag sets it
    assert main(["solve", "--mode", "ps", "--m0c2=1e-320"]) == 1
    err = capsys.readouterr().err
    assert ("kgbound: error: m0c2=1e-320 MeV gives lambda = hbar_c / m0c2 "
            "= inf fm") in err


def line_nodes(out):
    return [line.split("nodes=")[1].split()[0]
            for line in out.splitlines() if line.startswith("# line ")]


def test_wavefunction_warns_when_node_count_is_not_n(capsys):
    # c > 0 puts all n roots of the polynomial on r > 0; the grid sign
    # changes of a degree-60 line fall short of them
    argv = ["wavefunction", "--mode", "ps", "--n=60", "--l=0", "--points=100"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    nodes = set(line_nodes(out))
    assert len(nodes) == 1 and nodes != {"60"}
    count = nodes.pop()
    assert err == "".join(f"kgbound: warning: {name} line has {count} "
                          f"sign changes on the grid, but n=60\n"
                          for name in ("lower", "upper"))
    # a line whose count is n
    assert main(["wavefunction", "--mode", "ps", "--n=3", "--l=1"]) == 0
    assert capsys.readouterr().err == ""
    # a minus-branch line with c < 0 is refused, not counted
    assert main(["wavefunction", "--mode", "ps", "--A=60", "--n=1", "--l=0",
                 "--branch", "minus"]) == 1
    assert "not regular at the origin" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # the upper line's a is -5.0000000104, off an integer by 1e-8; the
    # degree comes from the cell, so no e^x tail adds a sixth node
    ["--n=5", "--l=5", "--delta=0.000601", "--lambda-b=-0.001438"],
    # the power series loses every digit at n = 60; the recurrence does not
    ["--n=60", "--l=0"],
], ids=["a-off-integer", "n60"])
def test_wavefunction_has_n_nodes_on_a_fine_grid(argv, capsys):
    assert main(["wavefunction", "--mode", "ps", "--points=20000"] + argv) == 0
    out, err = capsys.readouterr()
    n = argv[0].split("=")[1]
    assert line_nodes(out) == [n, n]
    assert err == ""


@pytest.mark.parametrize("mode,argv", [
    ("ps", ["--n=1", "--l=0"]),      # eta = -1.085, c < 0
    ("emes", ["--n=1", "--l=0"]),    # eta = -1, c = 0
    ("emos", ["--n=0", "--l=1"]),    # eta = -2
    ("pv", ["--n=0", "--l=1"]),      # eta = -1.969
], ids=["ps", "emes", "emos", "pv"])
def test_wavefunction_refuses_a_line_singular_at_the_origin(mode, argv,
                                                            capsys):
    # with eta + 1 <= 0, (g r)^(eta + 1) does not vanish at r = 0
    assert main(["wavefunction", "--mode", mode, "--A=60", "--branch",
                 "minus"] + argv) == 1
    out, err = capsys.readouterr()
    assert "kgbound: error: u is not regular at the origin (eta = -" in err
    assert out == ""


# ---------------------------------------------------------------- argv fuzz

# Hostile values for every float flag: zeros, extremes, non-numbers,
# subnormals, ordinary values and a word.
FUZZ_FLOATS = ("0", "-0.0", "1e308", "-1e308", "nan", "inf", "-inf",
               "5e-324", "1e-300", "1e-9", "0.003", "-0.003", "134.977",
               "200", "x")
# The sweep axis: mostly valid, so that some sweeps run, and at most 4
# points when valid.
FUZZ_AXIS = ("-0.003", "0", "0.003", "0.006", "nan", "inf", "-1e308",
             "1e308", "5e-324", "x")
# Integer flags take values no larger than a few cells or grid points cost.
FUZZ_INTS = {"grid_points": ("-1", "99", "100", "400", "1000001"),
             "max_iter": ("7", "8", "50"), "nmax": ("-1", "0", "1", "3"),
             "lmax": ("-1", "0", "2"), "n": ("-1", "0", "1", "3"),
             "l": ("-1", "0", "2"), "points": ("15", "16", "200", "100001"),
             "aim_nmax": ("-1", "0", "4", "33"), "cap": ("-1", "0", "32"),
             "seeds": ("0", "1", "2"), "seed": ("0", "7")}


def _option_values(option):
    if option.choices:
        return option.choices + ("bogus",)
    if option.dest == "mode":
        return tuple(m.value for m in CouplingMode) + ("bogus",)
    return FUZZ_FLOATS if option.kind is float else FUZZ_INTS[option.dest]


@pytest.fixture(scope="session")
def fuzz_flags(tmp_path_factory):
    """Per subcommand, (required, optional) flags and their values; None
    stands for a switch without a value."""
    home = tmp_path_factory.mktemp("fuzz")
    good, latin1 = home / "good.cfg", home / "latin1.cfg"
    good.write_text("mode = ps\nnmax = 1\n", encoding="utf-8")
    latin1.write_bytes(b"mode = ps\n\xff\n")
    files = (str(good), str(latin1), str(home / "missing"))

    def table(options):
        return [(o.flag, _option_values(o)) for o in options]

    # --mode is always given, as a command without one is refused at once
    mode = table(o for o in cli._PHYSICS_OPTIONS if o.dest == "mode")
    model = (table(o for o in cli._PHYSICS_OPTIONS + cli._SOLVER_OPTIONS
                   if o.dest != "mode")
             + [("--config", files), ("--format", ("csv", "json", "x"))])
    ranges = table(cli._RANGE_OPTIONS)
    return {
        "solve": (mode, model + ranges + [
            ("--paper-grid", (None,)),
            ("--check", (fixture_path("pv"),) + files[1:]),
            ("--check-tol", FUZZ_FLOATS), ("--allow-extra-roots", (None,))]),
        "wavefunction": (
            mode + [("--n", FUZZ_INTS["n"]), ("--l", FUZZ_INTS["l"])],
            model + [("--line", ("lower", "upper", "both", "x")),
                     ("--r-max", FUZZ_FLOATS),
                     ("--points", FUZZ_INTS["points"]),
                     ("--normalize", (None,))]),
        "sweep": (
            mode + [("--axis", ("delta", "lambda_b", "x"))]
            + [(flag, FUZZ_AXIS) for flag in ("--start", "--stop", "--step")],
            model + ranges),
        "aim-verify": ([], [
            ("--nmax", FUZZ_INTS["aim_nmax"]), ("--cap", FUZZ_INTS["cap"]),
            ("--seeds", FUZZ_INTS["seeds"]), ("--seed", FUZZ_INTS["seed"]),
            ("--perturb", (None,))]),
    }


@st.composite
def fuzz_argv(draw, flags):
    command = draw(st.sampled_from(sorted(flags)))
    required, optional = flags[command]
    argv = [command]
    for flag, values in required + optional:
        # one optional flag in four, so that some commands succeed
        if (flag, values) in optional and draw(st.integers(0, 3)):
            continue
        value = draw(st.sampled_from(values))
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_argv_maps_to_an_exit_code(fuzz_flags, data):
    argv = data.draw(fuzz_argv(fuzz_flags))
    rc, out, err = _run_main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc, err)
    assert "Traceback" not in err
    if rc == 0 and argv[0] != "aim-verify":
        assert not NON_FINITE.search(out), (argv, NON_FINITE.search(out))
