"""Command line interface.

Subcommands:
    solve         bound-state spectrum for one parameter set or the
                  reference 3 x 3 (delta, lambda_b) grid (--paper-grid)
    wavefunction  radial wave function u(r) for one (n, l) cell
    sweep         spectrum along a delta or lambda_b axis
    aim-verify    exact termination certificate of the iteration scheme

Exit codes: 0 success, 1 usage or domain problem, 2 convergence or
evaluation failure (including a requested line that is absent), 3 fixture
mismatch beyond tolerance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__, aim
from .errors import (AbsentError, BranchError, ConvergenceError, DomainError,
                     EvaluationError)
from .model import (DEFAULT_HBAR_C, NEUTRAL_PION_M0C2, CouplingMode,
                    ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers, mass_at, vector_potential)
from .quantization import build_residual_spec
from .rootfind import SolverConfig, solve_cell, solve_spectrum
from .special import (MAX_RADIAL_POINTS, build_wave_solution, default_r_max,
                      grid_report, normalize_on_grid, wavefunction_grid)

GRID_VALUES = (-0.003, 0.0, 0.003)
GRID_NMAX = 3
GRID_CELLS = tuple((n, l) for n in range(GRID_NMAX + 1) for l in range(n + 1))
DEFAULT_A = 200.0
DEFAULT_CHECK_TOL = 0.02
DEFAULT_AIM_CAP = 32
MAX_AXIS_POINTS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit code 1.

    argparse's own negative-number pattern has no exponent, so it would read
    "--delta -5e-05" as two options; subparsers inherit the wider pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_physics_options(p: argparse.ArgumentParser):
    p.add_argument("--mode", default=None,
                   help="coupling mode: emes, emos, pv, or ps")
    p.add_argument("--m0c2", type=float, default=None,
                   help=f"rest energy in MeV (default {NEUTRAL_PION_M0C2})")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="length scale lambda in fm (default hbar_c / m0c2)")
    p.add_argument("--A", dest="A", type=float, default=None,
                   help=f"potential strength in MeV fm (default {DEFAULT_A})")
    p.add_argument("--delta", type=float, default=None,
                   help="energy-dependence tuning in 1/MeV (default 0)")
    p.add_argument("--lambda-b", dest="lambda_b", type=float, default=None,
                   help="mass coupling product lambda*b in 1/MeV (default 0)")
    p.add_argument("--hbar-c", dest="hbar_c", type=float, default=None,
                   help=f"hbar c in MeV fm (default {DEFAULT_HBAR_C})")
    p.add_argument("--branch", choices=("plus", "minus"), default=None,
                   help="sign branch of eta (default plus)")
    p.add_argument("--config", default=None,
                   help="key = value file supplying defaults for any option")


_SOLVER_OPTIONS = (
    ("grid_points", int, "scan grid size"),
    ("tol_energy", float, "energy tolerance in MeV"),
    ("tol_residual", float, "residual tolerance in MeV"),
    ("max_iter", int, "refinement iteration cap"),
    ("window_margin", float, "margin kept from the window edges in MeV"),
)


def _add_solver_options(p: argparse.ArgumentParser):
    defaults = SolverConfig()
    for name, kind, text in _SOLVER_OPTIONS:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                       default=None,
                       help=f"{text} (default {getattr(defaults, name)})")


def _add_output_options(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None,
                   help="write to this file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="kgbound",
                     description="Bound states of the Klein-Gordon equation "
                                 "with energy-dependent Coulomb-like potentials.")
    parser.add_argument("--version", action="version",
                        version=f"kgbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the bound-state spectrum")
    _add_physics_options(p)
    _add_solver_options(p)
    _add_output_options(p)
    p.add_argument("--nmax", type=int, default=None,
                   help="largest radial quantum number (default 3)")
    p.add_argument("--lmax", type=int, default=None,
                   help="cap on l inside the triangular layout (default: l <= n)")
    p.add_argument("--paper-grid", dest="paper_grid", action="store_true",
                   help="solve the reference 3 x 3 (delta, lambda_b) grid "
                        "and emit the wide table layout")
    p.add_argument("--check", default=None, metavar="FIXTURE",
                   help="compare the reference grid against a fixture CSV "
                        "(implies --paper-grid)")
    p.add_argument("--check-tol", dest="check_tol", type=float, default=None,
                   help=f"per-cell tolerance in MeV for --check "
                        f"(default {DEFAULT_CHECK_TOL})")
    p.add_argument("--allow-extra-roots", dest="allow_extra", action="store_true",
                   help="with --check, do not fail when a root is found "
                        "where the fixture has none")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("wavefunction", help="radial wave function of one cell")
    _add_physics_options(p)
    _add_solver_options(p)
    _add_output_options(p)
    p.add_argument("--n", type=int, required=True, help="radial quantum number")
    p.add_argument("--l", type=int, required=True, help="orbital quantum number")
    p.add_argument("--line", choices=("lower", "upper", "both"), default="both",
                   help="which spectral line(s) to evaluate (default both)")
    p.add_argument("--r-max", dest="r_max", type=float, default=None,
                   help="largest radius in fm (default: automatic)")
    p.add_argument("--points", type=int, default=2000,
                   help="radial grid size (default 2000)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale u so its squared trapezoid integral over "
                        "the grid is 1 (plotting convenience)")
    p.set_defaults(handler=_cmd_wavefunction)

    p = sub.add_parser("sweep", help="spectrum along a parameter axis")
    _add_physics_options(p)
    _add_solver_options(p)
    _add_output_options(p)
    p.add_argument("--axis", choices=("delta", "lambda_b"), required=True,
                   help="parameter to sweep")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--nmax", type=int, default=None,
                   help="largest radial quantum number (default 3)")
    p.add_argument("--lmax", type=int, default=None,
                   help="cap on l inside the triangular layout (default: l <= n)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("aim-verify",
                       help="exact termination certificate (symbolic)")
    p.add_argument("--nmax", type=int, default=4,
                   help="highest level to certify (default 4)")
    p.add_argument("--cap", type=int, default=DEFAULT_AIM_CAP,
                   help=f"refuse levels above this (default {DEFAULT_AIM_CAP})")
    p.add_argument("--seeds", type=int, default=5,
                   help="random rational (eta, beta^2) draws per level")
    p.add_argument("--seed", type=int, default=20260816,
                   help="random generator seed")
    p.add_argument("--perturb", action="store_true",
                   help="offset tau by 1%% to demonstrate the certificate "
                        "failing off the eigenvalue")
    p.set_defaults(handler=_cmd_aim_verify)
    return parser


def load_config(path: str) -> dict:
    """Parse a key = value file; '#' starts a comment, blank lines skip."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise _UsageError(f"cannot read config {path}: {err}")
    table = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        table[key] = value.strip()
    return table


_CONFIG_KEYS = {
    "mode", "branch", "m0c2", "lambda", "a", "delta", "lambda_b", "hbar_c",
    "grid_points", "tol_energy", "tol_residual", "max_iter", "window_margin",
    "nmax", "lmax",
}
_CONFIG_ALIAS = {"lam": "lambda", "A": "a"}
_INT_KEYS = {"grid_points", "max_iter", "nmax", "lmax"}


def _pick(args, cfg: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    key = _CONFIG_ALIAS.get(name, name)
    if key in cfg:
        raw = cfg[key]
        if name in ("mode", "branch"):
            return raw
        caster = int if key in _INT_KEYS else float
        try:
            return caster(raw)
        except ValueError:
            raise _UsageError(f"config key {key!r}: cannot parse {raw!r}")
    return default


def _resolve_inputs(args, need_mode: bool = True):
    """Merge CLI flags, config file, and defaults into model objects."""
    cfg = load_config(args.config) if args.config else {}
    hbar_c = _pick(args, cfg, "hbar_c", DEFAULT_HBAR_C)
    m0c2 = _pick(args, cfg, "m0c2", NEUTRAL_PION_M0C2)
    constants = PhysicalConstants(hbar_c=hbar_c)
    lam = _pick(args, cfg, "lam", None)
    if lam is None:
        particle = ParticleSpec.with_compton_lambda(m0c2, constants)
    else:
        particle = ParticleSpec(m0c2=m0c2, lam=lam)
    A = _pick(args, cfg, "A", DEFAULT_A)
    delta = _pick(args, cfg, "delta", 0.0)
    lambda_b = _pick(args, cfg, "lambda_b", 0.0)
    mode_name = _pick(args, cfg, "mode", None)
    if need_mode and mode_name is None:
        raise _UsageError("--mode is required (emes, emos, pv, or ps)")
    mode = CouplingMode.parse(mode_name) if mode_name is not None else None
    branch = _pick(args, cfg, "branch", "plus")
    supplied = {name: _pick(args, cfg, name, None)
                for name, _, _ in _SOLVER_OPTIONS}
    config = SolverConfig(**{name: value for name, value in supplied.items()
                             if value is not None})
    return constants, particle, A, delta, lambda_b, mode, branch, config, cfg


def _base_manifest(command: str, constants, particle, A, mode, branch,
                   config, stamped: bool) -> dict:
    manifest = {
        "command": command,
        "version": __version__,
        "hbar_c": constants.hbar_c,
        "m0c2": particle.m0c2,
        "lambda": particle.lam,
        "A": A,
        "mode": mode.value if mode is not None else None,
        "branch": branch,
        "grid_points": config.grid_points,
        "tol_energy": config.tol_energy,
        "tol_residual": config.tol_residual,
        "max_iter": config.max_iter,
        "window_margin": config.window_margin,
    }
    if stamped:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
    return manifest


def _manifest_comments(manifest: dict) -> list:
    return [f"# {key}: {value}" for key, value in manifest.items()]


def _emit(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt_cell(value) -> str:
    return "None" if value is None else f"{value:.5f}"


def _csv_buffer():
    buf = io.StringIO()
    return buf, csv.writer(buf, lineterminator="\n")


# ---------------------------------------------------------------- solve

def _solve_grid(constants, particle, A, mode, branch, config):
    """The 3 x 3 reference grid of spectrum tables, delta outer."""
    tables = []
    for delta in GRID_VALUES:
        for lambda_b in GRID_VALUES:
            pot = PotentialSpec.from_lambda_b(A=A, delta=delta,
                                              lambda_b=lambda_b,
                                              particle=particle, mode=mode)
            tables.append(solve_spectrum(constants, particle, pot,
                                         n_max=GRID_NMAX, branch=branch,
                                         config=config))
    return tables


def _wide_rows(tables):
    rows = []
    for t in tables:
        for line in ("lower", "upper"):
            row = [f"{t.delta:.5f}", f"{t.lambda_b:.5f}", line]
            for n, l in GRID_CELLS:
                row.append(_fmt_cell(t.energy(n, l, line)))
            rows.append(row)
    return rows


def _check_fixture(tables, fixture_path: str, tol: float, allow_extra: bool):
    """Per-cell comparison of the solved grid against a fixture CSV.

    Returns (report_lines, mismatch_count, worst_dev)."""
    try:
        with open(fixture_path, encoding="utf-8", newline="") as fh:
            fixture = list(csv.DictReader(fh))
    except OSError as err:
        raise _UsageError(f"cannot read fixture {fixture_path}: {err}")
    by_key = {}
    for t in tables:
        for line in ("lower", "upper"):
            by_key[(round(t.delta, 9), round(t.lambda_b, 9), line)] = t
    report = []
    mismatches = 0
    worst = 0.0
    for row in fixture:
        try:
            key = (round(float(row["delta"]), 9),
                   round(float(row["lambda_b"]), 9), row["line"])
        except (KeyError, ValueError) as err:
            raise _UsageError(f"malformed fixture row {row!r}: {err}")
        t = by_key.get(key)
        if t is None:
            report.append(f"MISSING block delta={row['delta']} "
                          f"lambda_b={row['lambda_b']}")
            mismatches += 1
            continue
        for n, l in GRID_CELLS:
            col = f"E{n}{l}"
            raw = row.get(col, "None")
            expected = None if raw in ("None", "", None) else float(raw)
            computed = t.energy(n, l, key[2])
            tag = (f"delta={row['delta']} lambda_b={row['lambda_b']} "
                   f"{col} {key[2]}")
            if expected is None and computed is None:
                continue
            if expected is None:
                line_txt = (f"EXTRA {tag}: computed {computed:.5f}, "
                            f"fixture has none")
                if allow_extra:
                    report.append(line_txt + " (allowed)")
                else:
                    report.append(line_txt)
                    mismatches += 1
                continue
            if computed is None:
                report.append(f"MISSING {tag}: fixture {expected:.5f}, "
                              f"no root found")
                mismatches += 1
                continue
            dev = abs(computed - expected)
            worst = max(worst, dev)
            if dev > tol:
                report.append(f"DEVIATION {tag}: computed {computed:.5f}, "
                              f"fixture {expected:.5f}, dev {dev:.5f}")
                mismatches += 1
    return report, mismatches, worst


def _cmd_solve(args) -> int:
    (constants, particle, A, delta, lambda_b, mode, branch,
     config, cfg) = _resolve_inputs(args)
    paper_grid = args.paper_grid or args.check is not None
    if paper_grid and (args.delta is not None or args.lambda_b is not None):
        raise _UsageError("--paper-grid scans delta and lambda_b itself; "
                          "drop the explicit --delta/--lambda-b")
    nmax = _pick(args, cfg, "nmax", 3)
    lmax = _pick(args, cfg, "lmax", None)

    if paper_grid:
        tables = _solve_grid(constants, particle, A, mode, branch, config)
        manifest = _base_manifest("solve --paper-grid", constants, particle,
                                  A, mode, branch, config, stamped=False)
        manifest["nmax"] = GRID_NMAX
        manifest["grid_values"] = ",".join(f"{v:.5f}" for v in GRID_VALUES)
        if args.check is not None:
            tol = args.check_tol if args.check_tol is not None else DEFAULT_CHECK_TOL
            report, mismatches, worst = _check_fixture(
                tables, args.check, tol, args.allow_extra)
            lines = list(report)
            lines.append(f"check: {'FAIL' if mismatches else 'PASS'} "
                         f"({mismatches} mismatches, worst deviation "
                         f"{worst:.5f} MeV, tolerance {tol} MeV)")
            _emit("\n".join(lines) + "\n", args.output)
            return 3 if mismatches else 0
        if args.format == "json":
            payload = {"manifest": manifest,
                       "tables": [t.to_payload() for t in tables]}
            _emit(json.dumps(payload, indent=2) + "\n", args.output)
            return 0
        buf, writer = _csv_buffer()
        for comment in _manifest_comments(manifest):
            buf.write(comment + "\n")
        writer.writerow(["delta", "lambda_b", "line"]
                        + [f"E{n}{l}" for n, l in GRID_CELLS])
        writer.writerows(_wide_rows(tables))
        _emit(buf.getvalue(), args.output)
        return 0

    pot = PotentialSpec.from_lambda_b(A=A, delta=delta, lambda_b=lambda_b,
                                      particle=particle, mode=mode)
    table = solve_spectrum(constants, particle, pot, n_max=nmax, l_max=lmax,
                           branch=branch, config=config)
    manifest = _base_manifest("solve", constants, particle, A, mode, branch,
                              config, stamped=True)
    manifest.update({"delta": delta, "lambda_b": lambda_b,
                     "nmax": nmax, "lmax": lmax})
    if args.format == "json":
        payload = {"manifest": manifest, "table": table.to_payload()}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    buf, writer = _csv_buffer()
    for comment in _manifest_comments(manifest):
        buf.write(comment + "\n")
    writer.writerow(["n", "l", "line", "energy", "residual_at_root",
                     "iterations", "status", "detail"])
    for entry in table.entries:
        writer.writerow([entry.n, entry.l, entry.line,
                         "" if entry.energy is None else repr(entry.energy),
                         "" if entry.residual_at_root is None
                         else repr(entry.residual_at_root),
                         entry.iterations, entry.status, entry.detail])
    _emit(buf.getvalue(), args.output)
    return 0


# -------------------------------------------------------- wavefunction

def _cmd_wavefunction(args) -> int:
    (constants, particle, A, delta, lambda_b, mode, branch,
     config, cfg) = _resolve_inputs(args)
    if args.n < 0 or args.l < 0:
        raise _UsageError("--n and --l must be non-negative")
    if not 16 <= args.points <= MAX_RADIAL_POINTS:
        raise _UsageError(f"--points must be in [16, {MAX_RADIAL_POINTS}], "
                          f"got {args.points}")
    pot = PotentialSpec.from_lambda_b(A=A, delta=delta, lambda_b=lambda_b,
                                      particle=particle, mode=mode)
    qn = QuantumNumbers(n=args.n, l=args.l)
    spec = build_residual_spec(constants, particle, pot, qn, branch=branch,
                               window_margin=config.window_margin)
    cell = solve_cell(spec, config)
    wanted = ("lower", "upper") if args.line == "both" else (args.line,)
    picked = []
    for name in wanted:
        entry = cell.lower if name == "lower" else cell.upper
        if entry.status == "converged":
            picked.append((name, entry))
        elif args.line != "both":
            raise AbsentError(f"{name} line absent for (n={args.n}, "
                              f"l={args.l}): {entry.detail or entry.status}")
    if not picked:
        raise AbsentError(f"no spectral line found for (n={args.n}, "
                          f"l={args.l}) in mode {mode.value}")

    solutions = [(name, entry,
                  build_wave_solution(constants, particle, pot, qn,
                                      entry.energy, branch=branch))
                 for name, entry in picked]
    r_max = args.r_max
    if r_max is None:
        r_max = max(default_r_max(sol) for _, _, sol in solutions)
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise _UsageError(f"--r-max must be positive and finite, got {r_max}")
    radii = np.linspace(0.0, r_max, args.points)

    manifest = _base_manifest("wavefunction", constants, particle, A, mode,
                              branch, config, stamped=True)
    manifest.update({"delta": delta, "lambda_b": lambda_b, "n": args.n,
                     "l": args.l, "r_max": r_max, "points": args.points})
    line_blocks = []
    for name, entry, sol in solutions:
        samples = wavefunction_grid(sol, radii)
        rep = grid_report(samples, radii)
        if args.normalize:
            samples = normalize_on_grid(samples, radii)
        u = [float(v) for v in samples]
        V = [None if r == 0.0 else vector_potential(pot, float(r), sol.energy)
             for r in radii]
        mc2 = [None if r == 0.0 else mass_at(particle, pot, float(r), sol.energy)
               for r in radii]
        line_blocks.append({
            "line": name,
            "energy": sol.energy,
            "eta": sol.eta,
            "tau": sol.tau,
            "kummer_a": sol.params.a,
            "kummer_c": sol.params.c,
            "u_origin": rep.u_origin,
            "tail_ratio": rep.tail_ratio,
            "node_count": rep.node_count,
            "u": u, "V": V, "mc2": mc2,
        })

    if args.format == "json":
        payload = {"manifest": manifest, "r": [float(r) for r in radii],
                   "lines": line_blocks}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    buf, writer = _csv_buffer()
    for comment in _manifest_comments(manifest):
        buf.write(comment + "\n")
    for blk in line_blocks:
        buf.write(f"# line {blk['line']}: energy={blk['energy']!r} "
                  f"eta={blk['eta']!r} tau={blk['tau']!r} "
                  f"a={blk['kummer_a']!r} c={blk['kummer_c']!r} "
                  f"u0={blk['u_origin']!r} nodes={blk['node_count']} "
                  f"tail_ratio={blk['tail_ratio']:.3e}\n")
    header = ["r"]
    for blk in line_blocks:
        suffix = blk["line"]
        header += [f"u_{suffix}", f"V_{suffix}", f"mc2_{suffix}"]
    writer.writerow(header)
    for i, r in enumerate(radii):
        row = [repr(float(r))]
        for blk in line_blocks:
            row.append(repr(blk["u"][i]))
            row.append("" if blk["V"][i] is None else repr(blk["V"][i]))
            row.append("" if blk["mc2"][i] is None else repr(blk["mc2"][i]))
        writer.writerow(row)
    _emit(buf.getvalue(), args.output)
    return 0


# --------------------------------------------------------------- sweep

def _axis_values(start: float, stop: float, step: float):
    for name, value in (("--start", start), ("--stop", stop), ("--step", step)):
        if not math.isfinite(value):
            raise _UsageError(f"{name} must be finite, got {value}")
    if step <= 0.0:
        raise _UsageError("--step must be positive")
    if stop < start:
        raise _UsageError("--stop must not be below --start")
    too_many = _UsageError(f"the axis has more than {MAX_AXIS_POINTS} points")
    if (stop - start) / step >= MAX_AXIS_POINTS:
        raise too_many
    values = []
    # Bounded too: a step below the spacing of doubles near start never
    # moves past stop, whatever the quotient above says.
    for k in range(MAX_AXIS_POINTS + 1):
        v = start + k * step
        if v > stop + 1e-12 * step:
            return values
        values.append(v)
    raise too_many


def _cmd_sweep(args) -> int:
    (constants, particle, A, delta, lambda_b, mode, branch,
     config, cfg) = _resolve_inputs(args)
    nmax = _pick(args, cfg, "nmax", 3)
    lmax = _pick(args, cfg, "lmax", None)
    values = _axis_values(args.start, args.stop, args.step)
    points = []
    for v in values:
        d = v if args.axis == "delta" else delta
        lb = v if args.axis == "lambda_b" else lambda_b
        pot = PotentialSpec.from_lambda_b(A=A, delta=d, lambda_b=lb,
                                          particle=particle, mode=mode)
        points.append((v, solve_spectrum(constants, particle, pot, n_max=nmax,
                                         l_max=lmax, branch=branch,
                                         config=config)))
    manifest = _base_manifest("sweep", constants, particle, A, mode, branch,
                              config, stamped=True)
    manifest.update({"axis": args.axis, "start": args.start,
                     "stop": args.stop, "step": args.step,
                     "fixed_delta": delta, "fixed_lambda_b": lambda_b,
                     "nmax": nmax, "lmax": lmax})
    if args.format == "json":
        payload = {"manifest": manifest, "axis": args.axis,
                   "points": [{"value": v, "table": t.to_payload()}
                              for v, t in points]}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    buf, writer = _csv_buffer()
    for comment in _manifest_comments(manifest):
        buf.write(comment + "\n")
    writer.writerow([args.axis, "n", "l", "line", "energy", "status"])
    for v, t in points:
        for entry in t.entries:
            writer.writerow([repr(v), entry.n, entry.l, entry.line,
                             "" if entry.energy is None else repr(entry.energy),
                             entry.status])
    _emit(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------- aim-verify

def _random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def _cmd_aim_verify(args) -> int:
    if args.cap < 0:
        raise _UsageError("--cap must be non-negative")
    if args.nmax < 0:
        raise _UsageError("--nmax must be non-negative")
    if args.nmax > args.cap:
        raise _UsageError(f"--nmax {args.nmax} exceeds the level cap "
                          f"{args.cap}; raise --cap deliberately if you "
                          "accept the symbolic cost")
    if args.seeds < 1:
        raise _UsageError("--seeds must be at least 1")
    rng = random.Random(args.seed)
    lines = []
    all_pass = True
    for n in range(args.nmax + 1):
        hits = 0
        for _ in range(args.seeds):
            eta = _random_rational(rng, 1, 60)
            beta_sq = _random_rational(rng, 1, 90)
            tau = aim.exact_tau(eta, beta_sq, n)
            if args.perturb:
                tau *= Fraction(101, 100)
            if aim.terminates_at(n, tau, eta, beta_sq):
                hits += 1
        if args.perturb:
            # A perturbed tau must never terminate, so the certificate line
            # fails by construction; any terminating seed would be a bug in
            # the exact arithmetic and is flagged separately.
            lines.append(f"level n={n}: {hits}/{args.seeds} perturbed seeds "
                         f"terminate (tau off by 1%) -> FAIL")
            if hits:
                lines.append(f"  warning: {hits} perturbed seeds terminated; "
                             "exact arithmetic should forbid this")
            all_pass = False
        else:
            ok = hits == args.seeds
            lines.append(f"level n={n}: {hits}/{args.seeds} seeds terminate "
                         f"exactly -> {'PASS' if ok else 'FAIL'}")
            all_pass = all_pass and ok
    lines.append(f"certificate: {'PASS' if all_pass else 'FAIL'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all_pass else 2


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as err:
        sys.stderr.write(f"kgbound: error: {err}\n")
        return 1
    except (DomainError, BranchError) as err:
        sys.stderr.write(f"kgbound: error: {err}\n")
        return 1
    except (ConvergenceError, EvaluationError, AbsentError) as err:
        sys.stderr.write(f"kgbound: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
