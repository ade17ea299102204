"""Command line interface.

Subcommands:
    solve         bound-state spectrum for one parameter set or the
                  reference 3 x 3 (delta, lambda_b) grid (--paper-grid)
    wavefunction  radial wave function u(r) for one (n, l) cell
    sweep         spectrum along a delta or lambda_b axis
    aim-verify    exact termination certificate of the iteration scheme

Exit codes: 0 success, 1 usage or domain problem (including an input
file that cannot be read or decoded, and an output, stdout too, that
cannot be written), 2 convergence or evaluation failure (including a
requested line that is absent), 3 fixture mismatch beyond tolerance.  A
stdout pipe closed by its reader (`| head`) exits 1 with no message.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import os
import random
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, aim
from .errors import (AbsentError, BranchError, ConvergenceError, DomainError,
                     EvaluationError)
from .model import (DEFAULT_HBAR_C, NEUTRAL_PION_M0C2, CouplingMode,
                    ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers, mass_at, vector_potential)
from .quantization import build_residual_spec
from .rootfind import (LINE_FIELDS, CellResult, SolverConfig, cell_records,
                       solve_cell, solve_spectrum, spectrum_cells,
                       spectrum_scans)
from .special import (MAX_RADIAL_POINTS, build_wave_solution, default_r_max,
                      grid_report, normalize_on_grid, wavefunction_grid)

GRID_VALUES = (-0.003, 0.0, 0.003)
GRID_NMAX = 3
GRID_CELLS = tuple(spectrum_cells(GRID_NMAX, None))
DEFAULT_A = 200.0
DEFAULT_CHECK_TOL = 0.02
DEFAULT_AIM_CAP = 32
MAX_AXIS_POINTS = 10_000
CSV_CHUNK_ROWS = 2048


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit code 1.

    argparse's own negative-number pattern has no exponent, so it would read
    "--delta -5e-05" as two options; subparsers inherit the wider pattern.
    Abbreviations are refused, so that --lambda, which is no flag, is an
    error rather than a prefix of --lambda-b.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)

    def _print_message(self, message, file=None):
        # argparse's own drops the OSError of its write (from Python
        # 3.11; 3.10 lets it out as a traceback), so --help and --version
        # on a full or closed stdout would exit 0: they go through
        # _output, as every table does.
        if message and file is sys.stdout:
            with _output(None) as fh:
                fh.write(message)
            return
        super()._print_message(message, file)


@dataclasses.dataclass(frozen=True)
class _Option:
    """A flag that a --config file may set too.  Its config key is the long
    name, lower-cased, with '_' for '-'; kind parses both the flag and the
    file's text."""

    flag: str
    dest: str
    kind: type
    default: object
    help: str
    choices: tuple = None

    @property
    def key(self) -> str:
        return self.flag[2:].lower().replace("-", "_")


_PHYSICS_OPTIONS = (
    _Option("--mode", "mode", str, None, "coupling mode: emes, emos, pv, or ps"),
    _Option("--m0c2", "m0c2", float, NEUTRAL_PION_M0C2,
            f"rest energy in MeV (default {NEUTRAL_PION_M0C2})"),
    _Option("--A", "A", float, DEFAULT_A,
            f"potential strength in MeV fm (default {DEFAULT_A})"),
    _Option("--delta", "delta", float, 0.0,
            "energy-dependence tuning in 1/MeV (default 0)"),
    _Option("--lambda-b", "lambda_b", float, 0.0,
            "mass coupling product lambda*b in 1/MeV (default 0)"),
    _Option("--hbar-c", "hbar_c", float, DEFAULT_HBAR_C,
            f"hbar c in MeV fm (default {DEFAULT_HBAR_C})"),
    _Option("--branch", "branch", str, "plus",
            "sign branch of eta (default plus)", ("plus", "minus")),
)

# Unset solver options are left to SolverConfig's own defaults.
_SOLVER_OPTIONS = tuple(
    _Option("--" + name.replace("_", "-"), name, kind, None,
            f"{text} (default {getattr(SolverConfig(), name)})")
    for name, kind, text in (
        ("grid_points", int, "scan grid size"),
        ("tol_energy", float, "energy tolerance in MeV"),
        ("tol_residual", float, "residual tolerance in MeV"),
        ("max_iter", int, "refinement iteration cap"),
        ("window_margin", float, "margin kept from the window edges in MeV"),
    ))

_RANGE_OPTIONS = (
    _Option("--nmax", "nmax", int, 3, "largest radial quantum number (default 3)"),
    _Option("--lmax", "lmax", int, None,
            "cap on l inside the triangular layout (default: l <= n)"),
)

_CONFIG_OPTIONS = {option.key: option for option in
                   _PHYSICS_OPTIONS + _SOLVER_OPTIONS + _RANGE_OPTIONS}


def _add_options(p: argparse.ArgumentParser, options):
    for option in options:
        p.add_argument(option.flag, dest=option.dest, type=option.kind,
                       choices=option.choices, default=None, help=option.help)


def _add_model_options(p: argparse.ArgumentParser):
    _add_options(p, _PHYSICS_OPTIONS)
    p.add_argument("--config", default=None,
                   help="key = value file supplying defaults for any option")
    _add_options(p, _SOLVER_OPTIONS)


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
    _add_model_options(p)
    _add_output_options(p)
    _add_options(p, _RANGE_OPTIONS)
    p.add_argument("--paper-grid", dest="paper_grid", action="store_true",
                   help="solve the reference 3 x 3 (delta, lambda_b) grid "
                        "and emit the wide table layout")
    p.add_argument("--check", default=None, metavar="FIXTURE",
                   help="compare the reference grid against a fixture CSV "
                        "(implies --paper-grid)")
    p.add_argument("--check-tol", dest="check_tol", type=float,
                   default=DEFAULT_CHECK_TOL,
                   help=f"per-cell tolerance in MeV for --check "
                        f"(default {DEFAULT_CHECK_TOL})")
    p.add_argument("--allow-extra-roots", dest="allow_extra", action="store_true",
                   help="with --check, do not fail when a root is found "
                        "where the fixture has none")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("wavefunction", help="radial wave function of one cell")
    _add_model_options(p)
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
    _add_model_options(p)
    _add_output_options(p)
    p.add_argument("--axis", choices=("delta", "lambda_b"), required=True,
                   help="parameter to sweep")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_options(p, _RANGE_OPTIONS)
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
    except (OSError, UnicodeDecodeError) as err:
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
        if key not in _CONFIG_OPTIONS:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        table[key] = value.strip()
    return table


def _resolve_inputs(args):
    """Fill each config-file option the command has, flag over file over
    default, then attach the model objects: args.constants, args.particle
    (lambda = hbar_c / m0c2) and args.solver (a SolverConfig); args.mode
    becomes a CouplingMode."""
    cfg = load_config(args.config) if args.config else {}
    for key, option in _CONFIG_OPTIONS.items():
        if getattr(args, option.dest, False) is not None:
            continue  # given as a flag, or not an option of this command
        value = option.default
        if key in cfg:
            try:
                value = option.kind(cfg[key])
            except ValueError:
                raise _UsageError(f"config key {key!r}: cannot parse "
                                  f"{cfg[key]!r}")
        setattr(args, option.dest, value)
    args.constants = PhysicalConstants(hbar_c=args.hbar_c)
    args.particle = ParticleSpec.with_compton_lambda(args.m0c2, args.constants)
    if args.mode is None:
        raise _UsageError("--mode is required (emes, emos, pv, or ps)")
    args.mode = CouplingMode.parse(args.mode)
    args.solver = SolverConfig(**{option.dest: getattr(args, option.dest)
                                  for option in _SOLVER_OPTIONS
                                  if getattr(args, option.dest) is not None})


def _potential(args, delta: float, lambda_b: float) -> PotentialSpec:
    return PotentialSpec(A=args.A, delta=delta, lambda_b=lambda_b,
                         mode=args.mode)


def _spectrum(args, delta: float, lambda_b: float, n_max: int, l_max=None):
    return solve_spectrum(args.constants, args.particle,
                          _potential(args, delta, lambda_b), n_max=n_max,
                          l_max=l_max, branch=args.branch, config=args.solver)


def _manifest(command: str, args, **fields) -> dict:
    return {
        "command": command,
        "version": __version__,
        "hbar_c": args.constants.hbar_c,
        "m0c2": args.particle.m0c2,
        "lambda": args.particle.lam,
        "A": args.A,
        "mode": args.mode.value,
        "branch": args.branch,
        **dataclasses.asdict(args.solver),
        **fields,
    }


@contextlib.contextmanager
def _output(path):
    """Where a command's text goes: stdout, or the file at path.  stdout is
    flushed here, so that its write errors surface here and not at exit.
    A write error is a usage error, except a stdout pipe closed by its
    reader, whose BrokenPipeError passes on to main."""
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as err:
        if path is not None:
            raise _UsageError(f"cannot write {path}: {err}")
        # the buffer keeps what it could not write and retries it at exit
        _discard_stdout()
        if isinstance(err, BrokenPipeError):
            raise
        raise _UsageError(f"cannot write stdout: {err}")


def _discard_stdout():
    """Point the stdout descriptor at os.devnull, so that the interpreter's
    flush at exit meets neither a closed pipe nor a full device, and
    prints no "Exception ignored" nor exits 120.
    A stdout with no descriptor, such as an in-memory buffer, is left as
    it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, io.UnsupportedOperation):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _csv_quotes_cr() -> bool:
    r"""Whether csv.writer(lineterminator="\n") quotes a field holding a
    "\r": Python 3.13 does, 3.10 to 3.12 quote only the terminator's "\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["\r", ""])
    return buf.getvalue().startswith('"')


# The characters that make csv.QUOTE_MINIMAL wrap a field in quotes.
_QUOTED = ',"\n\r' if _csv_quotes_cr() else ',"\n'


def _field(value) -> str:
    """One CSV field as csv.writer writes it: None empty, a str quoted
    when it holds a delimiter, a quote or a line end, the rest by str."""
    if value is None:
        return ""
    if not isinstance(value, str):
        return str(value)
    if any(c in value for c in _QUOTED):
        return '"' + value.replace('"', '""') + '"'
    return value


@dataclasses.dataclass(frozen=True)
class PaddedColumn:
    """A float-array column after `blanks` empty fields."""

    blanks: int
    values: np.ndarray

    def __len__(self) -> int:
        return self.blanks + len(self.values)

    def tolist(self) -> list:
        return [None] * self.blanks + self.values.tolist()


def _fields(column, i: int, j: int):
    """The CSV fields of rows i to j - 1 of a column: a float array, a
    PaddedColumn or a sequence of Python values."""
    if isinstance(column, np.ndarray):
        return map(repr, column[i:j].tolist())
    if isinstance(column, PaddedColumn):
        k = column.blanks
        return itertools.chain([""] * (min(j, k) - i),
                               _fields(column.values, max(i - k, 0),
                                       max(j - k, 0)))
    return map(_field, column[i:j])


def write_csv(fh, header, columns):
    r"""Write the header, then the rows of columns (of one length), as
    csv.writer(fh, lineterminator="\n") writes them.  CSV_CHUNK_ROWS rows
    are formatted and written at a time, so only one chunk's strings exist
    at once and a float array never becomes a list of every float."""
    fh.write(",".join(map(_field, header)) + "\n")
    nrows = len(columns[0])
    for i in range(0, nrows, CSV_CHUNK_ROWS):
        j = min(i + CSV_CHUNK_ROWS, nrows)
        fh.write("\n".join(map(",".join, zip(*(_fields(column, i, j)
                                               for column in columns)))))
        fh.write("\n")


_encode_str = json.encoder.encode_basestring_ascii


def _json_scalar(value) -> str:
    """value as json.dumps writes it: a float by float.__repr__, or NaN,
    Infinity and -Infinity."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return ("NaN" if value != value
                else "Infinity" if value > 0.0 else "-Infinity")
    return json.dumps(value)


def _entry_json(record) -> str:
    """json.dumps of a line record's field dict (rootfind.LINE_FIELDS, the
    fields of SpectrumEntry, in order)."""
    n, l, line, energy, residual, iterations, status, detail = record
    return (f'{{"n": {n}, "l": {l}, "line": {_encode_str(line)}, '
            f'"energy": {_json_scalar(energy)}, "residual_at_root": '
            f'{_json_scalar(residual)}, "iterations": {iterations}, '
            f'"status": {_encode_str(status)}, '
            f'"detail": {_encode_str(detail)}}}')


# The line record of a SpectrumEntry.
_record_of = operator.attrgetter(*LINE_FIELDS)


def _cell_json(n: int, l: int, records) -> str:
    """A cell as SpectrumTable.to_payload() holds it, {"n", "l", "entries"},
    from the line records of its entries."""
    return (f'{{"n": {n}, "l": {l}, "entries": ['
            + ", ".join(map(_entry_json, records)) + "]}")


class CellRecords(list):
    """A table's cells, each the list of its line records
    (rootfind.cell_records), which write_json writes as the cells of
    SpectrumTable.to_payload()."""


def _nested(value) -> bool:
    """True for a list or tuple of dicts or CellResults, whose items are
    formatted one by one; any other list goes to json.dumps whole."""
    return (isinstance(value, (list, tuple)) and bool(value)
            and isinstance(value[0], (dict, CellResult)))


def _json_text(value) -> str:
    """json.dumps(value), where a CellResult stands for its cell in
    SpectrumTable.to_payload(), {"n", "l", "entries"}, and CellRecords for
    the list of its cells."""
    if isinstance(value, CellResult):
        return _cell_json(value.n, value.l, map(_record_of, value.entries))
    if isinstance(value, CellRecords):
        return "[" + ", ".join(_cell_json(*records[0][:2], records)
                               for records in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_encode_str(key)}: {_json_text(item)}"
                               for key, item in value.items()) + "}"
    if _nested(value):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    return _json_scalar(value)


def write_json(fh, document: dict):
    """Write json.dumps(document) and a newline, where a CellResult stands
    for its cell in SpectrumTable.to_payload() and CellRecords for a
    table's cells.  Each line's text is formatted from its line record by
    one formatter (_entry_json), a CellResult's entries read as records,
    with no dict built per line, and each item of a list of dicts in
    document is formatted and written on its own, so a sweep's text is
    never all held at once.  document's keys are strings."""
    fh.write("{")
    for i, (key, value) in enumerate(document.items()):
        fh.write(f'{", " if i else ""}{_encode_str(key)}: ')
        if _nested(value):
            fh.write("[")
            for j, item in enumerate(value):
                fh.write((", " if j else "") + _json_text(item))
            fh.write("]")
        else:
            fh.write(_json_text(value))
    fh.write("}\n")


def _write_table(args, manifest: dict, body, header, columns, notes=()):
    """Emit a command's result: as JSON, the manifest followed by the items
    of body() by write_json; as CSV, the manifest and the notes as '#'
    lines, then the header and columns() by write_csv.  A long table's
    time is then mostly the one repr call per float."""
    with _output(args.output) as fh:
        if args.format == "json":
            write_json(fh, {"manifest": manifest, **body()})
            return
        fh.writelines(f"# {key}: {value}\n" for key, value in manifest.items())
        fh.writelines(f"# {note}\n" for note in notes)
        write_csv(fh, header, columns())


def _entry_columns(entries, names):
    """One column per attribute name of the spectrum entries."""
    return [[getattr(e, name) for e in entries] for name in names]


def _fmt_cell(value) -> str:
    return "None" if value is None else f"{value:.5f}"


# ---------------------------------------------------------------- solve

def _wide_rows(tables):
    for (delta, lambda_b), t in tables:
        for line in ("lower", "upper"):
            yield ([f"{delta:.5f}", f"{lambda_b:.5f}", line]
                   + [_fmt_cell(t.energy(n, l, line)) for n, l in GRID_CELLS])


def _fixture_energy(raw: str):
    """A fixture cell: None where the line is absent, else a finite MeV."""
    value = None if raw in ("None", "") else float(raw)
    if value is not None and not math.isfinite(value):
        raise ValueError(f"energy {raw!r} is not finite")
    return value


def _check_fixture(tables, fixture_path: str, tol: float, allow_extra: bool):
    """Per-cell comparison of the solved grid against a fixture CSV.

    tables pairs each solved table with its (delta, lambda_b); a solved
    block with no fixture row is a mismatch too.  Returns (report_lines,
    mismatch_count, worst_dev)."""
    try:
        with open(fixture_path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            fixture = list(reader)
            header = reader.fieldnames or ()  # an empty file has none
    except (OSError, UnicodeDecodeError) as err:
        raise _UsageError(f"cannot read fixture {fixture_path}: {err}")
    lacking = [c for c in ["delta", "lambda_b", "line"]
               + [f"E{n}{l}" for n, l in GRID_CELLS] if c not in header]
    if header and lacking:
        raise _UsageError(f"malformed fixture {fixture_path}: its header "
                          f"lacks {', '.join(lacking)}")
    by_key = {(round(delta, 9), round(lambda_b, 9), line): t
              for (delta, lambda_b), t in tables
              for line in ("lower", "upper")}
    seen = set()
    report = []
    mismatches = 0
    worst = 0.0
    for row in fixture:
        try:
            key = (round(float(row["delta"]), 9),
                   round(float(row["lambda_b"]), 9), row["line"])
            energies = [_fixture_energy(row[f"E{n}{l}"])
                        for n, l in GRID_CELLS]
        except (TypeError, ValueError) as err:
            raise _UsageError(f"malformed fixture row {row!r}: {err}")
        seen.add(key)
        t = by_key.get(key)
        if t is None:
            report.append(f"MISSING block delta={row['delta']} "
                          f"lambda_b={row['lambda_b']}")
            mismatches += 1
            continue
        for (n, l), expected in zip(GRID_CELLS, energies):
            computed = t.energy(n, l, key[2])
            tag = (f"delta={row['delta']} lambda_b={row['lambda_b']} "
                   f"E{n}{l} {key[2]}")
            if expected is None and computed is None:
                continue
            if expected is None:
                report.append(f"EXTRA {tag}: computed {computed:.5f}, "
                              "fixture has none"
                              + (" (allowed)" if allow_extra else ""))
                mismatches += not allow_extra
            elif computed is None:
                report.append(f"MISSING {tag}: fixture {expected:.5f}, "
                              f"no root found")
                mismatches += 1
            else:
                dev = abs(computed - expected)
                worst = max(worst, dev)
                if dev > tol:
                    report.append(f"DEVIATION {tag}: computed {computed:.5f}, "
                                  f"fixture {expected:.5f}, dev {dev:.5f}")
                    mismatches += 1
    for delta, lambda_b, line in (k for k in by_key if k not in seen):
        report.append(f"MISSING fixture row delta={delta:.5f} "
                      f"lambda_b={lambda_b:.5f} {line}")
        mismatches += 1
    return report, mismatches, worst


def _cmd_solve(args) -> int:
    flagged = args.delta is not None or args.lambda_b is not None
    _resolve_inputs(args)
    if args.check is None and not args.paper_grid:
        table = _spectrum(args, args.delta, args.lambda_b, args.nmax,
                          args.lmax)
        manifest = _manifest("solve", args, delta=args.delta,
                             lambda_b=args.lambda_b, nmax=args.nmax,
                             lmax=args.lmax)
        header = ["n", "l", "line", "energy", "residual_at_root",
                  "iterations", "status", "detail"]
        _write_table(args, manifest,
                     lambda: {"table": {"cells": table.cells}}, header,
                     lambda: _entry_columns(table.entries, header))
        return 0

    if flagged:
        raise _UsageError("--paper-grid scans delta and lambda_b itself; "
                          "drop the explicit --delta/--lambda-b")
    tol = args.check_tol
    if args.check is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise _UsageError(f"--check-tol must be finite and non-negative, "
                          f"got {tol}")
    # delta outer, lambda_b inner
    tables = [((delta, lambda_b), _spectrum(args, delta, lambda_b, GRID_NMAX))
              for delta in GRID_VALUES for lambda_b in GRID_VALUES]
    if args.check is not None:
        report, mismatches, worst = _check_fixture(tables, args.check, tol,
                                                   args.allow_extra)
        report.append(f"check: {'FAIL' if mismatches else 'PASS'} "
                      f"({mismatches} mismatches, worst deviation "
                      f"{worst:.5f} MeV, tolerance {tol} MeV)")
        with _output(args.output) as fh:
            fh.write("\n".join(report) + "\n")
        return 3 if mismatches else 0
    manifest = _manifest("solve --paper-grid", args, nmax=GRID_NMAX,
                         grid_values=",".join(f"{v:.5f}" for v in GRID_VALUES))
    _write_table(args, manifest,
                 lambda: {"tables": [{"delta": delta, "lambda_b": lambda_b,
                                      "cells": t.cells}
                                     for (delta, lambda_b), t in tables]},
                 ["delta", "lambda_b", "line"]
                 + [f"E{n}{l}" for n, l in GRID_CELLS],
                 lambda: list(zip(*_wide_rows(tables))))
    return 0


# -------------------------------------------------------- wavefunction

def _cmd_wavefunction(args) -> int:
    _resolve_inputs(args)
    if not 16 <= args.points <= MAX_RADIAL_POINTS:
        raise _UsageError(f"--points must be in [16, {MAX_RADIAL_POINTS}], "
                          f"got {args.points}")
    pot = _potential(args, args.delta, args.lambda_b)
    qn = QuantumNumbers(n=args.n, l=args.l)
    spec = build_residual_spec(args.constants, args.particle, pot, qn,
                               branch=args.branch,
                               window_margin=args.solver.window_margin)
    cell = solve_cell(spec, args.solver)
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
                          f"l={args.l}) in mode {args.mode.value}")

    solutions = [(name, build_wave_solution(args.constants, args.particle,
                                            pot, qn, entry.energy,
                                            branch=args.branch))
                 for name, entry in picked]
    r_max = args.r_max
    if r_max is None:
        r_max = max(default_r_max(sol) for _, sol in solutions)
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise _UsageError(f"--r-max must be positive and finite, got {r_max}")
    radii = np.linspace(0.0, r_max, args.points)
    # The radii ascend from 0; V and mc2 are left blank where r = 0.
    inside = radii[radii > 0.0]
    blanks = len(radii) - len(inside)

    manifest = _manifest("wavefunction", args, delta=args.delta,
                         lambda_b=args.lambda_b, n=args.n, l=args.l,
                         r_max=r_max, points=args.points)
    line_blocks = []
    for name, sol in solutions:
        samples = wavefunction_grid(sol, radii)
        rep = grid_report(samples)
        if rep.node_count != args.n:
            # c = 2 (eta + 1) > 0 puts all n roots of the polynomial at r > 0.
            sys.stderr.write(f"kgbound: warning: {name} line has "
                             f"{rep.node_count} sign changes on the grid, "
                             f"but n={args.n}\n")
        if args.normalize:
            samples = normalize_on_grid(samples, radii)
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
            "u": samples,
            "V": PaddedColumn(blanks, vector_potential(pot, inside,
                                                       sol.energy)),
            "mc2": PaddedColumn(blanks, mass_at(args.particle, pot, inside,
                                                sol.energy)),
        })

    columns = ("u", "V", "mc2")
    _write_table(
        args, manifest,
        lambda: {"r": radii.tolist(),
                 "lines": [{**blk, **{col: blk[col].tolist()
                                      for col in columns}}
                           for blk in line_blocks]},
        ["r"] + [f"{col}_{blk['line']}" for blk in line_blocks
                 for col in columns],
        lambda: [radii] + [blk[col] for blk in line_blocks
                           for col in columns],
        notes=[f"line {blk['line']}: energy={blk['energy']!r} "
               f"eta={blk['eta']!r} tau={blk['tau']!r} "
               f"a={blk['kummer_a']!r} c={blk['kummer_c']!r} "
               f"u0={blk['u_origin']!r} nodes={blk['node_count']} "
               f"tail_ratio={blk['tail_ratio']:.3e}" for blk in line_blocks])
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
    width = stop - start
    if math.isinf(width):
        raise _UsageError(f"the axis span --stop - --start = {stop!r} - "
                          f"{start!r} overflows a double")
    span = width / step
    if span >= MAX_AXIS_POINTS:
        raise _UsageError(f"the axis has more than {MAX_AXIS_POINTS} points")
    values = [start + k * step for k in range(math.floor(span + 1e-12) + 1)]
    for prev, value in zip(values, values[1:]):
        if value <= prev:
            raise _UsageError(f"--step={step!r} does not advance the axis "
                              f"value {prev!r}")
    return values


def _cmd_sweep(args) -> int:
    _resolve_inputs(args)
    # the manifest records both flags, so the swept one must be valid too
    _potential(args, args.delta, args.lambda_b)
    on_delta = args.axis == "delta"
    values = _axis_values(args.start, args.stop, args.step)
    pots = [_potential(args, v if on_delta else args.delta,
                       args.lambda_b if on_delta else v) for v in values]
    # each point's cells as line records, not as CellResults
    points = [(v, CellRecords(cell_records(spec.n, spec.l, scan, args.solver)
                              for spec, scan in pairs))
              for v, pairs in zip(values, spectrum_scans(
                  args.constants, args.particle, pots, n_max=args.nmax,
                  l_max=args.lmax, branch=args.branch, config=args.solver))]
    manifest = _manifest("sweep", args, axis=args.axis, start=args.start,
                         stop=args.stop, step=args.step,
                         fixed_delta=args.delta,
                         fixed_lambda_b=args.lambda_b, nmax=args.nmax,
                         lmax=args.lmax)
    names = ["n", "l", "line", "energy", "status"]

    def columns():
        lines = [(v, record) for v, cells in points for records in cells
                 for record in records]
        return [[v for v, _ in lines]] + [
            [record[k] for _, record in lines]
            for k in map(LINE_FIELDS.index, names)]

    _write_table(args, manifest,
                 lambda: {"axis": args.axis,
                          "points": [{"value": v, "table": {"cells": cells}}
                                     for v, cells in points]},
                 [args.axis] + names, columns)
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
        unexplained = 0
        for _ in range(args.seeds):
            eta = _random_rational(rng, 1, 60)
            beta_sq = _random_rational(rng, 1, 90)
            tau = aim.exact_tau(eta, beta_sq, n)
            if args.perturb:
                tau *= Fraction(101, 100)
            if aim.terminates_at(n, tau, eta, beta_sq):
                hits += 1
                # Level n also terminates at tau_k for every k <= n + 1,
                # which the 1% shift can land on (eta = 60 at n = 40 makes
                # 1.01 tau_40 = tau_39; eta = -102 at n = 0 makes
                # 1.01 tau_0 = tau_1).
                if args.perturb and all(tau != aim.exact_tau(eta, beta_sq, k)
                                        for k in range(n + 2)):
                    unexplained += 1
        if args.perturb:
            # The certificate line fails by construction; a perturbed seed
            # that terminates at no exact tau would be a bug in the exact
            # arithmetic and is flagged separately.
            lines.append(f"level n={n}: {hits}/{args.seeds} perturbed seeds "
                         f"terminate (tau off by 1%) -> FAIL")
            if unexplained:
                lines.append(f"  warning: {unexplained} perturbed seeds "
                             "terminated; exact arithmetic should forbid this")
            all_pass = False
        else:
            ok = hits == args.seeds
            lines.append(f"level n={n}: {hits}/{args.seeds} seeds terminate "
                         f"exactly -> {'PASS' if ok else 'FAIL'}")
            all_pass = all_pass and ok
    lines.append(f"certificate: {'PASS' if all_pass else 'FAIL'}")
    with _output(None) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if all_pass else 2


# ---------------------------------------------------------------- main

# Built by the first main() call, not at import, and reused by every later
# one: parsing leaves no state on the parser, and its error, usage and
# --version paths look up sys.stdout and sys.stderr when they run.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.handler(args)
    except (_UsageError, DomainError, BranchError) as err:
        sys.stderr.write(f"kgbound: error: {err}\n")
        return 1
    except (ConvergenceError, EvaluationError, AbsentError) as err:
        sys.stderr.write(f"kgbound: {err}\n")
        return 2
    except BrokenPipeError:
        # The reader wants no more output (`| head`): nothing to report,
        # but the output is cut short, so the exit code is not 0.
        return 1


if __name__ == "__main__":
    sys.exit(main())
