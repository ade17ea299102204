"""Root location and refinement for the quantization residual.

The residual is evaluated on a uniform energy grid over each cell's
window, which ends at the last energy with real eta; that one scan gives
both the brackets and the absence diagnosis.  The window depends on l but
not on n, so solve_spectrum scans once per (spectrum, l): one kernel call
evaluates every cell of that l on one grid.  Sign changes
between adjacent valid nodes become brackets, except where the denominator
changes sign inside the pair (a pole, not a root).  Brackets are refined
by secant steps that fall back to bisection when a step leaves the bracket
or stalls.  The brackets are disjoint and every secant iterate stays
inside its bracket, so converged roots are distinct; they are classified
into the lower/upper spectral lines of each (n, l) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import _kernels, quantization
from .errors import ConvergenceError, DomainError
from .model import (ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers)
from .quantization import ResidualSpec, SpectrumEntry, build_residual_spec

# Points in one kernel call, cells times grid points: each scan array
# costs 8 bytes per point, so this keeps one under 8 MB.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class SolverConfig:
    grid_points: int = 4000
    tol_energy: float = 1e-9     # MeV
    tol_residual: float = 1e-8   # MeV
    max_iter: int = 200
    window_margin: float = quantization.DEFAULT_WINDOW_MARGIN  # MeV

    def __post_init__(self):
        if not (isinstance(self.grid_points, int)
                and 100 <= self.grid_points <= MAX_GRID_POINTS):
            raise DomainError(f"grid_points must be an integer in "
                              f"[100, {MAX_GRID_POINTS}], got {self.grid_points!r}")
        for name in ("tol_energy", "tol_residual", "window_margin"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be positive and finite, got {v}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 8):
            raise DomainError(f"max_iter must be an integer >= 8, got {self.max_iter!r}")


@dataclass(frozen=True)
class RefineResult:
    energy: float
    residual: float
    iterations: int


def bracket_scan(E: np.ndarray, res: np.ndarray, den: np.ndarray,
                 status: np.ndarray) -> List[Tuple[float, float]]:
    """Sign-change brackets of the residual from its scan arrays over E.

    Pairs whose denominator changes sign are discarded: the residual jumps
    through a pole there instead of crossing zero.  A node where the
    residual vanishes exactly yields a degenerate (E, E) bracket.
    """
    # Signs are compared, not multiplied: a product can overflow or underflow.
    ok, up = status == _kernels.STATUS_OK, den > 0.0
    pair_ok = ok[:-1] & ok[1:] & (up[:-1] == up[1:])
    neg, pos = res < 0.0, res > 0.0
    crossing = pair_ok & ((neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:]))
    brackets = [(float(E[i]), float(E[i + 1])) for i in np.nonzero(crossing)[0]]
    for i in np.nonzero(ok & (res == 0.0))[0]:
        brackets.append((float(E[i]), float(E[i])))
    brackets.sort(key=lambda ab: ab[0] + ab[1])
    return brackets


def secant_refine(f: Callable[[float], float], bracket: Tuple[float, float],
                  config: SolverConfig) -> RefineResult:
    """Refine a sign-change bracket to a root of f.

    Secant steps are used while they stay inside the current bracket and
    keep making progress; otherwise the step is a bisection.  Convergence
    requires both the energy and the residual tolerance.
    """
    a, b = bracket
    if a > b:
        a, b = b, a
    if a == b:
        fa = f(a)
        if abs(fa) <= config.tol_residual:
            return RefineResult(energy=a, residual=fa, iterations=0)
        raise ConvergenceError(f"degenerate bracket at E={a} has residual {fa}",
                               best_energy=a, best_residual=fa, iterations=0)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return RefineResult(energy=a, residual=fa, iterations=0)
    if fb == 0.0:
        return RefineResult(energy=b, residual=fb, iterations=0)
    if fa * fb > 0.0:
        raise DomainError(f"no sign change on [{a}, {b}]")

    x0, f0, x1, f1 = a, fa, b, fb
    best_x, best_f = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    force_bisect = False
    for it in range(1, config.max_iter + 1):
        x = None
        if not force_bisect and f1 != f0:
            x = x1 - f1 * (x1 - x0) / (f1 - f0)
            if not (a < x < b):
                x = None
        if x is None:
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        step = abs(x - x1)
        x0, f0, x1, f1 = x1, f1, x, fx
        if fx == 0.0:
            return RefineResult(energy=x, residual=fx, iterations=it)
        if fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        width = b - a
        if abs(fx) <= config.tol_residual and (step <= config.tol_energy
                                               or width <= config.tol_energy):
            return RefineResult(energy=x, residual=fx, iterations=it)
        # A stalled secant (tiny step, residual still too large) must not
        # spin in place; take a bisection next.
        force_bisect = step <= config.tol_energy
    raise ConvergenceError(
        f"no convergence after {config.max_iter} iterations on [{bracket[0]}, {bracket[1]}]",
        best_energy=best_x, best_residual=best_f, iterations=config.max_iter)


@dataclass(frozen=True)
class CellResult:
    """All spectral lines found for one (n, l) cell."""

    n: int
    l: int
    lower: SpectrumEntry
    upper: SpectrumEntry
    extras: tuple = ()

    @property
    def entries(self) -> tuple:
        return (self.lower, self.upper) + self.extras


def _absent(spec: ResidualSpec, line: str, detail: str) -> SpectrumEntry:
    return SpectrumEntry(n=spec.n, l=spec.l, line=line, energy=None,
                         residual_at_root=None, iterations=0,
                         status="absent", detail=detail)


def _converged(spec: ResidualSpec, line: str, r: RefineResult) -> SpectrumEntry:
    return SpectrumEntry(n=spec.n, l=spec.l, line=line, energy=r.energy,
                         residual_at_root=r.residual, iterations=r.iterations,
                         status="converged")


def _failed(spec: ResidualSpec, line: str, err: ConvergenceError) -> SpectrumEntry:
    return SpectrumEntry(n=spec.n, l=spec.l, line=line, energy=None,
                         residual_at_root=err.best_residual,
                         iterations=err.iterations, status="failed",
                         detail=str(err))


def absence_reason(rhs: np.ndarray, status: np.ndarray, brackets: int) -> str:
    """Short diagnostic for a cell with no accepted root, from its scan."""
    ok = status == _kernels.STATUS_OK
    if not ok.any():
        if (status == _kernels.STATUS_COMPLEX_ETA).all():
            return "eta complex over the whole window"
        return "no valid evaluation point in the window"
    if (rhs[ok] < 0.0).all():
        return "quantization RHS negative over the window"
    if brackets:
        return (f"{brackets} sign change(s) on the scan grid, "
                "none refined to an accepted root")
    return "no sign change of the residual on the scan grid"


def solve_cell(spec: ResidualSpec, config: SolverConfig = SolverConfig(),
               scan: Optional[Tuple[np.ndarray, ...]] = None) -> CellResult:
    """Scan, refine, and classify the roots of one cell.

    scan is the cell's (E, res, rhs, den, status) over the uniform grid of
    its window, as solve_spectrum evaluates it for every cell of one l;
    without it the cell is scanned on its own.

    Classification: two or more roots put the smallest on the lower line
    and the largest on the upper line; a single root goes to the lower
    line when negative, the upper line otherwise.
    """
    def f(E: float) -> float:
        return quantization.residual(spec, E)

    if scan is None:
        E = np.linspace(*spec.window, config.grid_points)
        scan = (E, *(a[0] for a in _kernels.residual_grid([spec], E)))
    E, res, rhs, den, status = scan
    # res is NaN off the OK nodes; an OK node without a finite res overflowed.
    ok, finite = status == _kernels.STATUS_OK, np.isfinite(res)
    if np.count_nonzero(finite) != np.count_nonzero(ok):
        i = np.flatnonzero(ok & ~finite)[0]
        raise DomainError(f"residual {res[i]} at E={E[i]} in cell (n={spec.n},"
                          f" l={spec.l}): an input overflows double precision")
    brackets = bracket_scan(E, res, den, status)
    roots: List[RefineResult] = []
    failures: List[ConvergenceError] = []
    for bracket in brackets:
        try:
            r = secant_refine(f, bracket, config)
        except ConvergenceError as err:
            failures.append(err)
            continue
        if quantization.sign_validity(spec, r.energy):
            roots.append(r)
    # The brackets ascend and are disjoint, so the roots ascend too.

    extras: List[SpectrumEntry] = []
    if not roots:
        reason = absence_reason(rhs, status, len(brackets))
        lower = _absent(spec, "lower", reason)
        upper = _absent(spec, "upper", reason)
    elif len(roots) == 1:
        r = roots[0]
        if r.energy < 0.0:
            lower = _converged(spec, "lower", r)
            upper = _absent(spec, "upper", "single root, negative")
        else:
            lower = _absent(spec, "lower", "single root, non-negative")
            upper = _converged(spec, "upper", r)
    else:
        lower = _converged(spec, "lower", roots[0])
        upper = _converged(spec, "upper", roots[-1])
        for r in roots[1:-1]:
            line = "lower" if r.energy < 0.0 else "upper"
            e = _converged(spec, line, r)
            extras.append(replace(e, detail="unclassified extra root"))
    for err in failures:
        line = "lower" if (err.best_energy is not None
                           and err.best_energy < 0.0) else "upper"
        extras.append(_failed(spec, line, err))
    return CellResult(n=spec.n, l=spec.l, lower=lower, upper=upper,
                      extras=tuple(extras))


@dataclass(frozen=True)
class SpectrumTable:
    """Solved (n, l) cells of one spectrum.  The inputs that produced it
    are stated once, in the caller's output manifest."""

    cells: tuple

    def cell(self, n: int, l: int) -> CellResult:
        for c in self.cells:
            if c.n == n and c.l == l:
                return c
        raise KeyError(f"cell (n={n}, l={l}) not in table")

    def energy(self, n: int, l: int, line: str) -> Optional[float]:
        c = self.cell(n, l)
        return (c.lower if line == "lower" else c.upper).energy

    @property
    def entries(self) -> tuple:
        return tuple(e for c in self.cells for e in c.entries)

    def to_payload(self) -> dict:
        return {"cells": [{"n": c.n, "l": c.l,
                           "entries": [dict(vars(e)) for e in c.entries]}
                          for c in self.cells]}


def spectrum_cells(n_max: int, l_max: Optional[int]) -> List[Tuple[int, int]]:
    """Triangular cell list l <= min(n, l_max), the tabulated layout."""
    if not (isinstance(n_max, int) and n_max >= 0):
        raise DomainError(f"n_max must be a non-negative integer, got {n_max!r}")
    if l_max is not None and not (isinstance(l_max, int) and l_max >= 0):
        raise DomainError(f"l_max must be a non-negative integer, got {l_max!r}")
    cells = []
    for n in range(n_max + 1):
        top = n if l_max is None else min(n, l_max)
        for l in range(top + 1):
            cells.append((n, l))
    return cells


def solve_spectrum(constants: PhysicalConstants, particle: ParticleSpec,
                   pot: PotentialSpec, n_max: int, l_max: Optional[int] = None,
                   branch: str = "plus",
                   config: SolverConfig = SolverConfig()) -> SpectrumTable:
    """Solve every (n, l) cell and collect the classified lines.

    The cells of one l share their window, so each l is scanned by one
    kernel call of at most MAX_GRID_POINTS points (a larger l is split),
    and its cells are solved before the next l is scanned into the same
    arrays.  An l whose window equals the previous l's reuses its grid.
    """
    table = spectrum_cells(n_max, l_max)
    by_l: dict = {}
    for n, l in table:
        by_l.setdefault(l, []).append(build_residual_spec(
            constants, particle, pot, QuantumNumbers(n=n, l=l), branch=branch,
            window_margin=config.window_margin))
    rows_per_call = MAX_GRID_POINTS // config.grid_points
    rows = min(max(map(len, by_l.values())), rows_per_call)
    # One set of scan arrays serves every kernel call of the spectrum:
    # arrays of this size allocated and freed per call are often handed
    # back to the system by the allocator and faulted in again at the next
    # call, which costs more than sharing the energy terms saves.
    work = (*np.empty((3, rows, config.grid_points)),
            np.empty((rows, config.grid_points), dtype=np.int32))
    solved = {}
    window = None
    for specs in by_l.values():
        if specs[0].window != window:
            window = specs[0].window
            E = np.linspace(*window, config.grid_points)
        for start in range(0, len(specs), rows_per_call):
            chunk = specs[start:start + rows_per_call]
            scan = _kernels.residual_grid(
                chunk, E, out=tuple(a[:len(chunk)] for a in work))
            for row, spec in enumerate(chunk):
                cell = solve_cell(spec, config,
                                  scan=(E, *(a[row] for a in scan)))
                solved[cell.n, cell.l] = cell
    return SpectrumTable(cells=tuple(solved[nl] for nl in table))
