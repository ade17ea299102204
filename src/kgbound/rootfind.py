"""Root location and refinement for the quantization residual.

The residual is evaluated once per cell on a uniform energy grid over the
physical window; that one scan gives both the brackets and the absence
diagnosis.  Where eta turns complex between two nodes, the last energy
with real eta takes the place of the complex-eta node.  Sign changes
between adjacent valid nodes become brackets, except where the denominator
changes sign inside the pair (a pole, not a root).  Brackets are refined
by secant steps that fall back to bisection when a step leaves the bracket
or stalls.  The brackets are disjoint and every secant iterate stays
inside its bracket, so converged roots are distinct; they are classified
into the lower/upper spectral lines of each (n, l) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import _kernels, quantization
from .errors import ConvergenceError, DomainError
from .model import (CouplingMode, ParticleSpec, PhysicalConstants,
                    PotentialSpec, QuantumNumbers, parse_branch)
from .quantization import ResidualSpec, SpectrumEntry, build_residual_spec

# Each scan array costs 8 bytes per point; this keeps one under 8 MB.
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
    ok = status == _kernels.STATUS_OK
    pair_ok = ok[:-1] & ok[1:] & (den[:-1] * den[1:] > 0.0)
    crossing = pair_ok & (res[:-1] * res[1:] < 0.0)
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
    return SpectrumEntry(n=spec.n, l=spec.l, line=line,
                         branch=spec.describe_branch(), energy=None,
                         residual_at_root=None, iterations=0,
                         status="absent", detail=detail)


def _converged(spec: ResidualSpec, line: str, r: RefineResult) -> SpectrumEntry:
    return SpectrumEntry(n=spec.n, l=spec.l, line=line,
                         branch=spec.describe_branch(), energy=r.energy,
                         residual_at_root=r.residual, iterations=r.iterations,
                         status="converged")


def _failed(spec: ResidualSpec, line: str, err: ConvergenceError) -> SpectrumEntry:
    return SpectrumEntry(n=spec.n, l=spec.l, line=line,
                         branch=spec.describe_branch(), energy=None,
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


def _eta_edge_node(spec: ResidualSpec, E: np.ndarray, status: np.ndarray):
    """The scan node for the energy where eta turns complex.

    With k2 < 0 and delta != 0, 1/4 + K(E) turns negative at the one energy
    E_b = (sqrt(-(1/4 + l(l+1)) / k2) - 1) / delta, and a root between E_b
    and the last valid node before it has no bracket on the grid.  When E_b
    lies between a valid and a complex-eta node, returns the index of the
    complex-eta node and the (E, res, rhs, den, status) of the valid energy
    next to E_b; else None.
    """
    complex_eta = _kernels.STATUS_COMPLEX_ETA
    if not (spec.k2 < 0.0 and spec.delta != 0.0):
        return None
    edge = (math.sqrt(-(0.25 + spec.ll1) / spec.k2) - 1.0) / spec.delta
    i = int(np.searchsorted(E, edge))
    if not (0 < i < len(E) and E[i - 1] < edge < E[i] and
            {status[i - 1], status[i]} == {_kernels.STATUS_OK, complex_eta}):
        return None
    cut, valid = ((i, float(E[i - 1])) if status[i] == complex_eta
                  else (i - 1, float(E[i])))
    point = quantization.evaluate(spec, edge)
    if point[3] == complex_eta:
        # E_b is off by rounding, by more ulps the smaller delta is.  1/4 + K
        # is monotone in E, so bisect for the last real-eta energy before it.
        while (mid := 0.5 * (valid + edge)) not in (valid, edge):
            if quantization.evaluate(spec, mid)[3] == complex_eta:
                edge = mid
            else:
                valid = mid
        edge, point = valid, quantization.evaluate(spec, valid)
    if point[3] != _kernels.STATUS_OK:
        return None
    return cut, (edge,) + point


def solve_cell(spec: ResidualSpec, config: SolverConfig = SolverConfig()) -> CellResult:
    """Scan, refine, and classify the roots of one cell.

    Classification: two or more roots put the smallest on the lower line
    and the largest on the upper line; a single root goes to the lower
    line when negative, the upper line otherwise.
    """
    def f(E: float) -> float:
        return quantization.residual(spec, E)

    E = np.linspace(*spec.window, config.grid_points)
    res, rhs, den, status = quantization.evaluate_grid(spec, E)
    node = _eta_edge_node(spec, E, status)
    if node is not None:
        # A complex-eta node brackets nothing, so the edge node replaces it.
        j, values = node
        E[j], res[j], rhs[j], den[j], status[j] = values
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
    """Solved spectrum over a set of (n, l) cells, with input echo."""

    mode: CouplingMode
    hbar_c: float
    m0c2: float
    lam: float
    A: float
    delta: float
    lambda_b: float
    branch: str
    n_max: int
    l_max: Optional[int]
    cells: tuple = field(default_factory=tuple)

    def cell(self, n: int, l: int) -> CellResult:
        for c in self.cells:
            if c.n == n and c.l == l:
                return c
        raise KeyError(f"cell (n={n}, l={l}) not in table")

    def energy(self, n: int, l: int, line: str) -> Optional[float]:
        c = self.cell(n, l)
        entry = c.lower if line == "lower" else c.upper
        return entry.energy

    @property
    def entries(self) -> tuple:
        out = []
        for c in self.cells:
            out.extend(c.entries)
        return tuple(out)

    def to_payload(self) -> dict:
        return {
            "mode": self.mode.value,
            "hbar_c": self.hbar_c,
            "m0c2": self.m0c2,
            "lambda": self.lam,
            "A": self.A,
            "delta": self.delta,
            "lambda_b": self.lambda_b,
            "branch": self.branch,
            "n_max": self.n_max,
            "l_max": self.l_max,
            "cells": [
                {
                    "n": c.n,
                    "l": c.l,
                    "entries": [
                        {
                            "n": e.n, "l": e.l, "line": e.line,
                            "branch": e.branch, "energy": e.energy,
                            "residual_at_root": e.residual_at_root,
                            "iterations": e.iterations, "status": e.status,
                            "detail": e.detail,
                        }
                        for e in c.entries
                    ],
                }
                for c in self.cells
            ],
        }


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
    """Solve every (n, l) cell and collect the classified lines."""
    branch_name = "plus" if parse_branch(branch) > 0.0 else "minus"
    cells = []
    for n, l in spectrum_cells(n_max, l_max):
        spec = build_residual_spec(constants, particle, pot,
                                   QuantumNumbers(n=n, l=l), branch=branch,
                                   window_margin=config.window_margin)
        cells.append(solve_cell(spec, config))
    return SpectrumTable(mode=pot.mode, hbar_c=constants.hbar_c,
                         m0c2=particle.m0c2, lam=particle.lam, A=pot.A,
                         delta=pot.delta, lambda_b=pot.lambda_b,
                         branch=branch_name, n_max=n_max, l_max=l_max,
                         cells=tuple(cells))
