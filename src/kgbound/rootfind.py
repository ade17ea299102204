"""Root location and refinement for the quantization residual.

A command's spectra are solved in three passes: scan, refine, classify.

Scan.  The residual is evaluated on a uniform energy grid over each cell's
window, which ends at the last energy with real eta; where eta is complex
at the window's first energy it is complex throughout, and the cell is
not scanned.  The window depends on l but not on n, so one kernel call
evaluates every cell of one (spectrum, l), and the brackets of all its
rows are searched as soon as it returns.  The float arrays the scan
writes, the kernel's rows and the per-grid rows (the energies, their
grid terms, the RHS numerator, 1/4 + K and s sqrt(1/4 + K)), are views
of scan arrays its thread keeps from one command to the next: at most
92 MB, 704 KB at the default grid and n_max 3.  Sign changes between
adjacent valid nodes become brackets, except where the denominator
changes sign inside the pair (a pole, not a root); a node where the
residual is exactly 0 yields a degenerate (E, E) bracket.  The same scan
gives each cell's absence diagnosis.

Most rows are decided at their two ends.  Along a regular grid
(ascending, inside the window, g > 0), g, 1/4 + K, each row's
denominator and the RHS numerator alpha (c0 + c1 E) are monotone,
rounding included, so their values at the window's ends bound them
everywhere.  Where those ends keep the numerator and the LHS small
enough that no residual can overflow (_end_terms), each row's own ends
say what its scan needs (_end_verdict).  A row whose RHS they prove
negative throughout has a positive residual at every node, hence no
bracket; it reads "RHS negative" and is not evaluated.  One search reads
the rows of every kernel call (_search_block): a row they prove finite
and pole-free needs no validity, pole or finiteness check per node, so
only its signs and exact zeros are read; a row they prove nothing of is
checked node by node.

Refine.  Every bracket of the command is refined by secant steps that
fall back to bisection when a step leaves the bracket or stalls.  From
LOCKSTEP_MIN_BRACKETS brackets on, lockstep_refine takes those steps for
all brackets at once on arrays; below it secant_refine runs bracket by
bracket.  Both give the same bits.

Classify.  The brackets are disjoint and every secant iterate stays inside
its bracket, so converged roots are distinct; solve_cell sorts each
cell's roots into the lower/upper spectral lines of its (n, l) cell.

An error is raised where solving the cells one by one, in the order
(spectrum, l, n), would raise it first.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels, quantization
from .errors import BranchError, ConvergenceError, DomainError
from .model import (ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers)
from .quantization import (ResidualSpec, SpectrumEntry, build_residual_spec,
                           new_frozen, spectrum_terms)

# Points in one kernel call, cells times grid points, and the most grid
# points SolverConfig admits.  The scan block costs _SCAN_BYTES per point
# of a call, so it stays under 28 MB; the per-grid rows and the arange
# cost 8 bytes per grid point each, 64 MB at most.  A thread keeps at most
# 92 MB of scan arrays.
MAX_GRID_POINTS = 1_000_000

# Cells of one solve_spectra call, spectra times cells per spectrum.  A
# solved cell's objects and output take about 3 KB (peak RSS grew by 2.8
# to 2.9 KB per cell in solves and sweeps of 23 000 to 87 000 cells), so a
# command stays under about 0.75 GB.
MAX_CELLS = 250_000

# Bytes of scan arrays per point: res, rhs and den (float64), status (int32).
_SCAN_BYTES = 3 * 8 + 4

# Per-grid rows of a thread's scan arrays: the energies, g, g^2, the LHS,
# the RHS numerator, 1/4 + K and s sqrt(1/4 + K).
_GRID_ROWS = 7

# Fewest brackets of one command refined in lock step; fewer are refined
# one at a time, which costs less than the lock step's fixed cost per
# iteration there.
LOCKSTEP_MIN_BRACKETS = 96


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
    requires both the energy and the residual tolerance, or, where the
    root is so steep that no double brings the residual within
    tol_residual, a bracket of two adjacent doubles that a step of 0 no
    longer moves: the best iterate is then returned with its residual
    above tol_residual (the residual floor).
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
        if step == 0.0 and math.nextafter(a, b) == b:
            return RefineResult(energy=best_x, residual=best_f, iterations=it)
        # A stalled secant (tiny step, residual still too large) must not
        # spin in place; take a bisection next.
        force_bisect = step <= config.tol_energy
    raise ConvergenceError(
        f"no convergence after {config.max_iter} iterations on [{bracket[0]}, {bracket[1]}]",
        best_energy=best_x, best_residual=best_f, iterations=config.max_iter)


# The fields of a ResidualSpec that the residual reads, one array each in
# lockstep_refine: the coefficients of each bracket's cell.
_Coefficients = namedtuple("_Coefficients", (
    "m0c2", "delta", "k2", "ll1", "branch_sign", "alpha", "c0", "c1",
    "n_plus_half"))
_coefficients_of = operator.attrgetter(*_Coefficients._fields)


def _residual_at(coeffs: np.ndarray, E: np.ndarray):
    """(res, rhs, status) of each bracket's cell at its energy in E;
    coeffs holds the _Coefficients fields as rows."""
    c = _Coefficients(*coeffs)
    out = (*np.empty((3, len(E))), np.empty(len(E), dtype=np.int32))
    res, rhs, _, status = _kernels.residual_arrays(c, c.n_plus_half, E, out)
    return res, rhs, status


# Overflow to inf and NaN arithmetic go on silently, as in Python floats.
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def lockstep_refine(specs: Sequence[ResidualSpec],
                    brackets: Sequence[Tuple[float, float]],
                    config: SolverConfig) -> list:
    """secant_refine of every bracket at once, on arrays.

    specs[i] is the cell of brackets[i], refined as secant_refine refines
    it with f = quantization.residual of that cell.  Each bracket takes
    the same steps: IEEE +, -, *, / and sqrt are correctly rounded in NumPy
    and in math alike, and _kernels.residual_arrays keeps residual_point's
    order of operations, so every iterate has the same bits.  Returns per
    bracket what refining it alone gives: a (RefineResult, sign verdict)
    pair, where the verdict is quantization.sign_validity at the root; the
    ConvergenceError; or the DomainError or BranchError that would be
    raised.
    """
    n = len(brackets)
    outcomes: list = [None] * n
    if n == 0:
        return outcomes
    coeffs = np.array([_coefficients_of(s) for s in specs], dtype=float).T
    p, q = np.array(brackets, dtype=float).reshape(n, 2).T
    swap = p > q
    a, b = np.where(swap, q, p), np.where(swap, p, q)
    tol_r, tol_e = config.tol_residual, config.tol_energy

    def fail(where, status, E):
        for i, s, e in zip(where.tolist(), status.tolist(), E.tolist()):
            outcomes[i] = _kernels.status_error(s, e)

    def converge(where, E, res, rhs, iterations):
        for i, e, r, valid in zip(where.tolist(), E.tolist(), res.tolist(),
                                  (rhs >= 0.0).tolist()):
            outcomes[i] = (new_frozen(RefineResult, energy=e, residual=r,
                                      iterations=iterations), valid)

    # f(a) for every bracket, then f(b) for the proper ones.
    idx = np.arange(n)
    fa, rhs_a, status = _residual_at(coeffs, a)
    bad = status != _kernels.STATUS_OK
    fail(idx[bad], status[bad], a[bad])
    degenerate = ~bad & (a == b)
    close = degenerate & (np.abs(fa) <= tol_r)
    converge(idx[close], a[close], fa[close], rhs_a[close], 0)
    off = degenerate & ~close
    for i, e, r in zip(idx[off].tolist(), a[off].tolist(), fa[off].tolist()):
        outcomes[i] = ConvergenceError(
            f"degenerate bracket at E={e} has residual {r}",
            best_energy=e, best_residual=r, iterations=0)
    keep = ~(bad | degenerate)
    idx, a, b, fa, rhs_a = idx[keep], a[keep], b[keep], fa[keep], rhs_a[keep]
    coeffs = coeffs[:, keep]
    fb, rhs_b, status = _residual_at(coeffs, b)
    bad = status != _kernels.STATUS_OK
    fail(idx[bad], status[bad], b[bad])
    at_a = ~bad & (fa == 0.0)
    converge(idx[at_a], a[at_a], fa[at_a], rhs_a[at_a], 0)
    at_b = ~bad & ~at_a & (fb == 0.0)
    converge(idx[at_b], b[at_b], fb[at_b], rhs_b[at_b], 0)
    same_sign = ~bad & ~at_a & ~at_b & (fa * fb > 0.0)
    for i, lo, hi in zip(idx[same_sign].tolist(), a[same_sign].tolist(),
                         b[same_sign].tolist()):
        outcomes[i] = DomainError(f"no sign change on [{lo}, {hi}]")
    keep = ~(bad | at_a | at_b | same_sign)
    idx, a, b, fa, fb = idx[keep], a[keep], b[keep], fa[keep], fb[keep]
    coeffs = coeffs[:, keep]

    x0, f0, x1, f1 = a, fa, b, fb
    first = np.abs(fa) < np.abs(fb)
    best_x, best_f = np.where(first, a, b), np.where(first, fa, fb)
    force_bisect = np.zeros(len(idx), dtype=bool)
    for it in range(1, config.max_iter + 1):
        if not len(idx):
            break
        secant = x1 - f1 * (x1 - x0) / (f1 - f0)
        take = ~force_bisect & (f1 != f0) & (a < secant) & (secant < b)
        x = np.where(take, secant, 0.5 * (a + b))
        fx, rhs_x, status = _residual_at(coeffs, x)
        bad = status != _kernels.STATUS_OK
        if bad.any():
            fail(idx[bad], status[bad], x[bad])
        better = np.abs(fx) < np.abs(best_f)
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
        step = np.abs(x - x1)
        x0, f0, x1, f1 = x1, f1, x, fx
        below = fa * fx < 0.0
        a, b = np.where(below, a, x), np.where(below, x, b)
        fa = np.where(below, fa, fx)
        # A zero residual returns at once; its (x, fx, it) is what the
        # convergence test would return too.
        done = ~bad & ((fx == 0.0) | ((np.abs(fx) <= tol_r)
                                       & ((step <= tol_e)
                                          | (b - a <= tol_e))))
        if done.any():
            converge(idx[done], x[done], fx[done], rhs_x[done], it)
        # the residual floor, as in secant_refine
        floor = ~(bad | done) & (step == 0.0) & (np.nextafter(a, b) == b)
        if floor.any():
            _, rhs_best, _ = _residual_at(coeffs[:, floor], best_x[floor])
            converge(idx[floor], best_x[floor], best_f[floor], rhs_best, it)
        # A stalled secant (tiny step, residual still too large) must not
        # spin in place; take a bisection next.
        force_bisect = step <= tol_e
        keep = ~(bad | done | floor)
        if not keep.all():
            idx, a, b, fa, x0, f0, x1, f1, best_x, best_f, force_bisect = (
                v[keep] for v in (idx, a, b, fa, x0, f0, x1, f1, best_x,
                                  best_f, force_bisect))
            coeffs = coeffs[:, keep]
    for i, e, r in zip(idx.tolist(), best_x.tolist(), best_f.tolist()):
        lo, hi = brackets[i]
        outcomes[i] = ConvergenceError(
            f"no convergence after {config.max_iter} iterations on [{lo}, {hi}]",
            best_energy=e, best_residual=r, iterations=config.max_iter)
    return outcomes


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


def _entry(spec: ResidualSpec, line: str, energy, residual, iterations: int,
           status: str, detail: str = "") -> SpectrumEntry:
    """A SpectrumEntry of spec's cell, made by new_frozen and then
    checked by its __post_init__."""
    e = new_frozen(SpectrumEntry, n=spec.n, l=spec.l, line=line,
                   energy=energy, residual_at_root=residual,
                   iterations=iterations, status=status, detail=detail)
    e.__post_init__()
    return e


def _absent(spec: ResidualSpec, line: str, detail: str) -> SpectrumEntry:
    return _entry(spec, line, None, None, 0, "absent", detail)


# The detail of a root refined to the residual floor (secant_refine).
_RESIDUAL_FLOOR = ("residual floor: no double brings the residual within "
                   "tol_residual")


def _converged(spec: ResidualSpec, line: str, r: RefineResult,
               config: SolverConfig, detail: str = "") -> SpectrumEntry:
    if abs(r.residual) > config.tol_residual:
        detail = f"{detail}; {_RESIDUAL_FLOOR}" if detail else _RESIDUAL_FLOOR
    return _entry(spec, line, r.energy, r.residual, r.iterations,
                  "converged", detail)


def _failed(spec: ResidualSpec, line: str, err: ConvergenceError) -> SpectrumEntry:
    return _entry(spec, line, None, err.best_residual, err.iterations,
                  "failed", str(err))


# What a cell's scan says when it yields no accepted root.
_NO_VALID_NODE, _ETA_COMPLEX, _RHS_NEGATIVE, _SCANNED = range(4)


def _scan_reading(rhs: np.ndarray, status: np.ndarray) -> int:
    """absence_reason's reading of one cell's scan arrays."""
    ok = status == _kernels.STATUS_OK
    if not ok.any():
        if (status == _kernels.STATUS_COMPLEX_ETA).all():
            return _ETA_COMPLEX
        return _NO_VALID_NODE
    return _RHS_NEGATIVE if (rhs[ok] < 0.0).all() else _SCANNED


def absence_reason(reading: int, brackets: int) -> str:
    """Short diagnostic for a cell with no accepted root, from its scan's
    reading (_scan_reading) and its bracket count."""
    if reading == _ETA_COMPLEX:
        return "eta complex over the whole window"
    if reading == _NO_VALID_NODE:
        return "no valid evaluation point in the window"
    if reading == _RHS_NEGATIVE:
        return "quantization RHS negative over the window"
    if brackets:
        return (f"{brackets} sign change(s) on the scan grid, "
                "none refined to an accepted root")
    return "no sign change of the residual on the scan grid"


def solve_cell(spec: ResidualSpec, config: SolverConfig = SolverConfig(),
               scan: Optional[tuple] = None) -> CellResult:
    """Classify the roots of one cell.

    scan is what solve_spectra's scan and refine passes found for the
    cell: its scan's reading for absence_reason and, per bracket in
    ascending order, a (RefineResult, sign verdict) pair or the
    ConvergenceError.  Without it the cell is scanned and refined on its
    own first.

    Classification: two or more roots put the smallest on the lower line
    and the largest on the upper line; a single root goes to the lower
    line when negative, the upper line otherwise.
    """
    if scan is None:
        (_, scan), = _scan_and_refine([[[spec]]], config)
    reading, outcomes = scan
    roots: List[RefineResult] = []
    failures: List[ConvergenceError] = []
    for outcome in outcomes:
        if isinstance(outcome, ConvergenceError):
            failures.append(outcome)
        elif outcome[1]:
            roots.append(outcome[0])
    # The brackets ascend and are disjoint, so the roots ascend too.

    extras: List[SpectrumEntry] = []
    if not roots:
        reason = absence_reason(reading, len(outcomes))
        lower = _absent(spec, "lower", reason)
        upper = _absent(spec, "upper", reason)
    elif len(roots) == 1:
        r = roots[0]
        if r.energy < 0.0:
            lower = _converged(spec, "lower", r, config)
            upper = _absent(spec, "upper", "single root, negative")
        else:
            lower = _absent(spec, "lower", "single root, non-negative")
            upper = _converged(spec, "upper", r, config)
    else:
        lower = _converged(spec, "lower", roots[0], config)
        upper = _converged(spec, "upper", roots[-1], config)
        for r in roots[1:-1]:
            line = "lower" if r.energy < 0.0 else "upper"
            extras.append(_converged(spec, line, r, config,
                                     "unclassified extra root"))
    for err in failures:
        line = "lower" if (err.best_energy is not None
                           and err.best_energy < 0.0) else "upper"
        extras.append(_failed(spec, line, err))
    return new_frozen(CellResult, n=spec.n, l=spec.l, lower=lower,
                      upper=upper, extras=tuple(extras))


# What the ends of a row prove besides a reading (_end_verdict): nothing,
# so the row is read node by node (_search_block).
_UNPROVED = -1


def _end_terms(spec: ResidualSpec, first: tuple, grid,
               numerator) -> Optional[tuple]:
    """s sqrt(1/4 + K) at the first and at the last energy of a scan over
    spec's window, then the RHS numerator there, where these ends bound
    every node of every row of the (spectrum, l); else None.

    first is energy_terms at the window's first energy; the grid's ends
    are the window's ends, so these are the grid's terms there, bit for
    bit.  Along a regular grid g, 1/4 + K, each row's den and the
    numerator are monotone, rounding included, so their ends bound them.
    The bound: the numerator is finite, |rhs| <= max|numerator| /
    POLE_EPS wherever den is no pole, and LHS <= sqrt((2 m0c2)^2) / min g,
    so the residual is finite at every such node when their sum is."""
    if not grid.regular:
        return None
    last = _kernels.energy_terms(spec.window[1], spec.m0c2, spec.delta,
                                 spec.k2, spec.ll1)
    if not first[0] == last[0] == _kernels.STATUS_OK:
        return None
    num0, num1 = numerator.item(0), numerator.item(-1)
    if not (math.isfinite(num0) and math.isfinite(num1)):
        return None
    two_m = 2.0 * spec.m0c2
    lhs_bound = math.sqrt(two_m * two_m) / min(grid.g.item(0),
                                                grid.g.item(-1))
    if not math.isfinite(lhs_bound + max(abs(num0), abs(num1))
                         / _kernels.POLE_EPS):
        return None
    s = spec.branch_sign
    return s * first[3], s * last[3], num0, num1


def _end_verdict(n_plus_half: float, root0: float, root1: float,
                 num0: float, num1: float) -> int:
    """What a row's ends prove, given _end_terms: _RHS_NEGATIVE where every
    rhs is negative, so every residual is positive; _SCANNED where the
    row is finite and pole-free and some rhs is not negative; or
    _UNPROVED where den comes within POLE_EPS of zero, or where a
    quotient may underflow to -0, so that only the row says whether its
    rhs is negative throughout.

    den keeps one sign beyond POLE_EPS where both ends lie beyond it on
    that side (_kernels.clear_of_pole).  Every rhs is then negative
    exactly when both numerator ends have the other sign and no quotient
    underflows to -0, which min|numerator| / max|den| > 0 proves."""
    den0, den1 = n_plus_half + root0, n_plus_half + root1
    if not _kernels.clear_of_pole(den0, den1):
        return _UNPROVED
    side = 1.0 if den0 > 0.0 else -1.0
    if not (side * num0 < 0.0 and side * num1 < 0.0):
        return _SCANNED
    if min(abs(num0), abs(num1)) / max(abs(den0), abs(den1)) == 0.0:
        return _UNPROVED
    return _RHS_NEGATIVE


def _search_block(E: np.ndarray, res: np.ndarray, rhs: np.ndarray,
                  den: np.ndarray, status: np.ndarray, verdicts: list):
    """Brackets and readings of the rows of one kernel call over the
    energies E, each row's verdict from _end_verdict.

    Returns (brackets, readings, overflow): per row its bracket list and
    _scan_reading, up to the first _UNPROVED row holding a non-finite
    residual at a valid node, and that row and node (or None).  A row
    proved finite and pole-free has every status OK and den of one sign,
    so its sign changes are its brackets and its verdict is its reading.
    An _UNPROVED row loses the pairs bracket_scan drops, those with an
    invalid node or a den that changes sign, and is read by
    _scan_reading.  A row holding an exact zero, where a sign change is
    no bracket, goes through bracket_scan."""
    negative = res < 0.0
    crossing = negative[:, :-1] != negative[:, 1:]
    readings = list(verdicts)
    end, overflow = len(verdicts), None
    for r, verdict in enumerate(verdicts):
        if verdict != _UNPROVED:
            continue
        ok = status[r] == _kernels.STATUS_OK
        bad = ok & ~np.isfinite(res[r])
        if bad.any():
            end, overflow = r, (r, bad.argmax())
            break
        up = den[r] > 0.0
        crossing[r] &= ok[:-1] & ok[1:] & (up[:-1] == up[1:])
        readings[r] = _scan_reading(rhs[r], status[r])
    row, i = np.divmod(crossing.ravel().nonzero()[0], res.shape[1] - 1)
    brackets: List[list] = [[] for _ in verdicts]
    for r, lo, hi in zip(row.tolist(), E[i].tolist(), E[1:][i].tolist()):
        brackets[r].append((lo, hi))
    zero = res == 0.0
    if zero.any():
        for r in np.flatnonzero(zero.any(axis=1)).tolist():
            brackets[r] = bracket_scan(E, res[r], den[r], status[r])
    return brackets[:end], readings[:end], overflow


def _scan_group(group: list, first: tuple, E: np.ndarray, grid, numerator,
                work: tuple, scratch: list):
    """Brackets and readings of the cells of one (spectrum, l) on E, with
    overflow as (row, node, residual) where _search_block finds one.

    grid and numerator are E's terms and first is energy_terms at E[0].
    Where _end_terms bound the rows, each row's ends decide what it needs
    (_end_verdict): a row proved RHS-negative reads _RHS_NEGATIVE with no
    bracket and is not evaluated; where they bound nothing, every row is
    _UNPROVED.  The rows evaluated are split into kernel calls of at most
    the rows of work, the scan block, and each call's rows are searched
    by _search_block, which reads only the signs of the rows proved
    finite and pole-free."""
    ends = _end_terms(group[0], first, grid, numerator)
    if ends is None:
        verdicts = [_UNPROVED] * len(group)
    else:
        verdicts = [_end_verdict(cell.n_plus_half, *ends) for cell in group]
    brackets: List[list] = [[] for _ in group]
    readings = list(verdicts)
    scanned = [r for r, v in enumerate(verdicts) if v != _RHS_NEGATIVE]
    size = len(work[0])
    for start in range(0, len(scanned), size):
        rows = scanned[start:start + size]
        res, rhs, den, status = _kernels.residual_grid(
            [group[r] for r in rows], E,
            out=tuple(a[:len(rows)] for a in work), grid=grid,
            numerator=numerator, scratch=scratch)
        found, got, overflow = _search_block(E, res, rhs, den, status,
                                             [verdicts[r] for r in rows])
        for r, row_brackets, reading in zip(rows, found, got):
            brackets[r], readings[r] = row_brackets, reading
        if overflow is not None:
            r, i = overflow
            end = rows[r]
            return brackets[:end], readings[:end], (end, i, res[r, i])
    return brackets, readings, None


# Each thread's scan arrays, kept from one command to the next (arrays of
# this size allocated and freed per spectrum are often handed back to the
# system by the allocator and faulted in again at the next) and never
# shared, so solves in two threads cannot write over each other:
#   block   the scan block: res, rhs, den and status of every row of a
#           kernel call, _SCAN_BYTES per point and row;
#   grid    the per-grid rows, _GRID_ROWS float64 rows of one grid each:
#           the energies, g, g^2, the LHS, the RHS numerator, 1/4 + K and
#           s sqrt(1/4 + K);
#   arange  0, 1, 2, ... as float64, one per grid point, the energies'
#           source (_energy_grid).
# Each grows to fit the largest scan the thread has run and never shrinks.
_scan_block = threading.local()


def _scan_arrays(rows: int, points: int) -> tuple:
    """(res, rhs, den, status) arrays of shape (rows, points), the
    _GRID_ROWS per-grid rows of points each and the arange of points,
    views of this thread's scan arrays (_scan_block), which grow to fit
    them where they are smaller."""
    size = rows * points
    block = getattr(_scan_block, "block", None)
    if block is None or len(block) < _SCAN_BYTES * size:
        block = _scan_block.block = np.empty(_SCAN_BYTES * size,
                                             dtype=np.uint8)
    grid = getattr(_scan_block, "grid", None)
    if grid is None or len(grid) < _GRID_ROWS * points:
        grid = _scan_block.grid = np.empty(_GRID_ROWS * points)
        _scan_block.arange = np.arange(points, dtype=np.float64)
    cut = 3 * 8 * size
    floats = block[:cut].view(np.float64).reshape(3, rows, points)
    status = block[cut:_SCAN_BYTES * size].view(np.int32)
    return ((*floats, status.reshape(rows, points)),
            grid[:_GRID_ROWS * points].reshape(_GRID_ROWS, points),
            _scan_block.arange[:points])


def _energy_grid(start: float, stop: float, arange: np.ndarray,
                 out: np.ndarray) -> None:
    """np.linspace(start, stop, len(out)) written into out, bit for bit:
    linspace's own formula, arange * step + start with the last node set
    to stop, on arange (0, 1, 2, ...); linspace itself where the step
    rounds to 0, which it computes another way."""
    step = np.subtract(stop, start, dtype=np.float64) / (len(out) - 1)
    if step == 0:
        out[:] = np.linspace(start, stop, len(out))
        return
    np.multiply(arange, step, out=out)
    np.add(out, start, out=out)
    out[-1] = stop


def _scan_and_refine(spectra: Iterable[List[List[ResidualSpec]]],
                     config: SolverConfig) -> List[Tuple[ResidualSpec, tuple]]:
    """Scan and refine the cells of each spectrum, given as its
    (spectrum, l) groups: each cell and its (scan reading, refine
    outcomes) pair for solve_cell, in that order.  Every spectrum has the
    cells of the first.

    A group whose window has complex eta at its first energy has it
    throughout: its cells read _ETA_COMPLEX unscanned.  The energy terms
    found there also give the group's first end terms (_end_terms).  Each
    other group is scanned by _scan_group: by kernel calls of at most
    MAX_GRID_POINTS points (a larger group is split) into this thread's
    scan arrays (_scan_arrays), each call's rows searched as soon as it
    returns, where the ends of each row decide whether it is evaluated at
    all and whether its search reads more than signs.  The energy grid,
    its _kernels.grid_terms, the RHS numerator and the kernel's 1/4 + K
    and s sqrt(1/4 + K) are written into the thread's per-grid rows, so a
    spectrum's scan allocates no float array the size of its grid.  A
    group whose window, m0c2 and delta equal the last scanned group's
    reuses its grid and grid terms, and one whose alpha, c0 and c1 are
    the same too reuses its RHS numerator.  spectra may raise DomainError
    as it is iterated; that error, a scan's overflow error and the refine
    errors are raised in the order solving the cells one by one would
    meet them.
    """
    points = config.grid_points
    rows_per_call = MAX_GRID_POINTS // points
    work = None
    cells: list = []      # (spec, scan reading, brackets) of each cell
    grid_key = numerator_key = None
    try:
        for spectrum in spectra:
            if work is None:
                work, rows, arange = _scan_arrays(
                    min(max(map(len, spectrum)), rows_per_call), points)
                E, g, gg, lhs, numerator, *scratch = rows
            for group in spectrum:
                spec = group[0]
                first = _kernels.energy_terms(spec.window[0], spec.m0c2,
                                              spec.delta, spec.k2, spec.ll1)
                if first[0] == _kernels.STATUS_COMPLEX_ETA:
                    cells.extend((cell, _ETA_COMPLEX, ()) for cell in group)
                    continue
                if (spec.window, spec.m0c2, spec.delta) != grid_key:
                    grid_key = (spec.window, spec.m0c2, spec.delta)
                    _energy_grid(*spec.window, arange, E)
                    grid = _kernels.grid_terms(spec.m0c2, spec.delta, E,
                                               out=(g, gg, lhs))
                    numerator_key = None
                if (spec.alpha, spec.c0, spec.c1) != numerator_key:
                    numerator_key = (spec.alpha, spec.c0, spec.c1)
                    _kernels.rhs_numerator(spec, E, out=numerator)
                found, readings, overflow = _scan_group(
                    group, first, E, grid, numerator, work, scratch)
                cells.extend(zip(group, readings, found))
                if overflow is not None:
                    r, i, value = overflow
                    raise DomainError(
                        f"residual {value} at E={E[i]} in cell "
                        f"(n={group[r].n}, l={group[r].l}): an input "
                        "overflows double precision")
    except (DomainError, BranchError):
        # a refine error in the cells scanned before comes first
        _refine(cells, config)
        raise
    outcomes = _refine(cells, config)
    scans = []
    end = 0
    for spec, reading, found in cells:
        start, end = end, end + len(found)
        scans.append((spec, (reading, outcomes[start:end])))
    return scans


def _refine(cells: list, config: SolverConfig) -> list:
    """Refine the brackets of cells, (spec, scan reading, brackets)
    triples, in order: per bracket a (RefineResult, sign verdict) pair or
    the ConvergenceError.  The first DomainError or BranchError in bracket
    order is raised."""
    specs = [spec for spec, _, found in cells for _ in found]
    brackets = [bracket for _, _, found in cells for bracket in found]
    if len(brackets) >= LOCKSTEP_MIN_BRACKETS:
        outcomes = lockstep_refine(specs, brackets, config)
        for outcome in outcomes:
            if isinstance(outcome, (DomainError, BranchError)):
                raise outcome
        return outcomes
    outcomes = []
    for spec, bracket in zip(specs, brackets):
        def f(E: float) -> float:
            return quantization.residual(spec, E)
        try:
            r = secant_refine(f, bracket, config)
        except ConvergenceError as err:
            outcomes.append(err)
            continue
        outcomes.append((r, quantization.sign_validity(spec, r.energy)))
    return outcomes


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
        if line not in ("lower", "upper"):
            raise DomainError(f"line must be 'lower' or 'upper', got {line!r}")
        return getattr(self.cell(n, l), line).energy

    @property
    def entries(self) -> tuple:
        return tuple(e for c in self.cells for e in c.entries)

    def to_payload(self) -> dict:
        return {"cells": [{"n": c.n, "l": c.l,
                           "entries": [dict(vars(e)) for e in c.entries]}
                          for c in self.cells]}


def _cell_count(n_max: int, l_max: Optional[int]) -> int:
    """How many cells spectrum_cells(n_max, l_max) lists, checking both."""
    if not (isinstance(n_max, int) and n_max >= 0):
        raise DomainError(f"n_max must be a non-negative integer, got {n_max!r}")
    if l_max is not None and not (isinstance(l_max, int) and l_max >= 0):
        raise DomainError(f"l_max must be a non-negative integer, got {l_max!r}")
    top = n_max if l_max is None else min(n_max, l_max)
    # n <= top lists n + 1 cells, each n above it top + 1
    return (top + 1) * (top + 2) // 2 + (n_max - top) * (top + 1)


def spectrum_cells(n_max: int, l_max: Optional[int]) -> List[Tuple[int, int]]:
    """Triangular cell list l <= min(n, l_max), the tabulated layout."""
    _cell_count(n_max, l_max)
    cells = []
    for n in range(n_max + 1):
        top = n if l_max is None else min(n, l_max)
        for l in range(top + 1):
            cells.append((n, l))
    return cells


def solve_spectra(constants: PhysicalConstants, particle: ParticleSpec,
                  pots: Sequence[PotentialSpec], n_max: int,
                  l_max: Optional[int] = None, branch: str = "plus",
                  config: SolverConfig = SolverConfig()) -> List[SpectrumTable]:
    """Solve every (n, l) cell of each potential; one table per potential.

    All cells of all potentials are scanned first, one (spectrum, l) per
    kernel call, then all their brackets are refined together, then each
    cell is classified.  The coefficients and the physical window of each
    spectrum are found once, and each cell is built on them; the window
    is cut where eta turns complex once per (spectrum, l), by its first
    cell, and the group's other cells are built on that cut, which they
    keep as it is.  More than MAX_CELLS cells in all are refused before
    any is built.
    """
    cells = len(pots) * _cell_count(n_max, l_max)
    if cells > MAX_CELLS:
        raise DomainError(f"n_max={n_max}, l_max={l_max} over {len(pots)} "
                          f"spectrum(s) is {cells} cells, more than the "
                          f"{MAX_CELLS} one command solves")
    table = spectrum_cells(n_max, l_max)
    by_l: dict = {}
    for n, l in table:
        by_l.setdefault(l, []).append(QuantumNumbers(n=n, l=l))

    def group(pot, terms, qns):
        first = build_residual_spec(constants, particle, pot, qns[0],
                                    terms=terms)
        cut = terms._replace(window=first.window, window_cut=True)
        return [first, *(build_residual_spec(constants, particle, pot, qn,
                                             terms=cut) for qn in qns[1:])]

    def spectra():
        for pot in pots:
            terms = spectrum_terms(constants, particle, pot, branch,
                                   config.window_margin)
            yield [group(pot, terms, qns) for qns in by_l.values()]

    solved = [solve_cell(spec, config, scan)
              for spec, scan in _scan_and_refine(spectra(), config)]
    # each spectrum's cells come solved in by_l order
    solved_at = {(qn.n, qn.l): i for i, qn in
                 enumerate(qn for qns in by_l.values() for qn in qns)}
    picks = [solved_at[nl] for nl in table]
    return [SpectrumTable(cells=tuple(solved[start + i] for i in picks))
            for start in range(0, len(solved), len(table))]


def solve_spectrum(constants: PhysicalConstants, particle: ParticleSpec,
                   pot: PotentialSpec, n_max: int, l_max: Optional[int] = None,
                   branch: str = "plus",
                   config: SolverConfig = SolverConfig()) -> SpectrumTable:
    """Solve every (n, l) cell of one potential: solve_spectra of [pot]."""
    return solve_spectra(constants, particle, [pot], n_max, l_max, branch,
                         config)[0]
