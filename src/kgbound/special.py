"""Confluent hypergeometric functions and radial wave functions.

The unnormalized radial function for a bound state at energy E is

    u(r) = exp(-tau g r) * (g r)^(eta + 1) * 1F1(-n; c; 2 tau g r),

with g = 1 + delta E, tau = sqrt(m0^2 c^4 - E^2) / (hbar c g),
c = 2 (eta + 1) and n the radial quantum number of the solved cell.  At a
solution of the quantization condition a = (eta + 1) - beta^2 / (2 tau)
equals -n, so 1F1(a; c; x) is the degree-n polynomial and u has exactly n
radial nodes.  The degree is taken from the cell, never from the computed
a, which is kept only as a diagnostic of how close the energy came.  The
second independent solution is discarded: it behaves as (g r)^(-eta) near
the origin and is not regular there, and a line with eta + 1 <= 0 is
refused for the same reason.  u is reported unnormalized.

kummer_polynomial evaluates 1F1(-n; c; x) by the three-term recurrence in
the degree (DLMF 13.3.1), which keeps its accuracy where the power series
cancels.  Each step is scaled by an exact power of two, so the recurrence
passes the largest double where u underflows.  It takes a float or an array
and uses only +, -, *, / and that exact scaling.  wavefunction_u (one
radius, the reference that raises every error) and wavefunction_grid (the
whole array) then take the logarithms and the exponential from NumPy's
ufuncs, on a float or on the array, so on one machine they agree bit for
bit.  NumPy picks those loops by the CPU's SIMD support, so their last
bits may differ from one machine to another, as libm's may.  kummer_1f1 sums
the power series of 1F1(a; c; x) for any a: it is the mpmath-tested
reference and the way to evaluate a function off an eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .model import (ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers, case_parameters, energy_factor)

POLE_TOL = 1e-8          # distance of c to a non-positive integer: singular
TERM_CAP = 10_000        # series terms before giving up
RATIO_TOL = 1e-16        # relative tail size that ends the summation
_LOG_HUGE = 700.0        # ln of roughly the largest finite double
MAX_RADIAL_POINTS = 100_000  # radii per evaluated line; bounds memory


@dataclass(frozen=True)
class KummerParams:
    """Parameters (a, c) of 1F1(a; c; x)."""

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise DomainError(f"a and c must be finite, got a={self.a}, c={self.c}")
        if self.c <= 0.0 and abs(self.c - round(self.c)) <= POLE_TOL:
            raise DomainError(f"c={self.c} is a non-positive integer; "
                              "1F1 is singular there")


def kummer_1f1(params: KummerParams, x: float) -> float:
    """1F1(a; c; x) for x >= 0 by direct term recurrence.

    Terms are added until the running term is below RATIO_TOL of the
    partial sum twice in a row, and either is zero or k > |a| + |c| + x.
    From there on every term ratio (a + k) x / ((c + k) (k + 1)) is below
    1 in size, so the terms can no longer grow: a tiny a or a tiny a + n
    makes the early terms small, but the later ones grow back like e^x.
    At an exact a = -n the terms are zero after the degree-n one and the
    sum ends there.  The terms after the leading 1 are summed first and
    the 1 added last, so terms below half an ulp of 1 still count where
    they add up (a tiny a).  Exceeding TERM_CAP raises EvaluationError.
    """
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be finite and non-negative, got {x}")
    a, c = params.a, params.c
    past_growth = abs(a) + abs(c) + x
    term = 1.0
    tail = 0.0
    small_streak = 0
    for k in range(TERM_CAP):
        term *= (a + k) / (c + k) * x / (k + 1.0)
        tail += term
        if abs(term) <= RATIO_TOL * abs(1.0 + tail):
            small_streak += 1
            if small_streak >= 2 and (term == 0.0 or k > past_growth):
                return 1.0 + tail
        else:
            small_streak = 0
    raise EvaluationError(f"1F1({params.a}; {params.c}; {x}) did not "
                          f"converge within {TERM_CAP} terms")


def _kummer_scaled(n: int, c: float, x):
    """(M, e) with 1F1(-n; c; x) = M * 2**e, at a float or an array.

    M_{k+1} = ((2k + c - x) M_k - k M_{k-1}) / (c + k), from M_0 = 1.  After
    each step M_{k+1} is brought into [1/2, 1) by an exact power of two and
    M_k is scaled with it, so no step past the first can overflow.
    """
    prev, cur = 0.0, 1.0 + 0.0 * x
    e = np.zeros(np.shape(x), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # x / c past a double
        for k in range(n):
            prev, cur = cur, ((2.0 * k + c - x) * cur - k * prev) / (c + k)
            cur, shift = np.frexp(cur)
            prev = np.ldexp(prev, -shift)
            e += shift
    return cur, e


def kummer_polynomial(n: int, c: float, x):
    """1F1(-n; c; x) at a float or an array x; inf past the largest double."""
    M, e = _kummer_scaled(n, c, x)
    with np.errstate(over="ignore"):
        return np.ldexp(M, e)


@dataclass(frozen=True)
class WaveSolution:
    """Everything needed to evaluate u(r) at a fixed eigenvalue."""

    energy: float
    n: int
    eta: float
    tau: float        # 1/fm
    growth: float     # g = 1 + delta E
    params: KummerParams


def build_wave_solution(constants: PhysicalConstants, particle: ParticleSpec,
                        pot: PotentialSpec, qn: QuantumNumbers, energy: float,
                        branch="plus") -> WaveSolution:
    case = case_parameters(constants, particle, pot, qn, energy, branch=branch)
    tau = math.sqrt(case.tau_sq)
    if not (tau > 0.0):
        raise DomainError(f"tau must be positive, got {tau} at E={energy}")
    if not case.eta + 1.0 > 0.0:
        raise DomainError(f"u is not regular at the origin (eta = {case.eta!r})")
    g = energy_factor(pot, energy)
    a = (case.eta + 1.0) - case.beta_sq / (2.0 * tau)
    c = 2.0 * (case.eta + 1.0)
    return WaveSolution(energy=energy, n=qn.n, eta=case.eta, tau=tau,
                        growth=g, params=KummerParams(a=a, c=c))


def wavefunction_u(sol: WaveSolution, r: float) -> float:
    """u(r) at one radius; r = 0 maps to the regular value 0.

    The three factors are combined in log magnitude so intermediate
    overflow in (g r)^(eta+1) or underflow in exp(-tau g r) cannot
    poison a representable product.  The logarithms and the exponential
    are NumPy's ufuncs, the ones wavefunction_grid applies to its arrays.
    """
    if r < 0.0:
        raise DomainError(f"r must be non-negative, got {r}")
    if r == 0.0:
        return 0.0
    z = sol.growth * r
    x = 2.0 * sol.tau * z
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be finite and non-negative, got {x}")
    F, e = _kummer_scaled(sol.n, sol.params.c, x)
    if F == 0.0:
        return 0.0
    if z == 0.0:
        raise DomainError(f"g r underflows to 0 at r={r}")
    log_mag = (-sol.tau * z + (sol.eta + 1.0) * np.log(z)
               + (np.log(abs(F)) + math.log(2.0) * e))
    if not log_mag <= _LOG_HUGE:
        raise EvaluationError(f"u({r}) overflows (log magnitude {log_mag:.1f})")
    return math.copysign(float(np.exp(log_mag)), F)


def wavefunction_grid(sol: WaveSolution, radii) -> np.ndarray:
    """u at every radius, bit-identical to wavefunction_u at each.

    wavefunction_u's arithmetic, NumPy's log and exp included, runs on the
    whole array.  Every sample the scalar call rejects is marked, and
    wavefunction_u runs on the first one to raise its error.
    """
    r = np.asarray(radii, dtype=np.float64)
    with np.errstate(over="ignore"):  # inf, as in Python; marked below
        z = sol.growth * r
        x = 2.0 * sol.tau * z
    bad = (r < 0.0) | ((r != 0.0) & ~((x >= 0.0) & np.isfinite(x)))
    live = np.flatnonzero((r != 0.0) & ~bad)
    F, e = _kummer_scaled(sol.n, sol.params.c, x[live])
    keep = F != 0.0
    live, F, e, z = live[keep], F[keep], e[keep], z[live[keep]]
    bad[live[z == 0.0]] = True  # g r underflowed; wavefunction_u raises
    keep = z != 0.0
    live, F, e, z = live[keep], F[keep], e[keep], z[keep]
    log_mag = (-sol.tau * z + (sol.eta + 1.0) * np.log(z)
               + (np.log(np.abs(F)) + math.log(2.0) * e))
    bad[live[~(log_mag <= _LOG_HUGE)]] = True
    if bad.any():
        _raise_from(wavefunction_u, sol, float(r[bad.argmax()]))
    out = np.zeros(r.shape)
    out[live] = np.copysign(np.exp(log_mag), F)
    return out


def _raise_from(reference, *args):
    """Call a scalar reference on an argument it rejects, so that its own
    error propagates; returning there would break the array path."""
    reference(*args)
    raise AssertionError(f"{reference.__name__}{args} accepted a sample "
                         "the array path marked")


def normalize_on_grid(u: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Scale samples so the trapezoid integral of u^2 over radii is 1.

    A plotting convenience only; eigenfunctions are reported unnormalized
    everywhere else.
    """
    u = np.asarray(u, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if u.shape != radii.shape:
        raise DomainError("u and radii must have matching shapes")
    norm_sq = float(np.trapezoid(u * u, radii))
    if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
        raise EvaluationError(f"cannot normalize: integral of u^2 is {norm_sq}")
    return u / math.sqrt(norm_sq)


def default_r_max(sol: WaveSolution) -> float:
    """Radius past which u has decayed, in x = 2 tau g r.

    u solves Whittaker's equation in x, whose outer turning point is
    x_out = 2(n + eta + 1) + 2 sqrt(n^2 + (eta + 1)(2n + 1)).  Past it,
    e^(-x/2) falls by e^-25 over 50 and the degree-n polynomial's growth
    is covered by 2 sqrt(n x_out) more.
    """
    n, e1 = sol.n, sol.eta + 1.0
    x_out = 2.0 * (n + e1 + math.sqrt(n * n + e1 * (2 * n + 1)))
    x_max = x_out + 50.0 + 2.0 * math.sqrt(n * x_out)
    return x_max / (2.0 * sol.tau * sol.growth)


@dataclass(frozen=True)
class BoundaryReport:
    """Diagnostics of one evaluated radial function."""

    u_origin: float
    max_abs: float
    tail_ratio: float    # |u(r_max)| / max |u|
    node_count: int      # sign changes on (0, r_max)


def boundary_report(sol: WaveSolution, r_max: Optional[float] = None,
                    grid_points: int = 2000) -> BoundaryReport:
    if not 16 <= grid_points <= MAX_RADIAL_POINTS:
        raise DomainError(f"grid_points must be in [16, {MAX_RADIAL_POINTS}], "
                          f"got {grid_points}")
    if r_max is None:
        r_max = default_r_max(sol)
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise DomainError(f"r_max must be positive and finite, got {r_max}")
    radii = np.linspace(0.0, r_max, grid_points)
    return grid_report(wavefunction_grid(sol, radii))


def grid_report(u: np.ndarray) -> BoundaryReport:
    """Diagnostics of unnormalized samples u on radii running from 0 to
    r_max."""
    u = np.asarray(u, dtype=np.float64)
    max_abs = float(np.max(np.abs(u)))
    if max_abs == 0.0:
        raise EvaluationError("wave function vanished on the whole grid")
    tail_ratio = abs(float(u[-1])) / max_abs
    # Count sign changes between consecutive nonzero samples; exact zeros
    # (the origin, underflowed tail points) separate no nodes themselves.
    positive = u[u != 0.0] > 0.0
    nodes = int(np.count_nonzero(positive[1:] != positive[:-1]))
    return BoundaryReport(u_origin=float(u[0]), max_abs=max_abs,
                          tail_ratio=tail_ratio, node_count=nodes)
