"""Confluent hypergeometric series and radial wave functions.

The unnormalized radial function for a bound state at energy E is

    u(r) = exp(-tau g r) * (g r)^(eta + 1) * 1F1(a; c; 2 tau g r),

with g = 1 + delta E, tau = sqrt(m0^2 c^4 - E^2) / (hbar c g),
a = (eta + 1) - beta^2 / (2 tau) and c = 2 (eta + 1).  At a solution of
the quantization condition a is a non-positive integer -n, the series
truncates to a polynomial, and u has exactly n radial nodes.  The second
independent solution is discarded: it behaves as (g r)^(-eta) near the
origin and is not regular there.  u is reported unnormalized.

kummer_1f1 and wavefunction_u evaluate one point and are the reference.
kummer_1f1_grid and wavefunction_grid run the same arithmetic over a whole
array only for the snapped polynomial, where every sample is bit-identical
to the scalar call; the reference evaluates everything else and raises
every error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .model import (ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers, case_parameters, energy_factor)

SNAP_TOL = 1e-8          # distance to a non-positive integer that truncates
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
        if self.c <= 0.0 and abs(self.c - round(self.c)) <= SNAP_TOL:
            raise DomainError(f"c={self.c} is a non-positive integer; "
                              "1F1 is singular there")

    @property
    def polynomial_degree(self) -> Optional[int]:
        """Degree when a snaps to a non-positive integer, else None."""
        m = round(self.a)
        if m <= 0 and abs(self.a - m) <= SNAP_TOL:
            return -m
        return None


def kummer_1f1(params: KummerParams, x: float) -> float:
    """1F1(a; c; x) for x >= 0 by direct term recurrence.

    When a lies within SNAP_TOL of a non-positive integer -n the sum is
    cut after the degree-n term, which is the exact polynomial value up to
    the tiny off-integer part of a.  Otherwise terms are added until the
    running term is below RATIO_TOL of the partial sum twice in a row;
    exceeding TERM_CAP raises EvaluationError.
    """
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"x must be finite and non-negative, got {x}")
    degree = params.polynomial_degree
    a, c = params.a, params.c
    term = 1.0
    total = 1.0
    if degree is not None:
        for k in range(degree):
            term *= (a + k) / (c + k) * x / (k + 1.0)
            total += term
        return total
    small_streak = 0
    for k in range(TERM_CAP):
        term *= (a + k) / (c + k) * x / (k + 1.0)
        total += term
        if abs(term) <= RATIO_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise EvaluationError(f"1F1({params.a}; {params.c}; {x}) did not "
                          f"converge within {TERM_CAP} terms")


@dataclass(frozen=True)
class WaveSolution:
    """Everything needed to evaluate u(r) at a fixed eigenvalue."""

    energy: float
    n: int
    l: int
    eta: float
    tau: float        # 1/fm
    growth: float     # g = 1 + delta E
    beta_sq: float    # 1/fm
    params: KummerParams


def build_wave_solution(constants: PhysicalConstants, particle: ParticleSpec,
                        pot: PotentialSpec, qn: QuantumNumbers, energy: float,
                        branch="plus") -> WaveSolution:
    case = case_parameters(constants, particle, pot, qn, energy, branch=branch)
    tau = math.sqrt(case.tau_sq)
    if not (tau > 0.0):
        raise DomainError(f"tau must be positive, got {tau} at E={energy}")
    g = energy_factor(pot, energy)
    a = (case.eta + 1.0) - case.beta_sq / (2.0 * tau)
    c = 2.0 * (case.eta + 1.0)
    return WaveSolution(energy=energy, n=qn.n, l=qn.l, eta=case.eta, tau=tau,
                        growth=g, beta_sq=case.beta_sq,
                        params=KummerParams(a=a, c=c))


def wavefunction_u(sol: WaveSolution, r: float) -> float:
    """u(r) at one radius; r = 0 maps to the regular value 0.

    The three factors are combined in log magnitude so intermediate
    overflow in (g r)^(eta+1) or underflow in exp(-tau g r) cannot
    poison a representable product.
    """
    if r < 0.0:
        raise DomainError(f"r must be non-negative, got {r}")
    if r == 0.0:
        return 0.0
    z = sol.growth * r
    F = kummer_1f1(sol.params, 2.0 * sol.tau * z)
    if F == 0.0:
        return 0.0
    if z == 0.0:
        raise DomainError(f"g r underflows to 0 at r={r}")
    log_mag = -sol.tau * z + (sol.eta + 1.0) * math.log(z) + math.log(abs(F))
    if log_mag > _LOG_HUGE:
        raise EvaluationError(f"u({r}) overflows (log magnitude {log_mag:.1f})")
    return math.copysign(math.exp(log_mag), F)


def kummer_1f1_grid(params: KummerParams, x) -> np.ndarray:
    """kummer_1f1 at every element of x.

    A snapped polynomial runs its k < n term steps on the whole array, so
    every value is bit-identical to kummer_1f1's; any other a maps
    kummer_1f1 over x.  Bad input raises what that loop raises first.
    """
    x = np.asarray(x, dtype=np.float64)
    degree = params.polynomial_degree
    if degree is None:
        return _map(partial(kummer_1f1, params), x)
    bad = ~((x >= 0.0) & np.isfinite(x))
    if bad.any():
        _raise_from(kummer_1f1, params, float(x[bad.argmax()]))
    a, c = params.a, params.c
    term = np.ones_like(x)
    total = np.ones_like(x)
    # Python floats overflow to inf and inf - inf is NaN without a
    # warning; the array arithmetic must do the same.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(degree):
            term *= (a + k) / (c + k) * x / (k + 1.0)
            total += term
    return total


def wavefunction_grid(sol: WaveSolution, radii) -> np.ndarray:
    """u at every radius, bit-identical to wavefunction_u at each.

    At a solved energy 1F1 is a polynomial and wavefunction_u's arithmetic
    runs on the whole array; any other energy maps wavefunction_u over the
    radii.  On the array path every sample the scalar call rejects is
    marked, and wavefunction_u runs on the first one to raise its error.
    The logarithms and exponentials map math.log and math.exp, because
    NumPy's vectorised versions may differ from libm in the last bit.
    """
    r = np.asarray(radii, dtype=np.float64)
    if sol.params.polynomial_degree is None:
        return _map(partial(wavefunction_u, sol), r)
    with np.errstate(over="ignore"):  # inf, as in Python; marked below
        z = sol.growth * r
        x = 2.0 * sol.tau * z
    bad = (r < 0.0) | ((r != 0.0) & ~((x >= 0.0) & np.isfinite(x)))
    live = np.flatnonzero((r != 0.0) & ~bad)
    F = kummer_1f1_grid(sol.params, x[live])
    keep = F != 0.0
    live, F, z = live[keep], F[keep], z[live[keep]]
    bad[live[z == 0.0]] = True  # g r underflowed; wavefunction_u raises
    keep = z != 0.0
    live, F, z = live[keep], F[keep], z[keep]
    log_mag = (-sol.tau * z + (sol.eta + 1.0) * _map(math.log, z)
               + _map(math.log, np.abs(F)))
    bad[live[log_mag > _LOG_HUGE]] = True
    if bad.any():
        _raise_from(wavefunction_u, sol, float(r[bad.argmax()]))
    out = np.zeros(r.shape)
    out[live] = np.copysign(_map(math.exp, log_mag), F)
    return out


def _raise_from(reference, *args):
    """Call a scalar reference on an argument it rejects, so that its own
    error propagates; returning there would break the array path."""
    reference(*args)
    raise AssertionError(f"{reference.__name__}{args} accepted a sample "
                         "the array path marked")


def _map(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64,
                       count=values.size)


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
    """Radius where the dominant factor exp(-tau g r) has decayed by
    e^-25 past the polynomial turning region."""
    scale = 25.0 + 2.0 * (sol.eta + sol.n + 1.0)
    return scale / (sol.tau * sol.growth)


@dataclass(frozen=True)
class BoundaryReport:
    """Diagnostics of one evaluated radial function."""

    r_max: float
    grid_points: int
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
    return grid_report(wavefunction_grid(sol, radii), radii)


def grid_report(u: np.ndarray, radii: np.ndarray) -> BoundaryReport:
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
    return BoundaryReport(r_max=float(radii[-1]), grid_points=len(radii),
                          u_origin=float(u[0]), max_abs=max_abs,
                          tail_ratio=tail_ratio, node_count=nodes)
