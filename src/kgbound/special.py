"""Confluent hypergeometric series and radial wave functions.

The unnormalized radial function for a bound state at energy E is

    u(r) = N1 * exp(-tau g r) * (g r)^(eta + 1) * 1F1(a; c; 2 tau g r),

with g = 1 + delta E, tau = sqrt(m0^2 c^4 - E^2) / (hbar c g),
a = (eta + 1) - beta^2 / (2 tau) and c = 2 (eta + 1).  At a solution of
the quantization condition a is a non-positive integer -n, the series
truncates to a polynomial, and u has exactly n radial nodes.  The second
independent solution is discarded (N2 = 0): it behaves as (g r)^(-eta)
near the origin and is not regular there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .model import (ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers, case_parameters, energy_factor)

SNAP_TOL = 1e-8          # distance to a non-positive integer that truncates
TERM_CAP = 10_000        # series terms before giving up
RATIO_TOL = 1e-16        # relative tail size that ends the summation
_LOG_HUGE = 700.0        # ln of roughly the largest finite double


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
    raise EvaluationError(f"1F1({a}; {c}; {x}) did not converge "
                          f"within {TERM_CAP} terms")


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
    N1: float = 1.0
    N2: float = 0.0


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
    log_mag = -sol.tau * z + (sol.eta + 1.0) * math.log(z) + math.log(abs(F))
    if log_mag > _LOG_HUGE:
        raise EvaluationError(f"u({r}) overflows (log magnitude {log_mag:.1f})")
    return math.copysign(sol.N1 * math.exp(log_mag), F)


def wavefunction_grid(sol: WaveSolution, radii) -> np.ndarray:
    out = np.empty(len(radii), dtype=np.float64)
    for i, r in enumerate(radii):
        out[i] = wavefunction_u(sol, float(r))
    return out


def normalize_on_grid(u: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Scale samples so the trapezoid integral of u^2 over radii is 1.

    A plotting convenience only; eigenfunctions are reported unnormalized
    (N1 = 1) everywhere else.
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
    if grid_points < 16:
        raise DomainError(f"grid_points must be at least 16, got {grid_points}")
    if r_max is None:
        r_max = default_r_max(sol)
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise DomainError(f"r_max must be positive and finite, got {r_max}")
    radii = np.linspace(0.0, r_max, grid_points)
    u = wavefunction_grid(sol, radii)
    max_abs = float(np.max(np.abs(u)))
    if max_abs == 0.0:
        raise EvaluationError("wave function vanished on the whole grid")
    tail_ratio = abs(float(u[-1])) / max_abs
    # Count sign changes between consecutive nonzero samples; exact zeros
    # (the origin, underflowed tail points) separate no nodes themselves.
    signs = [1.0 if v > 0.0 else -1.0 for v in u if v != 0.0]
    nodes = sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)
    return BoundaryReport(r_max=float(r_max), grid_points=grid_points,
                          u_origin=float(u[0]), max_abs=max_abs,
                          tail_ratio=tail_ratio, node_count=nodes)
