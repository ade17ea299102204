"""Quantization condition and its residual.

A bound state at quantum numbers (n, l) satisfies

    sqrt(m0^2 c^4 - E^2) / (1 + delta E)
        = A/(hbar c) * (c0 + c1 E) / (n + eta + 1),

with eta = -1/2 + s sqrt(1/4 + K(E)) and the mode-dependent coefficients
from model.mode_coefficients.  residual(E) is LHS - RHS; its roots inside
the window (-m0c2, m0c2) are the candidate energies.  Roots where the RHS
is negative violate the sign convention of the condition and are rejected
(sign_validity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .errors import DomainError
from .model import (CouplingMode, ParticleSpec, PhysicalConstants,
                    PotentialSpec, QuantumNumbers, mode_coefficients,
                    parse_branch)

DEFAULT_WINDOW_MARGIN = 1e-6  # MeV kept clear of the window edges
_MIN_ENERGY_FACTOR = 1e-12


@dataclass(frozen=True)
class ResidualSpec:
    """Frozen coefficient pack for fast residual evaluation at fixed
    (mode, particle, potential, n, l, branch)."""

    mode: CouplingMode
    n: int
    l: int
    branch_sign: float
    m0c2: float
    delta: float
    alpha: float
    c0: float
    c1: float
    k2: float
    ll1: float
    n_plus_half: float
    window: tuple

    def describe_branch(self) -> str:
        return "plus" if self.branch_sign > 0.0 else "minus"


def physical_window(m0c2: float, delta: float,
                    margin: float = DEFAULT_WINDOW_MARGIN) -> tuple:
    """Open energy interval scanned for roots: (-m0c2, m0c2) shrunk by
    margin and clipped so the energy factor 1 + delta E stays positive."""
    if not (0.0 < margin < m0c2):
        raise DomainError(f"window margin must lie in (0, m0c2), got {margin}")
    lo = -m0c2 + margin
    hi = m0c2 - margin
    if delta > 0.0:
        lo = max(lo, (_MIN_ENERGY_FACTOR - 1.0) / delta)
    elif delta < 0.0:
        hi = min(hi, (_MIN_ENERGY_FACTOR - 1.0) / delta)
    if not (lo < hi):
        raise DomainError(f"empty energy window ({lo}, {hi})")
    return (lo, hi)


def build_residual_spec(constants: PhysicalConstants, particle: ParticleSpec,
                        pot: PotentialSpec, qn: QuantumNumbers,
                        branch="plus",
                        window_margin: float = DEFAULT_WINDOW_MARGIN) -> ResidualSpec:
    sgn = parse_branch(branch)
    m0c2 = particle.m0c2
    w = pot.lambda_b * m0c2
    alpha = pot.A / constants.hbar_c
    c0, c1, k2 = mode_coefficients(pot.mode, m0c2, w, alpha)
    return ResidualSpec(
        mode=pot.mode, n=qn.n, l=qn.l, branch_sign=sgn, m0c2=m0c2,
        delta=pot.delta, alpha=alpha, c0=c0, c1=c1, k2=k2,
        ll1=float(qn.l * (qn.l + 1)), n_plus_half=qn.n + 0.5,
        window=physical_window(m0c2, pot.delta, window_margin))


def evaluate(spec: ResidualSpec, E: float):
    """Raw kernel evaluation: (res, rhs, den, status) at one energy."""
    return _kernels.residual_point(spec, E)


def evaluate_grid(spec: ResidualSpec, energies):
    """Raw kernel evaluation over an energy array."""
    return _kernels.residual_grid(spec, energies)


def residual(spec: ResidualSpec, E: float) -> float:
    """LHS - RHS of the quantization condition, raising on invalid E."""
    res, _, _, status = evaluate(spec, E)
    if status != _kernels.STATUS_OK:
        _kernels.raise_for_status(status, E)
    return res


def sign_validity(spec: ResidualSpec, E: float) -> bool:
    """True when the RHS is non-negative at E, as the square root on the
    LHS demands.  Roots failing this are artifacts of squaring."""
    _, rhs, _, status = evaluate(spec, E)
    return status == _kernels.STATUS_OK and rhs >= 0.0


def constant_mass_b(A: float, B: float,
                    constants: PhysicalConstants = PhysicalConstants()) -> float:
    """Mass coupling b that makes an added Coulomb-like scalar strength B
    cancel the position dependence of the mass: b = B / (hbar c * A)."""
    if A == 0.0:
        raise DomainError("A must be nonzero")
    return B / (constants.hbar_c * A)


@dataclass(frozen=True)
class SpectrumEntry:
    """One resolved spectral line of a (n, l) cell."""

    n: int
    l: int
    line: str                       # "lower" | "upper"
    branch: str                     # "plus" | "minus"
    energy: Optional[float]         # MeV; None when the line is absent
    residual_at_root: Optional[float]
    iterations: int
    status: str                     # "converged" | "absent" | "failed"
    detail: str = ""

    def __post_init__(self):
        if self.line not in ("lower", "upper"):
            raise DomainError(f"line must be 'lower' or 'upper', got {self.line!r}")
        if self.status not in ("converged", "absent", "failed"):
            raise DomainError(f"unknown entry status {self.status!r}")
        if self.status == "converged" and self.energy is None:
            raise DomainError("converged entry must carry an energy")
        if self.energy is not None and not math.isfinite(self.energy):
            raise DomainError(f"energy must be finite, got {self.energy}")
