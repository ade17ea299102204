"""Quantization condition and its residual.

A bound state at quantum numbers (n, l) satisfies

    sqrt(m0^2 c^4 - E^2) / (1 + delta E)
        = A/(hbar c) * (c0 + c1 E) / (n + eta + 1),

with eta = -1/2 + s sqrt(1/4 + K(E)) and the mode-dependent coefficients
from model.mode_coefficients.  residual(E) is LHS - RHS; its roots inside
the window (-m0c2, m0c2), cut where eta turns complex, are the candidate
energies.  The LHS, a square root over a positive factor, is never
negative, so a root where the RHS is negative is rejected (sign_validity).
The residual is LHS - RHS, never squared: a near-root with RHS < 0 can
pass |residual| <= tol_residual only where the LHS is below tol_residual,
and that is the case the check guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import _kernels
from .errors import DomainError
from .model import (ParticleSpec, PhysicalConstants, PotentialSpec,
                    QuantumNumbers, mode_coefficients, parse_branch)

DEFAULT_WINDOW_MARGIN = 1e-6  # MeV kept clear of the window edges
_MIN_ENERGY_FACTOR = 1e-12


@dataclass(frozen=True)
class ResidualSpec:
    """Frozen coefficient pack for fast residual evaluation at fixed
    (mode, particle, potential, n, l, branch)."""

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


class SpectrumTerms(NamedTuple):
    """What every cell of one spectrum (one potential on one branch)
    shares: the branch sign, the coefficients, and physical_window before
    it is cut where eta turns complex.  window_cut is True in the terms of
    one l whose window a cell of that l has already cut."""

    branch_sign: float
    m0c2: float
    delta: float
    alpha: float
    c0: float
    c1: float
    k2: float
    window: tuple
    window_cut: bool = False


def new_frozen(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, given in
    field order, with no __post_init__ run: one update of its field dict,
    in place of the frozen __init__, which sets each field through
    object.__setattr__ and costs two to five times as much."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def physical_window(m0c2: float, delta: float,
                    margin: float = DEFAULT_WINDOW_MARGIN) -> tuple:
    """Open energy interval scanned for roots: (-m0c2, m0c2) shrunk by
    margin, or by one ulp where the margin rounds away, and clipped so the
    energy factor 1 + delta E stays positive."""
    if not (0.0 < margin < m0c2):
        raise DomainError(f"window margin must lie in (0, m0c2), got {margin}")
    lo = max(-m0c2 + margin, math.nextafter(-m0c2, 0.0))
    hi = min(m0c2 - margin, math.nextafter(m0c2, 0.0))
    if delta > 0.0:
        lo = max(lo, (_MIN_ENERGY_FACTOR - 1.0) / delta)
    elif delta < 0.0:
        hi = min(hi, (_MIN_ENERGY_FACTOR - 1.0) / delta)
    if not (lo < hi):
        raise DomainError(f"empty energy window ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise DomainError(f"energy window ({lo}, {hi}) is wider than the "
                          "largest double")
    return (lo, hi)


def complex_eta(E: float, m0c2: float, delta: float, k2: float,
                ll1: float) -> bool:
    """True when E lies in the window and 1/4 + K(E) < 0 there."""
    return (_kernels.energy_terms(E, m0c2, delta, k2, ll1)[0]
            == _kernels.STATUS_COMPLEX_ETA)


def _real_eta_window(window: tuple, m0c2: float, delta: float, k2: float,
                     ll1: float) -> tuple:
    """window cut at the last double with real eta, found by bisection.
    1/4 + K(E) is monotone in E, rounding included, so eta is complex on
    at most one end; a window with real eta at both ends, or complex eta
    at both, stays whole.  So eta is complex over the window returned
    exactly when it is complex at its first energy."""
    lo, hi = window
    cut_lo = complex_eta(lo, m0c2, delta, k2, ll1)
    if cut_lo == complex_eta(hi, m0c2, delta, k2, ll1):
        return window
    real, edge = (hi, lo) if cut_lo else (lo, hi)
    while (mid := 0.5 * (real + edge)) not in (real, edge):
        if complex_eta(mid, m0c2, delta, k2, ll1):
            edge = mid
        else:
            real = mid
    return (real, hi) if cut_lo else (lo, real)


def spectrum_terms(constants: PhysicalConstants, particle: ParticleSpec,
                   pot: PotentialSpec, branch="plus",
                   window_margin: float = DEFAULT_WINDOW_MARGIN) -> SpectrumTerms:
    """The SpectrumTerms of one potential on one branch.  Coefficients
    that overflow to inf or NaN are refused: no residual built on them is
    a number."""
    sgn = parse_branch(branch)
    m0c2 = particle.m0c2
    alpha = pot.A / constants.hbar_c
    c0, c1, k2 = mode_coefficients(pot.mode, m0c2, pot.lambda_b * m0c2, alpha)
    window = physical_window(m0c2, pot.delta, window_margin)
    if not all(map(math.isfinite, (alpha, c0, c1, k2))):
        raise DomainError(f"coefficients alpha={alpha}, c0={c0}, c1={c1}, "
                          f"k2={k2}: an input overflows double precision")
    return SpectrumTerms(sgn, m0c2, pot.delta, alpha, c0, c1, k2, window)


def build_residual_spec(constants: PhysicalConstants, particle: ParticleSpec,
                        pot: PotentialSpec, qn: QuantumNumbers,
                        branch="plus",
                        window_margin: float = DEFAULT_WINDOW_MARGIN,
                        terms: Optional[SpectrumTerms] = None) -> ResidualSpec:
    """Coefficients of one (n, l) cell on one branch.  The window is
    physical_window ending at the last energy with real eta, or all of
    physical_window where eta is complex at both of its ends.

    terms, if given, must be spectrum_terms of this potential, branch and
    window_margin, or those terms with the window of a cell of the same l
    built on them and window_cut set: only l(l + 1) and the window's cut
    are computed, and every argument but qn is ignored.  A window already
    cut has real eta at both ends (or complex eta at both), so where
    window_cut is set it is taken as it is, unchecked."""
    t = terms if terms is not None else spectrum_terms(
        constants, particle, pot, branch, window_margin)
    ll1 = float(qn.l * (qn.l + 1))
    window = t.window if t.window_cut else _real_eta_window(
        t.window, t.m0c2, t.delta, t.k2, ll1)
    return new_frozen(
        ResidualSpec, n=qn.n, l=qn.l, branch_sign=t.branch_sign,
        m0c2=t.m0c2, delta=t.delta, alpha=t.alpha, c0=t.c0, c1=t.c1,
        k2=t.k2, ll1=ll1, n_plus_half=qn.n + 0.5, window=window)


def evaluate(spec: ResidualSpec, E: float):
    """Raw kernel evaluation: (res, rhs, den, status) at one energy."""
    return _kernels.residual_point(spec, E)


def residual(spec: ResidualSpec, E: float) -> float:
    """LHS - RHS of the quantization condition, raising on invalid E."""
    res, _, _, status = evaluate(spec, E)
    _kernels.raise_for_status(status, E)
    return res


def sign_validity(spec: ResidualSpec, E: float) -> bool:
    """True when the RHS is non-negative at E, as the square root on the
    LHS demands.  RHS = LHS - residual, so where |residual| <=
    tol_residual the RHS is negative only if the LHS is below
    tol_residual."""
    _, rhs, _, status = evaluate(spec, E)
    return status == _kernels.STATUS_OK and rhs >= 0.0


@dataclass(frozen=True)
class SpectrumEntry:
    """One resolved spectral line of a (n, l) cell."""

    n: int
    l: int
    line: str                       # "lower" | "upper"
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
