"""Physical model: particles, potentials, and per-energy derived parameters.

The potential is Coulomb-like with an energy-dependent strength,

    V(r, E) = -A (1 + delta E) / r,

and the mass carries a position- and energy-dependent correction,

    m(r, E) c^2 = m0 c^2 (1 - lambda_b A (1 + delta E) / r),

with lambda_b = lambda * b.  Four coupling modes are supported, differing
in how the scalar part of the interaction is tied to the vector part:

    emes  equal-magnitude, equal-sign scalar and vector parts
    emos  equal-magnitude, opposite-sign parts
    pv    pure vector coupling
    ps    pure scalar coupling

All energies are in MeV, lengths in fm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import DomainError

DEFAULT_HBAR_C = 197.3269804  # MeV fm
NEUTRAL_PION_M0C2 = 134.977   # MeV


class CouplingMode(Enum):
    EMES = "emes"
    EMOS = "emos"
    PURE_VECTOR = "pv"
    PURE_SCALAR = "ps"

    @classmethod
    def parse(cls, text: str) -> "CouplingMode":
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise DomainError(f"unknown coupling mode {text!r}; expected one "
                              "of " + ", ".join(m.value for m in cls)) from None


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit-conversion constants. Only hbar*c enters the equations."""

    hbar_c: float = DEFAULT_HBAR_C  # MeV fm

    def __post_init__(self):
        if not (self.hbar_c > 0.0 and math.isfinite(self.hbar_c)):
            raise DomainError(f"hbar_c must be positive and finite, got {self.hbar_c}")


def _require_rest_energy(m0c2: float) -> None:
    if not (m0c2 > 0.0 and math.isfinite(m0c2)):
        raise DomainError(f"m0c2 must be positive and finite, got {m0c2}")


@dataclass(frozen=True)
class ParticleSpec:
    """Rest energy and the length scale lambda that converts a bare mass
    coupling b into the tabulated lambda_b = lambda * b."""

    m0c2: float  # MeV
    lam: float   # fm

    def __post_init__(self):
        _require_rest_energy(self.m0c2)
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")

    @classmethod
    def with_compton_lambda(cls, m0c2: float,
                            constants: PhysicalConstants = PhysicalConstants()) -> "ParticleSpec":
        """Particle whose length scale is the reduced Compton wavelength
        hbar*c / m0c2.  With this choice lambda * m0c2 / (hbar*c) == 1
        exactly in floating point, which the constant-mass limit relies on."""
        _require_rest_energy(m0c2)  # before dividing by it
        lam = constants.hbar_c / m0c2
        if not (lam > 0.0 and math.isfinite(lam)):
            raise DomainError(f"m0c2={m0c2!r} MeV gives lambda = hbar_c / "
                              f"m0c2 = {lam!r} fm, which is not positive "
                              "and finite")
        return cls(m0c2=m0c2, lam=lam)

    @classmethod
    def neutral_pion(cls, constants: PhysicalConstants = PhysicalConstants()) -> "ParticleSpec":
        return cls.with_compton_lambda(NEUTRAL_PION_M0C2, constants)


@dataclass(frozen=True)
class PotentialSpec:
    """Interaction parameters.  A is the Coulomb-like strength in MeV fm,
    delta the energy-dependence tuning in 1/MeV, and lambda_b the tabulated
    mass coupling lambda * b in 1/MeV, kept exactly as given."""

    A: float
    delta: float
    lambda_b: float
    mode: CouplingMode

    def __post_init__(self):
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise DomainError(f"A must be positive and finite, got {self.A}")
        for name in ("delta", "lambda_b"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")

    @classmethod
    def from_lambda_b(cls, A: float, delta: float, lambda_b: float,
                      particle: ParticleSpec, mode: CouplingMode) -> "PotentialSpec":
        """Same as the constructor; particle is accepted and unused."""
        return cls(A=A, delta=delta, lambda_b=lambda_b, mode=mode)


@dataclass(frozen=True)
class QuantumNumbers:
    n: int  # radial node count
    l: int  # orbital angular momentum

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 0):
            raise DomainError(f"n must be a non-negative integer, got {self.n!r}")
        if not (isinstance(self.l, int) and self.l >= 0):
            raise DomainError(f"l must be a non-negative integer, got {self.l!r}")


@dataclass(frozen=True)
class CaseParameters:
    """Energy-dependent quantities entering the radial equation at fixed E."""

    tau_sq: float   # 1/fm^2
    beta_sq: float  # 1/fm
    K: float        # dimensionless
    eta: float      # dimensionless


def parse_branch(branch) -> float:
    """Normalize the eta branch selector to a sign (+1.0 or -1.0)."""
    if branch in (+1, +1.0, "+", "plus"):
        return 1.0
    if branch in (-1, -1.0, "-", "minus"):
        return -1.0
    raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")


def mode_coefficients(mode: CouplingMode, m0c2: float, w: float, alpha: float):
    """Single source for the per-mode coefficient pack.

    Returns (c0, c1, k2) such that

        beta^2 = 2 A (c0 + c1 E) / (hbar c)^2,
        K(E)   = k2 (1 + delta E)^2 + l (l + 1),

    with w = lambda_b * m0c2 and alpha = A / (hbar c).  The equal-magnitude
    modes share one path parameterized by the scalar sign so their formulas
    cannot drift apart.
    """
    if mode is CouplingMode.EMES or mode is CouplingMode.EMOS:
        sgn = 1.0 if mode is CouplingMode.EMES else -1.0
        c0 = sgn * m0c2 + w * m0c2
        c1 = 1.0
        k2 = alpha * alpha * (w * w + 2.0 * sgn * w)
    elif mode is CouplingMode.PURE_VECTOR:
        c0 = w * m0c2
        c1 = 1.0
        k2 = alpha * alpha * (w * w - 1.0)
    elif mode is CouplingMode.PURE_SCALAR:
        c0 = m0c2 + w * m0c2
        c1 = 0.0
        k2 = alpha * alpha * (1.0 + w) * (1.0 + w)
    else:  # pragma: no cover
        raise DomainError(f"unhandled mode {mode!r}")
    return c0, c1, k2


def energy_factor(pot: PotentialSpec, E: float) -> float:
    """g(E) = 1 + delta E, the energy-dependence multiplier."""
    return 1.0 + pot.delta * E


def _require_positive_radius(r) -> None:
    if not np.all(np.greater(r, 0.0)):  # NaN fails too
        raise DomainError(f"r must be positive, got {np.min(r)}")


def _require_finite(name: str, value, E: float):
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} is not finite at E={E}")
    return value


def vector_potential(pot: PotentialSpec, r, E: float):
    """V(r, E) = -A (1 + delta E) / r in MeV; r is a radius or an array.
    Raises DomainError where V overflows."""
    _require_positive_radius(r)
    with np.errstate(over="ignore"):  # checked below
        V = -pot.A * energy_factor(pot, E) / r
    return _require_finite("V", V, E)


def mass_at(particle: ParticleSpec, pot: PotentialSpec, r, E: float):
    """m(r, E) c^2 = m0c2 (1 - lambda_b A (1 + delta E) / r) in MeV; r is a
    radius or an array.  Raises DomainError where the mass overflows."""
    _require_positive_radius(r)
    with np.errstate(over="ignore"):  # checked below
        mc2 = particle.m0c2 * (1.0 - pot.lambda_b * pot.A
                               * energy_factor(pot, E) / r)
    return _require_finite("m c^2", mc2, E)


def case_parameters(constants: PhysicalConstants, particle: ParticleSpec,
                    pot: PotentialSpec, qn: QuantumNumbers, E: float,
                    branch="plus") -> CaseParameters:
    """Evaluate tau^2, beta^2, K and eta at one energy.

    Raises DomainError when E is outside (-m0c2, m0c2) or when the energy
    factor 1 + delta E is not positive, and BranchError when 1/4 + K < 0.
    """
    sgn = parse_branch(branch)
    m0c2 = particle.m0c2
    hc = constants.hbar_c
    w = pot.lambda_b * m0c2
    alpha = pot.A / hc
    c0, c1, k2 = mode_coefficients(pot.mode, m0c2, w, alpha)
    status, g, K, root = _kernels.energy_terms(E, m0c2, pot.delta, k2,
                                               float(qn.l * (qn.l + 1)))
    _kernels.raise_for_status(status, E)
    # Shared bound-state momentum scale: identical expression for every
    # mode so cross-mode comparisons are bit-for-bit reproducible.
    hc_sq = hc * hc
    den = hc_sq * (g * g)
    if hc_sq == 0.0 or den == 0.0:
        raise DomainError(f"hbar_c^2 g^2 = {den} at E={E}: an input "
                          "underflows double precision")
    tau_sq = (m0c2 - E) * (m0c2 + E) / den
    beta_sq = 2.0 * pot.A * (c0 + c1 * E) / hc_sq
    return CaseParameters(tau_sq=tau_sq, beta_sq=beta_sq, K=K,
                          eta=-0.5 + sgn * root)
