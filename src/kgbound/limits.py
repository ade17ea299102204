"""Special-case classification and the constant-mass reduction.

With the mass coupling chosen as lambda_b = lambda * b, where
b = B / (hbar c A) is quantization.constant_mass_b, adding a scalar
Coulomb-like strength B on top of the position-dependent mass restores a
constant mass: m(r, E) c^2 + B (1 + delta E) / r == m0 c^2 identically in
r and E, provided the particle length scale is the reduced Compton
wavelength (lambda * m0c2 == hbar c exactly).
"""

from __future__ import annotations

import math
from enum import Enum

from .model import ParticleSpec, PhysicalConstants, PotentialSpec, mass_at

CONSTANT_MASS_RTOL = 1e-12


class LimitCase(Enum):
    CONSTANT_MASS = "constant-mass"          # delta == 0 and lambda_b == 0
    ENERGY_DEP_ONLY = "energy-dependent"     # delta != 0, lambda_b == 0
    POSITION_DEP_ONLY = "position-dependent" # delta == 0, lambda_b != 0
    GENERAL = "general"


def classify(pot: PotentialSpec) -> LimitCase:
    """Exact-zero classification of the tuning parameters."""
    delta_zero = pot.delta == 0.0
    coupling_zero = pot.lambda_b == 0.0
    if delta_zero and coupling_zero:
        return LimitCase.CONSTANT_MASS
    if coupling_zero:
        return LimitCase.ENERGY_DEP_ONLY
    if delta_zero:
        return LimitCase.POSITION_DEP_ONLY
    return LimitCase.GENERAL


def constant_mass_identity_check(particle: ParticleSpec, pot: PotentialSpec,
                                 B: float, samples) -> bool:
    """Verify m(r, E) c^2 + B (1 + delta E) / r == m0 c^2 on (r, E) samples.

    Returns True when the squared combination matches m0^2 c^4 to
    CONSTANT_MASS_RTOL at every sample.  B must be the scalar strength that
    pot.lambda_b was derived from (lambda_b = particle.lam * b with
    b = B / (hbar c A)); the identity fails otherwise.
    """
    m0c2 = particle.m0c2
    target = m0c2 * m0c2
    for r, E in samples:
        combined = mass_at(particle, pot, r, E) + B * (1.0 + pot.delta * E) / r
        if not math.isfinite(combined):
            return False
        if abs(combined * combined - target) > CONSTANT_MASS_RTOL * target:
            return False
    return True


def default_identity_samples(particle: ParticleSpec, count: int = 25):
    """Deterministic (r, E) sample fan spanning short and long range."""
    m0c2 = particle.m0c2
    samples = []
    for i in range(count):
        r = 0.05 * (1.0 + i) ** 1.5
        E = -0.9 * m0c2 + (1.8 * m0c2) * i / max(count - 1, 1)
        samples.append((r, E))
    return samples
