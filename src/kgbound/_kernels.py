"""Residual kernels: the one source of the quantization arithmetic.

energy_terms holds the scalar validity checks and the energy-dependent
terms g = 1 + delta E, K = k2 g^2 + l(l+1) and sqrt(1/4 + K); residual_point
and model.case_parameters both build on it.  residual_grid is the array
form of residual_point and must agree with it bit for bit.  Both read the
cell's coefficients from a quantization.ResidualSpec.

Status codes:
    0  valid evaluation
    1  E outside the open window (-m0c2, m0c2)
    2  energy factor 1 + delta*E not positive
    3  discriminant 1/4 + K(E) negative (eta complex)
    4  quantization denominator within POLE_EPS of zero
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchError, DomainError

# The benchmark stamps this on every run; only the NumPy kernel exists.
BACKEND = "fallback"

STATUS_OK = 0
STATUS_WINDOW = 1
STATUS_ENERGY_FACTOR = 2
STATUS_COMPLEX_ETA = 3
STATUS_POLE = 4

POLE_EPS = 1e-9  # |n + 1/2 + s sqrt(1/4 + K)| at or below this is a pole
_NAN = math.nan


def energy_terms(E, m0c2, delta, k2, ll1):
    """Validity status and (g, K, sqrt(1/4 + K)) at one energy.

    Returns (status, g, K, root); the terms are NaN where the status marks
    E invalid.
    """
    if not (-m0c2 < E < m0c2):
        return STATUS_WINDOW, _NAN, _NAN, _NAN
    g = 1.0 + delta * E
    if not (g > 0.0):
        return STATUS_ENERGY_FACTOR, _NAN, _NAN, _NAN
    K = k2 * (g * g) + ll1
    quarter = 0.25 + K
    if quarter < 0.0:
        return STATUS_COMPLEX_ETA, _NAN, _NAN, _NAN
    return STATUS_OK, g, K, math.sqrt(quarter)


def raise_for_status(status, E):
    """Raise the DomainError or BranchError a non-OK status stands for."""
    if status == STATUS_OK:
        return
    if status == STATUS_WINDOW:
        raise DomainError(f"E={E} outside the bound-state window")
    if status == STATUS_ENERGY_FACTOR:
        raise DomainError(f"energy factor 1 + delta*E not positive at E={E}")
    if status == STATUS_COMPLEX_ETA:
        raise BranchError(f"1/4 + K < 0 at E={E}; eta is complex")
    raise DomainError(f"quantization denominator vanishes at E={E}")


def residual_point(spec, E):
    """Evaluate the quantization residual of a cell at one energy.

    Returns (res, rhs, den, status); res/rhs/den are NaN where the status
    marks the evaluation invalid (den is still reported at a pole).
    """
    status, g, _, root = energy_terms(E, spec.m0c2, spec.delta, spec.k2,
                                      spec.ll1)
    if status != STATUS_OK:
        return _NAN, _NAN, _NAN, status
    den = spec.n_plus_half + spec.branch_sign * root
    if abs(den) <= POLE_EPS:
        return _NAN, _NAN, den, STATUS_POLE
    rhs = spec.alpha * (spec.c0 + spec.c1 * E) / den
    lhs = math.sqrt((spec.m0c2 - E) * (spec.m0c2 + E)) / g
    return lhs - rhs, rhs, den, STATUS_OK


def residual_grid(spec, E):
    """Vectorized residual_point over a 1-D energy array.

    Returns (res, rhs, den, status) float64/int32 arrays of E's shape.
    """
    E = np.ascontiguousarray(E, dtype=np.float64)
    m0c2 = spec.m0c2
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g = 1.0 + spec.delta * E
        gg = g * g
        quarter = 0.25 + (spec.k2 * gg + spec.ll1)
        root = np.sqrt(quarter)
        den = spec.n_plus_half + spec.branch_sign * root
        rhs = spec.alpha * (spec.c0 + spec.c1 * E) / den
        lhs = np.sqrt((m0c2 - E) * (m0c2 + E)) / g
        res = lhs - rhs

    status = np.zeros(E.shape, dtype=np.int32)
    # Later assignments win, so order from lowest to highest precedence.
    status[np.abs(den) <= POLE_EPS] = STATUS_POLE
    status[quarter < 0.0] = STATUS_COMPLEX_ETA
    status[~(g > 0.0)] = STATUS_ENERGY_FACTOR
    status[~((E > -m0c2) & (E < m0c2))] = STATUS_WINDOW

    bad = status != STATUS_OK
    res[bad] = np.nan
    rhs[bad] = np.nan
    den[(status >= STATUS_WINDOW) & (status <= STATUS_COMPLEX_ETA)] = np.nan
    return res, rhs, den, status
