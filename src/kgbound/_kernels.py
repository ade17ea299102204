"""Residual kernels: the one source of the quantization arithmetic.

energy_terms holds the scalar validity checks and the energy-dependent
terms g = 1 + delta E, K = k2 g^2 + l(l+1) and sqrt(1/4 + K); residual_point
and model.case_parameters both build on it.  residual_arrays is the
array form of residual_point and must agree with it bit for bit; its
coefficients broadcast against the energies.  residual_grid runs it once
per (spectrum, l): the cells of one l share g, the LHS, the RHS numerator
alpha (c0 + c1 E) and sqrt(1/4 + K), and differ only in n.  The lock-step
secant of rootfind runs it with one coefficient set per bracket.

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


def status_error(status, E):
    """The DomainError or BranchError a non-OK status stands for, or None."""
    if status == STATUS_OK:
        return None
    if status == STATUS_WINDOW:
        return DomainError(f"E={E} outside the bound-state window")
    if status == STATUS_ENERGY_FACTOR:
        return DomainError(f"energy factor 1 + delta*E not positive at E={E}")
    if status == STATUS_COMPLEX_ETA:
        return BranchError(f"1/4 + K < 0 at E={E}; eta is complex")
    return DomainError(f"quantization denominator vanishes at E={E}")


def raise_for_status(status, E):
    """Raise the DomainError or BranchError a non-OK status stands for."""
    err = status_error(status, E)
    if err is not None:
        raise err


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


def residual_grid(specs, E, out=None):
    """residual_point of every cell in specs over a 1-D energy array.

    specs are the cells of one (spectrum, l): ResidualSpecs equal in every
    field but n and n_plus_half, so the energy terms are computed once and
    each cell adds only its denominator.  Returns (res, rhs, den, status)
    float64/int32 arrays of shape (len(specs), len(E)); row i is
    residual_point of specs[i] at each energy.  out, if given, is such a
    tuple of arrays, filled and returned in place of new ones.
    """
    spec = specs[0]
    shared = dict(vars(spec), n=None, n_plus_half=None)
    for other in specs[1:]:
        if dict(vars(other), n=None, n_plus_half=None) != shared:
            raise ValueError("residual_grid takes cells that differ only in n")
    E = np.ascontiguousarray(E, dtype=np.float64)
    if out is None:
        out = (*np.empty((3, len(specs), len(E))),
               np.empty((len(specs), len(E)), dtype=np.int32))
    n_plus_half = np.array([[s.n_plus_half] for s in specs])
    return residual_arrays(spec, n_plus_half, E, out)


def residual_arrays(c, n_plus_half, E, out):
    """residual_point over arrays, into out = (res, rhs, den, status).

    c holds the coefficients m0c2, delta, k2, ll1, branch_sign, alpha, c0
    and c1 as attributes, floats or arrays; they and n_plus_half broadcast
    against E to the shape of the out arrays.  Every element is computed
    with residual_point's operations in residual_point's order.
    """
    res, rhs, den, status = out
    m0c2 = c.m0c2
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g = 1.0 + c.delta * E
        gg = g * g
        quarter = 0.25 + (c.k2 * gg + c.ll1)
        signed_root = c.branch_sign * np.sqrt(quarter)
        numerator = c.alpha * (c.c0 + c.c1 * E)
        lhs = np.sqrt((m0c2 - E) * (m0c2 + E)) / g
        np.add(n_plus_half, signed_root, out=den)
        np.divide(numerator, den, out=rhs)
        pole = np.abs(den, out=res) <= POLE_EPS  # res is scratch until set
        np.subtract(lhs, rhs, out=res)

    status.fill(STATUS_OK)
    in_window = (E > -m0c2) & (E < m0c2)
    positive_g = g > 0.0
    complex_eta = quarter < 0.0
    valid = in_window & positive_g & ~complex_eta
    if valid.all() and not pole.any():
        return out
    # Later assignments win, so order from lowest to highest precedence.
    np.copyto(status, STATUS_POLE, where=pole)
    np.copyto(status, STATUS_COMPLEX_ETA, where=complex_eta)
    np.copyto(status, STATUS_ENERGY_FACTOR, where=~positive_g)
    np.copyto(status, STATUS_WINDOW, where=~in_window)

    bad = status != STATUS_OK
    np.copyto(res, np.nan, where=bad)
    np.copyto(rhs, np.nan, where=bad)
    np.copyto(den, np.nan, where=~valid)
    return out
