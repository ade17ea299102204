"""Residual kernels: the one source of the quantization arithmetic.

energy_terms holds the scalar validity checks and the energy-dependent
terms g = 1 + delta E, K = k2 g^2 + l(l+1) and sqrt(1/4 + K); residual_point
and model.case_parameters both build on it.  residual_arrays is the
array form of residual_point and must agree with it bit for bit; its
coefficients broadcast against the energies.  The lock-step secant of
rootfind runs it with one coefficient set per bracket.

A scan computes each term once, at the level it depends on:

    energy grid      g, g^2, the LHS sqrt((m0c2 - E)(m0c2 + E)) / g and
    (with delta)     the regular flag (grid_terms)
    spectrum         the RHS numerator alpha (c0 + c1 E) (rhs_numerator)
    (spectrum, l)    sqrt(1/4 + K), once per residual_grid call
    cell (n)         den = n + 1/2 + s sqrt(1/4 + K), rhs and res, one row
                     each

Every such term is written, one ufunc step at a time in residual_point's
order, into arrays the caller may pass: grid_terms' and rhs_numerator's
out, residual_grid's out and scratch (1/4 + K and s sqrt(1/4 + K)).
rootfind's scan passes views of the scan arrays its thread keeps, so a
spectrum's scan allocates no float array the size of its grid; terms
given no array, as in the lock-step secant, are allocated.

Fast path: on a regular grid (ascending energies, all inside the window
with g > 0) where 1/4 + K >= 0 and every row's den lies beyond POLE_EPS
on one side of zero at both ends of the grid, every status is OK and the
mask passes are skipped.  Along such a grid g, 1/4 + K, den and the RHS
numerator are monotone, rounding included (each step is one correctly
rounded operation on a monotone input), so their ends bound them; on the
plus branch den >= 1/2 always.  Every other call sets the statuses by
the masks.  rootfind's scan reads the same ends before it calls the
kernel, and from them skips rows whose RHS is negative throughout and
searches the rows they prove finite and pole-free by their signs alone
(rootfind._search_block).

Status codes:
    0  valid evaluation
    1  E outside the open window (-m0c2, m0c2)
    2  energy factor 1 + delta*E not positive
    3  discriminant 1/4 + K(E) negative (eta complex)
    4  quantization denominator within POLE_EPS of zero
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

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


# The ResidualSpec fields that the cells of one residual_grid call share:
# all but n and n_plus_half.
GROUP_FIELDS = ("l", "branch_sign", "m0c2", "delta", "alpha", "c0", "c1",
                "k2", "ll1", "window")
_group_key = operator.attrgetter(*GROUP_FIELDS)


class GridTerms(NamedTuple):
    """The residual's terms that depend only on the energies E, m0c2 and
    delta: g = 1 + delta E, g^2 and the LHS.  regular is True when E is
    non-empty and ascending and every energy lies in the window
    (-m0c2, m0c2) with g > 0."""

    g: np.ndarray
    gg: np.ndarray
    lhs: np.ndarray
    regular: bool


def _energy_arrays(m0c2, delta, E, out=(None, None, None)):
    """g, g^2 and the LHS of the energies E, into out = (g, gg, lhs) where
    those are arrays (a None is allocated)."""
    g, gg, lhs = out
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g = np.multiply(delta, E, out=g)
        np.add(1.0, g, out=g)
        lhs = np.subtract(m0c2, E, out=lhs)
        gg = np.add(m0c2, E, out=gg)    # m0c2 + E until g^2 is due
        np.multiply(lhs, gg, out=lhs)
        np.sqrt(lhs, out=lhs)
        np.divide(lhs, g, out=lhs)
        np.multiply(g, g, out=gg)
    return g, gg, lhs


def grid_terms(m0c2, delta, E, out=(None, None, None)) -> GridTerms:
    """GridTerms of the energies E, shared by every cell scanned on them;
    g, g^2 and the LHS are written into out's arrays where given."""
    g, gg, lhs = _energy_arrays(m0c2, delta, E, out)
    regular = bool(E.size and (E[1:] >= E[:-1]).all()
                   and ((E > -m0c2) & (E < m0c2) & (g > 0.0)).all())
    return GridTerms(g, gg, lhs, regular)


def rhs_numerator(c, E, out=None):
    """alpha (c0 + c1 E), the RHS numerator, into out where given; it
    depends on the spectrum (c holds alpha, c0 and c1 as attributes) and
    the energies."""
    with np.errstate(invalid="ignore", over="ignore"):
        numerator = np.multiply(c.c1, E, out=out)
        np.add(c.c0, numerator, out=numerator)
        return np.multiply(c.alpha, numerator, out=numerator)


def residual_grid(specs, E, out=None, grid=None, numerator=None,
                  scratch=(None, None)):
    """residual_point of every cell in specs over a 1-D energy array.

    specs are the cells of one (spectrum, l): ResidualSpecs equal in every
    field but n and n_plus_half, so the energy terms are computed once and
    each cell adds only its denominator.  Returns (res, rhs, den, status)
    float64/int32 arrays of shape (len(specs), len(E)); row i is
    residual_point of specs[i] at each energy.  out, if given, is such a
    tuple of arrays, filled and returned in place of new ones.  grid and
    numerator, if given, are grid_terms(m0c2, delta, E) and
    rhs_numerator(spec, E) of these cells, computed once by a caller that
    scans other cells on the same energies.  scratch is residual_arrays'.
    """
    spec = specs[0]
    shared = _group_key(spec)
    for other in specs[1:]:
        if _group_key(other) != shared:
            raise ValueError("residual_grid takes cells that differ only in n")
    E = np.ascontiguousarray(E, dtype=np.float64)
    if out is None:
        out = (*np.empty((3, len(specs), len(E))),
               np.empty((len(specs), len(E)), dtype=np.int32))
    if grid is None:
        grid = grid_terms(spec.m0c2, spec.delta, E)
    n_plus_half = np.array([[s.n_plus_half] for s in specs])
    return residual_arrays(spec, n_plus_half, E, out, grid, numerator,
                           scratch)


def clear_of_pole(first, last):
    """True when den at the first and at the last energy of a regular grid
    lies beyond POLE_EPS on one side of zero, and so, den being monotone
    there (_pole_free), does the whole row."""
    return ((first > POLE_EPS and last > POLE_EPS)
            or (first < -POLE_EPS and last < -POLE_EPS))


def _pole_free(quarter, den):
    """True when 1/4 + K >= 0 at every energy of a regular grid and no
    row of den lies within POLE_EPS of zero.

    Along ascending energies with g > 0, g^2, 1/4 + K and each row's
    den = n + 1/2 + s sqrt(1/4 + K) are monotone, rounding included, so
    each takes its extremes at the first and the last energy.
    """
    if not (quarter[0] >= 0.0 and quarter[-1] >= 0.0):
        return False
    return all(map(clear_of_pole, den[..., 0].tolist(),
                   den[..., -1].tolist()))


def residual_arrays(c, n_plus_half, E, out, grid=None, numerator=None,
                    scratch=(None, None)):
    """residual_point over arrays, into out = (res, rhs, den, status).

    c holds the coefficients m0c2, delta, k2, ll1, branch_sign, alpha, c0
    and c1 as attributes, floats or arrays; they and n_plus_half broadcast
    against E to the shape of the out arrays.  Every element is computed
    with residual_point's operations in residual_point's order.

    grid and numerator are grid_terms(c.m0c2, c.delta, E) and
    rhs_numerator(c, E), computed here when not given.  A grid is given
    only with float coefficients, as residual_grid gives it: on a regular
    grid where 1/4 + K >= 0 throughout and no denominator is a pole
    (_pole_free), every status is OK and the mask passes are skipped.
    scratch holds two arrays of E's shape for 1/4 + K and
    s sqrt(1/4 + K), or Nones to allocate them.
    """
    res, rhs, den, status = out
    m0c2 = c.m0c2
    if grid is None:
        # not regular: the masks below decide every status
        grid = GridTerms(*_energy_arrays(m0c2, c.delta, E), False)
    if numerator is None:
        numerator = rhs_numerator(c, E)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        quarter = np.multiply(c.k2, grid.gg, out=scratch[0])
        np.add(quarter, c.ll1, out=quarter)
        np.add(0.25, quarter, out=quarter)
        signed_root = np.sqrt(quarter, out=scratch[1])
        np.multiply(c.branch_sign, signed_root, out=signed_root)
        np.add(n_plus_half, signed_root, out=den)
        np.divide(numerator, den, out=rhs)
        np.subtract(grid.lhs, rhs, out=res)

    status.fill(STATUS_OK)
    if grid.regular and _pole_free(quarter, den):
        return out
    pole = np.abs(den) <= POLE_EPS
    in_window = (E > -m0c2) & (E < m0c2)
    positive_g = grid.g > 0.0
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
