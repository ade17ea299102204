import collections
import dataclasses
import math
import random
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kgbound import (BranchError, ConvergenceError, CouplingMode,
                     DomainError, ParticleSpec, PhysicalConstants,
                     PotentialSpec, QuantumNumbers, SolverConfig,
                     build_residual_spec, secant_refine, sign_validity,
                     solve_cell, solve_spectra, solve_spectrum)
from kgbound import _kernels, quantization, rootfind
from kgbound.cli import main
from kgbound.quantization import residual
from kgbound.rootfind import (MAX_GRID_POINTS, bracket_scan, lockstep_refine,
                              spectrum_cells)

from conftest import (A_DEFAULT, GRID_VALUES, load_reference, scan_brackets,
                      scan_grid)


def make_spec(constants, pion, mode, n=0, l=0, delta=0.0, lambda_b=0.0,
              branch="plus", A=A_DEFAULT):
    pot = PotentialSpec.from_lambda_b(A=A, delta=delta, lambda_b=lambda_b,
                                      particle=pion, mode=mode)
    return build_residual_spec(constants, pion, pot, QuantumNumbers(n=n, l=l),
                               branch=branch)


def bisect_root(f, a, b, tol):
    """Reference bisection, deliberately independent of secant_refine."""
    fa = f(a)
    if fa == 0.0:
        return a
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a <= tol:
            break
    return 0.5 * (a + b)


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(DomainError):
        SolverConfig(grid_points=99)
    SolverConfig(grid_points=MAX_GRID_POINTS)
    with pytest.raises(DomainError):
        SolverConfig(grid_points=10**9)
    with pytest.raises(DomainError):
        SolverConfig(max_iter=7)
    with pytest.raises(DomainError):
        SolverConfig(tol_energy=0.0)
    with pytest.raises(DomainError):
        SolverConfig(tol_residual=-1e-8)
    with pytest.raises(DomainError):
        SolverConfig(window_margin=math.inf)


def test_secant_solves_linear_function_in_one_step():
    config = SolverConfig()
    r = secant_refine(lambda E: E - 42.0, (0.0, 100.0), config)
    assert r.energy == 42.0
    assert r.residual == 0.0
    assert r.iterations == 1


def test_secant_rejects_bracket_without_sign_change():
    with pytest.raises(DomainError):
        secant_refine(lambda E: E * E + 1.0, (0.0, 1.0), SolverConfig())


@pytest.mark.parametrize("bracket", [(2.0, 5.0), (-1.0, 2.0)])
def test_secant_returns_at_once_on_a_root_at_an_end(bracket):
    calls = []

    def f(x):
        calls.append(x)
        return x - 2.0

    r = secant_refine(f, bracket, SolverConfig())
    assert (r.energy, r.residual, r.iterations) == (2.0, 0.0, 0)
    assert calls == list(bracket)


def test_secant_degenerate_bracket():
    config = SolverConfig()
    r = secant_refine(lambda E: E - 5.0, (5.0, 5.0), config)
    assert r.energy == 5.0 and r.iterations == 0
    with pytest.raises(ConvergenceError):
        secant_refine(lambda E: E - 4.0, (5.0, 5.0), config)


def test_secant_reports_best_iterate_on_failure():
    # a step discontinuity has a sign change but never a small residual
    def f(E):
        return 1e-3 if E >= math.pi else -1e-3

    config = SolverConfig(max_iter=16)
    with pytest.raises(ConvergenceError) as err:
        secant_refine(f, (0.0, 4.0), config)
    assert err.value.iterations == 16
    assert abs(err.value.best_residual) == 1e-3
    # every iterate ties at |f| = 1e-3, so the first minimum is kept
    assert 0.0 <= err.value.best_energy <= 4.0


def test_bracket_scan_finds_symmetric_pure_scalar_pair(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.PURE_SCALAR)
    config = SolverConfig()
    brackets = scan_brackets(spec, config)
    assert len(brackets) == 2
    lo_pair, hi_pair = brackets
    assert lo_pair[0] < -105.71706 < lo_pair[1]
    assert hi_pair[0] < 105.71706 < hi_pair[1]


def test_bracket_scan_empty_when_rhs_negative(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMOS)
    assert scan_brackets(spec, SolverConfig()) == []


def test_bracket_scan_rejects_sign_change_through_pole(constants, pion):
    # pv with A = 300 on the minus branch: the denominator 1 + 1/2 +
    # branch_sign sqrt(1/4 + K(E)) crosses zero where K(E) = 2, i.e. at
    # g = 2 hbar_c / A, E = (g - 1) / delta
    delta = 0.003
    spec = make_spec(constants, pion, CouplingMode.PURE_VECTOR, n=1, l=2,
                     delta=delta, branch="minus", A=300.0)
    pole = (2.0 * constants.hbar_c / 300.0 - 1.0) / delta
    config = SolverConfig()
    E = scan_grid(spec, config)
    i = int(np.searchsorted(E, pole))
    # the residual does flip sign between the grid nodes around the pole
    assert residual(spec, E[i - 1]) * residual(spec, E[i]) < 0.0
    assert not any(a <= pole <= b for a, b in scan_brackets(spec, config))

    cell = solve_cell(spec, config)
    assert cell.lower.status == "converged"
    assert cell.lower.energy == pytest.approx(-65.885, abs=1e-3)
    assert cell.upper.status == "absent"
    assert cell.extras == ()
    assert all(e.energy is None or abs(e.energy - pole) > 1e-3
               for e in cell.entries)


OK, POLE = _kernels.STATUS_OK, _kernels.STATUS_POLE


@pytest.mark.parametrize("res,den,status,want", [
    # residual products that underflow to -0.0 and overflow to -inf
    ([1e-200, -1e-200], [1.0, 1.0], [OK, OK], [(0.0, 1.0)]),
    ([1e200, -1e200], [-1e200, -1e200], [OK, OK], [(0.0, 1.0)]),
    # den overflowed to -inf next to a pole node that keeps den = 0
    ([1.0, math.nan], [-math.inf, 0.0], [OK, POLE], []),
])
def test_bracket_scan_reads_signs_of_extreme_values(res, den, status, want):
    assert bracket_scan(np.array([0.0, 1.0]), np.array(res), np.array(den),
                        np.array(status, dtype=np.int32)) == want


RES = st.sampled_from([-2.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 2.0,
                       math.inf, -math.inf])
DEN = st.sampled_from([-1e300, -1.0, 1.0, 1e300, -math.inf, math.inf])
STATUS = st.sampled_from([OK] * 6 + [_kernels.STATUS_WINDOW,
                                     _kernels.STATUS_COMPLEX_ETA, POLE])
NODE = st.tuples(RES, st.sampled_from([-1.0, 0.0, 1.0]), DEN, STATUS)


def kernel_block(nodes):
    """(res, rhs, den, status) of rows of (res, rhs, den, status) nodes as
    the kernel leaves them: res and rhs NaN off the valid nodes, den NaN
    off them too except at a pole."""
    res, rhs, den, status = (np.array(a, dtype=float)
                             for a in np.moveaxis(np.array(nodes), 2, 0))
    status = status.astype(np.int32)
    invalid = status != OK
    res[invalid] = rhs[invalid] = math.nan
    den[invalid & (status != POLE)] = math.nan
    return res, rhs, den, status


def assert_block_search(res, rhs, den, status, verdicts):
    """Row by row, rootfind._search_block gives what bracket_scan and
    _scan_reading give, up to the first row holding an infinite residual
    at a valid node, an overflow, which it names."""
    rows, points = res.shape
    E = np.linspace(-1.0, 1.0, points)
    found, readings, overflow = rootfind._search_block(E, res, rhs, den,
                                                       status, verdicts)
    for r in range(rows):
        ok = status[r] == OK
        bad = np.flatnonzero(ok & ~np.isfinite(res[r]))
        if bad.size:
            assert overflow == (r, bad[0])
            assert len(found) == len(readings) == r
            break
        want = bracket_scan(E, res[r], den[r], status[r])
        assert found[r] == want
        assert readings[r] == rootfind._scan_reading(rhs[r], status[r])
        if not ok.any():
            reason = ("eta complex over the whole window"
                      if (status[r] == _kernels.STATUS_COMPLEX_ETA).all()
                      else "no valid evaluation point in the window")
        elif (rhs[r][ok] < 0.0).all():
            reason = "quantization RHS negative over the window"
        else:
            reason = rootfind.absence_reason(rootfind._SCANNED, len(want))
        assert rootfind.absence_reason(readings[r], len(want)) == reason
    else:
        assert overflow is None and len(found) == len(readings) == rows


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 4), points=st.integers(2, 9), data=st.data())
def test_block_search_equals_bracket_scan_row_by_row(rows, points, data):
    # rows whose ends prove nothing; an infinite res at a valid node is an
    # overflow
    nodes = data.draw(st.lists(st.lists(NODE, min_size=points,
                                        max_size=points),
                               min_size=rows, max_size=rows))
    assert_block_search(*kernel_block(nodes), [rootfind._UNPROVED] * rows)


# A node of a row whose ends prove it finite and pole-free: valid, finite,
# |den| > POLE_EPS (its sign is the row's), exact zeros included.
PROVED_NODE = st.tuples(
    st.sampled_from([-2.0, -1e-300, -0.0, 0.0, 1e-300, 2.0]),
    st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
    st.sampled_from([2e-9, 1.0, 1e300]), st.just(OK))


@settings(max_examples=300, deadline=None)
@given(proved=st.lists(st.booleans(), min_size=1, max_size=5),
       points=st.integers(2, 9), data=st.data())
def test_block_search_mixes_proved_and_unproved_rows(proved, points, data):
    # one kernel call holding proved rows (_SCANNED: some rhs is not
    # negative, so the last one is made so), unproved rows, and rows of
    # either kind holding an exact zero
    nodes = []
    for is_proved in proved:
        row = data.draw(st.lists(PROVED_NODE if is_proved else NODE,
                                 min_size=points, max_size=points))
        if is_proved:
            side = data.draw(st.sampled_from([-1.0, 1.0]))
            row = [(res, rhs, side * den, s) for res, rhs, den, s in row]
            res, rhs, den, s = row[-1]
            row[-1] = (res, abs(rhs), den, s)
        nodes.append(row)
    assert_block_search(*kernel_block(nodes),
                        [rootfind._SCANNED if is_proved else rootfind._UNPROVED
                         for is_proved in proved])


def scan_group(group, capacity=None, points=4000):
    """rootfind._scan_group of one (spectrum, l) group on its window's
    grid, as _scan_and_refine runs it, with a scan block of capacity rows;
    and the grid."""
    spec = group[0]
    E = np.linspace(*spec.window, points)
    first = _kernels.energy_terms(spec.window[0], spec.m0c2, spec.delta,
                                  spec.k2, spec.ll1)
    rows = capacity or len(group)
    work = (*np.full((3, rows, points), 7.0),
            np.full((rows, points), 9, dtype=np.int32))
    scratch = [np.full(points, 7.0), np.full(points, 7.0)]
    found, readings, overflow = rootfind._scan_group(
        group, first, E, _kernels.grid_terms(spec.m0c2, spec.delta, E),
        _kernels.rhs_numerator(spec, E), work, scratch)
    return E, found, readings, overflow


def end_verdicts(group, points=4000):
    """rootfind._end_verdict of each row of group, or None where the ends
    bound nothing."""
    spec = group[0]
    E = np.linspace(*spec.window, points)
    first = _kernels.energy_terms(spec.window[0], spec.m0c2, spec.delta,
                                  spec.k2, spec.ll1)
    ends = rootfind._end_terms(
        spec, first, _kernels.grid_terms(spec.m0c2, spec.delta, E),
        _kernels.rhs_numerator(spec, E))
    if ends is None:
        return None
    return [rootfind._end_verdict(cell.n_plus_half, *ends) for cell in group]


def assert_scan_group_is_the_full_scan(group, capacity=None, points=4000):
    """Row by row, _scan_group gives what bracket_scan and _scan_reading
    give on the kernel's full block, rows it never evaluates included."""
    E, found, readings, overflow = scan_group(group, capacity, points)
    assert overflow is None
    res, rhs, den, status = _kernels.residual_grid(group, E)
    assert len(found) == len(readings) == len(group)
    for r in range(len(group)):
        assert found[r] == bracket_scan(E, res[r], den[r], status[r])
        assert readings[r] == rootfind._scan_reading(rhs[r], status[r])


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(list(CouplingMode)), A=st.floats(20.0, 400.0),
       delta=st.floats(-0.006, 0.006), lambda_b=st.floats(-0.006, 0.006),
       l=st.integers(0, 5), n_max=st.integers(0, 5),
       branch=st.sampled_from(["plus", "minus"]), data=st.data())
def test_end_decided_search_equals_bracket_scan_row_by_row(
        constants, pion, mode, A, delta, lambda_b, l, n_max, branch, data):
    # the cells of one (spectrum, l) built as solve_spectra builds them,
    # scanned in kernel calls of 1 to all of its rows
    assume(l <= n_max)
    group = [make_spec(constants, pion, mode, n=n, l=l, delta=delta,
                       lambda_b=lambda_b, branch=branch, A=A)
             for n in range(l, n_max + 1)]
    spec = group[0]
    assume(not quantization.complex_eta(spec.window[0], spec.m0c2,
                                        spec.delta, spec.k2, spec.ll1))
    capacity = data.draw(st.integers(1, len(group)))
    assert_scan_group_is_the_full_scan(group, capacity)


def hand_spec(**fields):
    """A hand-built cell: m0c2 = 5, delta = 0, k2 = l(l + 1) = 0, plus
    branch, n = 0, unless fields say otherwise."""
    base = dict(n=0, l=0, branch_sign=1.0, m0c2=5.0, delta=0.0, alpha=1.0,
                c0=4.0, c1=0.0, k2=0.0, ll1=0.0, n_plus_half=0.5,
                window=(-4.0, 4.0))
    return quantization.ResidualSpec(**dict(base, **fields))


def test_end_decided_search_keeps_an_exact_zero_node():
    # den = 1/2 + sqrt(1/4) = 1 and RHS = 4; LHS = sqrt((5 - E)(5 + E)) is
    # exactly 4 at E = +-3, nodes of the 9-node grid: two degenerate
    # brackets and no sign change
    spec = hand_spec()
    assert end_verdicts([spec], points=9) == [rootfind._SCANNED]
    _, found, readings, _ = scan_group([spec], points=9)
    assert found == [[(-3.0, -3.0), (3.0, 3.0)]]
    assert readings == [rootfind._SCANNED]
    assert_scan_group_is_the_full_scan([spec], points=9)


@pytest.mark.parametrize("fields, reading", [
    # RHS = -1e-310 / 1e20 underflows to -0.0 at every node: not negative
    (dict(alpha=1e-300, c0=-1e-10, n_plus_half=1e20), rootfind._SCANNED),
    # min|numerator| / max|den| underflows, but each node's RHS, the
    # numerator -1e-310 - E over den ~ 1e10 g with g = 1 + 1e10 E, does
    # not: every RHS is negative
    (dict(c0=-1e-310, c1=-1.0, delta=1e10, k2=1e20, window=(0.0, 4.0)),
     rootfind._RHS_NEGATIVE),
])
def test_end_decided_reading_falls_back_where_the_quotient_underflows(
        fields, reading):
    spec = hand_spec(**fields)
    assert end_verdicts([spec]) == [rootfind._UNPROVED]
    _, _, readings, _ = scan_group([spec])
    assert readings == [reading]
    assert_scan_group_is_the_full_scan([spec])


def near_pole_group(c0, ns_plus_half):
    """Minus-branch cells of sqrt(1/4 + K) = 1.5 throughout (k2 = 2,
    delta = 0), so den = n + 1/2 - 1.5, with numerator c0."""
    return [hand_spec(n=n, branch_sign=-1.0, k2=2.0, c0=c0,
                      n_plus_half=n_plus_half)
            for n, n_plus_half in enumerate(ns_plus_half)]


def test_near_overflow_numerator_keeps_the_overflow_error_in_cell_order():
    # den = 2 in cell 0, about 1.05e-9 in cells 1 and 2, where RHS =
    # 2e299 / den overflows: the ends bound nothing (2e299 / POLE_EPS
    # overflows), and the scan refuses cell 1, as scanning it alone would
    rows = (3.5, 1.5 + 1.05e-9, 1.5 + 1.05e-9)
    group = near_pole_group(2e299, rows)
    assert end_verdicts(group) is None
    _, found, readings, overflow = scan_group(group)
    assert len(found) == len(readings) == 1 and overflow[0] == 1
    with pytest.raises(DomainError, match=r"in cell \(n=1, l=0\).*overflows"):
        rootfind._scan_and_refine([[group]], SolverConfig())
    # 1.7e299 / POLE_EPS does not overflow: the ends bound every row, and
    # 1.7e299 / 1.05e-9 is finite
    group = near_pole_group(1.7e299, rows)
    assert rootfind._UNPROVED not in end_verdicts(group)
    assert_scan_group_is_the_full_scan(group)


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("c0", [4.0, -4.0])
def test_den_ends_a_few_ulps_off_the_pole_band(side, c0):
    # den = n + 1/2 - 1.5 is exact; n + 1/2 steps by ulps around
    # 1.5 +- POLE_EPS, so den lies a few ulps inside or outside the band,
    # on either side of 0 (den < 0 is the minus branch below its pole)
    edge = 1.5 + side * _kernels.POLE_EPS
    rows = [edge]
    for _ in range(3):
        rows = [math.nextafter(rows[0], 0.0)] + rows + [
            math.nextafter(rows[-1], math.inf)]
    group = near_pole_group(c0, rows)
    verdicts = end_verdicts(group)
    outside = [abs(n_plus_half - 1.5) > _kernels.POLE_EPS
               for n_plus_half in rows]
    assert [v != rootfind._UNPROVED for v in verdicts] == outside
    assert 0 < sum(outside) < len(rows)
    for cell in group:
        assert_scan_group_is_the_full_scan([cell])
    assert_scan_group_is_the_full_scan(group)
    assert_scan_group_is_the_full_scan(group, capacity=3)


@pytest.mark.parametrize("c0, verdict", [(4.0, rootfind._RHS_NEGATIVE),
                                         (-4.0, rootfind._SCANNED)])
def test_minus_branch_rows_with_negative_den(constants, pion, c0, verdict):
    # den = n + 1/2 - sqrt(1/4 + K) < 0: a positive numerator makes every
    # RHS negative, a row the scan never evaluates; a negative one does not
    group = [hand_spec(n=n, branch_sign=-1.0, k2=20.0, c0=c0, delta=0.01,
                       n_plus_half=n + 0.5) for n in range(3)]
    assert end_verdicts(group) == [verdict] * 3
    assert_scan_group_is_the_full_scan(group)
    # a real spectrum's minus-branch rows, with den < 0 throughout
    spec = make_spec(constants, pion, CouplingMode.PURE_SCALAR,
                     branch="minus", A=300.0, delta=0.003)
    den = _kernels.residual_grid([spec], scan_grid(spec, SolverConfig()))[2]
    assert (den < 0.0).all()
    assert_scan_group_is_the_full_scan([spec])


def test_a_typical_spectrum_never_needs_the_general_search(constants, pion,
                                                           monkeypatch):
    # every mode at one of the paper's grid values: every kernel call's
    # rows are decided by their ends, and the RHS-negative rows are not
    # evaluated
    rows = []
    original = _kernels.residual_grid

    def counting(specs, energies, **kwargs):
        rows.extend((spec.n, spec.l) for spec in specs)
        return original(specs, energies, **kwargs)

    def node_by_node(*args):
        raise AssertionError("a row was read node by node")

    monkeypatch.setattr(_kernels, "residual_grid", counting)
    monkeypatch.setattr(rootfind, "_scan_reading", node_by_node)
    for mode in CouplingMode:
        pot = PotentialSpec(A=A_DEFAULT, delta=0.003, lambda_b=0.003,
                            mode=mode)
        rows.clear()
        table = solve_spectrum(constants, pion, pot, n_max=3)
        negative = {(c.n, c.l) for c in table.cells
                    if c.lower.detail == "quantization RHS negative over "
                    "the window"}
        complex_eta = {(c.n, c.l) for c in table.cells
                       if c.lower.detail == "eta complex over the whole "
                       "window"}
        assert len(rows) == len(set(rows))
        assert set(rows) == {(c.n, c.l) for c in table.cells} - negative \
            - complex_eta


def test_coarse_energy_tolerance_keeps_distinct_roots(constants, pion):
    # ps, lambda_b = 0.003, minus branch: the (3, 1) roots at -/+14.0566 MeV
    # come from two brackets, so a coarse tolerance must not merge them
    spec = make_spec(constants, pion, CouplingMode.PURE_SCALAR, n=3, l=1,
                     lambda_b=0.003, branch="minus")
    cell = solve_cell(spec, SolverConfig(tol_energy=3.0))
    assert cell.lower.status == cell.upper.status == "converged"
    assert cell.lower.energy == pytest.approx(-14.0566, abs=1e-3)
    assert cell.upper.energy == pytest.approx(14.0566, abs=1e-3)
    assert cell.extras == ()


def test_solve_cell_classifies_single_negative_root_as_lower(constants, pion):
    # emes, delta = -0.003, lambda_b = 0: exactly one bound state, below zero
    spec = make_spec(constants, pion, CouplingMode.EMES, delta=-0.003)
    cell = solve_cell(spec, SolverConfig())
    assert cell.lower.status == "converged"
    assert cell.lower.energy == pytest.approx(-3.03943, abs=0.02)
    assert cell.upper.status == "absent"
    assert cell.upper.detail == "single root, negative"
    assert cell.extras == ()


def test_solve_cell_pair_orders_lower_below_upper(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.PURE_SCALAR)
    cell = solve_cell(spec, SolverConfig())
    assert cell.lower.status == cell.upper.status == "converged"
    assert cell.lower.energy < cell.upper.energy
    assert abs(cell.lower.residual_at_root) <= 1e-8
    assert abs(cell.upper.residual_at_root) <= 1e-8


def test_solve_cell_absence_diagnostics(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMOS)
    cell = solve_cell(spec, SolverConfig())
    assert cell.lower.status == cell.upper.status == "absent"
    assert cell.lower.detail == "quantization RHS negative over the window"

    spec = make_spec(constants, pion, CouplingMode.PURE_VECTOR)
    cell = solve_cell(spec, SolverConfig())
    assert cell.lower.detail == "eta complex over the whole window"

    # minus branch at K = 2 exactly: the denominator vanishes identically
    spec = make_spec(constants, pion, CouplingMode.EMES, n=1, l=1,
                     branch="minus")
    cell = solve_cell(spec, SolverConfig())
    assert cell.lower.detail == "no valid evaluation point in the window"


def test_solve_cell_absence_names_brackets_that_failed_to_refine(constants,
                                                                 pion):
    # both brackets are still wider than two adjacent doubles after 8 steps
    spec = make_spec(constants, pion, CouplingMode.EMES, n=2, l=1,
                     lambda_b=0.003, A=50.0)
    config = SolverConfig(max_iter=8, tol_energy=1e-15, tol_residual=1e-15)
    cell = solve_cell(spec, config)
    assert cell.lower.status == cell.upper.status == "absent"
    assert cell.lower.detail == cell.upper.detail == (
        "2 sign change(s) on the scan grid, none refined to an accepted root")
    assert [e.status for e in cell.extras] == ["failed", "failed"]


# A synthetic cell scan: its reading and, per bracket in ascending order,
# a refined root with its sign verdict or a ConvergenceError, at energies
# around a tol_residual of 1e-8 (a root above it is at the residual floor).
SCAN_READINGS = st.sampled_from([rootfind._NO_VALID_NODE,
                                 rootfind._ETA_COMPLEX,
                                 rootfind._RHS_NEGATIVE, rootfind._SCANNED])
SCAN_RESIDUALS = st.one_of(st.floats(-1e-8, 1e-8),
                           st.sampled_from([3e-8, -1e-7, 0.0, -0.0]))


@st.composite
def synthetic_scans(draw):
    energies = sorted(set(draw(st.lists(st.floats(-134.0, 134.0),
                                        max_size=6))))
    outcomes = []
    for energy in energies:
        residual = draw(SCAN_RESIDUALS)
        iterations = draw(st.integers(0, 200))
        kind = draw(st.sampled_from(["root", "rejected", "failed"]))
        if kind == "failed":
            best = draw(st.sampled_from([None, energy, -abs(energy) - 1.0,
                                         abs(energy)]))
            outcomes.append(ConvergenceError(
                f"no convergence on [{energy}, {energy}]", best_energy=best,
                best_residual=None if best is None else residual,
                iterations=iterations))
        else:
            outcomes.append((rootfind.RefineResult(energy, residual,
                                                   iterations),
                             kind == "root"))
    return draw(SCAN_READINGS), outcomes


def _root(energy, residual=0.0, verdict=True):
    return (rootfind.RefineResult(energy, residual, 3), verdict)


def _failure(best):
    return ConvergenceError("no convergence", best_energy=best,
                            best_residual=None if best is None else 1.0,
                            iterations=8)


@example(scan=(rootfind._SCANNED, []))
@example(scan=(rootfind._RHS_NEGATIVE, [_root(-1.0, verdict=False)]))
@example(scan=(rootfind._SCANNED, [_root(-1.0)]))
@example(scan=(rootfind._SCANNED, [_root(0.0, 3e-8)]))
@example(scan=(rootfind._SCANNED, [_root(-2.0), _root(1.0, -1e-7)]))
@example(scan=(rootfind._SCANNED, [_root(-3.0), _root(-2.0), _root(0.5),
                                   _root(1.0, 3e-8), _root(2.0)]))
@example(scan=(rootfind._SCANNED, [_failure(None), _failure(-1.0),
                                   _failure(1.0)]))
@example(scan=(rootfind._ETA_COMPLEX, [_failure(-0.0), _root(2.0)]))
@settings(max_examples=300, deadline=None)
@given(scan=synthetic_scans())
def test_cell_records_are_the_fields_of_solve_cells_view(constants, pion,
                                                         scan):
    config = SolverConfig()
    spec = make_spec(constants, pion, CouplingMode.PURE_SCALAR, n=2, l=1)
    records = rootfind.cell_records(spec.n, spec.l, scan, config)
    cell = solve_cell(spec, config, scan)
    assert records == [tuple(getattr(e, field)
                             for field in rootfind.LINE_FIELDS)
                       for e in cell.entries]
    assert (cell.n, cell.l) == (spec.n, spec.l)
    reading, outcomes = scan
    roots = [o[0] for o in outcomes
             if not isinstance(o, ConvergenceError) and o[1]]
    failures = [o for o in outcomes if isinstance(o, ConvergenceError)]
    assert [r[3] for r in records if r[6] == "converged"] == (
        [roots[0].energy, roots[-1].energy, *(r.energy for r in roots[1:-1])]
        if len(roots) > 1 else [r.energy for r in roots])
    assert [r[2] for r in records[:2]] == ["lower", "upper"]
    if len(roots) == 1:
        line = "lower" if roots[0].energy < 0.0 else "upper"
        assert [r[2] for r in records if r[6] == "converged"] == [line]
    for record in records[2:len(records) - len(failures)]:
        assert record[6] == "converged"
        assert record[2] == ("lower" if record[3] < 0.0 else "upper")
        assert record[7].startswith("unclassified extra root")
    assert [r[2:] for r in records[len(records) - len(failures):]] == [
        ("lower" if err.best_energy is not None and err.best_energy < 0.0
         else "upper", None, err.best_residual, err.iterations, "failed",
         str(err)) for err in failures]
    for record in records:
        status, detail = record[6], record[7]
        if status == "converged":
            floor = abs(record[4]) > config.tol_residual
            assert detail.endswith(rootfind._RESIDUAL_FLOOR) == floor
    if not roots:
        assert records[0][7] == records[1][7] == rootfind.absence_reason(
            reading, len(outcomes))


def test_solve_cell_evaluates_the_grid_once(constants, pion, monkeypatch):
    calls = []
    original = _kernels.residual_grid

    def counting(specs, energies, **kwargs):
        calls.append(len(energies))
        return original(specs, energies, **kwargs)

    monkeypatch.setattr(_kernels, "residual_grid", counting)
    config = SolverConfig()
    specs = [make_spec(constants, pion, CouplingMode.PURE_SCALAR),
             make_spec(constants, pion, CouplingMode.EMES, n=1, l=1,
                       branch="minus")]
    for spec in specs:
        calls.clear()
        solve_cell(spec, config)
        assert calls == [config.grid_points]
    # Nothing to scan where eta is complex over the whole pv (0, 0)
    # window, nor where the ends of the emos (0, 0) window prove the RHS
    # negative throughout.
    for mode, reason in ((CouplingMode.PURE_VECTOR,
                          "eta complex over the whole window"),
                         (CouplingMode.EMOS,
                          "quantization RHS negative over the window")):
        calls.clear()
        cell = solve_cell(make_spec(constants, pion, mode), config)
        assert calls == []
        assert cell.lower.detail == cell.upper.detail == reason


@pytest.mark.parametrize("grid_points, rows", [
    (4000, [4, 3, 2, 1]),
    # 300 000 points leave room for 3 cells per call: l = 0 is split
    (300_000, [3, 1, 3, 2, 1]),
])
def test_solve_spectrum_scans_once_per_l_within_the_point_bound(
        constants, pion, monkeypatch, grid_points, rows):
    calls = []
    original = _kernels.residual_grid

    def counting(specs, energies, **kwargs):
        calls.append((len(specs), len(energies)))
        assert len({spec.l for spec in specs}) == 1
        return original(specs, energies, **kwargs)

    monkeypatch.setattr(_kernels, "residual_grid", counting)
    pot = PotentialSpec(A=A_DEFAULT, delta=0.003, lambda_b=0.003,
                        mode=CouplingMode.EMES)
    config = SolverConfig(grid_points=grid_points)
    solve_spectrum(constants, pion, pot, n_max=3, config=config)
    assert [r for r, _ in calls] == rows
    assert all(p == grid_points for _, p in calls)
    assert all(r * p <= MAX_GRID_POINTS for r, p in calls)


PARAMS = st.tuples(st.floats(-0.006, 0.006), st.floats(-0.006, 0.006))


@settings(deadline=None)
@given(mode=st.sampled_from(list(CouplingMode)), A=st.floats(20.0, 400.0),
       params=st.lists(PARAMS, min_size=1, max_size=4),
       branch=st.sampled_from(["plus", "minus"]), n_max=st.integers(0, 5),
       lockstep=st.booleans())
def test_grouped_spectrum_equals_cell_by_cell(constants, pion, mode, A,
                                              params, branch, n_max, lockstep):
    pots = [PotentialSpec(A=A, delta=delta, lambda_b=lambda_b, mode=mode)
            for delta, lambda_b in params]
    # lockstep=True refines every bracket of the command in lock step
    with mock.patch.object(rootfind, "LOCKSTEP_MIN_BRACKETS",
                           0 if lockstep else rootfind.LOCKSTEP_MIN_BRACKETS):
        tables = solve_spectra(constants, pion, pots, n_max=n_max,
                               branch=branch)
    assert tables == [solve_spectrum(constants, pion, pot, n_max=n_max,
                                     branch=branch) for pot in pots]
    assert tables[0].cells == tuple(
        solve_cell(build_residual_spec(constants, pion, pots[0],
                                       QuantumNumbers(n=n, l=l),
                                       branch=branch))
        for n, l in spectrum_cells(n_max, None))


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(list(CouplingMode)), A=st.floats(20.0, 400.0),
       params=st.lists(PARAMS, min_size=1, max_size=3),
       branch=st.sampled_from(["plus", "minus"]), n_max=st.integers(0, 5))
def test_spectra_solved_without_the_ends_are_the_same(constants, pion, mode,
                                                      A, params, branch,
                                                      n_max):
    # with _end_terms bounding nothing, every row is evaluated and read
    # node by node, as before the ends decided anything
    pots = [PotentialSpec(A=A, delta=delta, lambda_b=lambda_b, mode=mode)
            for delta, lambda_b in params]
    tables = solve_spectra(constants, pion, pots, n_max=n_max, branch=branch)
    with mock.patch.object(rootfind, "_end_terms", lambda *args: None):
        assert tables == solve_spectra(constants, pion, pots, n_max=n_max,
                                       branch=branch)


def refined_alone(spec, bracket, config):
    """secant_refine's outcome for one bracket, in lockstep_refine's terms."""
    def f(E):
        return residual(spec, E)
    try:
        r = secant_refine(f, bracket, config)
    except (ConvergenceError, DomainError, BranchError) as err:
        return err
    return (r, sign_validity(spec, r.energy))


def bits(outcome):
    """An outcome as text that tells every float apart by its bits."""
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome), repr(vars(outcome)))
    return repr(outcome)


# energies in units of m0c2, past both window edges
SPOT = st.floats(-1.1, 1.1)


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(list(CouplingMode)), A=st.floats(20.0, 400.0),
       delta=st.floats(-0.006, 0.006), lambda_b=st.floats(-0.006, 0.006),
       branch=st.sampled_from(["plus", "minus"]),
       tol_energy=st.sampled_from([1e-300, 1e-15, 1e-9, 1e-3, 3.0]),
       tol_residual=st.sampled_from([1e-300, 1e-15, 1e-8, 1e-3, 1.0]),
       max_iter=st.sampled_from([8, 200]),
       pairs=st.lists(st.tuples(SPOT, SPOT), max_size=6),
       spots=st.lists(SPOT, max_size=4))
def test_lockstep_equals_secant_refine_on_every_bracket(
        constants, pion, mode, A, delta, lambda_b, branch, tol_energy,
        tol_residual, max_iter, pairs, spots):
    config = SolverConfig(tol_energy=tol_energy, tol_residual=tol_residual,
                          max_iter=max_iter)
    specs, brackets = [], []
    for n, l in spectrum_cells(3, None):
        spec = make_spec(constants, pion, mode, n=n, l=l, delta=delta,
                         lambda_b=lambda_b, branch=branch, A=A)
        scanned = scan_brackets(spec, config)
        # the scan's brackets, reversed ones, degenerate ones at their ends
        # and at arbitrary energies, and arbitrary pairs, which may lack a
        # sign change or meet an invalid energy
        extra = ([(b, a) for a, b in scanned[:1]]
                 + [(a, a) for a, _ in scanned[:2]]
                 + [(x * pion.m0c2, x * pion.m0c2) for x in spots]
                 + [(x * pion.m0c2, y * pion.m0c2) for x, y in pairs])
        specs += [spec] * (len(scanned) + len(extra))
        brackets += scanned + extra
    got = lockstep_refine(specs, brackets, config)
    assert len(got) == len(brackets)
    for spec, bracket, outcome in zip(specs, brackets, got):
        assert bits(outcome) == bits(refined_alone(spec, bracket, config))


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(list(CouplingMode)), A=st.floats(20.0, 400.0),
       delta=st.floats(-0.006, 0.006), lambda_b=st.floats(-0.006, 0.006),
       l=st.integers(0, 2), branch=st.sampled_from(["plus", "minus"]))
def test_window_complex_at_its_start_is_complex_throughout(
        constants, pion, mode, A, delta, lambda_b, l, branch):
    # the scan skips such a window; a full scan would read the same
    spec = make_spec(constants, pion, mode, l=l, delta=delta,
                     lambda_b=lambda_b, branch=branch, A=A)
    complex_start = quantization.complex_eta(
        spec.window[0], spec.m0c2, spec.delta, spec.k2, spec.ll1)
    config = SolverConfig()
    status = _kernels.residual_grid([spec], scan_grid(spec, config))[3]
    assert (status == _kernels.STATUS_COMPLEX_ETA).all() == complex_start
    if not complex_start:
        return
    cell = solve_cell(spec, config)
    assert cell.lower.status == cell.upper.status == "absent"
    assert cell.lower.detail == cell.upper.detail == (
        "eta complex over the whole window")


@pytest.mark.parametrize("n_max", [0, 1])
def test_solve_spectra_raises_the_first_error_in_cell_order(constants, pion,
                                                            monkeypatch,
                                                            n_max):
    good = PotentialSpec(A=A_DEFAULT, delta=0.0, lambda_b=0.0,
                         mode=CouplingMode.EMES)
    # delta E overflows in the scan; k2 is NaN when the cells are built
    overflow = PotentialSpec(A=A_DEFAULT, delta=1e300, lambda_b=0.0,
                             mode=CouplingMode.EMES)
    nan_k2 = PotentialSpec(A=1e308, delta=0.0, lambda_b=0.0,
                           mode=CouplingMode.EMOS)

    def first_error(pots):
        with pytest.raises(DomainError) as err:
            solve_spectra(constants, pion, pots, n_max=n_max)
        return str(err.value)

    assert first_error([good, overflow, nan_k2]).startswith("residual nan")
    assert first_error([good, nan_k2, overflow]).startswith("coefficients")
    # a refine error in an earlier spectrum comes before a scan error
    def refusing(spec, E):
        raise DomainError("refused by the refinement")

    monkeypatch.setattr(quantization, "residual", refusing)
    assert first_error([good, overflow]) == "refused by the refinement"


def test_secant_agrees_with_bisection_on_random_instances(constants, pion):
    rng = random.Random(97)
    modes = list(CouplingMode)
    config = SolverConfig()
    instances = 0
    compared = 0
    draws = 0
    while instances < 20:
        draws += 1
        assert draws < 200, "sampler starved; seed no longer reaches 20 instances"
        n = rng.randrange(4)
        spec = make_spec(constants, pion, modes[rng.randrange(4)], n=n,
                         l=rng.randrange(n + 1),
                         delta=rng.uniform(-0.003, 0.003),
                         lambda_b=rng.uniform(-0.003, 0.003))
        brackets = scan_brackets(spec, config)
        if not brackets:
            continue
        instances += 1

        def f(E):
            return residual(spec, E)

        for bracket in brackets:
            refined = secant_refine(f, bracket, config)
            reference = bisect_root(f, bracket[0], bracket[1], 1e-12)
            assert abs(refined.energy - reference) <= config.tol_energy
            compared += 1
    assert compared >= 20


@settings(deadline=None)
@given(A=st.floats(5.0, 150.0), n=st.integers(0, 5), l=st.integers(0, 5))
def test_pure_vector_at_zero_delta_matches_closed_form(constants, pion, A, n,
                                                       l):
    # delta = lambda_b = 0 is the Klein-Gordon Coulomb problem: one bound
    # state per cell, E = m0c2 / sqrt(1 + alpha^2 / (n + 1/2 + s)^2) with
    # s = sqrt((l + 1/2)^2 - alpha^2).
    alpha = A / constants.hbar_c
    assume((l + 0.5) ** 2 > alpha ** 2)
    spec = make_spec(constants, pion, CouplingMode.PURE_VECTOR, n=n, l=l, A=A)
    cell = solve_cell(spec, SolverConfig())
    shift = n + 0.5 + math.sqrt((l + 0.5) ** 2 - alpha ** 2)
    exact = pion.m0c2 / math.sqrt(1.0 + (alpha / shift) ** 2)
    assert cell.upper.status == "converged"
    assert cell.upper.energy == pytest.approx(exact, abs=1e-8)
    assert cell.lower.status == "absent"
    assert cell.extras == ()


MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(list(CouplingMode)), A=MAGNITUDE,
       hbar_c=MAGNITUDE, m0c2=MAGNITUDE,
       delta=st.tuples(st.sampled_from([-1.0, 1.0]), MAGNITUDE),
       lambda_b=st.tuples(st.sampled_from([-1.0, 1.0]), MAGNITUDE),
       n=st.integers(0, 5), l=st.integers(0, 5),
       branch=st.sampled_from(["plus", "minus"]), n_max=st.integers(1, 3))
def test_scan_nodes_with_status_ok_hold_numbers(mode, A, hbar_c, m0c2, delta,
                                                lambda_b, n, l, branch, n_max):
    # an input that overflows must be refused, never scanned as "no root"
    try:
        constants = PhysicalConstants(hbar_c=hbar_c)
        particle = ParticleSpec.with_compton_lambda(m0c2, constants)
        pot = PotentialSpec(A=A, delta=delta[0] * delta[1],
                            lambda_b=lambda_b[0] * lambda_b[1], mode=mode)
    except DomainError:
        return
    # a spectrum scans its cells in groups of one l; DomainError is the
    # one refusal
    try:
        solve_spectrum(constants, particle, pot, n_max=n_max, branch=branch)
    except DomainError:
        pass
    try:
        spec = build_residual_spec(constants, particle, pot,
                                   QuantumNumbers(n=n, l=l), branch=branch)
        solve_cell(spec)
    except DomainError:
        return
    res, rhs, den, status = (a[0] for a in _kernels.residual_grid(
        [spec], scan_grid(spec, SolverConfig())))
    ok = status == _kernels.STATUS_OK
    assert np.isfinite(res[ok]).all() and np.isfinite(rhs[ok]).all()
    # den overflows to +-inf where K does (ps at delta = 1e300), and rhs is
    # then 0; the scan reads only its sign, which must exist
    assert not np.isnan(den[ok]).any()


def test_grid_doubling_keeps_every_root(constants, pion):
    pot = PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=0.003, lambda_b=0.003,
                                      particle=pion, mode=CouplingMode.EMES)
    coarse = solve_spectrum(constants, pion, pot, n_max=3,
                            config=SolverConfig(grid_points=4000))
    fine = solve_spectrum(constants, pion, pot, n_max=3,
                          config=SolverConfig(grid_points=8000))
    for cell in coarse.cells:
        fine_cell = fine.cell(cell.n, cell.l)
        fine_roots = [e.energy for e in fine_cell.entries
                      if e.status == "converged"]
        for entry in cell.entries:
            if entry.status != "converged":
                continue
            assert min(abs(entry.energy - F) for F in fine_roots) <= 1e-6


# Cells whose root lies between the energy where eta turns complex and the
# last real-eta node of a uniform scan over the uncut window (-m0c2, m0c2):
# that scan finds no bracket there, a 1 000 000-point scan does.
EDGE_ROOT_CELLS = [
    (CouplingMode.PURE_VECTOR, "minus", 327.74, -0.00585, 0.00542, 1, 0,
     95.46724),
    (CouplingMode.EMES, "plus", 174.23, -0.00539, -0.00575, 0, 0, 77.73140),
    (CouplingMode.EMOS, "minus", 376.15, 0.00418, 0.00381, 2, 2, 119.69961),
]


@pytest.mark.parametrize("mode,branch,A,delta,lambda_b,n,l,root",
                         EDGE_ROOT_CELLS)
def test_root_next_to_the_complex_eta_edge_is_found(constants, pion, mode,
                                                    branch, A, delta, lambda_b,
                                                    n, l, root):
    spec = make_spec(constants, pion, mode, n=n, l=l, delta=delta,
                     lambda_b=lambda_b, branch=branch, A=A)
    cell = solve_cell(spec)
    fine = solve_cell(spec, SolverConfig(grid_points=1_000_000))
    assert [e.status for e in cell.entries] == [e.status for e in fine.entries]
    for entry, reference in zip(cell.entries, fine.entries):
        if entry.status == "converged":
            assert entry.energy == pytest.approx(reference.energy, abs=1e-6)
    assert root in [round(e.energy, 5) for e in cell.entries
                    if e.status == "converged"]


@pytest.mark.parametrize("mode,branch,A,delta,lambda_b,n,l,root",
                         EDGE_ROOT_CELLS)
def test_plain_scan_of_the_cell_window_brackets_the_edge_root(
        constants, pion, mode, branch, A, delta, lambda_b, n, l, root):
    # the window ends at the last real-eta energy, so the uniform scan of
    # it alone brackets the root; root is rounded to 5 decimals
    spec = make_spec(constants, pion, mode, n=n, l=l, delta=delta,
                     lambda_b=lambda_b, branch=branch, A=A)
    assert any(a - 5e-6 <= root <= b + 5e-6
               for a, b in scan_brackets(spec, SolverConfig()))


def test_solve_spectrum_is_deterministic(constants, pion):
    pot = PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=-0.003,
                                      lambda_b=0.003, particle=pion,
                                      mode=CouplingMode.PURE_SCALAR)
    first = solve_spectrum(constants, pion, pot, n_max=2)
    second = solve_spectrum(constants, pion, pot, n_max=2)
    assert first == second
    for c1, c2 in zip(first.cells, second.cells):
        for e1, e2 in zip(c1.entries, c2.entries):
            assert e1.energy == e2.energy


def test_each_group_cuts_its_window_once(constants, pion, monkeypatch):
    # eta turns complex inside the l = 0 and l = 1 windows of this spectrum
    pot = PotentialSpec.from_lambda_b(A=327.74, delta=-0.00585,
                                      lambda_b=0.00542, particle=pion,
                                      mode=CouplingMode.PURE_VECTOR)
    calls = collections.Counter()
    original = quantization.complex_eta

    def counting(E, m0c2, delta, k2, ll1):
        calls[ll1] += 1
        return original(E, m0c2, delta, k2, ll1)

    monkeypatch.setattr(quantization, "complex_eta", counting)
    cut = {}
    for l in (0, 1):
        calls.clear()
        spec = build_residual_spec(constants, pion, pot,
                                   QuantumNumbers(n=l, l=l), branch="minus")
        assert spec.window[0] > -spec.m0c2 + 1.0
        cut[l] = calls[spec.ll1]
    calls.clear()
    solve_spectrum(constants, pion, pot, n_max=5, branch="minus")
    for l in (0, 1):
        # one cut by the group's first cell; its other cells are built on
        # that cut, which they take unchecked, and the scan reads the
        # window's first energy through its own end terms
        assert calls[l * (l + 1)] == cut[l]


@pytest.fixture
def fresh_scan_block(monkeypatch):
    """A scan block for this thread that no other test has grown."""
    monkeypatch.setattr(rootfind, "_scan_block", threading.local())


def test_the_scan_block_is_reused_and_grows(constants, pion,
                                            fresh_scan_block):
    pot = PotentialSpec(A=A_DEFAULT, delta=0.003, lambda_b=0.003,
                        mode=CouplingMode.EMES)
    solve_spectrum(constants, pion, pot, n_max=3)
    block = rootfind._scan_block.block
    # four rows of 4 000 points: res, rhs and den of 8 bytes, status of 4
    assert block.nbytes == 4 * 4000 * 28
    solve_spectrum(constants, pion, pot, n_max=2)
    solve_spectrum(constants, pion, pot, n_max=3)
    assert rootfind._scan_block.block is block
    solve_spectrum(constants, pion, pot, n_max=3,
                   config=SolverConfig(grid_points=4001))
    assert rootfind._scan_block.block.nbytes == 4 * 4001 * 28


def test_a_solve_after_an_overflowing_scan_equals_a_fresh_one(
        constants, pion, fresh_scan_block):
    good = PotentialSpec(A=A_DEFAULT, delta=0.003, lambda_b=0.003,
                         mode=CouplingMode.EMES)
    fresh = repr(solve_spectrum(constants, pion, good, n_max=3))
    # the scan stops at the overflow, leaving its arrays part written
    overflow = PotentialSpec(A=A_DEFAULT, delta=1e300, lambda_b=0.0,
                             mode=CouplingMode.EMES)
    with pytest.raises(DomainError, match="overflows double precision"):
        solve_spectra(constants, pion, [good, overflow], n_max=3)
    assert repr(solve_spectrum(constants, pion, good, n_max=3)) == fresh


@pytest.mark.parametrize("points_b", [2500, 6007])
def test_a_solve_after_another_window_and_grid_equals_a_fresh_one(
        constants, pion, fresh_scan_block, points_b):
    a = PotentialSpec(A=A_DEFAULT, delta=0.003, lambda_b=0.003,
                      mode=CouplingMode.EMES)
    b = PotentialSpec(A=A_DEFAULT, delta=-0.004, lambda_b=0.002,
                      mode=CouplingMode.PURE_SCALAR)
    fresh = repr(solve_spectrum(constants, pion, a, n_max=3))
    grid = rootfind._scan_block.grid
    solve_spectrum(constants, pion, b, n_max=2,
                   config=SolverConfig(grid_points=points_b))
    # a smaller grid is written over the thread's per-grid rows; a larger
    # one grows them
    assert (rootfind._scan_block.grid is grid) == (points_b < 4000)
    assert repr(solve_spectrum(constants, pion, a, n_max=3)) == fresh


@pytest.mark.parametrize("mode", ["ps", "pv", "emes", "emos"])
def test_a_warm_paper_grid_solve_writes_only_into_the_kept_scan_arrays(
        fresh_scan_block, monkeypatch, capsys, mode):
    # The page-fault count cannot show arrays allocated per spectrum when
    # the allocator keeps them in its heap; where they live can.  Every
    # array the scan's kernels write into, and the energies, must be a
    # view of the thread's scan arrays as the solve leaves them.
    argv = ["solve", "--mode", mode, "--paper-grid"]
    assert main(argv) == 0
    written = []

    def recording(name, out_of):
        original = getattr(_kernels, name)

        def record(*args, **kwargs):
            written.extend(out_of(*args, **kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(_kernels, name, record)

    recording("grid_terms", lambda m0c2, delta, E, out: (E, *out))
    recording("rhs_numerator", lambda c, E, out: (E, out))
    recording("residual_grid",
              lambda specs, E, out, grid, numerator, scratch: (
                  E, *out, grid.g, grid.gg, grid.lhs, numerator, *scratch))
    assert main(argv) == 0
    capsys.readouterr()
    kept = (rootfind._scan_block.block, rootfind._scan_block.grid)
    assert written
    for array in written:
        assert any(np.shares_memory(array, k) for k in kept)


def test_a_thread_keeps_at_most_92_mb_of_scan_arrays(constants, pion,
                                                    fresh_scan_block):
    # MAX_GRID_POINTS' comment states the ceiling, reached at its grid size
    pot = PotentialSpec(A=A_DEFAULT, delta=0.003, lambda_b=0.003,
                        mode=CouplingMode.EMES)
    solve_spectrum(constants, pion, pot, n_max=1,
                   config=SolverConfig(grid_points=MAX_GRID_POINTS))
    kept = sum(a.nbytes for a in vars(rootfind._scan_block).values())
    # a scan block of one row, 7 per-grid rows and the arange
    assert kept == MAX_GRID_POINTS * (28 + 7 * 8 + 8)
    assert kept <= 92 * 10**6


# window ends: any double, subnormal ones and ones at the scale of m0c2
window_ends = (st.floats(allow_nan=False, allow_infinity=False)
               | st.floats(-1e-300, 1e-300) | st.floats(-140.0, 140.0))


def bytes_and_warnings(fill):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        E = fill()
    return E.tobytes(), [str(w.message) for w in caught]


@settings(deadline=None)
@example(lo=0.0, hi=0.0, ulps=1, points=4000)       # 5e-324 wide
@example(lo=-5e-324, hi=0.0, ulps=2, points=100)
@example(lo=139.57018, hi=0.0, ulps=0, points=4000)  # lo == hi
@example(lo=-2.2e-308, hi=1e-310, ulps=None, points=4000)
@example(lo=-139.57018, hi=139.57018, ulps=None, points=4000)
@example(lo=-1.7e308, hi=1.7e308, ulps=None, points=4000)  # hi - lo = inf
@given(lo=window_ends, hi=window_ends, ulps=st.none() | st.integers(0, 4),
       points=st.integers(100, 5000))
def test_the_energy_grid_is_linspace_bit_for_bit(lo, hi, ulps, points):
    # ulps, if given, puts hi that many doubles above lo
    if ulps is not None:
        hi = lo
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
    arange = np.arange(points, dtype=np.float64)
    out = np.full(points, 7.0)

    def fill():
        rootfind._energy_grid(lo, hi, arange, out)
        return out

    assert bytes_and_warnings(fill) == bytes_and_warnings(
        lambda: np.linspace(lo, hi, points))


def test_threads_solving_at_once_equal_solving_in_turn(constants, pion):
    pots = [PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=delta,
                                        lambda_b=lambda_b, particle=pion,
                                        mode=mode)
            for mode, delta, lambda_b in [
                (CouplingMode.EMES, 0.003, 0.003),
                (CouplingMode.EMOS, -0.003, 0.0),
                (CouplingMode.PURE_VECTOR, 0.0, -0.003),
                (CouplingMode.PURE_SCALAR, -0.003, 0.003)]]
    in_turn = [repr(solve_spectrum(constants, pion, pot, n_max=3))
               for pot in pots]
    rounds = 5
    at_once: dict = {i: [] for i in range(len(pots))}

    def solve(i):
        for _ in range(rounds):
            at_once[i].append(repr(solve_spectrum(constants, pion, pots[i],
                                                  n_max=3)))

    threads = [threading.Thread(target=solve, args=(i,))
               for i in range(len(pots))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert at_once == {i: [table] * rounds for i, table in enumerate(in_turn)}


def test_spectrum_cells_layout():
    assert spectrum_cells(2, None) == [(0, 0), (1, 0), (1, 1),
                                       (2, 0), (2, 1), (2, 2)]
    assert spectrum_cells(3, 1) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1),
                                    (3, 0), (3, 1)]
    assert spectrum_cells(0, None) == [(0, 0)]
    with pytest.raises(DomainError):
        spectrum_cells(-1, None)
    with pytest.raises(DomainError):
        spectrum_cells(2, -1)
    for n_max in range(8):
        for l_max in (None, *range(10)):
            assert rootfind._cell_count(n_max, l_max) == len(
                spectrum_cells(n_max, l_max))


@pytest.mark.parametrize("n_max, refused", [(rootfind.MAX_CELLS - 1, False),
                                            (rootfind.MAX_CELLS, True)])
def test_solve_spectra_refuses_more_than_max_cells(
        constants, pion, monkeypatch, n_max, refused):
    # l_max = 0 gives n_max + 1 cells; the list is never built here
    class Listed(Exception):
        pass

    def listed(*args):
        raise Listed

    monkeypatch.setattr(rootfind, "spectrum_cells", listed)
    pot = PotentialSpec(A=A_DEFAULT, delta=0.0, lambda_b=0.0,
                        mode=CouplingMode.PURE_SCALAR)
    with pytest.raises(DomainError if refused else Listed):
        solve_spectra(constants, pion, [pot], n_max=n_max, l_max=0)


def test_solve_spectrum_table_shape_and_lookup(constants, pion):
    pot = PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=0.0, lambda_b=0.0,
                                      particle=pion, mode=CouplingMode.PURE_SCALAR)
    table = solve_spectrum(constants, pion, pot, n_max=2)
    assert len(table.cells) == 6
    assert [(c.n, c.l) for c in table.cells] == spectrum_cells(2, None)
    assert [f.name for f in dataclasses.fields(table)] == ["cells"]
    assert table.energy(0, 0, "upper") == pytest.approx(105.71706, abs=0.02)
    with pytest.raises(KeyError):
        table.cell(5, 0)


@pytest.mark.parametrize("line", ["Lower", "both", ""])
def test_spectrum_table_energy_refuses_an_unknown_line(constants, pion, line):
    pot = PotentialSpec(A=A_DEFAULT, delta=0.0, lambda_b=0.0,
                        mode=CouplingMode.PURE_SCALAR)
    table = solve_spectrum(constants, pion, pot, n_max=0)
    with pytest.raises(DomainError, match="line must be 'lower' or 'upper'"):
        table.energy(0, 0, line)


def test_solve_spectrum_matches_reference_grid(solve_block):
    reference = load_reference("pv")
    for delta in GRID_VALUES:
        for lambda_b in GRID_VALUES:
            table = solve_block("pv", delta, lambda_b)
            for line in ("lower", "upper"):
                expected = reference[(delta, lambda_b, line)]
                for (n, l), value in expected.items():
                    got = table.energy(n, l, line)
                    if value is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(value, abs=0.02)
