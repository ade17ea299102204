import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgbound import (ConvergenceError, CouplingMode, DomainError,
                     PotentialSpec, QuantumNumbers, SolverConfig,
                     build_residual_spec, secant_refine, solve_cell,
                     solve_spectrum)
from kgbound import quantization
from kgbound.quantization import residual
from kgbound.rootfind import MAX_GRID_POINTS, spectrum_cells

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
    spec = make_spec(constants, pion, CouplingMode.PURE_SCALAR)
    config = SolverConfig(max_iter=8, tol_energy=1e-15, tol_residual=1e-15)
    cell = solve_cell(spec, config)
    assert cell.lower.status == cell.upper.status == "absent"
    assert cell.lower.detail == cell.upper.detail == (
        "2 sign change(s) on the scan grid, none refined to an accepted root")
    assert [e.status for e in cell.extras] == ["failed", "failed"]


def test_solve_cell_evaluates_the_grid_once(constants, pion, monkeypatch):
    calls = []
    original = quantization.evaluate_grid

    def counting(spec, energies):
        calls.append(len(energies))
        return original(spec, energies)

    monkeypatch.setattr(quantization, "evaluate_grid", counting)
    config = SolverConfig()
    specs = [make_spec(constants, pion, CouplingMode.PURE_SCALAR),
             make_spec(constants, pion, CouplingMode.EMOS),
             make_spec(constants, pion, CouplingMode.PURE_VECTOR),
             make_spec(constants, pion, CouplingMode.EMES, n=1, l=1,
                       branch="minus")]
    for spec in specs:
        calls.clear()
        solve_cell(spec, config)
        assert calls == [config.grid_points]


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


# Cells whose root lies between the last scan node with real eta and the
# energy where eta turns complex: the default scan finds no bracket there,
# a 1 000 000-point scan does.
@pytest.mark.parametrize("mode,branch,A,delta,lambda_b,n,l,root", [
    (CouplingMode.PURE_VECTOR, "minus", 327.74, -0.00585, 0.00542, 1, 0,
     95.46724),
    (CouplingMode.EMES, "plus", 174.23, -0.00539, -0.00575, 0, 0, 77.73140),
    (CouplingMode.EMOS, "minus", 376.15, 0.00418, 0.00381, 2, 2, 119.69961),
])
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


def test_solve_spectrum_table_shape_and_lookup(constants, pion):
    pot = PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=0.0, lambda_b=0.0,
                                      particle=pion, mode=CouplingMode.PURE_SCALAR)
    table = solve_spectrum(constants, pion, pot, n_max=2)
    assert len(table.cells) == 6
    assert table.mode is CouplingMode.PURE_SCALAR
    assert table.branch == "plus"
    assert table.lambda_b == 0.0
    assert table.energy(0, 0, "upper") == pytest.approx(105.71706, abs=0.02)
    with pytest.raises(KeyError):
        table.cell(5, 0)


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
