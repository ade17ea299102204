import math
import random

import mpmath
import numpy as np
import pytest

from kgbound import (CouplingMode, DomainError, EvaluationError,
                     PotentialSpec, QuantumNumbers)
from kgbound.special import (MAX_RADIAL_POINTS, SNAP_TOL, BoundaryReport,
                             KummerParams, boundary_report,
                             build_wave_solution, default_r_max, grid_report,
                             kummer_1f1, normalize_on_grid, wavefunction_grid,
                             wavefunction_u)

mpmath.mp.dps = 40


def make_pot(mode, delta=0.0, lambda_b=0.0, pion=None):
    from kgbound import ParticleSpec
    pion = pion or ParticleSpec.neutral_pion()
    return PotentialSpec.from_lambda_b(A=200.0, delta=delta, lambda_b=lambda_b,
                                       particle=pion, mode=mode)


def converged_entry(solve_block, mode, delta, lambda_b, n, l, line):
    cell = solve_block(mode, delta, lambda_b).cell(n, l)
    entry = cell.lower if line == "lower" else cell.upper
    assert entry.status == "converged"
    return entry


def test_kummer_params_reject_singular_c():
    with pytest.raises(DomainError):
        KummerParams(a=1.0, c=0.0)
    with pytest.raises(DomainError):
        KummerParams(a=1.0, c=-3.0)
    with pytest.raises(DomainError):
        KummerParams(a=1.0, c=-3.0 + 1e-10)
    KummerParams(a=1.0, c=-3.1)
    with pytest.raises(DomainError):
        KummerParams(a=math.nan, c=1.0)


def test_polynomial_degree_snapping():
    assert KummerParams(a=-2.0, c=1.0).polynomial_degree == 2
    assert KummerParams(a=-2.0 + 0.5 * SNAP_TOL, c=1.0).polynomial_degree == 2
    assert KummerParams(a=-2.0 + 1e-7, c=1.0).polynomial_degree is None
    assert KummerParams(a=0.0, c=1.0).polynomial_degree == 0
    assert KummerParams(a=3.0, c=1.0).polynomial_degree is None


def test_kummer_at_origin_is_one():
    assert kummer_1f1(KummerParams(a=2.7, c=1.3), 0.0) == 1.0
    assert kummer_1f1(KummerParams(a=-4.0, c=2.0), 0.0) == 1.0


def test_kummer_equal_parameters_is_exponential():
    for x in (1.0, 7.5, 20.0, 50.0):
        got = kummer_1f1(KummerParams(a=3.7, c=3.7), x)
        assert got == pytest.approx(math.exp(x), rel=1e-12)
    got = kummer_1f1(KummerParams(a=1.0, c=1.0), 1.0)
    assert got == pytest.approx(2.718281828459045, rel=1e-12)


def test_kummer_linear_truncation_by_hand():
    # a = -1 cuts the series to 1 - x/c
    assert kummer_1f1(KummerParams(a=-1.0, c=2.0), 3.0) == -0.5
    assert kummer_1f1(KummerParams(a=0.0, c=2.0), 17.0) == 1.0


def test_kummer_rejects_bad_argument():
    params = KummerParams(a=1.0, c=2.0)
    with pytest.raises(DomainError):
        kummer_1f1(params, -1.0)
    with pytest.raises(DomainError):
        kummer_1f1(params, math.inf)


def test_kummer_term_cap_raises(monkeypatch):
    monkeypatch.setattr("kgbound.special.TERM_CAP", 5)
    with pytest.raises(EvaluationError):
        kummer_1f1(KummerParams(a=2.5, c=1.5), 30.0)


def test_kummer_matches_high_precision_series():
    # independent oracle at 40 significant digits; draws avoid the
    # truncation band around nonpositive integer a where the series is
    # deliberately cut
    rng = random.Random(20260816)
    checked = 0
    while checked < 50:
        a = rng.uniform(-3.0, 8.0)
        if a <= 0.5 and abs(a - round(a)) < 0.05:
            continue
        c = rng.uniform(0.5, 10.0)
        x = rng.uniform(0.0, 50.0)
        got = kummer_1f1(KummerParams(a=a, c=c), x)
        want = float(mpmath.hyp1f1(a, c, x))
        assert got == pytest.approx(want, rel=1e-12), (a, c, x)
        checked += 1


def test_kummer_strongly_negative_a_loses_some_accuracy():
    # the alternating head of the series cancels; direct summation is
    # still good to ~1e-9 relative on this range
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        a = rng.uniform(-8.0, -3.0)
        if abs(a - round(a)) < 0.05:
            continue
        c = rng.uniform(0.5, 10.0)
        x = rng.uniform(0.0, 50.0)
        got = kummer_1f1(KummerParams(a=a, c=c), x)
        want = float(mpmath.hyp1f1(a, c, x))
        assert got == pytest.approx(want, rel=1e-9), (a, c, x)
        checked += 1


def test_build_wave_solution_snaps_kummer_a(constants, pion, solve_block):
    entry = converged_entry(solve_block, "emes", 0.0, 0.0, 1, 0, "upper")
    pot = make_pot(CouplingMode.EMES, pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=1, l=0),
                              entry.energy)
    assert abs(sol.params.a + 1.0) < 1e-6
    assert sol.params.polynomial_degree == 1
    assert sol.params.c == pytest.approx(2.0 * (sol.eta + 1.0), rel=1e-15)
    assert sol.N1 == 1.0 and sol.N2 == 0.0


def test_wavefunction_vanishes_at_origin(constants, pion, solve_block):
    entry = converged_entry(solve_block, "ps", 0.0, 0.0, 0, 0, "upper")
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=0, l=0),
                              entry.energy)
    assert wavefunction_u(sol, 0.0) == 0.0
    assert wavefunction_u(sol, 1.0) > 0.0
    with pytest.raises(DomainError):
        wavefunction_u(sol, -1.0)


@pytest.mark.parametrize("mode,n,l", [("ps", 0, 0), ("emes", 1, 0),
                                      ("emes", 2, 1), ("emes", 3, 3)])
def test_node_count_matches_radial_quantum_number(constants, pion,
                                                  solve_block, mode, n, l):
    entry = converged_entry(solve_block, mode, 0.0, 0.0, n, l, "upper")
    pot = make_pot(CouplingMode.parse(mode), pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=n, l=l),
                              entry.energy)
    report = boundary_report(sol)
    assert report.node_count == n
    assert report.u_origin == 0.0
    assert report.tail_ratio < 1e-4


def test_off_eigenvalue_tail_blows_up(constants, pion, solve_block):
    entry = converged_entry(solve_block, "ps", 0.0, 0.0, 0, 0, "upper")
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    qn = QuantumNumbers(n=0, l=0)
    sol = build_wave_solution(constants, pion, pot, qn, entry.energy)
    r_max = default_r_max(sol)
    assert boundary_report(sol, r_max=r_max).tail_ratio < 1e-4
    for shift in (1.0, -1.0):
        off = build_wave_solution(constants, pion, pot, qn,
                                  entry.energy + shift)
        assert boundary_report(off, r_max=r_max).tail_ratio >= 1e-2


def test_bound_state_decays_within_forty_fm(constants, pion, solve_block):
    # the ground state of the (delta = -0.003, lambda_b = 0.003) block has
    # its natural box at roughly 40 fm and is fully decayed there
    entry = converged_entry(solve_block, "emes", -0.003, 0.003, 0, 0, "upper")
    pot = make_pot(CouplingMode.EMES, delta=-0.003, lambda_b=0.003, pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=0, l=0),
                              entry.energy)
    assert 35.0 < default_r_max(sol) < 50.0
    radii = np.linspace(0.0, 40.0, 2000)
    u = wavefunction_grid(sol, radii)
    assert abs(u[-1]) / np.max(np.abs(u)) < 1e-6


def test_every_block_state_decays_at_its_own_radius(constants, pion,
                                                    solve_block):
    pot = make_pot(CouplingMode.EMES, delta=-0.003, lambda_b=0.003, pion=pion)
    table = solve_block("emes", -0.003, 0.003)
    checked = 0
    for entry in table.entries:
        if entry.status != "converged":
            continue
        sol = build_wave_solution(constants, pion, pot,
                                  QuantumNumbers(n=entry.n, l=entry.l),
                                  entry.energy)
        assert boundary_report(sol).tail_ratio < 1e-6
        checked += 1
    assert checked >= 15


def test_wavefunction_without_energy_dependence_matches_plain_path(
        constants, pion, solve_block):
    # delta = 0 turns the growth factor into exactly 1.0; the evaluation
    # must then agree bit for bit with the factor-free formula
    entry = converged_entry(solve_block, "ps", 0.0, 0.0, 0, 0, "upper")
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=0, l=0),
                              entry.energy)
    assert sol.growth == 1.0

    def plain_u(r):
        F = kummer_1f1(sol.params, 2.0 * sol.tau * r)
        if F == 0.0:
            return 0.0
        log_mag = (-sol.tau * r + (sol.eta + 1.0) * math.log(r)
                   + math.log(abs(F)))
        return math.copysign(sol.N1 * math.exp(log_mag), F)

    for r in (0.05, 0.7, 3.3, 11.0, 26.5):
        assert wavefunction_u(sol, r) == plain_u(r)


def test_wavefunction_grid_matches_pointwise(constants, pion, solve_block):
    entry = converged_entry(solve_block, "ps", 0.0, 0.0, 1, 1, "upper")
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=1, l=1),
                              entry.energy)
    radii = np.linspace(0.0, 20.0, 64)
    u = wavefunction_grid(sol, radii)
    for r, v in zip(radii, u):
        assert v == wavefunction_u(sol, float(r))


def test_normalize_on_grid():
    radii = np.linspace(0.0, 10.0, 512)
    u = np.exp(-radii) * radii
    scaled = normalize_on_grid(u, radii)
    assert float(np.trapezoid(scaled * scaled, radii)) == pytest.approx(
        1.0, rel=1e-12)
    with pytest.raises(DomainError):
        normalize_on_grid(u[:-1], radii)
    with pytest.raises(EvaluationError):
        normalize_on_grid(np.zeros_like(radii), radii)


def test_boundary_report_validation(constants, pion, solve_block):
    entry = converged_entry(solve_block, "ps", 0.0, 0.0, 0, 0, "upper")
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=0, l=0),
                              entry.energy)
    with pytest.raises(DomainError):
        boundary_report(sol, grid_points=8)
    with pytest.raises(DomainError):
        boundary_report(sol, r_max=-1.0)
    report = boundary_report(sol, r_max=30.0, grid_points=256)
    assert isinstance(report, BoundaryReport)
    assert report.r_max == 30.0 and report.grid_points == 256
    assert report.max_abs > 0.0
    with pytest.raises(DomainError):
        boundary_report(sol, grid_points=MAX_RADIAL_POINTS + 1)
    with pytest.raises(DomainError):
        boundary_report(sol, r_max=math.inf)


def test_grid_report_reads_given_samples(constants, pion, solve_block):
    # boundary_report is grid_report on its own linspace; the CLI passes
    # the samples it already holds
    entry = converged_entry(solve_block, "emes", 0.0, 0.0, 2, 0, "upper")
    pot = make_pot(CouplingMode.EMES, pion=pion)
    sol = build_wave_solution(constants, pion, pot, QuantumNumbers(n=2, l=0),
                              entry.energy)
    radii = np.linspace(0.0, 40.0, 300)
    u = wavefunction_grid(sol, radii)
    assert grid_report(u, radii) == boundary_report(sol, r_max=40.0,
                                                    grid_points=300)
    assert grid_report(u, radii).node_count == 2
    with pytest.raises(EvaluationError):
        grid_report(np.zeros_like(radii), radii)
