import math
import random
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from kgbound import (BranchError, CouplingMode, DomainError, EvaluationError,
                     PotentialSpec, QuantumNumbers, special)
from kgbound.quantization import build_residual_spec
from kgbound.rootfind import solve_cell
from kgbound.special import (MAX_RADIAL_POINTS, SNAP_TOL, BoundaryReport,
                             KummerParams, boundary_report,
                             build_wave_solution, default_r_max, grid_report,
                             kummer_1f1, kummer_1f1_grid, normalize_on_grid,
                             wavefunction_grid, wavefunction_u)

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
        return math.copysign(math.exp(log_mag), F)

    for r in (0.05, 0.7, 3.3, 11.0, 26.5):
        assert wavefunction_u(sol, r) == plain_u(r)


def outcome(fn, *args):
    """The bytes of fn's result, or the class and text of what it raised."""
    try:
        return np.asarray(fn(*args), dtype=np.float64).tobytes()
    except (DomainError, EvaluationError) as err:
        return type(err), str(err)


def scalar_loop(sol, radii):
    return [wavefunction_u(sol, float(r)) for r in radii]


# random cells in every coupling mode and on both branches; reach is
# r_max in units of default_r_max, wide enough that tails underflow at an
# eigenvalue and overflow off it
wave_cases = st.fixed_dictionaries({
    "mode": st.sampled_from(list(CouplingMode)),
    "A": st.floats(20.0, 400.0),
    "delta": st.floats(-0.005, 0.005),
    "lambda_b": st.floats(-0.005, 0.005),
    "n": st.integers(0, 8),
    "l": st.integers(0, 8),
    "branch": st.sampled_from(["plus", "minus"]),
    "shift": st.floats(-3.0, -1e-3) | st.floats(1e-3, 3.0),
    "reach": st.floats(0.2, 40.0),
    "negative_at": st.none() | st.integers(0, 199),
    "term_cap": st.none() | st.integers(1, 60),
})


@example(case={"mode": CouplingMode.PURE_SCALAR, "A": 200.0, "delta": 0.0,
               "lambda_b": 0.0, "n": 1, "l": 1, "branch": "plus",
               "shift": 0.5, "reach": 30.0, "negative_at": None,
               "term_cap": None})  # -0.0 tail, then overflow off the line
@example(case={"mode": CouplingMode.EMES, "A": 200.0, "delta": -0.003,
               "lambda_b": 0.003, "n": 3, "l": 0, "branch": "plus",
               "shift": 1.0, "reach": 1.0, "negative_at": 150,
               "term_cap": 5})  # negative r, then TERM_CAP before it
@settings(max_examples=100, deadline=None)
@given(case=wave_cases)
def test_wavefunction_grid_matches_pointwise(constants, pion, case):
    # every sample, r = 0 and underflowed tails included, is the scalar
    # call's bytes (so -0.0 counts); failing input raises what the scalar
    # loop raises first
    try:
        pot = PotentialSpec.from_lambda_b(
            A=case["A"], delta=case["delta"], lambda_b=case["lambda_b"],
            particle=pion, mode=case["mode"])
        qn = QuantumNumbers(n=case["n"], l=case["l"])
        cell = solve_cell(build_residual_spec(constants, pion, pot, qn,
                                              branch=case["branch"]))
    except (DomainError, BranchError):
        reject()
    energies = [entry.energy for entry in (cell.lower, cell.upper)
                if entry.status == "converged"]
    if not energies:
        reject()
    for energy in (energies[0], energies[0] + case["shift"]):
        try:
            sol = build_wave_solution(constants, pion, pot, qn, energy,
                                      branch=case["branch"])
        except (DomainError, BranchError):
            continue
        radii = np.linspace(0.0, case["reach"] * default_r_max(sol), 200)
        if case["negative_at"] is not None:
            radii[case["negative_at"]] = -radii[case["negative_at"]] - 1.0
        with mock.patch.object(special, "TERM_CAP",
                               case["term_cap"] or special.TERM_CAP):
            assert (outcome(wavefunction_grid, sol, radii)
                    == outcome(scalar_loop, sol, radii))


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-12.0, 12.0), c=st.floats(-6.0, 12.0),
       degree=st.none() | st.integers(0, 12),
       nudge=st.floats(-0.5 * SNAP_TOL, 0.5 * SNAP_TOL),
       x=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=40),
       term_cap=st.none() | st.integers(1, 60))
def test_kummer_grid_matches_scalar(a, c, degree, nudge, x, term_cap):
    # snapped polynomials included, the array is the bytes of a loop of
    # kummer_1f1 calls, or raises that loop's first error class and text
    if degree is not None:
        a = -degree + nudge
    try:
        params = KummerParams(a=a, c=c)
    except DomainError:
        reject()
    with mock.patch.object(special, "TERM_CAP", term_cap or special.TERM_CAP):
        assert (outcome(kummer_1f1_grid, params, x)
                == outcome(lambda xs: [kummer_1f1(params, xi) for xi in xs],
                           x))


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_kummer_grid_rejects_bad_argument(bad):
    for a in (1.5, -2.0):  # the mapped series and the array polynomial
        params = KummerParams(a=a, c=2.0)
        with pytest.raises(DomainError) as scalar:
            kummer_1f1(params, bad)
        with pytest.raises(DomainError) as grid:
            kummer_1f1_grid(params, [0.5, bad, -2.0])
        assert str(grid.value) == str(scalar.value)


def test_polynomial_grid_never_calls_the_reference(constants, pion,
                                                   monkeypatch):
    # at a solved energy the array arithmetic alone gives the scalar
    # loop's bytes; a fallback to the per-sample reference would raise
    pot = make_pot(CouplingMode.PURE_SCALAR, delta=0.003, lambda_b=0.003,
                   pion=pion)
    qn = QuantumNumbers(n=3, l=1)
    cell = solve_cell(build_residual_spec(constants, pion, pot, qn))
    assert cell.upper.status == "converged"
    sol = build_wave_solution(constants, pion, pot, qn, cell.upper.energy)
    assert sol.params.polynomial_degree == 3
    radii = np.linspace(0.0, default_r_max(sol), 20_000)
    want = np.asarray(scalar_loop(sol, radii)).tobytes()

    def fallback(*args):
        raise AssertionError("scalar reference called")

    monkeypatch.setattr(special, "wavefunction_u", fallback)
    monkeypatch.setattr(special, "kummer_1f1", fallback)
    assert wavefunction_grid(sol, radii).tobytes() == want


@pytest.mark.parametrize("changes,bad_r,error", [
    ({}, -2.0, DomainError),                   # r < 0
    ({}, math.nan, DomainError),               # x not finite
    ({}, math.inf, DomainError),
    ({"growth": 1e-10}, 1e-320, DomainError),  # g r underflows to 0
    ({"eta": 1000.0}, 10.0, EvaluationError),  # log magnitude overflows
])
def test_polynomial_grid_raises_the_scalar_error(constants, pion, solve_block,
                                                 changes, bad_r, error):
    # the array path marks every sample wavefunction_u rejects and raises
    # the reference's own error at the first one
    entry = converged_entry(solve_block, "emes", 0.0, 0.0, 2, 0, "upper")
    pot = make_pot(CouplingMode.EMES, pion=pion)
    sol = replace(build_wave_solution(constants, pion, pot,
                                      QuantumNumbers(n=2, l=0), entry.energy),
                  **changes)
    assert sol.params.polynomial_degree == 2
    radii = np.linspace(0.0, 30.0, 50)
    radii[[20, 35]] = bad_r, -1.0
    want = outcome(scalar_loop, sol, radii)
    assert want[0] is error
    assert outcome(wavefunction_grid, sol, radii) == want


def series_term_sum(a, c, x):
    """(1F1, sum of |term_k|, terms above eps of that sum) at 40 digits."""
    term = mpmath.mpf(1)
    total = abs_sum = mpmath.mpf(1)
    terms = []
    for k in range(5000):
        term *= (a + k) / (c + k) * x / (k + 1)
        if term == 0:
            break
        total += term
        abs_sum += abs(term)
        terms.append(abs(term))
        if k > abs(a) + x and abs(term) < mpmath.mpf(10) ** -40 * abs_sum:
            break
    eps = np.finfo(np.float64).eps
    kept = 1 + sum(1 for t in terms if t > eps * abs_sum)
    return total, abs_sum, kept


@settings(max_examples=150, deadline=None)
@given(a=st.floats(-10.0, 10.0), c=st.floats(0.5, 12.0),
       degree=st.none() | st.integers(0, 12), x=st.floats(0.0, 60.0))
def test_kummer_matches_mpmath_relative_to_term_sum(a, c, degree, x):
    # the alternating head of the series cancels, so the error is bounded
    # against sum |term_k|, not |1F1|: each of the K terms that matter
    # carries at most 3K roundings, and the sum K more
    if degree is not None:
        a = -float(degree)
    params = KummerParams(a=a, c=c)
    if params.polynomial_degree is not None and a != round(a):
        reject()  # cut on purpose inside the snap band; not 1F1(a; c; x)
    got = kummer_1f1(params, x)
    want = mpmath.hyp1f1(a, c, x, zeroprec=1000)  # 1F1(-n; c; x) can be 0
    total, abs_sum, kept = series_term_sum(mpmath.mpf(a), mpmath.mpf(c),
                                           mpmath.mpf(x))
    eps = np.finfo(np.float64).eps
    assert abs(total - want) <= mpmath.mpf(10) ** -30 * abs_sum
    assert abs(got - want) <= (4 * kept + 4) * eps * abs_sum, (a, c, x)
    # one term is never enough for the stopping rule, which needs two
    # small terms in a row; a polynomial ignores the cap
    with mock.patch.object(special, "TERM_CAP", 1):
        if params.polynomial_degree is None:
            with pytest.raises(EvaluationError):
                kummer_1f1(params, x)
        else:
            assert kummer_1f1(params, x) == got


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
