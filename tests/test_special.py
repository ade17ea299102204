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
from kgbound.special import (MAX_RADIAL_POINTS, BoundaryReport, KummerParams,
                             boundary_report, build_wave_solution,
                             default_r_max, grid_report, kummer_1f1,
                             normalize_on_grid, wavefunction_grid,
                             wavefunction_u)

from conftest import kummer_polynomial, series_report

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
    assert kummer_polynomial(1, 2.0, 3.0) == -0.5
    assert kummer_polynomial(0, 2.0, 17.0) == 1.0
    # 1F1(-2; c; x) = 1 - 2x/c + x^2/(c (c + 1))
    assert kummer_polynomial(2, 2.0, 3.0) == 1.0 - 3.0 + 1.5


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
    # off an eigenvalue a is no integer; the power series at that a grows
    # like e^x, where the cell's polynomial would not
    for shift in (1.0, -1.0):
        off = build_wave_solution(constants, pion, pot, qn,
                                  entry.energy + shift)
        assert series_report(off, r_max).tail_ratio >= 1e-2


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


@pytest.mark.parametrize("l", [0, 3])
@pytest.mark.parametrize("n", [0, 5, 10, 20, 40, 60])
def test_default_r_max_lets_high_n_lines_decay(constants, pion, n, l):
    # the default box must outlast the x^n growth of the polynomial, which
    # dominates e^(-x/2) far past the outermost node at high n
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    qn = QuantumNumbers(n=n, l=l)
    cell = solve_cell(build_residual_spec(constants, pion, pot, qn))
    assert cell.lower.status == cell.upper.status == "converged"
    for entry in (cell.lower, cell.upper):
        sol = build_wave_solution(constants, pion, pot, qn, entry.energy)
        report = boundary_report(sol, grid_points=20_000)
        assert report.tail_ratio <= 1e-7
        assert report.node_count == n


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
        F = kummer_polynomial(sol.n, sol.params.c, 2.0 * sol.tau * r)
        if F == 0.0:
            return 0.0
        log_mag = (-sol.tau * r + (sol.eta + 1.0) * np.log(r)
                   + np.log(abs(F)))
        return math.copysign(float(np.exp(log_mag)), F)

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


# random cells in every coupling mode and on both branches, evaluated at
# the solved energy and off it; reach is r_max in units of default_r_max,
# wide enough that tails underflow
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
    "points": st.just(200),
})


@example(case={"mode": CouplingMode.PURE_SCALAR, "A": 200.0, "delta": 0.0,
               "lambda_b": 0.0, "n": 1, "l": 1, "branch": "plus",
               "shift": 0.5, "reach": 30.0,
               "negative_at": None, "points": 200})  # -0.0 tail
@example(case={"mode": CouplingMode.EMES, "A": 200.0, "delta": -0.003,
               "lambda_b": 0.003, "n": 3, "l": 0, "branch": "plus",
               "shift": 1.0, "reach": 1.0,
               "negative_at": 150, "points": 200})  # negative r
# the wavefunction benchmark's shape: NumPy's SIMD loops take a long
# array's body and its masked tail apart, and 200 radii barely have a body
@example(case={"mode": CouplingMode.PURE_SCALAR, "A": 200.0, "delta": 0.003,
               "lambda_b": -0.002, "n": 5, "l": 2, "branch": "plus",
               "shift": 0.5, "reach": 1.0,
               "negative_at": None, "points": 20_000})
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
        radii = np.linspace(0.0, case["reach"] * default_r_max(sol),
                            case["points"])
        if case["negative_at"] is not None:
            radii[case["negative_at"]] = -radii[case["negative_at"]] - 1.0
        assert (outcome(wavefunction_grid, sol, radii)
                == outcome(scalar_loop, sol, radii))


def largest_term(n, c, x):
    """max over k <= n of |M_k|, by the recurrence at 40 digits."""
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    biggest = cur
    for k in range(n):
        prev, cur = cur, ((2 * k + c - x) * cur - k * prev) / (c + k)
        biggest = max(biggest, abs(cur))
    return biggest


def test_wavefunction_grid_makes_no_call_per_sample(constants, pion,
                                                     monkeypatch):
    # the logarithms and the exponential run on whole arrays, so the
    # Python-level math.log and math.exp calls do not grow with the radii
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    qn = QuantumNumbers(n=5, l=2)
    cell = solve_cell(build_residual_spec(constants, pion, pot, qn))
    assert cell.upper.status == "converged"
    sol = build_wave_solution(constants, pion, pot, qn, cell.upper.energy)
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    monkeypatch.setattr(math, "log", counted(math.log))
    monkeypatch.setattr(math, "exp", counted(math.exp))
    counts = []
    for points in (200, 20_000):
        calls.clear()
        u = wavefunction_grid(sol, np.linspace(0.0, default_r_max(sol),
                                               points))
        assert np.count_nonzero(u) == points - 1  # all but r = 0 evaluated
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from([CouplingMode.PURE_SCALAR, CouplingMode.EMES]),
       A=st.floats(20.0, 400.0), delta=st.floats(-0.005, 0.005),
       lambda_b=st.floats(-0.005, 0.005), n=st.integers(0, 8),
       l=st.integers(0, 8), reach=st.floats(0.05, 30.0))
def test_wavefunction_grid_matches_mpmath(constants, pion, mode, A, delta,
                                          lambda_b, n, l, reach):
    # u* = exp(-tau z) z^(eta+1) 1F1(-n; c; 2 tau z) at 40 digits, with
    # z = g r exact and the solution's own float tau, g, eta and c.
    # wavefunction_grid rounds z = g r and x = 2 tau z, runs the recurrence
    # at that x and sums log_mag = -tau z + (eta+1) ln z + ln|F| + e ln 2.
    # - F: the recurrence is within (n+1)^2/2 eps max_k |M_k| of F at its
    #   x (test_kummer_polynomial_matches_mpmath), and as
    #   x F'(x) = n (M_n - M_(n-1)) (DLMF 13.3.4), x's relative error of
    #   eps moves F by at most 2 n eps max_k |M_k|; together at most
    #   (n+1)^2 eps max_k |M_k|, an absolute error that near a node, where
    #   F cancels, exceeds |F| itself.
    # - log_mag: each of its terms carries a few roundings (z, the
    #   product, eta + 1, a log within 2 ulp, ln 2, the two sums), at most
    #   3 eps T with T = tau z + |eta+1| (|ln z| + 1) + |ln|F|| + 1, and
    #   the exp adds 2 ulp.
    # So u = (u* + e^(-tau z) z^(eta+1) dF) e^d with |d| <= (3 T + 2) eps,
    # and |u - u*| <= |u*| (3 T + 4) eps + e^(-tau z) z^(eta+1) (n+1)^2 eps
    # max_k |M_k|.  Samples whose scale e^(-tau z) z^(eta+1) max_k |M_k|
    # lies below 2^-1000 are in the underflow range and skipped.
    try:
        pot = PotentialSpec.from_lambda_b(A=A, delta=delta, lambda_b=lambda_b,
                                          particle=pion, mode=mode)
        qn = QuantumNumbers(n=n, l=l)
        cell = solve_cell(build_residual_spec(constants, pion, pot, qn))
    except (DomainError, BranchError):
        reject()
    energies = [entry.energy for entry in (cell.lower, cell.upper)
                if entry.status == "converged"]
    if not energies:
        reject()
    eps = np.finfo(np.float64).eps
    checked = 0
    for energy in energies:
        try:
            sol = build_wave_solution(constants, pion, pot, qn, energy)
        except DomainError:
            continue
        tau, g, c = (mpmath.mpf(v) for v in (sol.tau, sol.growth,
                                              sol.params.c))
        eta1 = mpmath.mpf(sol.eta) + 1
        radii = np.linspace(0.0, reach * default_r_max(sol), 100)
        u = wavefunction_grid(sol, radii)
        assert u[0] == 0.0
        for r, got in zip(radii[1:].tolist(), u[1:].tolist()):
            z = g * mpmath.mpf(r)
            x = 2 * tau * z
            scale = mpmath.exp(-tau * z) * z ** eta1
            biggest = largest_term(n, c, x)
            if scale * biggest < mpmath.ldexp(1, -1000):
                continue
            F = mpmath.hyp1f1(-n, c, x, zeroprec=1000)
            want = scale * F
            T = (tau * z + abs(eta1) * (abs(mpmath.log(z)) + 1)
                 + (abs(mpmath.log(abs(F))) if F else 0) + 1)
            bound = (abs(want) * (3 * T + 4) * eps
                     + scale * (n + 1) ** 2 * eps * biggest)
            assert abs(got - want) <= bound, (energy, r, got, want)
            checked += 1
    if not checked:
        reject()


kummer_polynomial_cases = dict(
    n=st.integers(0, 60), c=st.floats(0.01, 100.0),
    x=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(**kummer_polynomial_cases)
def test_kummer_polynomial_array_matches_floats(n, c, x):
    # only +, -, * and / touch x, so each element is the float call's bytes
    want = np.array([kummer_polynomial(n, c, xi) for xi in x])
    assert kummer_polynomial(n, c, np.array(x)).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(**kummer_polynomial_cases)
def test_kummer_polynomial_matches_mpmath(n, c, x):
    # each of the n steps rounds with relative error about 3 eps of the
    # values it combines, and near x = 0 an error made at step k persists
    # unchanged through the remaining n - k steps, so the errors add up to
    # at most about (n + 1)^2 / 2 of eps times the largest |M_k|
    eps = np.finfo(np.float64).eps
    for xi in x:
        got = kummer_polynomial(n, c, xi)
        biggest = largest_term(n, mpmath.mpf(c), mpmath.mpf(xi))
        want = mpmath.hyp1f1(-n, c, xi, zeroprec=1000)  # can be 0
        assert abs(got - want) <= (n + 1) ** 2 * eps * biggest, (n, c, xi)


def unscaled_recurrence(n, c, x):
    """1F1(-n; c; x) by the degree recurrence in plain floats."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2.0 * k + c - x) * cur - k * prev) / (c + k)
    return cur


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 60), c=st.floats(0.01, 100.0),
       x=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
def test_kummer_polynomial_scaling_is_exact(n, c, x):
    # scaling by powers of two rounds nothing, so wherever the plain
    # recurrence stays finite the bytes agree, and past it nothing is NaN
    got = kummer_polynomial(n, c, x)
    want = unscaled_recurrence(n, c, x)
    assert not math.isnan(got)
    if math.isfinite(want):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_wavefunction_grid_reads_zero_past_a_polynomial_overflow(constants,
                                                                 pion):
    # at r = 1e200 a single unscaled recurrence step passes the largest
    # double, while u has long underflowed to 0
    pot = make_pot(CouplingMode.PURE_SCALAR, pion=pion)
    qn = QuantumNumbers(n=60, l=0)
    cell = solve_cell(build_residual_spec(constants, pion, pot, qn))
    sol = build_wave_solution(constants, pion, pot, qn, cell.upper.energy)
    radii = [0.0, 1.0, 1e200]
    u = wavefunction_grid(sol, radii)
    assert u.tolist() == [0.0, wavefunction_u(sol, 1.0), 0.0]
    assert u.tobytes() == np.array(scalar_loop(sol, radii)).tobytes()


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


@example(a=6.752161044656324e-25, c=1.0, degree=None,
         x=28.0)  # early terms tiny, later ones grow back to 4e-14
@example(a=-3.0 + 1e-12, c=2.5, degree=None, x=40.0)  # so near a = -n
@example(a=8.607259938973481e-39, c=1.5, degree=None,
         x=60.0)  # every term below half an ulp of 1, 1.9e-15 in all
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
    got = kummer_1f1(params, x)
    want = mpmath.hyp1f1(a, c, x, zeroprec=1000)  # 1F1(-n; c; x) can be 0
    total, abs_sum, kept = series_term_sum(mpmath.mpf(a), mpmath.mpf(c),
                                           mpmath.mpf(x))
    eps = np.finfo(np.float64).eps
    assert abs(total - want) <= mpmath.mpf(10) ** -30 * abs_sum
    assert abs(got - want) <= (4 * kept + 4) * eps * abs_sum, (a, c, x)
    # one term is never enough for the stopping rule, which needs two
    # small terms in a row, not even at a = -n
    with mock.patch.object(special, "TERM_CAP", 1):
        with pytest.raises(EvaluationError):
            kummer_1f1(params, x)


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
    assert grid_report(u) == boundary_report(sol, r_max=40.0,
                                             grid_points=300)
    assert grid_report(u).node_count == 2
    with pytest.raises(EvaluationError):
        grid_report(np.zeros_like(radii))
