import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from kgbound import (CouplingMode, ParticleSpec, PhysicalConstants,
                     PotentialSpec, QuantumNumbers, SolverConfig,
                     build_residual_spec, constant_mass_b,
                     secant_refine, solve_spectrum)
from kgbound.aim import exact_tau, terminates_at
from kgbound.limits import constant_mass_identity_check, default_identity_samples
from kgbound.quantization import residual
from kgbound.special import (KummerParams, boundary_report,
                             build_wave_solution, default_r_max, kummer_1f1)

from conftest import (A_DEFAULT, GRID_CELLS, GRID_VALUES, load_reference,
                      scan_brackets)

TABLE_TOL = 0.02
BEST_HBAR_C_TOL = 0.005
PAIR_TOL = 2e-9
HBAR_C_CANDIDATES = (197.327, 197.3269804, 197.33)

# the reference table reports no E33 lower value in this block, but the
# quantization condition has a genuine root there; the strict table sweep
# exempts the cell and pins the root down instead
CONTESTED = (0.003, 0.003, "lower", 3, 3)
CONTESTED_RANGE = (-134.92, -134.87)


def entry_of(table, n, l, line):
    cell = table.cell(n, l)
    return cell.lower if line == "lower" else cell.upper


def test_c01_emes_table_reproduction(constants, pion, solve_block):
    started = time.perf_counter()
    ref = load_reference("emes")
    assert ref[(0.0, 0.0, "upper")][(1, 0)] == 79.81538
    assert ref[(0.0, 0.003, "lower")][(0, 0)] == -129.64146

    worst = 0.0
    compared = 0
    for (delta, lambda_b, line), cells in ref.items():
        table = solve_block("emes", delta, lambda_b)
        for (n, l), expected in cells.items():
            entry = entry_of(table, n, l, line)
            if expected is None:
                if (delta, lambda_b, line, n, l) == CONTESTED:
                    assert entry.status == "converged"
                    assert abs(entry.residual_at_root) <= 1e-8
                    lo, hi = CONTESTED_RANGE
                    assert lo < entry.energy < hi
                    continue
                assert entry.status == "absent", (delta, lambda_b, line, n, l)
                continue
            assert entry.status == "converged", (delta, lambda_b, line, n, l)
            worst = max(worst, abs(entry.energy - expected))
            compared += 1
            assert abs(entry.energy - expected) <= TABLE_TOL
    assert compared >= 100

    table = solve_block("emes", 0.0, 0.0)
    assert table.energy(1, 0, "upper") == pytest.approx(79.81538, abs=TABLE_TOL)
    table = solve_block("emes", 0.0, 0.003)
    assert table.energy(0, 0, "lower") == pytest.approx(-129.64146,
                                                        abs=TABLE_TOL)

    best = math.inf
    best_h = None
    for hbar_c in HBAR_C_CANDIDATES:
        consts = PhysicalConstants(hbar_c=hbar_c)
        particle = ParticleSpec.neutral_pion(consts)
        candidate_worst = 0.0
        for delta in GRID_VALUES:
            for lambda_b in GRID_VALUES:
                pot = PotentialSpec.from_lambda_b(
                    A=A_DEFAULT, delta=delta, lambda_b=lambda_b,
                    particle=particle, mode=CouplingMode.EMES)
                table = solve_spectrum(consts, particle, pot, n_max=3,
                                       config=SolverConfig())
                for line in ("lower", "upper"):
                    for (n, l), expected in ref[(delta, lambda_b, line)].items():
                        if expected is None:
                            continue
                        computed = table.energy(n, l, line)
                        assert computed is not None
                        candidate_worst = max(candidate_worst,
                                              abs(computed - expected))
        if candidate_worst < best:
            best, best_h = candidate_worst, hbar_c
    assert best <= BEST_HBAR_C_TOL

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 1: PASS (worst {worst:.5f} MeV over {compared} cells, "
          f"best hbar_c {best_h} at {best:.5f} MeV, {elapsed:.2f} s)")


def test_c02_emos_table(solve_block):
    started = time.perf_counter()
    ref = load_reference("emos")
    assert ref[(-0.003, 0.003, "upper")][(1, 0)] == 133.47228

    absent = 0
    for delta in GRID_VALUES:
        for lambda_b in (-0.003, 0.0):
            table = solve_block("emos", delta, lambda_b)
            for n, l in GRID_CELLS:
                cell = table.cell(n, l)
                assert cell.lower.status == "absent"
                assert cell.upper.status == "absent"
                absent += 2

    worst = 0.0
    for delta in GRID_VALUES:
        table = solve_block("emos", delta, 0.003)
        for line in ("lower", "upper"):
            for (n, l), expected in ref[(delta, 0.003, line)].items():
                computed = table.energy(n, l, line)
                if expected is None:
                    assert computed is None
                    continue
                worst = max(worst, abs(computed - expected))
                assert abs(computed - expected) <= TABLE_TOL

    table = solve_block("emos", -0.003, 0.003)
    assert table.energy(1, 0, "upper") == pytest.approx(133.47228,
                                                        abs=TABLE_TOL)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 2: PASS ({absent} cells absent below the coupling "
          f"threshold, worst {worst:.5f} MeV above it, {elapsed:.2f} s)")


def test_c03_pv_table(solve_block):
    ref = load_reference("pv")
    assert ref[(0.0, 0.0, "upper")][(1, 1)] == 125.79630

    for delta in GRID_VALUES:
        for lambda_b in GRID_VALUES:
            table = solve_block("pv", delta, lambda_b)
            for n in range(4):
                cell = table.cell(n, 0)
                assert cell.lower.status == "absent"
                assert cell.upper.status == "absent"
                assert "eta complex" in cell.upper.detail

    table = solve_block("pv", 0.0, 0.0)
    anchor = table.energy(1, 1, "upper")
    assert anchor == pytest.approx(125.79630, abs=TABLE_TOL)
    upper_energies = [e.energy for e in table.entries
                      if e.line == "upper" and e.status == "converged"]
    assert min(upper_energies) == anchor
    print(f"criterion 3: PASS (l=0 column absent in all 9 blocks, lowest "
          f"state E11 = {anchor:.5f} MeV)")


def test_c04_ps_table(solve_block):
    ref = load_reference("ps")
    assert ref[(0.0, 0.0, "upper")][(0, 0)] == 105.71706
    assert ref[(0.0, 0.0, "lower")][(0, 0)] == -105.71706

    worst = 0.0
    for (delta, lambda_b, line), cells in ref.items():
        table = solve_block("ps", delta, lambda_b)
        for (n, l), expected in cells.items():
            computed = table.energy(n, l, line)
            if expected is None:
                assert computed is None
                continue
            worst = max(worst, abs(computed - expected))
            assert abs(computed - expected) <= TABLE_TOL

    table = solve_block("ps", 0.0, 0.0)
    worst_sym = 0.0
    for n, l in GRID_CELLS:
        lower = table.energy(n, l, "lower")
        upper = table.energy(n, l, "upper")
        assert lower is not None and upper is not None
        worst_sym = max(worst_sym, abs(upper + lower))
        assert abs(upper + lower) <= PAIR_TOL
    assert table.energy(0, 0, "upper") == pytest.approx(105.71706,
                                                        abs=TABLE_TOL)

    worst_refl = 0.0
    for lambda_b in GRID_VALUES:
        plus = solve_block("ps", 0.003, lambda_b)
        minus = solve_block("ps", -0.003, lambda_b)
        for n, l in GRID_CELLS:
            for a, b in ((plus.energy(n, l, "upper"),
                          minus.energy(n, l, "lower")),
                         (minus.energy(n, l, "upper"),
                          plus.energy(n, l, "lower"))):
                assert a is not None and b is not None
                worst_refl = max(worst_refl, abs(a + b))
                assert abs(a + b) <= PAIR_TOL
    print(f"criterion 4: PASS (worst {worst:.5f} MeV, antisymmetry "
          f"{worst_sym:.2e} MeV, delta reflection {worst_refl:.2e} MeV)")


def test_c05_emes_degeneracy(solve_block):
    ref = load_reference("emes")
    assert ref[(-0.003, 0.0, "upper")][(1, 1)] == 123.27091
    assert ref[(-0.003, 0.0, "upper")][(2, 0)] == 123.27091

    worst = 0.0
    pairs = 0
    for delta in GRID_VALUES:
        table = solve_block("emes", delta, 0.0)
        for n in (2, 3):
            for l in range(n - 1):
                for line in ("lower", "upper"):
                    a = table.energy(n, l, line)
                    b = table.energy(n - 1, l + 1, line)
                    assert (a is None) == (b is None), (delta, n, l, line)
                    if a is None:
                        continue
                    worst = max(worst, abs(a - b))
                    assert abs(a - b) <= PAIR_TOL
                    pairs += 1
    assert pairs >= 9

    table = solve_block("emes", -0.003, 0.0)
    e11 = table.energy(1, 1, "upper")
    e20 = table.energy(2, 0, "upper")
    assert e11 == pytest.approx(123.27091, abs=TABLE_TOL)
    assert abs(e11 - e20) <= PAIR_TOL
    print(f"criterion 5: PASS ({pairs} degenerate pairs, worst split "
          f"{worst:.2e} MeV)")


def test_c06_aim_certificate():
    started = time.perf_counter()
    rng = random.Random(20260816)
    for n in range(5):
        for _ in range(25):
            eta = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            beta_sq = Fraction(rng.randint(1, 90), rng.randint(1, 12))
            tau = exact_tau(eta, beta_sq, n)
            assert terminates_at(n, tau, eta, beta_sq)
            assert not terminates_at(n, tau * Fraction(101, 100), eta, beta_sq)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 6: PASS (levels 0..4, 25 seeds each, exact at tau and "
          f"broken at 1.01 tau, {elapsed:.2f} s)")


def test_c07_wavefunction_diagnostics(constants, pion, solve_block):
    checked = 0
    worst_tail = 0.0
    for mode_name in ("emes", "emos", "pv", "ps"):
        mode = CouplingMode.parse(mode_name)
        for delta in GRID_VALUES:
            for lambda_b in GRID_VALUES:
                table = solve_block(mode_name, delta, lambda_b)
                pot = PotentialSpec.from_lambda_b(
                    A=A_DEFAULT, delta=delta, lambda_b=lambda_b,
                    particle=pion, mode=mode)
                for entry in table.entries:
                    if entry.status != "converged":
                        continue
                    sol = build_wave_solution(constants, pion, pot,
                                              QuantumNumbers(n=entry.n,
                                                             l=entry.l),
                                              entry.energy)
                    report = boundary_report(sol)
                    assert report.u_origin == 0.0
                    assert report.tail_ratio < 1e-4
                    assert report.node_count == entry.n
                    assert abs(sol.params.a + entry.n) < 1e-6
                    worst_tail = max(worst_tail, report.tail_ratio)
                    checked += 1
    assert checked >= 300

    entry = solve_block("ps", 0.0, 0.0).cell(0, 0).upper
    pot = PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=0.0, lambda_b=0.0,
                                      particle=pion,
                                      mode=CouplingMode.PURE_SCALAR)
    qn = QuantumNumbers(n=0, l=0)
    r_max = default_r_max(build_wave_solution(constants, pion, pot, qn,
                                              entry.energy))
    for shift in (1.0, -1.0):
        off = build_wave_solution(constants, pion, pot, qn,
                                  entry.energy + shift)
        assert not boundary_report(off, r_max=r_max).tail_ratio < 1e-4
    print(f"criterion 7: PASS ({checked} states, worst tail {worst_tail:.2e}, "
          f"off-eigenvalue controls fail the tail bound)")


def test_c08_kummer_against_high_precision_oracle():
    mpmath.mp.dps = 40
    rng = random.Random(20260816)
    checked = 0
    worst = 0.0
    while checked < 50:
        a = rng.uniform(-3.0, 8.0)
        if a <= 0.5 and abs(a - round(a)) < 0.05:
            continue
        c = rng.uniform(0.5, 10.0)
        x = rng.uniform(0.0, 50.0)
        got = kummer_1f1(KummerParams(a=a, c=c), x)
        want = float(mpmath.hyp1f1(a, c, x))
        assert got == pytest.approx(want, rel=1e-12), (a, c, x)
        worst = max(worst, abs(got - want) / abs(want))
        checked += 1
    for a in (0.75, 3.25):
        for x in (1.0, 7.5, 20.0, 50.0):
            got = kummer_1f1(KummerParams(a=a, c=a), x)
            assert got == pytest.approx(math.exp(x), rel=1e-12)
    print(f"criterion 8: PASS ({checked} oracle draws, worst relative error "
          f"{worst:.2e}; exponential identity holds)")


def bisect_root(f, a, b, tol):
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


def test_c09_rootfinder_oracle(constants, pion, solve_block):
    def make_spec(mode, n, l, delta, lambda_b):
        pot = PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=delta,
                                          lambda_b=lambda_b, particle=pion,
                                          mode=mode)
        return build_residual_spec(constants, pion, pot,
                                   QuantumNumbers(n=n, l=l))

    rng = random.Random(97)
    modes = list(CouplingMode)
    config = SolverConfig()
    instances = 0
    compared = 0
    draws = 0
    worst = 0.0
    while instances < 20:
        draws += 1
        assert draws < 200, "sampler starved; seed no longer reaches 20 instances"
        n = rng.randrange(4)
        spec = make_spec(modes[rng.randrange(4)], n=n,
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
            worst = max(worst, abs(refined.energy - reference))
            assert abs(refined.energy - reference) <= config.tol_energy
            compared += 1
    assert compared >= 20

    lost = 0
    matched = 0
    fine_config = SolverConfig(grid_points=8000)
    for delta in GRID_VALUES:
        for lambda_b in GRID_VALUES:
            coarse = solve_block("emes", delta, lambda_b)
            pot = PotentialSpec.from_lambda_b(A=A_DEFAULT, delta=delta,
                                              lambda_b=lambda_b, particle=pion,
                                              mode=CouplingMode.EMES)
            fine = solve_spectrum(constants, pion, pot, n_max=3,
                                  config=fine_config)
            for cell in coarse.cells:
                fine_roots = [e.energy
                              for e in fine.cell(cell.n, cell.l).entries
                              if e.status == "converged"]
                for entry in cell.entries:
                    if entry.status != "converged":
                        continue
                    gap = min(abs(entry.energy - root)
                              for root in fine_roots)
                    if gap > 1e-6:
                        lost += 1
                    matched += 1
    assert lost == 0
    assert matched > 0
    print(f"criterion 9: PASS ({compared} roots vs bisection, worst gap "
          f"{worst:.2e} MeV; grid doubling keeps all {matched} roots)")


def test_c10_constant_mass_limit(constants, pion):
    samples = default_identity_samples(pion)
    verified = 0
    for B in (200.0, -100.0):
        b = constant_mass_b(A_DEFAULT, B, constants)
        for delta in (0.0, 0.0025):
            pot = PotentialSpec(A=A_DEFAULT, delta=delta,
                                lambda_b=pion.lam * b, mode=CouplingMode.EMES)
            assert constant_mass_identity_check(pion, pot, B, samples)
            off = PotentialSpec(A=A_DEFAULT, delta=delta,
                                lambda_b=pion.lam * b * 1.01,
                                mode=CouplingMode.EMES)
            assert not constant_mass_identity_check(pion, off, B, samples)
            verified += 1
    print(f"criterion 10: PASS ({verified} (A, B, delta) combinations, "
          f"1 percent coupling offset breaks the identity)")
