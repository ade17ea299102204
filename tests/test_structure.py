"""The solver against the model's own exact structure, with no table.

- delta = 0.  K does not depend on E, and the quantization condition
  squares to a quadratic in E.  Its admissible roots in each cell's window
  are the cell's converged lines, one for one.  A failed line, which
  never converged, still counts as one root.
- Three modes are one.  By model.mode_coefficients, emes at lambda_b is pv
  at lambda_b + 1/m0c2, and emos at lambda_b is pv at lambda_b - 1/m0c2:
  the equal-magnitude scalar part is absorbed by the mass term.  So emes at
  lambda_b = -1/m0c2 is the constant-mass pure-vector problem, and with
  delta = 0 it is the Klein-Gordon Coulomb spectrum (Greiner,
  Relativistic Quantum Mechanics).
- Units scale exactly.  Multiplying m0c2 and the three energy tolerances
  of SolverConfig by 2^k, and dividing delta and lambda_b by 2^k, scales
  every energy and residual by 2^k bit for bit: every float the solver
  forms scales by a power of two, which rounds exactly.

Each relation is checked through solve_spectra and through cli.main's JSON
output.  Counts are compared exactly.

Energy bound.  The secant stops at E with |f(E)| <= tol_residual, and a
step or bracket of at most tol_energy (rootfind.secant_refine), so E lies
within tol_residual / |f'| of the zero of the cell's residual f (mean value
theorem); or it stops at the residual floor, where E is one of two
adjacent doubles around the zero, within one ulp of it.  One solved energy
is therefore allowed tol_energy + tol_residual / |f'(E)| from the exact
root, and two solved energies the sum of their two allowances.  The
tol_energy term covers what the float residual cannot see: its rounding
near a root, a few ulps of m0c2 (about 1e-13 MeV at the default m0c2,
against tol_energy * |f'|), and the change of f' over that distance.
"""

import contextlib
import io
import json
import math
import re

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgbound import (NEUTRAL_PION_M0C2, CouplingMode, ParticleSpec,
                     PotentialSpec, QuantumNumbers, SolverConfig,
                     build_residual_spec, solve_spectra, solve_spectrum)
from kgbound._kernels import POLE_EPS
from kgbound.cli import main

MODES = tuple(CouplingMode)
NMAX = 4
CELLS = [(n, l) for n in range(NMAX + 1) for l in range(n + 1)]


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     allow_subnormal=False)


def table_entries(table):
    return [dict(vars(e)) for e in table.entries]


def main_entries(argv):
    """The entries of a `solve --format json` table."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["solve", "--format", "json"] + argv)
    assert (rc, err.getvalue()) == (0, "")
    return [e for cell in json.loads(out.getvalue())["table"]["cells"]
            for e in cell["entries"]]


def solve_argv(pot, branch, m0c2=NEUTRAL_PION_M0C2, config=SolverConfig()):
    """The `solve` flags that reproduce solve_spectra of pot at NMAX."""
    return [f"--mode={pot.mode.value}", f"--A={pot.A!r}",
            f"--delta={pot.delta!r}", f"--lambda-b={pot.lambda_b!r}",
            f"--branch={branch}", f"--m0c2={m0c2!r}", f"--nmax={NMAX}",
            f"--tol-energy={config.tol_energy!r}",
            f"--tol-residual={config.tol_residual!r}",
            f"--window-margin={config.window_margin!r}"]


def converged(entries):
    """(n, l, line, energy) of each converged entry, in order."""
    return sorted((e["n"], e["l"], e["line"], e["energy"])
                  for e in entries if e["status"] == "converged")


def cell_roots(entries, n, l):
    """The converged (line, energy) pairs of cell (n, l), in order, and its
    count of failed lines."""
    cell = [e for e in entries if (e["n"], e["l"]) == (n, l)]
    return (sorted((e["line"], e["energy"]) for e in cell
                   if e["status"] == "converged"),
            sum(e["status"] == "failed" for e in cell))


def slope(spec, E):
    """f'(E) of the residual f = LHS - RHS of spec's cell:
    LHS = sqrt(m0c2^2 - E^2) / g, RHS = alpha (c0 + c1 E) / D, with
    g = 1 + delta E, D = n + 1/2 + s sqrt(1/4 + k2 g^2 + l(l+1))."""
    m, delta, s = spec.m0c2, spec.delta, spec.branch_sign
    g = 1.0 + delta * E
    lhs_root = math.sqrt((m - E) * (m + E))
    root = math.sqrt(0.25 + spec.k2 * g * g + spec.ll1)
    den = spec.n_plus_half + s * root
    d_lhs = -E / (lhs_root * g) - lhs_root * delta / (g * g)
    d_den = s * spec.k2 * g * delta / root
    d_rhs = spec.alpha * (spec.c1 * den - (spec.c0 + spec.c1 * E) * d_den) / (
        den * den)
    return d_lhs - d_rhs


def allowance(spec, E, config):
    """How far a solved energy E may lie from the exact root (module
    docstring)."""
    return config.tol_energy + config.tol_residual / abs(slope(spec, E))


def cell_spec(constants, particle, pot, n, l, branch, config=SolverConfig()):
    return build_residual_spec(constants, particle, pot,
                               QuantumNumbers(n=n, l=l), branch=branch,
                               window_margin=config.window_margin)


# ------------------------------------------------------ delta = 0: a quadratic

def quadratic_roots(spec):
    """The roots of a delta = 0 cell's condition, exactly: with
    N = n + 1/2 + s sqrt(1/4 + K), the squared condition
    N^2 (m0c2^2 - E^2) = alpha^2 (c0 + c1 E)^2 reads

        (N^2 + alpha^2 c1^2) E^2 + 2 alpha^2 c0 c1 E
            + alpha^2 c0^2 - N^2 m0c2^2 = 0.

    A root of it is a root of the condition where the RHS
    alpha (c0 + c1 E) / N is the positive square root, and counts where it
    lies in the cell's window.  The spec's fields are taken as exact; the
    cell has no root where eta is complex or N lies in the kernel's pole
    band."""
    quarter = 0.25 + (spec.k2 + spec.ll1)
    if quarter < 0.0:
        return []
    den = spec.n_plus_half + spec.branch_sign * math.sqrt(quarter)
    if abs(den) <= POLE_EPS:
        return []
    with mpmath.workdps(50):
        a, c0, c1, m, k2 = map(mpmath.mpf, (spec.alpha, spec.c0, spec.c1,
                                            spec.m0c2, spec.k2))
        N = (spec.n + mpmath.mpf(1) / 2 + spec.branch_sign
             * mpmath.sqrt(mpmath.mpf(1) / 4 + k2 + spec.ll1))
        qa = N * N + a * a * c1 * c1
        qb = 2 * a * a * c0 * c1
        qc = a * a * c0 * c0 - N * N * m * m
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return []
        lo, hi = spec.window
        roots = {(-qb + sign * mpmath.sqrt(disc)) / (2 * qa)
                 for sign in (-1, 1)}
        return sorted(float(E) for E in roots
                      if lo <= E <= hi and a * (c0 + c1 * E) / N > 0)


def check_quadratic(constants, particle, pot, branch, entries):
    """Each cell's admissible roots are its converged lines, each within
    its allowance of one root, and its failed ones."""
    for n, l in CELLS:
        spec = cell_spec(constants, particle, pot, n, l, branch)
        roots = quadratic_roots(spec)
        found, failed = cell_roots(entries, n, l)
        assert len(found) + failed == len(roots), (n, l, found, roots)
        for _, E in found:
            near = [root for root in roots
                    if abs(E - root) <= allowance(spec, E, SolverConfig())]
            assert near, (n, l, E, roots)
            roots.remove(near[0])


@settings(max_examples=20, deadline=None)
@example(mode=CouplingMode.EMOS, A=13.0, lambda_bs=[1e-9], branch="minus")
@given(mode=st.sampled_from(MODES), A=finite(5.0, 400.0),
       lambda_bs=st.lists(finite(-0.01, 0.01), min_size=1, max_size=6),
       branch=st.sampled_from(("plus", "minus")))
def test_delta_zero_spectrum_is_the_quadratic_roots(constants, pion, mode, A,
                                                    lambda_bs, branch):
    # several spectra per solve_spectra call, so that the lock-step
    # refinement runs too
    pots = [PotentialSpec(A=A, delta=0.0, lambda_b=lb, mode=mode)
            for lb in lambda_bs]
    tables = solve_spectra(constants, pion, pots, n_max=NMAX, branch=branch)
    for pot, table in zip(pots, tables):
        check_quadratic(constants, pion, pot, branch, table_entries(table))
    check_quadratic(constants, pion, pots[0], branch,
                    main_entries(solve_argv(pots[0], branch)))


def test_root_steeper_than_tol_residual_per_double_converges(constants, pion):
    # N = 1/2 - sqrt(1/4 + k2) is 1.2e-9, just outside the pole band, so the
    # residual's slope at the root, 1.8e-5 MeV below m0c2, is about -6e7:
    # adjacent doubles there differ in f by about 2e-6 > tol_residual, so
    # the secant stops at the residual floor
    pot = PotentialSpec(A=13.0, delta=0.0, lambda_b=1e-9,
                        mode=CouplingMode.EMOS)
    spec = cell_spec(constants, pion, pot, 0, 0, "minus")
    root, = quadratic_roots(spec)
    config = SolverConfig()
    if abs(slope(spec, root)) * math.ulp(root) <= config.tol_residual:
        pytest.fail("a double lies within tol_residual of the root")
    upper = solve_spectrum(constants, pion, pot, n_max=0,
                           branch="minus").cell(0, 0).upper
    assert upper.status == "converged", upper
    assert upper.detail.startswith("residual floor"), upper
    assert abs(upper.energy - root) <= allowance(spec, upper.energy, config)


def test_spectrum_is_continuous_at_vanishing_delta(constants, pion):
    # the energy-dependence machinery at delta = 1e-15 must agree with the
    # exact delta = 0 path to well below the table resolution
    def table(delta):
        pot = PotentialSpec(A=200.0, delta=delta, lambda_b=0.0,
                            mode=CouplingMode.EMES)
        return solve_spectrum(constants, pion, pot, n_max=1)

    at_zero = table(0.0)
    nearby = table(1e-15)
    for cell in at_zero.cells:
        other = nearby.cell(cell.n, cell.l)
        for a, b in zip(cell.entries, other.entries):
            assert a.status == b.status
            if a.energy is not None:
                assert b.energy == pytest.approx(a.energy, abs=1e-6)


# ------------------------------------------------------ three modes are one

def check_same_spectrum(constants, particle, pot, other, branch, entries,
                        other_entries):
    """entries (of pot) and other_entries (of other) have as many roots in
    each cell, converged or failed.  Where neither cell has a failed line,
    they have the same converged lines, each pair of energies within their
    two allowances; a failed line has no energy to compare."""
    for n, l in CELLS:
        ours, our_failed = cell_roots(entries, n, l)
        theirs, their_failed = cell_roots(other_entries, n, l)
        assert len(ours) + our_failed == len(theirs) + their_failed, (
            n, l, ours, theirs)
        if our_failed or their_failed:
            continue
        assert [line for line, _ in ours] == [line for line, _ in theirs]
        for (_, E), (_, F) in zip(ours, theirs):
            bound = (allowance(cell_spec(constants, particle, pot, n, l,
                                         branch), E, SolverConfig())
                     + allowance(cell_spec(constants, particle, other, n, l,
                                           branch), F, SolverConfig()))
            assert abs(E - F) <= bound, (n, l, E, F, bound)


@settings(max_examples=20, deadline=None)
@example(A=13.0, delta=0.0, lambda_b=1e-9, branch="minus")
@given(A=finite(20.0, 400.0), delta=finite(-0.006, 0.006),
       lambda_b=finite(-0.01, 0.01), branch=st.sampled_from(("plus", "minus")))
def test_equal_magnitude_modes_are_pure_vector(constants, pion, A, delta,
                                               lambda_b, branch):
    shift = 1.0 / pion.m0c2
    pairs = [(PotentialSpec(A=A, delta=delta, lambda_b=lambda_b, mode=mode),
              PotentialSpec(A=A, delta=delta, lambda_b=lambda_b + sign * shift,
                            mode=CouplingMode.PURE_VECTOR))
             for mode, sign in ((CouplingMode.EMES, 1.0),
                                (CouplingMode.EMOS, -1.0))]
    pots = [pot for pair in pairs for pot in pair]
    tables = iter(solve_spectra(constants, pion, pots, n_max=NMAX,
                                branch=branch))
    for pot, other in pairs:
        check_same_spectrum(constants, pion, pot, other, branch,
                            table_entries(next(tables)),
                            table_entries(next(tables)))
        check_same_spectrum(constants, pion, pot, other, branch,
                            main_entries(solve_argv(pot, branch)),
                            main_entries(solve_argv(other, branch)))


def coulomb_energy(alpha, n, l, branch):
    """The Klein-Gordon Coulomb level, E = m0c2 / sqrt(1 + alpha^2 / N^2)
    with N = n + 1/2 + s sqrt((l + 1/2)^2 - alpha^2), over m0c2, signed as
    N: the condition's RHS alpha E / N is a positive root.  None where
    eta is complex or N lies in the kernel's pole band."""
    quarter = (l + 0.5) ** 2 - alpha * alpha
    if quarter < 0.0:
        return None
    N = n + 0.5 + (1.0 if branch == "plus" else -1.0) * math.sqrt(quarter)
    if abs(N) <= POLE_EPS:
        return None
    return math.copysign(1.0, N) / math.sqrt(1.0 + (alpha / N) ** 2)


@settings(max_examples=15, deadline=None)
@given(A=finite(5.0, 400.0), branch=st.sampled_from(("plus", "minus")))
def test_constant_mass_emes_is_the_coulomb_spectrum(constants, pion, A,
                                                    branch):
    # emes at lambda_b = -1/m0c2: m(r, E) c^2 plus the scalar part is m0c2
    pot = PotentialSpec(A=A, delta=0.0, lambda_b=-1.0 / pion.m0c2,
                        mode=CouplingMode.EMES)
    alpha = A / constants.hbar_c
    expected = []
    for n, l in CELLS:
        level = coulomb_energy(alpha, n, l, branch)
        if level is not None:
            E = pion.m0c2 * level
            expected.append((n, l, "lower" if E < 0.0 else "upper", E))
    for entries in (table_entries(solve_spectrum(constants, pion, pot,
                                                 n_max=NMAX, branch=branch)),
                    main_entries(solve_argv(pot, branch))):
        solved = converged(entries)
        assert [key[:3] for key in solved] == [key[:3] for key in expected]
        for (n, l, _, E), (_, _, _, level) in zip(solved, expected):
            spec = cell_spec(constants, pion, pot, n, l, branch)
            assert abs(E - level) <= allowance(spec, E, SolverConfig()), (
                n, l, E, level)


# ------------------------------------------------------ units scale exactly

def scaled_config(k):
    config = SolverConfig()
    return SolverConfig(tol_energy=math.ldexp(config.tol_energy, k),
                        tol_residual=math.ldexp(config.tol_residual, k),
                        window_margin=math.ldexp(config.window_margin, k))


# The bracket that a failed line's detail names, in MeV.
BRACKET = re.compile(r"\[(\S+), (\S+)\]")


def check_scaled(entries, scaled_entries, k):
    assert len(entries) == len(scaled_entries)
    for e, s in zip(entries, scaled_entries):
        for name in ("energy", "residual_at_root"):
            if e[name] is not None:
                e[name] = math.ldexp(e[name], k)
        if e["status"] == "failed":
            e["detail"] = BRACKET.sub(
                lambda m: "[{!r}, {!r}]".format(
                    *(math.ldexp(float(x), k) for x in m.groups())),
                e["detail"])
        assert s == e


@settings(max_examples=20, deadline=None)
@example(mode=CouplingMode.EMOS, A=13.0, delta=0.0, lambda_b=1e-9,
         branch="minus", k=1)
@given(mode=st.sampled_from(MODES), A=finite(5.0, 400.0),
       delta=finite(-0.006, 0.006), lambda_b=finite(-0.01, 0.01),
       branch=st.sampled_from(("plus", "minus")), k=st.integers(-20, 30))
def test_units_scale_every_energy_exactly(constants, pion, mode, A, delta,
                                          lambda_b, branch, k):
    pot = PotentialSpec(A=A, delta=delta, lambda_b=lambda_b, mode=mode)
    scaled_pot = PotentialSpec(A=A, delta=math.ldexp(delta, -k),
                               lambda_b=math.ldexp(lambda_b, -k), mode=mode)
    m0c2 = math.ldexp(pion.m0c2, k)
    particle = ParticleSpec.with_compton_lambda(m0c2, constants)
    config = scaled_config(k)
    table, = solve_spectra(constants, pion, [pot], n_max=NMAX, branch=branch)
    scaled, = solve_spectra(constants, particle, [scaled_pot], n_max=NMAX,
                            branch=branch, config=config)
    check_scaled(table_entries(table), table_entries(scaled), k)
    check_scaled(main_entries(solve_argv(pot, branch)),
                 main_entries(solve_argv(scaled_pot, branch, m0c2, config)),
                 k)
