import csv
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from kgbound import CouplingMode, ParticleSpec, PhysicalConstants, PotentialSpec
from kgbound._kernels import residual_grid
from kgbound.aim import Poly, exact_tau, terminates_at
from kgbound.rootfind import SolverConfig, bracket_scan, solve_spectrum
from kgbound.special import (_kummer_scaled, grid_report,
                             kummer_1f1)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
GRID_VALUES = (-0.003, 0.0, 0.003)
GRID_CELLS = tuple((n, l) for n in range(4) for l in range(n + 1))
A_DEFAULT = 200.0


def load_reference(mode_name):
    """reference_<mode>.csv -> {(delta, lambda_b, line): {(n, l): E or None}}."""
    path = os.path.join(FIXTURE_DIR, f"reference_{mode_name}.csv")
    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (float(row["delta"]), float(row["lambda_b"]), row["line"])
            table[key] = {
                (n, l): None if row[f"E{n}{l}"] == "None" else float(row[f"E{n}{l}"])
                for n, l in GRID_CELLS
            }
    return table


def scan_grid(spec, config):
    """The energy grid solve_cell scans for one cell."""
    return np.linspace(*spec.window, config.grid_points)


def scan_brackets(spec, config):
    """The brackets of solve_cell's uniform scan for one cell."""
    E = scan_grid(spec, config)
    res, _, den, status = (a[0] for a in residual_grid([spec], E))
    return bracket_scan(E, res, den, status)


def kummer_polynomial(n, c, x):
    """1F1(-n; c; x) at a float or an array x from kgbound.special's scaled
    recurrence; inf past the largest double."""
    M, e = _kummer_scaled(n, c, x)
    with np.errstate(over="ignore"):
        return np.ldexp(M, e)


def series_report(sol, r_max, points=2000):
    """grid_report of u built on the power series 1F1(a; c; x) at the
    solution's computed a, which off an eigenvalue is no polynomial."""
    radii = np.linspace(0.0, r_max, points)
    u = np.zeros(points)
    for i, z in enumerate((sol.growth * radii[1:]).tolist(), start=1):
        F = kummer_1f1(sol.params, 2.0 * sol.tau * z)
        if F != 0.0:
            u[i] = math.copysign(math.exp(-sol.tau * z + (sol.eta + 1.0)
                                          * math.log(z) + math.log(abs(F))), F)
    return grid_report(u)


class RefPoly:
    """Reference polynomial with Fraction coefficients, lowest power first,
    trailing zeros stripped: the oracle of kgbound.aim.Poly, built on
    Fraction arithmetic alone."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RefPoly(c + (b[k] if k < len(b) else 0) for k, c in enumerate(a))

    def __neg__(self):
        return RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            return RefPoly(c * other for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def derivative(self):
        return RefPoly(k * c for k, c in enumerate(self.coeffs) if k)

    def d_dz(self):
        """-w^2 p'(w): d/dz of a polynomial in w = 1/z."""
        return RefPoly((0, 0, *(-self.derivative()).coeffs))

    def scale_arg(self, c):
        return RefPoly(coef * Fraction(c) ** k
                       for k, coef in enumerate(self.coeffs))


def d_dz(p):
    """The z-derivative of a kgbound.aim.Poly in w = 1/z: p -> -w^2 p'(w)."""
    return Poly((0, 0, *(-k * c for k, c in enumerate(p.coeffs) if k)))


def verify_level(n, eta, beta_sq):
    """kgbound.aim's certificate for one level: the delta vanishes at the
    exact tau."""
    return terminates_at(n, exact_tau(eta, beta_sq, n), eta, beta_sq)


def ref_terminates_at(n, tau, eta, beta_sq):
    """The iteration chain of kgbound.aim on RefPoly: whether the delta
    between levels n + 1 and n vanishes."""
    lam0 = RefPoly((2 * tau, -2 * (eta + 1)))
    s0 = RefPoly((0, 2 * tau * (eta + 1) - beta_sq))
    prev = lam, s = lam0, s0
    for _ in range(n + 1):
        prev, (lam, s) = (lam, s), (lam.d_dz() + lam0 * lam + s,
                                    s.d_dz() + s0 * lam)
    return not (s * prev[0] - prev[1] * lam).coeffs


def composed_seed(tau, eta, beta_sq):
    """(lambda_0, s_0) of kgbound.aim.seed, composed from Poly's own
    arithmetic on Fraction coefficients."""
    tau, eta, beta_sq = Fraction(tau), Fraction(eta), Fraction(beta_sq)
    return (Poly((2 * tau, -2 * (eta + 1))),
            Poly((0, 2 * tau * (eta + 1) - beta_sq)))


def composed_iterate(lam0, s0, lam, s):
    """(lambda_{n+1}, s_{n+1}) of kgbound.aim.iterate, one Poly operation
    at a time."""
    return d_dz(lam) + lam0 * lam + s, d_dz(s) + s0 * lam


def composed_delta(lam_prev, s_prev, lam, s):
    """kgbound.aim.termination_delta, one Poly operation at a time."""
    return s * lam_prev - s_prev * lam


def fixture_path(mode_name):
    return os.path.join(FIXTURE_DIR, f"reference_{mode_name}.csv")


@pytest.fixture(scope="session")
def constants():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def pion(constants):
    return ParticleSpec.neutral_pion(constants)


@pytest.fixture(scope="session")
def solve_block(constants, pion):
    """Memoized block solver: one SpectrumTable per (mode, delta, lambda_b)."""
    cache = {}

    def solve(mode_name, delta, lambda_b):
        key = (mode_name, delta, lambda_b)
        if key not in cache:
            pot = PotentialSpec.from_lambda_b(
                A=A_DEFAULT, delta=delta, lambda_b=lambda_b, particle=pion,
                mode=CouplingMode.parse(mode_name))
            cache[key] = solve_spectrum(constants, pion, pot, n_max=3,
                                        config=SolverConfig())
        return cache[key]

    return solve
