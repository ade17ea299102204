import csv
import os

import numpy as np
import pytest

from kgbound import CouplingMode, ParticleSpec, PhysicalConstants, PotentialSpec
from kgbound.quantization import evaluate_grid
from kgbound.rootfind import SolverConfig, bracket_scan, solve_spectrum

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
    """The brackets of solve_cell's uniform scan for one cell, without the
    node it adds where eta turns complex."""
    E = scan_grid(spec, config)
    res, _, den, status = evaluate_grid(spec, E)
    return bracket_scan(E, res, den, status)


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
