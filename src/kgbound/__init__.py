"""Bound states of the Klein-Gordon equation with energy-dependent
Coulomb-like potentials and a position- and energy-dependent mass.

The public surface re-exports the model inputs, the quantization residual,
the spectrum solver, the exact-termination certificate machinery, and the
radial wave functions.
"""

from .errors import (AbsentError, BranchError, ConvergenceError, DomainError,
                     EvaluationError, KGBoundError)
from .limits import (LimitCase, classify, constant_mass_identity_check,
                     default_identity_samples)
from .model import (DEFAULT_HBAR_C, NEUTRAL_PION_M0C2, CaseParameters,
                    CouplingMode, ParticleSpec, PhysicalConstants,
                    PotentialSpec, QuantumNumbers, case_parameters, mass_at,
                    vector_potential)
from .quantization import (ResidualSpec, SpectrumEntry, build_residual_spec,
                           constant_mass_b, residual, sign_validity)
from .rootfind import (CellResult, RefineResult, SolverConfig, SpectrumTable,
                       bracket_scan, secant_refine, solve_cell, solve_spectrum)
from .special import (BoundaryReport, KummerParams, WaveSolution,
                      boundary_report, build_wave_solution, default_r_max,
                      grid_report, kummer_1f1, normalize_on_grid,
                      wavefunction_grid, wavefunction_u)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_HBAR_C", "NEUTRAL_PION_M0C2",
    "KGBoundError", "DomainError", "BranchError", "AbsentError",
    "ConvergenceError", "EvaluationError",
    "CouplingMode", "PhysicalConstants", "ParticleSpec", "PotentialSpec",
    "QuantumNumbers", "CaseParameters", "case_parameters", "mass_at",
    "vector_potential",
    "ResidualSpec", "SpectrumEntry", "build_residual_spec", "residual",
    "sign_validity", "constant_mass_b",
    "SolverConfig", "RefineResult", "CellResult", "SpectrumTable",
    "bracket_scan", "secant_refine", "solve_cell",
    "solve_spectrum",
    "KummerParams", "WaveSolution", "BoundaryReport", "kummer_1f1",
    "build_wave_solution", "wavefunction_u", "wavefunction_grid",
    "boundary_report", "grid_report", "default_r_max", "normalize_on_grid",
    "LimitCase", "classify", "constant_mass_identity_check",
    "default_identity_samples",
]
