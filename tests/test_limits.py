import pytest

from kgbound import (CouplingMode, ParticleSpec, PotentialSpec,
                     constant_mass_b)
from kgbound.limits import (LimitCase, classify, constant_mass_identity_check,
                            default_identity_samples)
from kgbound.rootfind import solve_spectrum


def test_classify_exact_zero_cases(pion):
    def pot(delta, lambda_b):
        return PotentialSpec(A=200.0, delta=delta, lambda_b=lambda_b,
                             mode=CouplingMode.EMES)

    assert classify(pot(0.0, 0.0)) is LimitCase.CONSTANT_MASS
    assert classify(pot(0.003, 0.0)) is LimitCase.ENERGY_DEP_ONLY
    assert classify(pot(0.0, 0.003)) is LimitCase.POSITION_DEP_ONLY
    assert classify(pot(-0.003, 1e-300)) is LimitCase.GENERAL


def test_identity_holds_for_matched_coupling(constants, pion):
    for B in (200.0, -100.0):
        b = constant_mass_b(200.0, B, constants)
        for delta in (0.0, 0.0025):
            pot = PotentialSpec(A=200.0, delta=delta, lambda_b=pion.lam * b,
                                mode=CouplingMode.EMES)
            samples = default_identity_samples(pion)
            assert constant_mass_identity_check(pion, pot, B, samples)


def test_identity_on_small_sample_matrix(constants, pion):
    b = constant_mass_b(200.0, 200.0, constants)
    pot = PotentialSpec(A=200.0, delta=0.0, lambda_b=pion.lam * b,
                        mode=CouplingMode.EMES)
    samples = [(r, E) for r in (0.5, 1.0, 5.0) for E in (-50.0, 0.0, 50.0)]
    assert constant_mass_identity_check(pion, pot, 200.0, samples)


def test_identity_fails_under_coupling_perturbation(constants, pion):
    b = constant_mass_b(200.0, 200.0, constants)
    pot = PotentialSpec(A=200.0, delta=0.0, lambda_b=pion.lam * b * 1.01,
                        mode=CouplingMode.EMES)
    samples = default_identity_samples(pion)
    assert not constant_mass_identity_check(pion, pot, 200.0, samples)


def test_identity_needs_the_exact_length_scale(constants):
    # lambda_b = lam * b with the rounded length scale breaks the 1e-12
    # cancellation; only lam = hbar_c / m0c2 makes it exact
    rounded = ParticleSpec(m0c2=134.977, lam=1.462)
    exact = ParticleSpec.with_compton_lambda(134.977, constants)
    b = constant_mass_b(200.0, 200.0, constants)
    for particle, holds in ((exact, True), (rounded, False)):
        pot = PotentialSpec(A=200.0, delta=0.0, lambda_b=particle.lam * b,
                            mode=CouplingMode.EMES)
        assert constant_mass_identity_check(
            particle, pot, 200.0, default_identity_samples(particle)) is holds


def test_identity_trivial_when_both_couplings_vanish(pion):
    pot = PotentialSpec(A=200.0, delta=0.0, lambda_b=0.0,
                        mode=CouplingMode.EMES)
    assert constant_mass_identity_check(pion, pot, 0.0,
                                        default_identity_samples(pion))


def test_default_identity_samples_are_usable(pion):
    samples = default_identity_samples(pion)
    assert len(samples) == 25
    for r, E in samples:
        assert r > 0.0
        assert -pion.m0c2 < E < pion.m0c2
    assert len(default_identity_samples(pion, count=7)) == 7


def test_spectrum_is_continuous_at_vanishing_delta(constants, pion):
    # the energy-dependence machinery at delta = 1e-15 must agree with the
    # exact delta = 0 path to well below the table resolution
    def table(delta):
        pot = PotentialSpec.from_lambda_b(A=200.0, delta=delta, lambda_b=0.0,
                                          particle=pion,
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
