import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbound import (BranchError, CouplingMode, DomainError, ParticleSpec,
                     PhysicalConstants, PotentialSpec, QuantumNumbers,
                     case_parameters, mass_at, vector_potential)
from kgbound.model import (DEFAULT_HBAR_C, NEUTRAL_PION_M0C2, energy_factor,
                           mode_coefficients, parse_branch)

ALL_MODES = tuple(CouplingMode)


def make_pot(mode, delta=0.0, lambda_b=0.0, A=200.0):
    return PotentialSpec(A=A, delta=delta, lambda_b=lambda_b, mode=mode)


def test_mode_parse_accepts_known_names():
    assert CouplingMode.parse("emes") is CouplingMode.EMES
    assert CouplingMode.parse(" EMOS ") is CouplingMode.EMOS
    assert CouplingMode.parse("pv") is CouplingMode.PURE_VECTOR
    assert CouplingMode.parse("PS") is CouplingMode.PURE_SCALAR


def test_mode_parse_rejects_unknown():
    with pytest.raises(DomainError):
        CouplingMode.parse("vector")


def test_constants_validation():
    with pytest.raises(DomainError):
        PhysicalConstants(hbar_c=0.0)
    with pytest.raises(DomainError):
        PhysicalConstants(hbar_c=math.inf)
    assert PhysicalConstants().hbar_c == DEFAULT_HBAR_C


def test_particle_validation():
    with pytest.raises(DomainError):
        ParticleSpec(m0c2=-1.0, lam=1.0)
    with pytest.raises(DomainError):
        ParticleSpec(m0c2=134.977, lam=0.0)


def test_neutral_pion_rest_energy(pion):
    assert pion.m0c2 == NEUTRAL_PION_M0C2 == 134.977


def test_compton_lambda_product_is_exact(constants, pion):
    # with_compton_lambda picks lam = hbar_c / m0c2, so the round trip
    # lam * m0c2 / hbar_c must be exactly 1.0 in floating point
    assert pion.lam * pion.m0c2 / constants.hbar_c == 1.0


def test_potential_validation():
    with pytest.raises(DomainError):
        make_pot(CouplingMode.EMES, A=0.0)
    with pytest.raises(DomainError):
        make_pot(CouplingMode.EMES, delta=math.nan)
    with pytest.raises(DomainError):
        make_pot(CouplingMode.EMES, lambda_b=math.inf)


def test_lambda_b_round_trip(pion):
    # 0.000875 does not survive a division by lambda and a multiplication
    # back, so a potential storing the bare b would solve a neighbour of it
    assert pion.lam * (0.000875 / pion.lam) != 0.000875
    assert make_pot(CouplingMode.EMES, lambda_b=0.000875).lambda_b == 0.000875
    assert PotentialSpec.from_lambda_b(
        A=200.0, delta=0.0, lambda_b=0.000875, particle=pion,
        mode=CouplingMode.EMES).lambda_b == 0.000875


def test_quantum_numbers_validation():
    QuantumNumbers(n=0, l=0)
    with pytest.raises(DomainError):
        QuantumNumbers(n=-1, l=0)
    with pytest.raises(DomainError):
        QuantumNumbers(n=1, l=-2)
    with pytest.raises(DomainError):
        QuantumNumbers(n=1.0, l=0)


@pytest.mark.parametrize("token,sign", [
    ("plus", 1.0), ("+", 1.0), (1, 1.0), (1.0, 1.0),
    ("minus", -1.0), ("-", -1.0), (-1, -1.0), (-1.0, -1.0),
])
def test_parse_branch(token, sign):
    assert parse_branch(token) == sign


def test_parse_branch_rejects_garbage():
    with pytest.raises(DomainError):
        parse_branch("up")


def test_energy_factor():
    pot = make_pot(CouplingMode.EMES, delta=-0.003)
    assert energy_factor(pot, 100.0) == pytest.approx(0.7, rel=1e-15)
    assert energy_factor(pot, 0.0) == 1.0


def test_vector_potential_value():
    # -A (1 + delta E) / r = -200 * 0.7 / 2
    pot = make_pot(CouplingMode.EMES, delta=-0.003)
    assert vector_potential(pot, 2.0, 100.0) == pytest.approx(-70.0, abs=1e-12)


def test_vector_potential_rejects_nonpositive_radius():
    pot = make_pot(CouplingMode.EMES)
    with pytest.raises(DomainError):
        vector_potential(pot, 0.0, 0.0)


def test_mass_at_is_rest_energy_when_b_zero(pion):
    pot = make_pot(CouplingMode.EMES, delta=0.003)
    for r in (0.1, 1.0, 25.0):
        for E in (-100.0, 0.0, 100.0):
            assert mass_at(pion, pot, r, E) == pion.m0c2


def test_mass_at_zero_crossing(pion):
    # lambda_b * A = 0.6, so the mass vanishes at r = 0.6 when delta = 0
    pot = make_pot(CouplingMode.EMES, lambda_b=0.003)
    assert mass_at(pion, pot, 0.6, 50.0) == pytest.approx(0.0, abs=1e-12)
    assert mass_at(pion, pot, 1.2, 50.0) == pytest.approx(pion.m0c2 / 2, rel=1e-12)
    with pytest.raises(DomainError):
        mass_at(pion, pot, -0.5, 0.0)


_radii = st.lists(st.floats(1e-6, 1e4), min_size=1, max_size=16)


@settings(deadline=None)
@given(A=st.floats(20.0, 400.0), delta=st.floats(-0.006, 0.006),
       lambda_b=st.floats(-0.006, 0.006), E=st.floats(-134.0, 134.0),
       radii=_radii)
def test_potential_and_mass_on_arrays_match_scalars(A, delta, lambda_b, E,
                                                    radii, pion):
    pot = make_pot(CouplingMode.PURE_SCALAR, delta=delta, lambda_b=lambda_b,
                   A=A)
    V = vector_potential(pot, np.array(radii), E)
    mc2 = mass_at(pion, pot, np.array(radii), E)
    assert V.tolist() == [vector_potential(pot, r, E) for r in radii]
    assert mc2.tolist() == [mass_at(pion, pot, r, E) for r in radii]


@settings(deadline=None)
@given(bad=st.floats(max_value=0.0) | st.just(math.nan), radii=_radii,
       at=st.integers(0, 16))
def test_radius_not_above_zero_is_domain_error(bad, radii, at, pion):
    pot = make_pot(CouplingMode.EMES, delta=0.003, lambda_b=0.003)
    radii.insert(at, bad)
    for r in (bad, np.array(radii)):
        with pytest.raises(DomainError):
            vector_potential(pot, r, 50.0)
        with pytest.raises(DomainError):
            mass_at(pion, pot, r, 50.0)


def test_overflowing_potential_and_mass_are_domain_errors(pion):
    # A / r overflows at subnormal radii; -inf must not reach the output
    pot = make_pot(CouplingMode.EMES, lambda_b=0.003)
    for r in (1e-320, np.array([1.0, 1e-320])):
        with pytest.raises(DomainError, match="V is not finite"):
            vector_potential(pot, r, 50.0)
        with pytest.raises(DomainError, match="m c\\^2 is not finite"):
            mass_at(pion, pot, r, 50.0)


def test_case_parameters_rejects_energy_outside_window(constants, pion):
    pot = make_pot(CouplingMode.EMES)
    qn = QuantumNumbers(n=0, l=0)
    with pytest.raises(DomainError):
        case_parameters(constants, pion, pot, qn, 134.977)
    with pytest.raises(DomainError):
        case_parameters(constants, pion, pot, qn, -200.0)


def test_case_parameters_rejects_nonpositive_energy_factor(constants, pion):
    pot = make_pot(CouplingMode.EMES, delta=0.01)
    with pytest.raises(DomainError):
        case_parameters(constants, pion, pot, QuantumNumbers(n=0, l=0), -110.0)


def test_case_parameters_complex_eta_raises_branch_error(constants, pion):
    # pure vector at l=0 drives 1/4 + K below zero everywhere
    pot = make_pot(CouplingMode.PURE_VECTOR)
    with pytest.raises(BranchError):
        case_parameters(constants, pion, pot, QuantumNumbers(n=0, l=0), 0.0)


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_eta_solves_its_quadratic(constants, pion, mode, branch):
    # eta (eta + 1) = K on either sign branch
    pot = make_pot(mode, delta=0.003, lambda_b=0.003)
    # l = 0 leaves eta complex for the pure-vector and opposite-sign modes
    l = 1 if mode in (CouplingMode.PURE_VECTOR, CouplingMode.EMOS) else 0
    for E in (-80.0, 10.0, 120.0):
        case = case_parameters(constants, pion, pot, QuantumNumbers(n=0, l=l),
                               E, branch=branch)
        assert case.eta * (case.eta + 1.0) == pytest.approx(case.K, rel=1e-12,
                                                            abs=1e-12)


def test_tau_sq_is_mode_independent(constants, pion):
    # the momentum scale only sees (m0c2, delta, E); coefficients must not leak in
    qn = QuantumNumbers(n=1, l=1)
    for E in (-120.0, 0.0, 95.0):
        values = set()
        for mode in ALL_MODES:
            pot = make_pot(mode, delta=-0.003, lambda_b=0.003)
            values.add(case_parameters(constants, pion, pot, qn, E).tau_sq)
        assert len(values) == 1


def test_case_parameters_delta_zero_matches_direct_formula(constants, pion):
    # with delta = 0 the energy factor is exactly 1.0 and tau^2 reduces
    # bit for bit to the bare expression
    pot = make_pot(CouplingMode.PURE_SCALAR)
    hc = constants.hbar_c
    for E in (-100.0, 0.0, 105.71706):
        case = case_parameters(constants, pion, pot, QuantumNumbers(n=0, l=0), E)
        assert case.tau_sq == (pion.m0c2 - E) * (pion.m0c2 + E) / (hc * hc)


def test_emes_orbital_term_when_b_zero(constants, pion):
    # k2 vanishes at w = 0, leaving K = l (l + 1) exactly for any delta
    for delta in (-0.003, 0.0, 0.003):
        pot = make_pot(CouplingMode.EMES, delta=delta)
        for l in range(4):
            case = case_parameters(constants, pion, pot,
                                   QuantumNumbers(n=l, l=l), 10.0)
            assert case.K == float(l * (l + 1))


def test_ps_centrifugal_shift_when_b_zero(constants, pion):
    # pure scalar at w = 0, delta = 0: K = (A / hbar_c)^2 exactly
    pot = make_pot(CouplingMode.PURE_SCALAR)
    alpha = pot.A / constants.hbar_c
    case = case_parameters(constants, pion, pot, QuantumNumbers(n=0, l=0), 0.0)
    assert case.K == alpha * alpha


def test_mode_coefficients_equal_magnitude_pair():
    m0c2 = NEUTRAL_PION_M0C2
    w = 0.003 * m0c2
    alpha = 200.0 / DEFAULT_HBAR_C
    c0_emes, c1_emes, k2_emes = mode_coefficients(CouplingMode.EMES, m0c2, w, alpha)
    c0_emos, c1_emos, k2_emos = mode_coefficients(CouplingMode.EMOS, m0c2, w, alpha)
    assert c1_emes == c1_emos == 1.0
    # the scalar-sign flip moves c0 by 2 m0c2 and k2 by 4 alpha^2 w
    assert c0_emes - c0_emos == pytest.approx(2.0 * m0c2, rel=1e-15)
    assert k2_emes - k2_emos == pytest.approx(4.0 * alpha * alpha * w, rel=1e-12)


def test_mode_coefficients_pure_scalar_has_no_energy_term():
    c0, c1, k2 = mode_coefficients(CouplingMode.PURE_SCALAR, 134.977, 0.0, 1.0)
    assert c1 == 0.0
    assert c0 == 134.977
    assert k2 == 1.0


def test_beta_sq_difference_emes_minus_pv(constants, pion):
    # at b = 0 the two conditions differ only by the rest-energy term:
    # beta^2(emes) - beta^2(pv) = 2 A m0c2 / (hbar c)^2
    emes = make_pot(CouplingMode.EMES)
    pv = make_pot(CouplingMode.PURE_VECTOR)
    hc = constants.hbar_c
    expected = 2.0 * emes.A * pion.m0c2 / (hc * hc)
    qn = QuantumNumbers(n=0, l=1)
    for E in (-130.0, -5.0, 0.0, 60.0, 130.0):
        b_emes = case_parameters(constants, pion, emes, qn, E).beta_sq
        b_pv = case_parameters(constants, pion, pv, qn, E).beta_sq
        assert b_emes - b_pv == pytest.approx(expected, rel=1e-12)
