import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgbound import (BranchError, CouplingMode, DomainError, ParticleSpec,
                     PotentialSpec, QuantumNumbers, SpectrumEntry,
                     build_residual_spec, case_parameters, residual,
                     sign_validity)
from kgbound import _kernels
from kgbound.model import mode_coefficients
from kgbound.quantization import (DEFAULT_WINDOW_MARGIN, _real_eta_window,
                                  complex_eta, evaluate, physical_window,
                                  spectrum_terms)


def make_spec(constants, pion, mode, n=0, l=0, delta=0.0, lambda_b=0.0,
              branch="plus", A=200.0):
    pot = PotentialSpec.from_lambda_b(A=A, delta=delta, lambda_b=lambda_b,
                                      particle=pion, mode=mode)
    return build_residual_spec(constants, pion, pot, QuantumNumbers(n=n, l=l),
                               branch=branch)


def test_physical_window_is_symmetric_without_delta():
    lo, hi = physical_window(134.977, 0.0)
    assert lo == -134.977 + DEFAULT_WINDOW_MARGIN
    assert hi == 134.977 - DEFAULT_WINDOW_MARGIN


def test_physical_window_clips_where_energy_factor_dies():
    lo, hi = physical_window(134.977, 0.01)
    assert lo > -134.977 + DEFAULT_WINDOW_MARGIN
    assert 1.0 + 0.01 * lo > 0.0
    assert hi == 134.977 - DEFAULT_WINDOW_MARGIN

    lo, hi = physical_window(134.977, -0.01)
    assert hi < 134.977 - DEFAULT_WINDOW_MARGIN
    assert 1.0 - 0.01 * hi > 0.0
    assert lo == -134.977 + DEFAULT_WINDOW_MARGIN


@example(m0c2=1e300, delta=(1.0, 0.0))  # the margin rounds away
@example(m0c2=1e308, delta=(1.0, 0.0))  # the width overflows
@settings(max_examples=300, deadline=None)
@given(m0c2=st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e),
       delta=st.tuples(st.sampled_from([-1.0, 0.0, 1.0]),
                       st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)))
def test_physical_window_lies_strictly_inside_or_is_refused(m0c2, delta):
    try:
        lo, hi = physical_window(m0c2, delta[0] * delta[1])
    except DomainError:
        return
    assert -m0c2 < lo < hi < m0c2
    assert math.isfinite(hi - lo)


def test_physical_window_rejects_bad_margin():
    with pytest.raises(DomainError):
        physical_window(134.977, 0.0, margin=0.0)
    with pytest.raises(DomainError):
        physical_window(134.977, 0.0, margin=200.0)


def test_residual_spec_fields(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMES, n=2, l=1, delta=0.003)
    assert spec.n_plus_half == 2.5
    assert spec.ll1 == 2.0
    assert spec.alpha == 200.0 / constants.hbar_c
    assert spec.window == physical_window(pion.m0c2, 0.003)
    assert spec.branch_sign == 1.0
    assert make_spec(constants, pion, CouplingMode.EMES,
                     branch="minus").branch_sign == -1.0


# Mostly small, with zeros, subnormals and values up to 1e300.
EXTREME = st.one_of(st.floats(-0.01, 0.01), st.floats(-1e300, 1e300),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300,
                                     -1e-300, 1e300, -1e300]))


@example(mode=CouplingMode.EMES, branch="plus", A=174.23, delta=-0.00539,
         lambda_b=-0.00575, l=0)  # cut at the low end
@example(mode=CouplingMode.EMOS, branch="minus", A=376.15, delta=0.00418,
         lambda_b=0.00381, l=2)  # cut at the high end
@example(mode=CouplingMode.PURE_VECTOR, branch="plus", A=400.0,
         delta=5e-324, lambda_b=0.0, l=0)  # g - 1 rounds to 0 in the window
@example(mode=CouplingMode.PURE_VECTOR, branch="minus", A=1e4, delta=-1e300,
         lambda_b=1e-300, l=9)
@settings(max_examples=400, deadline=None)
@given(mode=st.sampled_from(list(CouplingMode)),
       branch=st.sampled_from(["plus", "minus"]), A=st.floats(1e-3, 1e4),
       delta=EXTREME, lambda_b=EXTREME, l=st.integers(0, 12))
def test_window_ends_at_the_last_real_eta_energy(constants, pion, mode,
                                                 branch, A, delta, lambda_b,
                                                 l):
    m0c2 = pion.m0c2
    _, _, k2 = mode_coefficients(mode, m0c2, lambda_b * m0c2,
                                 A / constants.hbar_c)
    try:
        lo, hi = physical_window(m0c2, delta)
    except DomainError:
        return
    ll1 = float(l * (l + 1))

    def eta_complex(E):
        return complex_eta(E, m0c2, delta, k2, ll1)

    window = _real_eta_window((lo, hi), m0c2, delta, k2, ll1)
    if window == (lo, hi):
        # eta is complex at both ends or at neither
        assert eta_complex(lo) == eta_complex(hi)
    else:
        if window[1] == hi:
            end, outward = window[0], -math.inf
            assert lo < end
        else:
            assert window[0] == lo
            end, outward = window[1], math.inf
            assert end < hi
        assert not eta_complex(end)
        assert eta_complex(math.nextafter(end, outward))
    # the window depends on l only, so the cells of one (spectrum, l)
    # share it
    for n in (l, l + 4):
        try:
            spec = make_spec(constants, pion, mode, n=n, l=l, delta=delta,
                             lambda_b=lambda_b, A=A, branch=branch)
        except DomainError:  # coefficients that overflow
            return
        assert [e.hex() for e in spec.window] == [e.hex() for e in window]


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("mode", list(CouplingMode))
def test_a_cell_built_like_another_equals_a_full_build(constants, pion, mode,
                                                       branch):
    pot = PotentialSpec.from_lambda_b(A=376.15, delta=0.00418,
                                      lambda_b=0.00381, particle=pion,
                                      mode=mode)
    terms = spectrum_terms(constants, pion, pot, branch)
    for l in range(5):
        qn = QuantumNumbers(n=l + 1, l=l)
        assert build_residual_spec(constants, pion, pot, qn, terms=terms) \
            == build_residual_spec(constants, pion, pot, qn, branch=branch)


def test_residual_matches_case_parameters(constants, pion):
    pot = PotentialSpec.from_lambda_b(A=200.0, delta=-0.003, lambda_b=0.003,
                                      particle=pion, mode=CouplingMode.EMES)
    qn = QuantumNumbers(n=1, l=1)
    spec = build_residual_spec(constants, pion, pot, qn)
    for E in (-90.0, 5.0, 110.0):
        case = case_parameters(constants, pion, pot, qn, E)
        lhs = math.sqrt(case.tau_sq) * constants.hbar_c
        rhs = spec.alpha * (spec.c0 + spec.c1 * E) / (qn.n + case.eta + 1.0)
        assert residual(spec, E) == pytest.approx(lhs - rhs, rel=1e-12,
                                                  abs=1e-12)


def test_residual_raises_by_failure_kind(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMES)
    with pytest.raises(DomainError):
        residual(spec, 140.0)
    spec = make_spec(constants, pion, CouplingMode.EMES, delta=0.01)
    with pytest.raises(DomainError):
        residual(spec, -110.0)
    spec = make_spec(constants, pion, CouplingMode.PURE_VECTOR, l=0)
    with pytest.raises(BranchError):
        residual(spec, 0.0)


def test_sign_validity(constants, pion):
    # emos with no mass coupling keeps c0 + c1 E < 0 across the window,
    # so every candidate root fails the sign convention
    emos = make_spec(constants, pion, CouplingMode.EMOS)
    emes = make_spec(constants, pion, CouplingMode.EMES)
    ps = make_spec(constants, pion, CouplingMode.PURE_SCALAR)
    for E in (-120.0, 0.0, 120.0):
        assert not sign_validity(emos, E)
        assert sign_validity(emes, E)
        assert sign_validity(ps, E)
    assert not sign_validity(emes, 200.0)


def test_evaluate_reports_statuses(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMES)
    assert evaluate(spec, 0.0)[3] == _kernels.STATUS_OK
    assert evaluate(spec, 140.0)[3] == _kernels.STATUS_WINDOW
    spec = make_spec(constants, pion, CouplingMode.EMES, delta=0.01)
    assert evaluate(spec, -110.0)[3] == _kernels.STATUS_ENERGY_FACTOR
    spec = make_spec(constants, pion, CouplingMode.PURE_VECTOR)
    assert evaluate(spec, 0.0)[3] == _kernels.STATUS_COMPLEX_ETA


def test_residual_grid_masks_invalid_energies(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMES)
    E = np.array([-200.0, 0.0, 200.0])
    res, rhs, den, status = (a[0] for a in _kernels.residual_grid([spec], E))
    assert list(status) == [_kernels.STATUS_WINDOW, _kernels.STATUS_OK,
                            _kernels.STATUS_WINDOW]
    assert math.isnan(res[0]) and math.isnan(res[2])
    assert math.isfinite(res[1]) and math.isfinite(rhs[1]) and den[1] > 0.0


def test_lhs_rhs_agree_at_converged_roots(solve_block, constants, pion):
    table = solve_block("emes", 0.0, 0.0)
    pot = PotentialSpec.from_lambda_b(A=200.0, delta=0.0, lambda_b=0.0,
                                      particle=pion, mode=CouplingMode.EMES)
    checked = 0
    for entry in table.entries:
        if entry.status != "converged":
            continue
        spec = build_residual_spec(constants, pion, pot,
                                   QuantumNumbers(n=entry.n, l=entry.l))
        res, rhs, _, status = evaluate(spec, entry.energy)
        assert status == _kernels.STATUS_OK
        assert abs(res) <= 1e-8
        assert math.isclose(res + rhs, rhs, rel_tol=1e-8)
        checked += 1
    assert checked >= 10


def test_spectrum_entry_validation():
    good = dict(n=0, l=0, line="lower", energy=-1.0,
                residual_at_root=0.0, iterations=3, status="converged")
    SpectrumEntry(**good)
    with pytest.raises(DomainError):
        SpectrumEntry(**{**good, "line": "middle"})
    with pytest.raises(DomainError):
        SpectrumEntry(**{**good, "status": "done"})
    with pytest.raises(DomainError):
        SpectrumEntry(**{**good, "energy": None})
    with pytest.raises(DomainError):
        SpectrumEntry(**{**good, "energy": math.inf})
    absent = SpectrumEntry(n=0, l=0, line="upper", energy=None,
                           residual_at_root=None, iterations=0, status="absent",
                           detail="why")
    assert absent.energy is None
