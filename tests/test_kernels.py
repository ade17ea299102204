import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbound import (BranchError, CouplingMode, DomainError, PotentialSpec,
                     QuantumNumbers, case_parameters)
from kgbound import _kernels
from kgbound.quantization import ResidualSpec, build_residual_spec


def make_spec(constants, pion, mode, n=0, l=0, delta=0.0, lambda_b=0.0,
              branch="plus", A=200.0):
    pot = PotentialSpec(A=A, delta=delta, lambda_b=lambda_b, mode=mode)
    return build_residual_spec(constants, pion, pot, QuantumNumbers(n=n, l=l),
                               branch=branch)


# a hand-built spec whose denominator is exactly zero at every energy:
# quarter = 0.25 + 2.0 = 2.25, root = 1.5, den = 1.5 - 1.5
POLE_SPEC = ResidualSpec(mode=CouplingMode.EMES, n=1, l=0, branch_sign=-1.0,
                         m0c2=100.0, delta=0.0, alpha=1.0, c0=1.0, c1=0.0,
                         k2=2.0, ll1=0.0, n_plus_half=1.5,
                         window=(-99.0, 99.0))

# random inputs spanning every coupling mode, both branches and all five
# statuses: A in [20, 400], |delta|, |lambda_b| <= 0.01, n, l <= 6
case_inputs = st.fixed_dictionaries({
    "mode": st.sampled_from(list(CouplingMode)),
    "A": st.floats(20.0, 400.0),
    "delta": st.floats(-0.01, 0.01),
    "lambda_b": st.floats(-0.01, 0.01),
    "n": st.integers(0, 6),
    "l": st.integers(0, 6),
    "branch": st.sampled_from(["plus", "minus"]),
})


def probe_energies(m0c2, delta):
    """Energies beyond both window edges, on them, and at g = 0."""
    E = [np.linspace(-1.2 * m0c2, 1.2 * m0c2, 601), [-m0c2, m0c2]]
    if abs(delta) * 1.2 * m0c2 >= 1.0:
        E.append([-1.0 / delta])
    return np.concatenate(E)


def test_fallback_status_codes(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMES, delta=0.01)
    assert _kernels.residual_point(spec, 0.0)[3] == _kernels.STATUS_OK
    assert _kernels.residual_point(spec, 200.0)[3] == _kernels.STATUS_WINDOW
    assert _kernels.residual_point(spec, -110.0)[3] == \
        _kernels.STATUS_ENERGY_FACTOR
    spec = make_spec(constants, pion, CouplingMode.PURE_VECTOR)
    assert _kernels.residual_point(spec, 0.0)[3] == \
        _kernels.STATUS_COMPLEX_ETA
    res, rhs, den, status = _kernels.residual_point(POLE_SPEC, 0.0)
    assert status == _kernels.STATUS_POLE
    assert den == 0.0
    assert np.isnan(res) and np.isnan(rhs)


def assert_grid_matches_point(E, spec):
    res, rhs, den, status = _kernels.residual_grid(spec, E)
    assert status.dtype == np.int32
    for i, e in enumerate(E):
        p = _kernels.residual_point(spec, float(e))
        assert np.float64(p[0]).tobytes() == res[i].tobytes()
        assert np.float64(p[1]).tobytes() == rhs[i].tobytes()
        assert np.float64(p[2]).tobytes() == den[i].tobytes()
        assert p[3] == status[i]


def test_fallback_grid_matches_point_at_a_pole():
    assert_grid_matches_point(np.linspace(-150.0, 150.0, 301), POLE_SPEC)


@settings(deadline=None)
@given(case_inputs)
def test_fallback_grid_matches_point(constants, pion, case):
    spec = make_spec(constants, pion, **case)
    assert_grid_matches_point(probe_energies(pion.m0c2, case["delta"]), spec)


@settings(deadline=None)
@given(case_inputs, st.floats(-1.1, 1.1))
def test_case_parameters_uses_energy_terms(constants, pion, case, x):
    pot = PotentialSpec.from_lambda_b(A=case["A"], delta=case["delta"],
                                      lambda_b=case["lambda_b"],
                                      particle=pion, mode=case["mode"])
    qn = QuantumNumbers(n=case["n"], l=case["l"])
    spec = build_residual_spec(constants, pion, pot, qn, branch=case["branch"])
    E = x * pion.m0c2
    status, _, K, root = _kernels.energy_terms(E, spec.m0c2, spec.delta,
                                               spec.k2, spec.ll1)
    if status == _kernels.STATUS_OK:
        cp = case_parameters(constants, pion, pot, qn, E, case["branch"])
        assert cp.K == K
        assert cp.eta == -0.5 + spec.branch_sign * root
    else:
        error = BranchError if status == _kernels.STATUS_COMPLEX_ETA \
            else DomainError
        with pytest.raises(error):
            case_parameters(constants, pion, pot, qn, E, case["branch"])
