import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbound import (BranchError, CouplingMode, DomainError, PotentialSpec,
                     QuantumNumbers, case_parameters)
from kgbound import _kernels
from kgbound.quantization import build_residual_spec


def spec_pack(constants, pion, mode, n=0, l=0, delta=0.0, lambda_b=0.0,
              branch="plus", A=200.0):
    pot = PotentialSpec.from_lambda_b(A=A, delta=delta, lambda_b=lambda_b,
                                      particle=pion, mode=mode)
    s = build_residual_spec(constants, pion, pot, QuantumNumbers(n=n, l=l),
                            branch=branch)
    return (s.m0c2, s.delta, s.alpha, s.c0, s.c1, s.k2, s.ll1, s.branch_sign,
            s.n_plus_half, s.pole_eps)


# a hand-built pack whose denominator is exactly zero at every energy:
# quarter = 0.25 + 2.0 = 2.25, root = 1.5, den = 1.5 - 1.5
POLE_PACK = (100.0, 0.0, 1.0, 1.0, 0.0, 2.0, 0.0, -1.0, 1.5, 1e-9)

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
    pack = spec_pack(constants, pion, CouplingMode.EMES, delta=0.01)
    assert _kernels.residual_point(0.0, *pack)[3] == _kernels.STATUS_OK
    assert _kernels.residual_point(200.0, *pack)[3] == _kernels.STATUS_WINDOW
    assert _kernels.residual_point(-110.0, *pack)[3] == \
        _kernels.STATUS_ENERGY_FACTOR
    pack = spec_pack(constants, pion, CouplingMode.PURE_VECTOR)
    assert _kernels.residual_point(0.0, *pack)[3] == \
        _kernels.STATUS_COMPLEX_ETA
    res, rhs, den, status = _kernels.residual_point(0.0, *POLE_PACK)
    assert status == _kernels.STATUS_POLE
    assert den == 0.0
    assert np.isnan(res) and np.isnan(rhs)


def assert_grid_matches_point(E, pack):
    res, rhs, den, status = _kernels.residual_grid(E, *pack)
    assert status.dtype == np.int32
    for i, e in enumerate(E):
        p = _kernels.residual_point(float(e), *pack)
        assert np.float64(p[0]).tobytes() == res[i].tobytes()
        assert np.float64(p[1]).tobytes() == rhs[i].tobytes()
        assert np.float64(p[2]).tobytes() == den[i].tobytes()
        assert p[3] == status[i]


def test_fallback_grid_matches_point_at_a_pole():
    assert_grid_matches_point(np.linspace(-150.0, 150.0, 301), POLE_PACK)


@settings(deadline=None)
@given(case_inputs)
def test_fallback_grid_matches_point(constants, pion, case):
    pack = spec_pack(constants, pion, **case)
    assert_grid_matches_point(probe_energies(pion.m0c2, case["delta"]), pack)


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
