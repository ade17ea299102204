from dataclasses import fields, replace

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
POLE_SPEC = ResidualSpec(n=1, l=0, branch_sign=-1.0, m0c2=100.0, delta=0.0,
                         alpha=1.0, c0=1.0, c1=0.0, k2=2.0, ll1=0.0,
                         n_plus_half=1.5, window=(-99.0, 99.0))

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


def with_n(spec, n):
    return replace(spec, n=n, n_plus_half=n + 0.5)


def assert_grid_matches_point(E, specs, **shared):
    # shared: the grid and numerator terms, as the scan hands them over
    res, rhs, den, status = _kernels.residual_grid(specs, E, **shared)
    assert status.dtype == np.int32
    assert res.shape == rhs.shape == den.shape == status.shape \
        == (len(specs), len(E))
    for row, spec in enumerate(specs):
        for i, e in enumerate(E):
            p = _kernels.residual_point(spec, float(e))
            assert np.float64(p[0]).tobytes() == res[row, i].tobytes()
            assert np.float64(p[1]).tobytes() == rhs[row, i].tobytes()
            assert np.float64(p[2]).tobytes() == den[row, i].tobytes()
            assert p[3] == status[row, i]
    # filled in place over stale values, out comes back with the same
    # bytes, and so does a call that computes every term itself
    # (with the kernel's 1/4 + K and s sqrt(1/4 + K) written over stale
    # values too), and so does a call that computes every term itself
    out = (*np.full((3,) + res.shape, 7.0), np.full(res.shape, 9, np.int32))
    scratch = tuple(np.full(len(E), 7.0) for _ in range(2))
    filled = _kernels.residual_grid(specs, E, out=out, scratch=scratch,
                                    **shared)
    fresh = _kernels.residual_grid(specs, E)
    for want, got, given, alone in zip((res, rhs, den, status), filled, out,
                                       fresh):
        assert got is given
        assert got.tobytes() == want.tobytes() == alone.tobytes()


def test_fallback_grid_matches_point_at_a_pole():
    # n = 1 is the pole row; its neighbours share every energy term.  The
    # second grid holds no invalid node but the pole row's.
    group = [with_n(POLE_SPEC, n) for n in range(4)]
    for E in (np.linspace(-150.0, 150.0, 301), np.linspace(-99.0, 99.0, 199)):
        assert_grid_matches_point(E, group)
        status = _kernels.residual_grid(group, E)[3]
        in_window = np.abs(E) < POLE_SPEC.m0c2
        assert (status[1, in_window] == _kernels.STATUS_POLE).all()
        assert (status[[0, 2, 3]][:, in_window] == _kernels.STATUS_OK).all()


@settings(deadline=None)
@given(case_inputs)
def test_fallback_grid_matches_point(constants, pion, case):
    # the cells n = l ... l + 3 of one (spectrum, l), as solve_spectrum
    # groups them
    spec = make_spec(constants, pion, **case)
    group = [with_n(spec, spec.l + k) for k in range(4)]
    # the probes, and the scan grid, whose nodes are mostly all valid
    assert_grid_matches_point(probe_energies(pion.m0c2, case["delta"]), group)
    assert_grid_matches_point(np.linspace(*spec.window, 101), group)


@settings(deadline=None)
@given(case_inputs, st.sampled_from([0.0, None]), st.data())
def test_grid_fast_path_matches_point_near_poles(constants, pion, case,
                                                 lambda_b, data):
    # Rows whose n + 1/2 sits at an end of the group's sqrt(1/4 + K) range,
    # or at its value at one node, offset by up to 3 POLE_EPS, are the
    # rows the fast path must leave to the masks on the minus branch.
    # lambda_b = 0 in emes and emos gives k2 = 0, where sqrt(1/4 + K) =
    # l + 1/2 at every energy, so the minus-branch row n = l is a pole
    # throughout.
    if lambda_b is not None:
        case = dict(case, lambda_b=lambda_b)
    spec = make_spec(constants, pion, **case)
    E = np.linspace(*spec.window, 201)
    roots = [_kernels.energy_terms(e, spec.m0c2, spec.delta, spec.k2,
                                   spec.ll1)[3] for e in E.tolist()]
    roots = [r for r in roots if not np.isnan(r)]
    group = [with_n(spec, spec.l + k) for k in range(3)]
    if roots:
        anchors = st.sampled_from([min(roots), max(roots)]) \
            | st.sampled_from(roots)
        for root in data.draw(st.lists(anchors, min_size=1, max_size=3)):
            k = data.draw(st.integers(-3, 3))
            group.append(replace(spec,
                                 n_plus_half=root + k * _kernels.POLE_EPS))
    shared = {"grid": _kernels.grid_terms(spec.m0c2, spec.delta, E),
              "numerator": _kernels.rhs_numerator(spec, E)}
    assert_grid_matches_point(E, group, **shared)


# Energies the scan meets and energies it never does: inside and outside
# the window, at g <= 0, overflowing and infinite; any order.
energy_lists = st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)
any_float = st.floats(allow_nan=False)


def stale(E):
    return np.full(len(E), 7.0)


@settings(deadline=None)
@given(m0c2=st.floats(min_value=0.0, exclude_min=True) | st.just(139.57018),
       delta=st.just(0.0) | any_float | st.floats(-0.01, 0.01),
       E=energy_lists, ascending=st.booleans())
def test_buffered_grid_terms_equal_the_plain_expressions(m0c2, delta, E,
                                                         ascending):
    E = np.sort(E) if ascending else np.array(E)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g = 1.0 + delta * E
        want = (g, g * g, np.sqrt((m0c2 - E) * (m0c2 + E)) / g)
    regular = bool((E[1:] >= E[:-1]).all()
                   and ((E > -m0c2) & (E < m0c2) & (g > 0.0)).all())
    out = (stale(E), stale(E), stale(E))
    got = _kernels.grid_terms(m0c2, delta, E, out=out)
    alone = _kernels.grid_terms(m0c2, delta, E)
    for plain, given, filled, allocated in zip(want, out, got, alone):
        assert filled is given
        assert filled.tobytes() == plain.tobytes() == allocated.tobytes()
    assert got.regular is alone.regular is regular


@settings(deadline=None)
@given(alpha=any_float, c0=any_float, c1=st.just(0.0) | any_float,
       E=energy_lists)
def test_buffered_rhs_numerator_equals_the_plain_expression(alpha, c0, c1,
                                                            E):
    E = np.array(E)
    c = ResidualSpec(n=0, l=0, branch_sign=1.0, m0c2=1.0, delta=0.0,
                     alpha=alpha, c0=c0, c1=c1, k2=0.0, ll1=0.0,
                     n_plus_half=0.5, window=(-1.0, 1.0))
    with np.errstate(invalid="ignore", over="ignore"):
        plain = alpha * (c0 + c1 * E)
    out = stale(E)
    assert _kernels.rhs_numerator(c, E, out=out) is out
    assert out.tobytes() == plain.tobytes() == \
        _kernels.rhs_numerator(c, E).tobytes()


def test_grid_refuses_cells_that_differ_beyond_n(constants, pion):
    spec = make_spec(constants, pion, CouplingMode.EMES, n=1, l=1)
    E = np.linspace(-100.0, 100.0, 11)
    for other in (make_spec(constants, pion, CouplingMode.EMES, n=2, l=2),
                  make_spec(constants, pion, CouplingMode.EMES, n=2, l=1,
                            branch="minus"),
                  make_spec(constants, pion, CouplingMode.EMOS, n=2, l=1),
                  replace(spec, n=2, n_plus_half=2.5, window=(-1.0, 1.0))):
        with pytest.raises(ValueError):
            _kernels.residual_grid([spec, other], E)
    # the check compares every field but n and n_plus_half
    assert set(_kernels.GROUP_FIELDS) == \
        {f.name for f in fields(ResidualSpec)} - {"n", "n_plus_half"}


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
