import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from kgbound import DomainError
from kgbound.aim import (Poly, d_dz, exact_tau, iterate, poly_gcd, seed,
                         terminates_at, termination_delta, verify_level)


def test_poly_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Poly((0, 0)).is_zero
    assert Poly.zero().degree == -1
    assert Poly.x().degree == 1
    assert Poly.one().lead == 1


def test_poly_arithmetic():
    p = Poly((1, 2))       # 1 + 2z
    q = Poly((0, 0, 3))    # 3z^2
    assert (p + q).coeffs == (Fraction(1), Fraction(2), Fraction(3))
    assert (p - p).is_zero
    assert (p * q).coeffs == (Fraction(0), Fraction(0), Fraction(3), Fraction(6))
    assert (p * 2).coeffs == (Fraction(2), Fraction(4))
    assert q.derivative().coeffs == (Fraction(0), Fraction(6))


def test_poly_divmod():
    # z^2 - 1 = (z - 1)(z + 1)
    num = Poly((-1, 0, 1))
    den = Poly((-1, 1))
    quot, rem = num.divmod(den)
    assert quot == Poly((1, 1))
    assert rem.is_zero
    assert (num % den).is_zero
    with pytest.raises(ZeroDivisionError):
        num.divmod(Poly.zero())


def test_poly_scale_arg_and_monic():
    p = Poly((1, 0, 4))   # 1 + 4z^2
    assert p.scale_arg(2) == Poly((1, 0, 16))
    assert p.monic() == Poly((Fraction(1, 4), 0, 1))
    assert Poly.zero().monic().is_zero


def test_poly_rejects_floats():
    with pytest.raises(DomainError):
        Poly((1.5,))
    with pytest.raises(DomainError):
        Poly((1,)).scale_arg(0.5)


def test_poly_is_immutable_and_hashable():
    p = Poly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = ()
    assert hash(p) == hash(Poly((1, 2)))
    assert p == Poly((Fraction(1), Fraction(2)))


def test_poly_gcd_is_monic():
    a = Poly((-1, 0, 1)) * 3   # 3(z^2 - 1)
    b = Poly((-1, 1)) * 5      # 5(z - 1)
    assert poly_gcd(a, b) == Poly((-1, 1))
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero


def test_d_dz_acts_on_polynomials_in_one_over_z():
    # w = 1/z: d/dz w = -w^2, d/dz w^2 = -2 w^3, constants vanish
    assert d_dz(Poly((5,))).is_zero
    assert d_dz(Poly((0, 1))) == Poly((0, 0, -1))
    assert d_dz(Poly((7, 3, 1))) == Poly((0, 0, -3, -2))
    assert d_dz(Poly.zero()).is_zero


def test_seed_matches_hand_formulas():
    # lambda_0 = 2(tau z - (eta + 1))/z = 2 tau - 2(eta + 1) w and
    # s_0 = (2 tau (eta + 1) - beta^2)/z = (2 tau (eta + 1) - beta^2) w
    state = seed(1, 0, 2)
    assert state.n == 0
    assert state.lam0 == Poly((2, -2))
    assert state.s0.is_zero
    state = seed(1, 1, 2)
    assert state.s0 == Poly((0, 2))
    tau, eta = Fraction(3, 4), Fraction(1, 3)
    assert seed(tau, eta, 5).lam0 == Poly((2 * tau, -2 * (eta + 1)))


def test_seed_rejects_floats():
    with pytest.raises(DomainError):
        seed(0.5, 0, 2)


def test_iterate_advances_level():
    state = seed(Fraction(1, 2), 0, 1)
    nxt = iterate(state)
    assert nxt.n == 1
    assert nxt.lam0 == state.lam0 and nxt.s0 == state.s0
    again = iterate(nxt)
    assert again.n == 2


def test_termination_delta_needs_consecutive_states():
    s0 = seed(1, 0, 2)
    s1 = iterate(s0)
    s2 = iterate(s1)
    termination_delta(s1, s0)
    with pytest.raises(DomainError):
        termination_delta(s2, s0)


def test_exact_tau():
    assert exact_tau(0, 4, 0) == 2
    assert exact_tau(0, 4, 1) == 1
    assert exact_tau(Fraction(1, 2), 3, 1) == Fraction(3, 5)
    with pytest.raises(DomainError):
        exact_tau(0, 4, -1)


def test_exact_tau_rejects_vanishing_denominator():
    # eta + n + 1 = 0 leaves no tau for the level: a domain error, not a
    # bare ZeroDivisionError
    with pytest.raises(DomainError, match="eta \\+ n \\+ 1 = 0"):
        exact_tau(-3, 4, 2)
    with pytest.raises(DomainError):
        verify_level(0, -1, 4)


def test_termination_truth_table_is_triangular():
    # the delta between states (n+1, n) is a polynomial in tau whose roots
    # are exactly the tau_j = beta^2/(2(eta+j+1)) with j <= n+1
    taus = [exact_tau(0, 4, j) for j in range(5)]
    assert taus[0] == 2 and taus[1] == 1
    for n in range(4):
        for j, tau in enumerate(taus):
            assert terminates_at(n, tau, 0, 4) == (j <= n + 1), (n, j)


def test_perturbed_tau_never_terminates():
    tau = exact_tau(Fraction(1, 3), Fraction(7, 2), 2)
    assert terminates_at(2, tau, Fraction(1, 3), Fraction(7, 2))
    assert not terminates_at(2, tau + 1, Fraction(1, 3), Fraction(7, 2))
    assert not terminates_at(2, tau * Fraction(101, 100), Fraction(1, 3),
                             Fraction(7, 2))


def test_degenerate_seed_terminates_at_every_level():
    # eta = -1, beta^2 = 0 makes s_0 identically zero, hence s_n = 0 and
    # the delta vanishes at every level regardless of tau
    for n in range(3):
        assert terminates_at(n, 3, -1, 0)


def test_lambda_degrees_grow_linearly():
    # lam_n = (polynomial of degree n+1) / z^(n+1), in lowest terms, is
    # exactly a polynomial of degree n+1 in w with a nonzero constant term
    state = seed(3, Fraction(1, 3), Fraction(7, 5))
    for n in range(4):
        assert state.lam.degree == state.n + 1
        assert state.lam.coeffs[0] != 0
        state = iterate(state)


def test_seed_scaling_covariance():
    # scaling (tau, beta^2) -> (c tau, c beta^2) maps
    # lambda_n(z) -> c^(n+1) lambda_n(c z) and s_n(z) -> c^(n+2) s_n(c z);
    # z -> c z is w -> w / c
    c = 2
    tau, eta, beta_sq = Fraction(3, 4), Fraction(1, 3), Fraction(5, 2)
    base = seed(tau, eta, beta_sq)
    scaled = seed(c * tau, eta, c * beta_sq)
    for _ in range(4):
        factor = Fraction(c) ** (base.n + 1)
        assert scaled.lam == base.lam.scale_arg(Fraction(1, c)) * factor
        assert scaled.s == base.s.scale_arg(Fraction(1, c)) * (factor * c)
        base, scaled = iterate(base), iterate(scaled)


def test_verify_level_randomized():
    rng = random.Random(20260816)
    for n in range(5):
        for _ in range(5):
            eta = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            beta_sq = Fraction(rng.randint(1, 90), rng.randint(1, 12))
            assert verify_level(n, eta, beta_sq)
            tau = exact_tau(eta, beta_sq, n)
            assert not terminates_at(n, tau * Fraction(101, 100), eta, beta_sq)


# ---------------------------------------------------- sympy z-form oracle

_Z = sympy.Symbol("z")


def _sym(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def _oracle_chain(levels, tau, eta, beta_sq):
    """(lambda_k, s_k) for k = 0..levels, built in z with sympy."""
    tau, eta, beta_sq = _sym(tau), _sym(eta), _sym(beta_sq)
    lam0 = 2 * (tau * _Z - (eta + 1)) / _Z
    s0 = (2 * tau * (eta + 1) - beta_sq) / _Z
    chain = [(lam0, s0)]
    for _ in range(levels):
        lam, s = chain[-1]
        chain.append((sympy.cancel(sympy.diff(lam, _Z) + lam0 * lam + s, _Z),
                      sympy.cancel(sympy.diff(s, _Z) + s0 * lam, _Z)))
    return chain


def _in_z(p: Poly):
    return sum(_sym(c) * _Z ** -k for k, c in enumerate(p.coeffs))


_rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 12))


# No shrink phase: shrinking reruns the sympy oracle hundreds of times
# (minutes on a broken chain); a failure reports the example as drawn.
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(n=st.integers(0, 3), eta=_rationals, beta_sq=_rationals)
def test_w_form_matches_sympy_z_form(n, eta, beta_sq):
    tau_exact = exact_tau(eta, beta_sq, n)
    for tau in (tau_exact, tau_exact * Fraction(101, 100)):
        chain = _oracle_chain(n + 1, tau, eta, beta_sq)
        state = seed(tau, eta, beta_sq)
        for lam, s in chain:
            assert sympy.cancel(_in_z(state.lam) - lam, _Z) == 0
            assert sympy.cancel(_in_z(state.s) - s, _Z) == 0
            if state.n <= n:
                state = iterate(state)
        (lam_n, s_n), (lam_next, s_next) = chain[n], chain[n + 1]
        delta = sympy.cancel(s_next * lam_n - s_n * lam_next, _Z)
        assert terminates_at(n, tau, eta, beta_sq) == (delta == 0)
