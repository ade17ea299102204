"""Exact termination certificate for the iterative solution scheme.

The radial equation, after peeling off the asymptotic factor, is solved by
an iteration built from two seed functions

    lambda_0(z) = 2 (tau z - (eta + 1)) / z,
    s_0(z)      = (2 tau (eta + 1) - beta^2) / z,

with the recurrences

    lambda_n = lambda_{n-1}' + lambda_0 lambda_{n-1} + s_{n-1},
    s_n      = s_{n-1}'      + s_0      lambda_{n-1}.

The iteration terminates at level n exactly when

    delta_n(z) = s_n lambda_{n-1} - s_{n-1} lambda_n

vanishes identically, which happens iff tau = beta^2 / (2 (eta + n + 1)).

Both seeds are polynomials in w = 1/z,

    lambda_0 = 2 tau - 2 (eta + 1) w,    s_0 = (2 tau (eta + 1) - beta^2) w,

and d/dz = -w^2 d/dw maps polynomials in w to polynomials in w, so every
lambda_n, s_n and delta_n is a polynomial in w as well.  Each one is held
as integer numerators over one positive denominator, reduced so that the
denominator and the numerators share no factor, and "vanishes identically"
is the exact statement "every numerator is 0".  seed, iterate and
termination_delta form each new polynomial in one integer pass: every
term of its right-hand side is scaled to one common denominator and
summed into one list of numerators, which is then reduced by a single
gcd.  No intermediate polynomial is built and no step divides
polynomials.  Poly's own arithmetic (one gcd per sum or product) gives
the same canonical results; it stays for callers and as the tests'
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError


def _ratio(value) -> tuple:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise DomainError(f"exact arithmetic needs int or Fraction, got {type(value).__name__}")


def _coeff(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


class Poly:
    """Dense univariate polynomial with rational coefficients.

    The coefficient of w**k (w = 1/z in the iteration below) is
    nums[k] / den, with nums a tuple of ints and den a positive int.  The
    form is canonical: trailing zeros are stripped, gcd(den, *nums) == 1,
    and the zero polynomial is ((), 1) with degree -1.  So two equal
    polynomials have equal nums and den.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        _fill(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest power first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __add__(self, other: "Poly") -> "Poly":
        a, da, b, db = self.nums, self.den, other.nums, other.den
        if da != db:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            a = [c * ma for c in a]
            b = [c * mb for c in b]
            da *= ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _poly(out, da)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            if not a or not b:
                return Poly.zero()
            out = [0] * (len(a) + len(b) - 1)
            _add_product(out, a, b, 1)
            return _poly(out, self.den * other.den)
        f = _coeff(other)
        return _poly([c * f.numerator for c in self.nums],
                     self.den * f.denominator)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return _poly([k * c for k, c in enumerate(self.nums) if k], self.den)

    def divmod(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.lead
        divisor = other.coeffs
        quot = [Fraction(0)] * max(len(rem) - d, 0)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / lead
            quot[k - d] = q
            for j, b in enumerate(divisor):
                rem[k - d + j] -= q * b
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        inv = 1 / self.lead
        return Poly(tuple(c * inv for c in self.coeffs))

    def scale_arg(self, c) -> "Poly":
        """p(w) -> p(c w)."""
        f = _coeff(c)
        return Poly(tuple(coef * f ** k for k, coef in enumerate(self.coeffs)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = [f"{c}*w^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


_set_nums = Poly.nums.__set__
_set_den = Poly.den.__set__


def _fill(p: Poly, nums: list, den: int) -> None:
    """Set p to nums / den, for a positive den, in canonical form: trailing
    zeros stripped and the common factor of den and every numerator
    divided out."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    else:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    _set_nums(p, tuple(nums))
    _set_den(p, den)


def _poly(nums: list, den: int) -> Poly:
    p = object.__new__(Poly)
    _fill(p, nums, den)
    return p


# Nothing in the iteration divides: poly_gcd and Poly.divmod stay only
# because perfbench/layers.py traces them by name.
def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def d_dz(p: Poly) -> Poly:
    """The z-derivative of a polynomial in w = 1/z: p -> -w^2 p'(w)."""
    return _poly([0, 0, *(-k * c for k, c in enumerate(p.nums) if k)], p.den)


@dataclass(frozen=True)
class AimState:
    """Iteration state: level n together with the seed pair it grew from,
    all four as polynomials in w = 1/z."""

    n: int
    lam0: Poly
    s0: Poly
    lam: Poly
    s: Poly


def seed(tau, eta, beta_sq) -> AimState:
    """Level-0 state for exact rational inputs."""
    tn, td = _ratio(tau)
    en, ed = _ratio(eta)
    bn, bd = _ratio(beta_sq)
    en += ed                    # eta + 1 = en / ed
    # lambda_0 = 2 tau - 2 (eta + 1) w over td ed, and
    # s_0 = (2 tau (eta + 1) - beta^2) w over td ed bd
    lam0 = _poly([2 * tn * ed, -2 * en * td], td * ed)
    s0 = _poly([0, 2 * tn * en * bd - bn * td * ed], td * ed * bd)
    return AimState(n=0, lam0=lam0, s0=s0, lam=lam0, s=s0)


# The fused steps below sum each new polynomial's numerators over one
# common denominator D: every term's numerators are scaled by D over that
# term's own denominator, and _poly normalizes the sum once.

def _add_d_dz(out: list, p: tuple, m: int) -> None:
    """out += m times the numerators of -w^2 p'(w)."""
    for k in range(1, len(p)):
        out[k + 1] -= k * m * p[k]


def _add_product(out: list, a: tuple, b: tuple, m: int) -> None:
    """out += m times the numerators of a(w) b(w)."""
    for i, x in enumerate(a):
        if x:
            x *= m
            for k, y in enumerate(b, i):
                out[k] += x * y


def iterate(state: AimState) -> AimState:
    """One step of the recurrence, n -> n + 1."""
    lam0, s0, lam, s = state.lam0, state.s0, state.lam, state.s
    L, S = lam.nums, s.nums
    # lambda_{n+1} = -w^2 lambda_n' + lambda_0 lambda_n + s_n over
    # D = lcm(d(lambda_0) d(lambda_n), d(s_n)), a multiple of d(lambda_n)
    prod = lam0.den * lam.den
    g = gcd(prod, s.den)
    m = s.den // g              # D / (d(lambda_0) d(lambda_n))
    size = max(len(S), len(L) + 1, len(lam0.nums) + len(L) - 1)
    out = [c * (prod // g) for c in S] + [0] * (size - len(S))
    _add_d_dz(out, L, lam0.den * m)
    _add_product(out, lam0.nums, L, m)
    lam_next = _poly(out, prod * m)
    # s_{n+1} = -w^2 s_n' + s_0 lambda_n over D = lcm(d(s_n), d(s_0) d(lambda_n))
    prod = s0.den * lam.den
    g = gcd(prod, s.den)
    m = s.den // g              # D / (d(s_0) d(lambda_n))
    out = [0] * max(len(S) + 1, len(s0.nums) + len(L) - 1)
    _add_d_dz(out, S, prod // g)
    _add_product(out, s0.nums, L, m)
    s_next = _poly(out, prod * m)
    return AimState(n=state.n + 1, lam0=lam0, s0=s0, lam=lam_next, s=s_next)


def termination_delta(state: AimState, previous: AimState) -> Poly:
    """delta = s_n lambda_{n-1} - s_{n-1} lambda_n for consecutive states."""
    if state.n != previous.n + 1:
        raise DomainError(f"states must be consecutive, got n={state.n} "
                          f"after n={previous.n}")
    s, lam_prev, s_prev, lam = state.s, previous.lam, previous.s, state.lam
    # over D = lcm(a, b), a and b the two products' denominators
    a, b = s.den * lam_prev.den, s_prev.den * lam.den
    g = gcd(a, b)
    out = [0] * (max(len(s.nums) + len(lam_prev.nums),
                     len(s_prev.nums) + len(lam.nums)) - 1)
    _add_product(out, s.nums, lam_prev.nums, b // g)
    _add_product(out, s_prev.nums, lam.nums, -(a // g))
    return _poly(out, a * (b // g))


def exact_tau(eta, beta_sq, n: int) -> Fraction:
    """The tau at which the level-n iteration terminates exactly."""
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    shift = _coeff(eta) + n + 1
    if shift == 0:
        raise DomainError(f"eta + n + 1 = 0 at eta={eta}, n={n}: no tau "
                          "terminates this level")
    return _coeff(beta_sq) / (2 * shift)


def terminates_at(n: int, tau, eta, beta_sq) -> bool:
    """Whether the iteration terminates identically at level n for this tau.

    Builds the seed, iterates to level n + 1, and checks that the
    termination delta between levels n + 1 and n is the zero polynomial.
    """
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    previous = state = seed(tau, eta, beta_sq)
    for _ in range(n + 1):
        previous, state = state, iterate(state)
    return termination_delta(state, previous).is_zero


def verify_level(n: int, eta, beta_sq) -> bool:
    """Certificate for one level: exact tau makes the delta vanish."""
    return terminates_at(n, exact_tau(eta, beta_sq, n), eta, beta_sq)
