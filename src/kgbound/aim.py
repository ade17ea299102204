"""Exact termination certificate for the iterative solution scheme.

The radial equation, after peeling off the asymptotic factor, is solved by
an iteration built from two seed functions

    lambda_0(z) = 2 (tau z - (eta + 1)) / z,
    s_0(z)      = (2 tau (eta + 1) - beta^2) / z,

with the recurrences

    lambda_n = lambda_{n-1}' + lambda_0 lambda_{n-1} + s_{n-1},
    s_n      = s_{n-1}'      + s_0      lambda_{n-1}.

The iteration terminates at level n when

    delta(z) = s_{n+1} lambda_n - s_n lambda_{n+1}

vanishes identically, as it does at tau = beta^2 / (2 (eta + n + 1)).

Both seeds are polynomials in w = 1/z,

    lambda_0 = 2 tau - 2 (eta + 1) w,    s_0 = (2 tau (eta + 1) - beta^2) w,

and d/dz = -w^2 d/dw maps polynomials in w to polynomials in w, so every
lambda_n, s_n and delta is a polynomial in w as well.

The recurrence runs on integers at one fixed scale D: the product td ed
of the denominators of tau and eta + 1, times the denominator bd of
beta^2 only where bd does not divide td ed.  (At the tau of exact_tau it
always divides, so D is smaller by that factor at every level.)  The
seeds A = D lambda_0 and B = D s_0 then have integer coefficients, and
so have

    Lambda_{n+1} = D (-w^2 Lambda_n') + A Lambda_n + D Sigma_n,
    Sigma_{n+1}  = D (-w^2 Sigma_n')  + B Lambda_n,

starting from Lambda_0 = A and Sigma_0 = B, with lambda_n = Lambda_n /
D^(n+1) and s_n = Sigma_n / D^(n+1) exactly.  seed and iterate hold each
level as these unreduced integer numerators: no step takes a gcd or an
lcm, builds a Poly or divides polynomials.  Over the same scale, the
delta between levels m and m - 1 is

    (Sigma_m Lambda_{m-1} - Sigma_{m-1} Lambda_m) / D^(2m+1).

That delta is one monomial,

    delta_m = s_m lambda_{m-1} - s_{m-1} lambda_m
            = -prod_{k=0}^{m} (beta^2 - 2 tau (eta + k + 1)) w^(m+1),

a polynomial identity in tau, eta and beta^2.  Proof: the seeds are the
equation y'' = lambda_0 y' + s_0 y, that is

    z y'' + (2 (eta + 1) - 2 tau z) y' - (2 tau (eta + 1) - beta^2) y = 0,

and differentiating it shows that y^(k) solves the same equation with
eta -> eta + k.  Let W_k be the Wronskian of the k-th derivatives of two
independent solutions, W = W_0 != 0.  Putting y^(k+1) = lambda_{k-1} y' +
s_{k-1} y and y^(k+2) = lambda_k y' + s_k y into W_{k+1} gives W_{k+1} =
(lambda_k s_{k-1} - lambda_{k-1} s_k) W, so delta_m = -W_{m+1} / W.  At
shift k the seed s_0 is (2 tau (eta + k + 1) - beta^2) w, and for the
shifted equation W_{k+1} = -s_0 W_k: the same relation at k = 0, with
lambda_{-1} = 1 and s_{-1} = 0 since y' = 1 y' + 0 y.  Multiplying the
m + 1 factors gives the product.

So every numerator of the delta but coefficient m + 1 is identically 0,
and "vanishes identically" is the exact statement that this one integer,

    sum_k Sigma_m[k] Lambda_{m-1}[m+1-k]
        - sum_k Sigma_{m-1}[k] Lambda_m[m+1-k],

is 0: 2m + 2 products where the whole convolution takes about 2 (m+1)^2.
terminates_at decides so, and termination_delta places the same integer
at w^(m+1).  The verdict still reads the iterated numerators, so it checks
the recurrence, not the closed form: level n terminates exactly at the
tau_j = beta^2 / (2 (eta + j + 1)) with j <= n + 1.

Poly is the canonical form of a polynomial in w: integer numerators over
one positive denominator that shares no factor with them.  AimState's
lam0, s0, lam and s and termination_delta are Poly views, reduced by one
gcd when a caller asks for them; the recurrence never builds one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

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
            _add_product(out, a, b)
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


def _add_product(out: list, a: tuple, b: tuple) -> None:
    """out += the numerators of a(w) b(w)."""
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y


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


class AimState(NamedTuple):
    """Iteration state at level n: the seed pair and the level-n pair as
    integer numerators over the fixed scale D,

        lambda_0 = A / D,    s_0 = B / D,
        lambda_n = L / D^(n+1),    s_n = S / D^(n+1),

    each a tuple of ints, lowest power of w first, not reduced; L and S
    have n + 2 entries.  lam0, s0, lam and s are the canonical Poly views,
    built on demand."""

    n: int
    scale: int
    lam0_nums: tuple
    s0_nums: tuple
    lam_nums: tuple
    s_nums: tuple

    @property
    def lam0(self) -> Poly:
        return _poly(list(self.lam0_nums), self.scale)

    @property
    def s0(self) -> Poly:
        return _poly(list(self.s0_nums), self.scale)

    @property
    def lam(self) -> Poly:
        return _poly(list(self.lam_nums), self.scale ** (self.n + 1))

    @property
    def s(self) -> Poly:
        return _poly(list(self.s_nums), self.scale ** (self.n + 1))


def seed(tau, eta, beta_sq) -> AimState:
    """Level-0 state for exact rational inputs."""
    tn, td = _ratio(tau)
    en, ed = _ratio(eta)
    bn, bd = _ratio(beta_sq)
    en += ed                    # eta + 1 = en / ed
    # D = td ed, times bd where bd does not divide td ed, so that
    # D lambda_0 = 2 tau D - 2 (eta + 1) D w and
    # D s_0 = (2 tau (eta + 1) - beta^2) D w have integer coefficients
    d = td * ed
    if d % bd:
        d *= bd
    lam0 = (2 * tn * (d // td), -2 * en * (d // ed))
    s0 = (0, 2 * tn * en * (d // (td * ed)) - bn * (d // bd))
    return AimState(0, d, lam0, s0, lam0, s0)


def iterate(state: AimState) -> AimState:
    """One step of the recurrence, n -> n + 1."""
    n, d, lam0, s0, L, S = state
    a0, a1 = lam0
    b1 = s0[1]                  # s_0 has no constant term, so neither has s_n
    # Coefficient k + 1 of Lambda_{n+1} = D (-w^2 Lambda_n') + A Lambda_n
    # + D Sigma_n and of Sigma_{n+1} = D (-w^2 Sigma_n') + B Lambda_n, for
    # k = 0 .. n + 1, with kd = k D:
    #   (a1 - kd) L[k] + a0 L[k+1] + D S[k+1]    and    b1 L[k] - kd S[k];
    # coefficient 0 is a0 L[0] and 0.
    lam = [a0 * L[0]]
    s = [0]
    kd = 0
    for lk, lk1, sk, sk1 in zip(L, L[1:] + (0,), S, S[1:] + (0,)):
        lam.append((a1 - kd) * lk + a0 * lk1 + d * sk1)
        s.append(b1 * lk - kd * sk)
        kd += d
    return AimState(n + 1, d, lam0, s0, tuple(lam), tuple(s))


def _delta_coeff(state: AimState, previous: AimState) -> int:
    """Numerator m + 1, m = state.n, of S_m L_{m-1} - S_{m-1} L_m: the one
    the theorem above leaves nonzero.  S_m and L_m have m + 2 entries,
    S_{m-1} and L_{m-1} m + 1, so each zip pairs index k with m + 1 - k."""
    return (sum(map(mul, reversed(state.s_nums), previous.lam_nums))
            - sum(map(mul, reversed(state.lam_nums), previous.s_nums)))


def termination_delta(state: AimState, previous: AimState) -> Poly:
    """delta = s_n lambda_{n-1} - s_{n-1} lambda_n for consecutive states of
    one chain, in canonical form: _delta_coeff at w^(n+1) over D^(2n+1)."""
    if state.n != previous.n + 1:
        raise DomainError(f"states must be consecutive, got n={state.n} "
                          f"after n={previous.n}")
    if (state.scale, state.lam0_nums, state.s0_nums) != \
            (previous.scale, previous.lam0_nums, previous.s0_nums):
        raise DomainError("states must come from one seed")
    n = state.n
    return _poly([0] * (n + 1) + [_delta_coeff(state, previous)],
                 state.scale ** (2 * n + 1))


def exact_tau(eta, beta_sq, n: int) -> Fraction:
    """The tau at which the level-n iteration terminates exactly,
    beta^2 / (2 (eta + n + 1)), built from the numerators and denominators
    of eta and beta^2 as one Fraction."""
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    en, ed = _ratio(eta)
    shift = en + (n + 1) * ed           # (eta + n + 1) ed
    if not shift:
        raise DomainError(f"eta + n + 1 = 0 at eta={eta}, n={n}: no tau "
                          "terminates this level")
    bn, bd = _ratio(beta_sq)
    return Fraction(bn * ed, 2 * bd * shift)


def terminates_at(n: int, tau, eta, beta_sq) -> bool:
    """Whether the iteration terminates identically at level n for this tau.

    Builds the seed, iterates to level n + 1, and checks that the one
    integer numerator the termination delta between levels n + 1 and n
    can have is 0.
    """
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"n must be a non-negative integer, got {n!r}")
    previous = state = seed(tau, eta, beta_sq)
    for _ in range(n + 1):
        previous, state = state, iterate(state)
    return not _delta_coeff(state, previous)
