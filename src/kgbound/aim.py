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
lambda_n, s_n and delta_n is a polynomial in w as well.  The chain is
carried as Fraction-coefficient Polys in w: no denominators, no gcd, and
"vanishes identically" is the exact statement "every coefficient is 0".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"exact arithmetic needs int or Fraction, got {type(value).__name__}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    coeffs[k] multiplies w**k (w = 1/z in the iteration below); trailing
    zeros are stripped so the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((Fraction(1),))

    @classmethod
    def x(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _coeff(other)
            return Poly(tuple(c * f for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def divmod(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.lead
        quot = [Fraction(0)] * max(len(rem) - d, 0)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / lead
            quot[k - d] = q
            for j, b in enumerate(other.coeffs):
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
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = [f"{c}*w^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


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
    return Poly((0, 0, *(-p.derivative()).coeffs))


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
    tau = _coeff(tau)
    eta = _coeff(eta)
    beta_sq = _coeff(beta_sq)
    lam0 = Poly((2 * tau, -2 * (eta + 1)))
    s0 = Poly((0, 2 * tau * (eta + 1) - beta_sq))
    return AimState(n=0, lam0=lam0, s0=s0, lam=lam0, s=s0)


def iterate(state: AimState) -> AimState:
    """One step of the recurrence, n -> n + 1."""
    lam_next = d_dz(state.lam) + state.lam0 * state.lam + state.s
    s_next = d_dz(state.s) + state.s0 * state.lam
    return AimState(n=state.n + 1, lam0=state.lam0, s0=state.s0,
                    lam=lam_next, s=s_next)


def termination_delta(state: AimState, previous: AimState) -> Poly:
    """delta = s_n lambda_{n-1} - s_{n-1} lambda_n for consecutive states."""
    if state.n != previous.n + 1:
        raise DomainError(f"states must be consecutive, got n={state.n} "
                          f"after n={previous.n}")
    return state.s * previous.lam - previous.s * state.lam


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
