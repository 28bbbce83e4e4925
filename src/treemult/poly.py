"""Exact univariate polynomial arithmetic over the integers.

Provides the dense big-integer polynomial type used everywhere in this
package, plus the number-theoretic constructions the multiplicity machinery
needs: cyclotomic polynomials, minimal polynomials of 2*cos(i*pi/M), cached
once per orbit of conjugates, and Yun squarefree decomposition.

All operations are pure and all values immutable, so everything here is safe
to share across worker processes or threads without synchronization.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable


class PolyError(Exception):
    """Base class for polynomial-layer errors."""


class NonDivisibleError(PolyError):
    """Raised by exact_div when the remainder is nonzero.

    Callers routinely catch this as a divisibility test; it does not
    indicate a bug.
    """


class ZeroPolynomialError(PolyError):
    """Raised when an operation requires a nonzero polynomial."""


class NotPalindromicError(PolyError):
    """Input coefficients do not read the same forwards and backwards."""


class OddDegreeError(PolyError):
    """Palindromic descent needs an even-degree input."""


class InvalidSpecError(PolyError):
    """An (i, M) eigenvalue spec violates 1 <= i <= M-1 or gcd(i, M) = 1."""


class Polynomial:
    """Dense integer-coefficient polynomial, coefficients ascending by degree.

    The zero polynomial is the empty coefficient tuple; otherwise the last
    coefficient is nonzero.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        """Ascending coefficients; evaluates back to an equal polynomial."""
        return f"Polynomial({self.coeffs!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial((other,))
        return self + (-other)

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            return Polynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci == 0:
                continue
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
        return Polynomial(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> Polynomial:
        """Multiply by x^k."""
        if not self.coeffs:
            return ZERO
        return Polynomial((0,) * k + self.coeffs)

    def derivative(self) -> Polynomial:
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k)

    def content(self) -> int:
        """gcd of the coefficients, signed so the primitive part has a
        positive leading coefficient; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        g = reduce(math.gcd, (abs(c) for c in self.coeffs))
        return -g if self.coeffs[-1] < 0 else g

    def primitive(self) -> Polynomial:
        """self / content; positive leading coefficient."""
        c = self.content()
        if c in (0, 1):
            return self
        return Polynomial(k // c for k in self.coeffs)

    def is_palindromic(self) -> bool:
        return bool(self.coeffs) and self.coeffs == self.coeffs[::-1]


ZERO = Polynomial(())
ONE = Polynomial((1,))
X = Polynomial((0, 1))


def divmod_poly(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of a by b over the rationals, valid only when
    every intermediate division by b's leading coefficient is exact over the
    integers (always true for monic b)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = b.leading
    rem = list(a.coeffs)
    db = b.degree
    if a.degree < db:
        return ZERO, a
    quo = [0] * (a.degree - db + 1)
    for k in range(a.degree - db, -1, -1):
        top = rem[k + db]
        if top == 0:
            continue
        q, r = divmod(top, lead)
        if r != 0:
            raise NonDivisibleError(f"leading coefficient {lead} does not divide {top}")
        quo[k] = q
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= q * c
    return Polynomial(quo), Polynomial(rem)


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b when b divides a exactly over the integers.

    Raises NonDivisibleError otherwise; that signal doubles as the
    divisibility test used throughout the multiplicity engines.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    quo, rem = divmod_poly(a, b)
    if not rem.is_zero():
        raise NonDivisibleError("nonzero remainder")
    return quo


def _pseudo_rem(a: Polynomial, b: Polynomial) -> Polynomial:
    """Fraction-free remainder: lc(b)^s * a mod b for some s >= 0.

    The integer scaling is irrelevant to gcd computation because callers take
    primitive parts after every step.
    """
    db = b.degree
    lead = b.leading
    bc = b.coeffs
    rem = list(a.coeffs)
    while rem and rem[-1] == 0:
        rem.pop()
    while len(rem) - 1 >= db:
        top = rem[-1]
        off = len(rem) - 1 - db
        for j in range(len(rem)):
            rem[j] *= lead
        for j, c in enumerate(bc):
            rem[off + j] -= top * c
        while rem and rem[-1] == 0:
            rem.pop()
    return Polynomial(rem)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd over the integers via a primitive pseudo-remainder sequence.

    Result is normalized with positive leading coefficient; its content is
    gcd(content(a), content(b)).  Taking the primitive part after every step
    keeps the coefficients from blowing up.
    """
    if a.is_zero() and b.is_zero():
        return ZERO
    if a.is_zero():
        return b.primitive() * abs(b.content())
    if b.is_zero():
        return a.primitive() * abs(a.content())
    cont = math.gcd(abs(a.content()), abs(b.content()))
    a, b = a.primitive(), b.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b).primitive()
        a, b = b, r
    return a * cont


def squarefree_decompose(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition: p = content * prod g_k^k with the g_k squarefree,
    pairwise coprime, and positive-leading; only nonconstant g_k are listed,
    ascending by k.  Every root of g_k has multiplicity exactly k in p.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    pp = p.primitive()
    if pp.is_constant():
        return []
    g = poly_gcd(pp, pp.derivative())
    if g.is_constant():  # squarefree: Yun's loop would take one step to say so
        return [(pp, 1)]
    parts: list[tuple[Polynomial, int]] = []
    c = exact_div(pp, g)
    d = exact_div(pp.derivative(), g) - c.derivative()
    k = 1
    while not c.is_constant():
        gk = poly_gcd(c, d)
        if not gk.is_constant():
            parts.append((gk, k))
        c_next = exact_div(c, gk)
        d = exact_div(d, gk) - c_next.derivative()
        c = c_next
        k += 1
    return parts


# -- cyclotomic polynomials and Chebyshev-form eigenvalues ---------------


def _at_power(p: Polynomial, e: int) -> Polynomial:
    """p(x^e)."""
    coeffs = [0] * (p.degree * e + 1)
    coeffs[::e] = p.coeffs
    return Polynomial(coeffs)


def cyclotomic(n: int) -> Polynomial:
    """n-th cyclotomic polynomial, built one prime of n at a time.

    For a prime q not dividing m, Phi_mq(x) = Phi_m(x^q) / Phi_m(x); that
    gives Phi at rad(n), the product of the distinct primes of n, and then
    Phi_n(x) = Phi_rad(n)(x^(n / rad(n))).  Each division is by a
    polynomial of degree at most phi(rad(n)), so no step is quadratic in n.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    p, rad, rest, q = Polynomial((-1, 1)), 1, n, 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            p = exact_div(_at_power(p, q), p)
            rad *= q
        q += 1 if q == 2 else 2
    return _at_power(p, n // rad)


def palindromic_descend(p: Polynomial) -> Polynomial:
    """For palindromic P of even degree 2d, the unique Q of degree d with
    P(z) = z^d * Q(z + 1/z).

    Expands Q in the basis B_0 = 2, B_1 = y, B_k = y*B_{k-1} - B_{k-2}
    (B_k(z + 1/z) = z^k + z^-k), so Q = a_d + sum_{k>=1} a_{d+k} * B_k with
    a_j the coefficients of P.  Q is monic whenever P is.
    """
    if p.is_zero() or not p.is_palindromic():
        raise NotPalindromicError(f"{p!r} is not palindromic")
    if p.degree % 2 != 0:
        raise OddDegreeError(f"degree {p.degree} is odd")
    d = p.degree // 2
    q = Polynomial((p.coeffs[d],))
    b_prev, b_cur = Polynomial((2,)), X
    for k in range(1, d + 1):
        q = q + p.coeffs[d + k] * b_cur
        b_prev, b_cur = b_cur, b_cur.shift(1) - b_prev
    return q


@lru_cache(maxsize=None)
def _minimal_poly(n: int) -> Polynomial:
    """Minimal polynomial of z + 1/z, z a primitive n-th root of unity (n >= 3)."""
    return palindromic_descend(cyclotomic(n))


_SPEC_TEXT = re.compile(r"([0-9]+)/([0-9]+)")


@dataclass(frozen=True)
class LambdaSpec:
    """An exact eigenvalue lambda = 2*cos(i*pi/M) encoded by the coprime
    pair (i, M) with 1 <= i <= M-1.

    These are precisely the eigenvalues of paths (the path on M-1 vertices
    has all of 2*cos(k*pi/M), k = 1..M-1, in its spectrum).
    """

    i: int
    M: int

    def __post_init__(self):
        if not (1 <= self.i <= self.M - 1) or math.gcd(self.i, self.M) != 1:
            raise InvalidSpecError(f"invalid eigenvalue spec ({self.i}, {self.M})")

    @property
    def minimal_poly(self) -> Polynomial:
        """Monic integer minimal polynomial of 2*cos(i*pi/M), cached per orbit:
        irreducible over the rationals, of degree phi(2M)/2 for odd i and
        phi(M)/2 for even i (phi the Euler totient)."""
        # i odd: 2cos(i*pi/M) = z + 1/z for z a primitive 2M-th root of unity.
        # i even (M odd): equal to 2cos(2*pi*(i/2)/M) with gcd(i/2, M) = 1, so z
        # is a primitive M-th root.  The cyclotomic index is >= 3 for every
        # valid spec, so the descent always applies.
        return _minimal_poly(2 * self.M if self.i % 2 == 1 else self.M)

    @classmethod
    def from_string(cls, text: str) -> "LambdaSpec":
        """Parse the "i/M" syntax used by the command line: two runs of
        ASCII digits and a slash, with surrounding whitespace allowed and
        nothing else (no sign, underscore, inner space or other digits)."""
        match = _SPEC_TEXT.fullmatch(text.strip())
        if match is None:
            raise InvalidSpecError(f"cannot parse eigenvalue spec {text!r}")
        return cls(int(match[1]), int(match[2]))

    def __str__(self) -> str:
        return f"{self.i}/{self.M}"


def euler_phi(n: int) -> int:
    """Euler totient, by trial-division factorization."""
    if n <= 0:
        raise ValueError("totient requires a positive argument")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def all_specs(M_max: int) -> list[LambdaSpec]:
    """Every valid LambdaSpec with M <= M_max, ordered by (M, i)."""
    specs = []
    for M in range(2, M_max + 1):
        for i in range(1, M):
            if math.gcd(i, M) == 1:
                specs.append(LambdaSpec(i, M))
    return specs


def spec_orbits(M_max: int) -> list[tuple[Polynomial, tuple[LambdaSpec, ...]]]:
    """Group the specs with M <= M_max by shared minimal polynomial.

    Specs of the same parity of i at the same M are algebraic conjugates and
    share one minimal polynomial; grouping lets callers run per-polynomial
    computations once per orbit instead of once per spec.
    """
    orbits: dict[Polynomial, list[LambdaSpec]] = {}
    for spec in all_specs(M_max):
        orbits.setdefault(spec.minimal_poly, []).append(spec)
    return [(mu, tuple(specs)) for mu, specs in orbits.items()]
