"""Polynomial layer: arithmetic, cyclotomics, minimal polynomials, squarefree."""

import math
import random
import signal

import pytest

from oracles import divides, evaluate, path_charpoly
from treemult.poly import (
    ONE,
    X,
    InvalidSpecError,
    LambdaSpec,
    NonDivisibleError,
    NotPalindromicError,
    OddDegreeError,
    Polynomial,
    ZeroPolynomialError,
    all_specs,
    cyclotomic,
    euler_phi,
    exact_div,
    palindromic_descend,
    poly_gcd,
    spec_orbits,
    squarefree_decompose,
)


def P(*coeffs):
    return Polynomial(coeffs)


class TestArithmetic:
    def test_monomial_product(self):
        assert X * X == P(0, 0, 1)

    def test_difference_of_squares(self):
        assert exact_div(P(-1, 0, 1), P(-1, 1)) == P(1, 1)

    def test_exact_div_verified_by_remultiplication(self):
        quo = exact_div(P(0, -2, 0, 1), P(-2, 0, 1))
        assert quo == X
        assert quo * P(-2, 0, 1) == P(0, -2, 0, 1)

    def test_exact_div_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            b = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            if a.is_zero() or b.is_zero():
                continue
            assert exact_div(a * b, b) == a

    def test_non_divisible_signals(self):
        with pytest.raises(NonDivisibleError):
            exact_div(P(1, 0, 1), P(-1, 1))
        with pytest.raises(NonDivisibleError):
            exact_div(P(1, 1), P(1, 0, 2))  # dividend of lower degree
        assert not divides(P(-1, 1), P(1, 0, 1))
        assert divides(P(-1, 1), P(-1, 0, 0, 1))

    def test_normalization(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).is_zero()
        assert Polynomial([]).degree == -1
        assert P(3, 1).degree == 1

    def test_repr_evaluates_back(self):
        assert repr(P(1, 0, -3)) == "Polynomial((1, 0, -3))"
        for p in (P(1, 0, -3), P(5), P()):
            assert eval(repr(p)) == p

    def test_evaluate(self):
        assert evaluate(P(1, -2, 1), 5) == 16
        assert evaluate(P(0, 1), 0.5) == 0.5

    def test_content_and_primitive(self):
        assert P(-4, -6).content() == -2
        assert P(-4, -6).primitive() == P(2, 3)
        assert P(4, 6).content() == 2


class TestPathCharpoly:
    def test_base_cases(self):
        assert path_charpoly(0) == ONE
        assert path_charpoly(1) == X
        # recurrence: x*x - 1 and x*(x^2-1) - x
        assert path_charpoly(2) == P(-1, 0, 1)
        assert path_charpoly(3) == P(0, -2, 0, 1)

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_consistency(self, n):
        assert path_charpoly(n + 2) == path_charpoly(n + 1).shift(1) - path_charpoly(n)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 30, 50])
    def test_known_roots_numeric(self, n):
        # doubles are dyadic rationals, so evaluating the integer polynomial
        # exactly at the double root keeps evaluation roundoff out of the check
        from fractions import Fraction

        p = path_charpoly(n)
        assert p.is_monic() and p.degree == n
        for k in range(1, n + 1):
            x = Fraction(2.0 * math.cos(k * math.pi / (n + 1)))
            assert abs(float(evaluate(p, x))) < 1e-6

    def test_parity_symmetry(self):
        for n in range(1, 25):
            p = path_charpoly(n)
            assert all(c == 0 for k, c in enumerate(p.coeffs) if (k - n) % 2 != 0)


class TestCyclotomic:
    def test_base_case(self):
        assert cyclotomic(1) == P(-1, 1)

    def test_small_values(self):
        assert cyclotomic(2) == P(1, 1)
        assert cyclotomic(3) == P(1, 1, 1)
        assert cyclotomic(6) == P(1, -1, 1)
        assert cyclotomic(12) == P(1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        for n in range(1, 61):
            assert cyclotomic(n).degree == euler_phi(n)
            assert cyclotomic(n).is_monic()

    def test_product_reconstructs_x_n_minus_1(self):
        for n in range(1, 121):
            prod = ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == Polynomial((-1,) + (0,) * (n - 1) + (1,))

    def test_large_index_is_fast(self):
        # 60022 = 2 * 30011: dividing x^n - 1 by the cyclotomic polynomial
        # of every proper divisor takes minutes here
        def expire(signum, frame):
            pytest.fail("cyclotomic(60022) still running after 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            p = cyclotomic(60022)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert p.degree == euler_phi(60022) == 30010
        # Phi_2q(x) = Phi_q(-x) = 1 - x + x^2 - ... + x^(q-1) for an odd prime q
        assert p.coeffs == tuple((-1) ** k for k in range(30011))


def _recompose(q, d):
    """z^d * Q(z + 1/z) as a polynomial in z."""
    acc = Polynomial(())
    z2p1 = P(1, 0, 1)
    for k, c in enumerate(q.coeffs):
        acc = acc + c * (z2p1 ** k).shift(d - k)
    return acc


class TestPalindromicDescend:
    def test_simple(self):
        assert palindromic_descend(P(1, 0, 1)) == X

    def test_cyclotomic_examples(self):
        assert palindromic_descend(cyclotomic(12)) == P(-3, 0, 1)
        assert palindromic_descend(cyclotomic(3)) == P(1, 1)

    def test_errors(self):
        with pytest.raises(NotPalindromicError):
            palindromic_descend(P(1, 2))
        with pytest.raises(OddDegreeError):
            palindromic_descend(P(1, 0, 0, 1))

    @pytest.mark.parametrize("n", range(3, 61))
    def test_recomposition_on_cyclotomics(self, n):
        p = cyclotomic(n)
        q = palindromic_descend(p)
        assert q.is_monic() and q.degree == p.degree // 2
        assert _recompose(q, p.degree // 2) == p


class TestMinimalPoly:
    def test_named_values(self):
        assert LambdaSpec(1, 2).minimal_poly == X  # lambda = 0
        assert LambdaSpec(1, 3).minimal_poly == P(-1, 1)  # lambda = 1
        assert LambdaSpec(2, 3).minimal_poly == P(1, 1)  # lambda = -1
        assert LambdaSpec(1, 4).minimal_poly == P(-2, 0, 1)  # lambda = sqrt(2)
        assert LambdaSpec(1, 6).minimal_poly == P(-3, 0, 1)  # lambda = sqrt(3)

    def test_invalid_specs(self):
        for i, M in [(2, 4), (0, 5), (5, 5), (6, 4), (3, 9)]:
            with pytest.raises(InvalidSpecError):
                LambdaSpec(i, M)
        with pytest.raises(InvalidSpecError):
            LambdaSpec.from_string("2/6")
        with pytest.raises(InvalidSpecError):
            LambdaSpec.from_string("nonsense")

    def test_from_string(self):
        spec = LambdaSpec.from_string("3/8")
        assert (spec.i, spec.M) == (3, 8)
        assert LambdaSpec.from_string(" 3/8\n") == spec  # surrounding whitespace only
        assert LambdaSpec.from_string("03/008") == spec

    @pytest.mark.parametrize(
        "text",
        [
            "1_0/21",  # int() reads 10/21
            "\u0661/\u0662",  # Arabic-Indic digits: int() reads 1/2
            "+1/2",
            "1/+2",
            "-1/2",
            "1 /2",
            "1/ 2",
            "1/2/3",
            "/2",
            "1/",
            "1.0/2",
            "",
        ],
    )
    def test_from_string_wants_ascii_digits(self, text):
        with pytest.raises(InvalidSpecError):
            LambdaSpec.from_string(text)

    def test_degree_matches_totient_formula(self):
        for spec in all_specs(30):
            expected = euler_phi(2 * spec.M) // 2 if spec.i % 2 else euler_phi(spec.M) // 2
            assert spec.minimal_poly.degree == max(expected, 1)
            # one form for both parities, which spectrum.multiplicity uses
            assert spec.minimal_poly.degree == euler_phi(2 * spec.M) // 2

    def test_root_numeric(self):
        for spec in all_specs(30):
            root = 2 * math.cos(spec.i * math.pi / spec.M)
            assert abs(evaluate(spec.minimal_poly, root)) < 1e-9

    def test_divides_path_charpoly(self):
        # the path on M-1 vertices has every 2cos(i*pi/M) in its spectrum
        for spec in all_specs(30):
            assert divides(spec.minimal_poly, path_charpoly(spec.M - 1))

    def test_orbits_partition_specs(self):
        orbits = spec_orbits(15)
        seen = [s for _, specs in orbits for s in specs]
        assert sorted((s.i, s.M) for s in seen) == sorted((s.i, s.M) for s in all_specs(15))
        for mu, specs in orbits:
            for s in specs:
                assert s.minimal_poly == mu


class TestSquarefree:
    def test_squarefree_input(self):
        assert squarefree_decompose(P(0, -2, 0, 1)) == [(P(0, -2, 0, 1), 1)]

    def test_squarefree_input_with_content_and_negative_leading(self):
        # -6(x^2 - 3)(x + 1): level 1 holds the primitive part, leading positive
        p = P(-3, -3, 1, 1) * -6
        assert squarefree_decompose(p) == [(P(-3, -3, 1, 1), 1)]

    def test_spider_charpoly_example(self):
        # x^6 - 5x^4 + 5x^2 = x^2 * (x^4 - 5x^2 + 5); confirm by re-expansion
        p = P(0, 0, 5, 0, -5, 0, 1)
        expected_part = P(5, 0, -5, 0, 1)
        assert expected_part * X * X == p
        assert squarefree_decompose(p) == [(expected_part, 1), (X, 2)]

    def test_pure_power(self):
        assert squarefree_decompose(P(-1, 1) ** 3) == [(P(-1, 1), 3)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            squarefree_decompose(Polynomial(()))

    def test_remultiplication_random(self):
        rng = random.Random(20240917)
        for _ in range(1000):
            p = Polynomial((rng.choice([-2, -1, 1, 2]),))
            for _ in range(rng.randint(1, 4)):
                factor = Polynomial(
                    [rng.randint(-3, 3) for _ in range(rng.randint(2, 4))]
                )
                if factor.is_zero() or factor.is_constant():
                    factor = P(rng.randint(-2, 2), 1)
                p = p * factor ** rng.randint(1, 3)
            parts = squarefree_decompose(p)
            product = ONE
            for g, k in parts:
                assert g.content() == 1 and g.leading > 0
                product = product * g**k
            assert product == p.primitive()
            for k in range(len(parts)):
                for j in range(k + 1, len(parts)):
                    assert poly_gcd(parts[k][0], parts[j][0]).is_constant()


class TestGcd:
    def test_common_factor(self):
        a = P(-1, 1) * P(1, 1, 1)
        b = P(-1, 1) * P(2, 1)
        assert poly_gcd(a, b) == P(-1, 1)

    def test_coprime(self):
        assert poly_gcd(P(1, 1), P(2, 1)).is_constant()

    def test_content_contributes(self):
        assert poly_gcd(P(2, 2), P(4, 8, 4)) == P(2, 2)
        assert poly_gcd(P(2, 2), P(4, 4, 4)) == P(2)

    def test_zero_cases(self):
        assert poly_gcd(Polynomial(()), P(-3, -6)) == P(3, 6)
        assert poly_gcd(Polynomial(()), Polynomial(())).is_zero()
