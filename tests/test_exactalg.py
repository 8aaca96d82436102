import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibertrace.errors import BadInput, ModulusMismatch
from fibertrace.exactalg import (
    CyclotomicNumber,
    GroupRingElement,
    _poly_divmod_monic,
    _product,
    _unpack,
    cyclotomic_polynomial,
    packed_inverse_numerators,
)


def G(n, d):
    return GroupRingElement.from_terms(n, d.items())


def schoolbook(a, b):
    """Reference product of two integer polynomials, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reduced(n, poly):
    """Reference remainder of poly modulo Phi_n by long division, padded
    to phi(n) coordinates."""
    phi = len(cyclotomic_polynomial(n)) - 1
    _, rem = _poly_divmod_monic(poly, cyclotomic_polynomial(n))
    return tuple(rem + [0] * (phi - len(rem)))


def random_coeffs(rng, size):
    """Zeros, small signed values and signed 100-digit values."""
    return [rng.randint(-b, b) for b in rng.choices((0, 9, 10**100), k=size)]


class TestGroupRing:
    def test_ring_identities(self):
        n = 11
        one = GroupRingElement.one(n)
        xi = GroupRingElement.monomial(n, 1)
        assert GroupRingElement.zero(n) + xi == xi
        assert xi + xi + xi == G(n, {1: 3})
        assert 2 + xi - one == G(n, {0: 1, 1: 1})

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            GroupRingElement.one(5) + GroupRingElement.one(7)

    def test_eval_at_one(self):
        assert G(9, {0: 1, 4: -1}).eval_at_one() == 0
        assert G(9, {0: 3, 1: 2, 2: 1}).eval_at_one() == 6
        assert GroupRingElement.zero(9).eval_at_one() == 0

    def test_str(self):
        assert str(G(7, {0: 2, 3: 1, 5: -4})) == "2 + x^3 - 4*x^5"
        assert str(GroupRingElement.zero(3)) == "0"

    def test_sparse_storage(self):
        n = 10**15  # no dense buffer of this size could exist
        a = GroupRingElement.from_terms(n, [(3, 2), (n + 3, -2), (-1, 5), (7, 1)])
        assert a.terms == {n - 1: 5, 7: 1}
        assert a.items() == [(7, 1), (n - 1, 5)]
        assert a.coefficient(-1) == 5 and a.coefficient(8) == 0
        assert (a - a).terms == {} and not (a - a)
        assert 1 - a == G(n, {0: 1, n - 1: -5, 7: -1})
        assert a.eval_at_one() == 6
        assert str(a) == f"x^7 + 5*x^{n - 1}"

    def test_dense_constructor(self):
        assert GroupRingElement(5, [0, 2, 0, 0, -1]) == G(5, {1: 2, 4: -1})
        assert GroupRingElement(5, [0] * 5).terms == {}
        with pytest.raises(BadInput):
            GroupRingElement(5, [1, 2])
        with pytest.raises(BadInput):
            GroupRingElement(0)


class TestCyclotomic:
    def test_small_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_eval_constant_and_generator(self):
        one = GroupRingElement.one(4)
        assert one.evaluate(3) == CyclotomicNumber.one(4)
        xi = GroupRingElement.monomial(4, 1)
        # the class of the degree-1 generator modulo x^2 + 1
        assert xi.evaluate(1) == CyclotomicNumber(4, [0, 1])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
    def test_full_geometric_sum_vanishes(self, n):
        full = GroupRingElement(n, [1] * n)
        assert not full.evaluate(1)

    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=23),
        st.data(),
    )
    @settings(max_examples=80)
    def test_evaluation_is_ring_homomorphism(self, n, power, data):
        coeffs = st.lists(
            st.integers(min_value=-5, max_value=5), min_size=n, max_size=n
        )
        a = GroupRingElement(n, data.draw(coeffs))
        b = GroupRingElement(n, data.draw(coeffs))
        assert (a + b).evaluate(power) == a.evaluate(power) + b.evaluate(power)
        # with additivity, the values on monomials fix evaluate on all of Z[Z/n]
        for e in range(n):
            assert GroupRingElement.monomial(n, e).evaluate(power) == (
                CyclotomicNumber.root_power(n, e * power)
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 12, 15, 105, 113, 120])
    def test_unit_inverse_closed_form(self, n):
        one = CyclotomicNumber.one(n)
        width = inverse_width(n)
        numerator = packed_inverse_numerators(n, width)
        for c in range(1, n):
            u = one - CyclotomicNumber.root_power(n, c)
            inv = CyclotomicNumber.from_poly(n, _unpack(numerator(c), n, width), n)
            assert u * inv == one
        with pytest.raises(ZeroDivisionError):
            numerator(0)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 15, 30, 105, 120, 214])
    def test_inverse_numerator_by_definition(self, n):
        # -sum_{j<n} (j+1) x^(cj mod n), term by term, for every c, units and
        # zero divisors alike; the largest coefficient is n(g+1)/2.  N(c) is
        # packed when N(-c) is not yet known and derived from it otherwise,
        # so walking c up derives it for c > n/2 and walking down for c < n/2
        width = inverse_width(n)
        for order in (range(1, 2 * n), range(2 * n - 1, 0, -1)):
            numerator = packed_inverse_numerators(n, width)
            for c in order:
                if c % n == 0:
                    continue
                want = [0] * n
                for j in range(n):
                    want[c * j % n] -= j + 1
                assert _unpack(numerator(c), n, width) == want, (n, c, order)
                assert -min(want) == n * (math.gcd(c, n) + 1) // 2


def inverse_width(n):
    """Bytes per slot that hold n(n+1)/2 signed: the sum of a numerator's
    coefficients, all of one sign, so a bound on each."""
    return ((n * (n + 1) // 2).bit_length() + 8) // 8


class TestReductionAndProduct:
    """The fold modulo x^n - 1, or x^(n/2) + 1 for even n, with division by
    the tail of Phi_n, and the Kronecker product, against long division and
    the schoolbook product for every conductor up to 150 and for 202, 214
    and 254, twice a prime.  Among them: Phi_105 has a coefficient -2, a
    product of two numbers for 113 or 127 has 2 * phi(n) - 1 > n terms, and
    Phi_120 has 7 nonzero terms."""

    N = [*range(1, 151), 202, 214, 254]

    def test_special_conductors(self):
        assert -2 in cyclotomic_polynomial(105)
        assert all(2 * (len(cyclotomic_polynomial(n)) - 1) - 1 > n for n in (113, 127))
        assert sum(1 for c in cyclotomic_polynomial(120) if c) == 7

    def test_from_poly_matches_long_division(self):
        for n in self.N:
            rng = random.Random(n)
            phi = len(cyclotomic_polynomial(n)) - 1
            for size in (0, phi, n, 2 * n - 1, 3 * n + 2):
                poly = random_coeffs(rng, size)
                assert CyclotomicNumber.from_poly(n, poly).num == reduced(n, poly), (n, size)

    def test_product_matches_schoolbook(self):
        for n in self.N:
            rng = random.Random(1000 + n)
            phi = len(cyclotomic_polynomial(n)) - 1
            a, b = random_coeffs(rng, phi), random_coeffs(rng, phi)
            x = CyclotomicNumber(n, a) * CyclotomicNumber(n, b)
            assert x.num == reduced(n, schoolbook(a, b)) and x.den == 1, n
            zero = CyclotomicNumber.zero(n)
            assert CyclotomicNumber(n, a, 7) * zero == zero

    def test_kronecker_product_at_its_bound(self):
        # constant vectors reach max|a| * max|b| * min(len) exactly; 128 and
        # 200 need 9 bits signed, one past a single byte
        for m, la, lb in ((1, 128, 128), (1, 200, 300), (3, 30, 7), (10**50, 5, 9), (7, 1, 1)):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = [sa * m] * la, [sb * m] * lb
                assert _product(a, b) == schoolbook(a, b), (m, la, lb, sa, sb)

    @given(
        st.lists(st.integers(-10**100, 10**100), min_size=1, max_size=40),
        st.lists(st.integers(-10**100, 10**100), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100)
    def test_kronecker_product_unequal_lengths(self, a, b, small):
        # small > 0 shrinks the coefficients so that the slots are narrow
        if small:
            a = [c % (10 * small) - 5 * small for c in a]
        assert _product(a, b) == schoolbook(a, b)
        assert _product(b, a) == schoolbook(a, b)
