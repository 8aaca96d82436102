import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibertrace.errors import BadInput, ModulusMismatch
from fibertrace.exactalg import (
    CyclotomicNumber,
    GroupRingElement,
    _unpack,
    cyclotomic_polynomial,
    packed_inverse_numerators,
)
from reference import cyclotomic_by_division, field_product, poly_divmod_monic, root_power


def G(n, d):
    return GroupRingElement(n, d.items())


def reduced(n, poly):
    """Reference remainder of poly modulo Phi_n by long division, padded
    to phi(n) coordinates."""
    phi = len(cyclotomic_by_division(n)) - 1
    _, rem = poly_divmod_monic(poly, cyclotomic_by_division(n))
    return tuple(rem + [0] * (phi - len(rem)))


def random_coeffs(rng, size):
    """Zeros, small signed values and signed 100-digit values."""
    return [rng.randint(-b, b) for b in rng.choices((0, 9, 10**100), k=size)]


class TestGroupRing:
    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            G(5, {0: 1}) + G(7, {0: 1})

    def test_str(self):
        assert str(G(7, {0: 2, 3: 1, 5: -4})) == "2 + x^3 - 4*x^5"
        assert str(GroupRingElement(3)) == "0"

    def test_sparse_storage(self):
        n = 10**15  # no dense buffer of this size could exist
        a = GroupRingElement(n, [(3, 2), (n + 3, -2), (-1, 5), (7, 1)])
        assert a.terms == {n - 1: 5, 7: 1}
        assert a.items() == [(7, 1), (n - 1, 5)]
        assert (a + G(n, {-1: -5})).terms == {7: 1}
        assert a + a == G(n, {7: 2, -1: 10})
        assert str(a) == f"x^7 + 5*x^{n - 1}"

    def test_pairs_constructor(self):
        assert GroupRingElement(5, enumerate([0, 2, 0, 0, -1])) == G(5, {1: 2, 4: -1})
        assert GroupRingElement(5, enumerate([0] * 5)).terms == {}
        assert GroupRingElement(5, [(1, 3), (6, -3), (9, 0)]).terms == {}
        with pytest.raises(BadInput):
            GroupRingElement(0)

    def test_foreign_operands(self):
        # no integer stands for a constant: equality with one is False, and a
        # sum with one is a TypeError, both ways round
        assert (GroupRingElement(5) == 0) is False
        assert GroupRingElement(5) != G(5, {0: 1})
        with pytest.raises(TypeError):
            GroupRingElement(5) + 1
        with pytest.raises(TypeError):
            1 + GroupRingElement(5)

    def test_repr(self):
        # exponents reduced and sorted, the zero sum dropped
        assert repr(GroupRingElement(5, [(7, 2), (1, -1)])) == "GroupRingElement(5, {1: -1, 2: 2})"
        assert repr(GroupRingElement(5, [(3, 1), (8, -1)])) == "GroupRingElement(5, {})"


class TestCyclotomic:
    def test_normal_form(self):
        # the denominator made positive and the content cancelled against it
        x = CyclotomicNumber(3, [2, 4], -2)
        assert (x.num, x.den) == ((-1, -2), 1)
        assert x == CyclotomicNumber(3, [-1, -2], den=1)
        assert repr(x) == "CyclotomicNumber(3, [-1, -2], den=1)"
        assert CyclotomicNumber(3, [0, 0], 7).den == 1
        assert CyclotomicNumber(3, [2, 3], 4) != CyclotomicNumber(3, [2, 3], 2)

    def test_foreign_operand(self):
        x = CyclotomicNumber(3, [1, 0])
        assert x.__eq__(1) is NotImplemented
        assert (x == 1) is False and x != "zeta"
        assert x != CyclotomicNumber(6, [1, 0])

    def test_malformed_input(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            CyclotomicNumber(3, [1, 0], 0)
        with pytest.raises(BadInput, match="expected 2 coordinates for conductor 3"):
            CyclotomicNumber(3, [1, 0, 0])
        with pytest.raises(BadInput, match="expected 4 coordinates for conductor 12"):
            CyclotomicNumber(12, [1])

    def test_small_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_eval_constant_and_generator(self):
        assert G(4, {0: 1}).evaluate(3) == CyclotomicNumber(4, [1, 0])
        xi = G(4, {1: 1})
        # the class of the degree-1 generator modulo x^2 + 1
        assert xi.evaluate(1) == CyclotomicNumber(4, [0, 1])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
    def test_full_geometric_sum_vanishes(self, n):
        full = GroupRingElement(n, enumerate([1] * n))
        assert not any(full.evaluate(1).num)

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
        a = GroupRingElement(n, enumerate(data.draw(coeffs)))
        b = GroupRingElement(n, enumerate(data.draw(coeffs)))
        # integer values have denominator 1, so their coordinates add
        sums = [x + y for x, y in zip(a.evaluate(power).num, b.evaluate(power).num)]
        assert (a + b).evaluate(power) == CyclotomicNumber(n, sums)
        # with additivity, the values on monomials fix evaluate on all of Z[Z/n]
        for e in range(n):
            assert G(n, {e: 1}).evaluate(power) == root_power(n, e * power)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 12, 15, 105, 113, 120])
    def test_unit_inverse_closed_form(self, n):
        one = CyclotomicNumber.from_poly(n, [1])
        width = inverse_width(n)
        numerator = packed_inverse_numerators(n, width)
        for c in range(1, n):
            u = CyclotomicNumber.from_poly(n, [1] + [0] * (c - 1) + [-1])  # 1 - zeta^c
            inv = CyclotomicNumber.from_poly(n, _unpack(numerator(c), n, width), n)
            assert field_product(u, inv) == one
        with pytest.raises(ZeroDivisionError):
            numerator(0)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 15, 30, 105, 120, 214])
    def test_inverse_numerator_by_definition(self, n):
        # -sum_{j<n} (j+1) x^(cj mod n), term by term, for every c, units and
        # zero divisors alike; the largest coefficient is n(g+1)/2.  N(c) is
        # packed when N(-c) is not yet known and derived from it otherwise,
        # so walking c up derives it for c > n/2 and walking down for c < n/2.
        # Every width from the narrowest up to 8 bytes: 1, 2, 4 and 8 are
        # native array items, 3, 5, 6 and 7 are trimmed from the next one
        wants = {}
        for c in range(1, n):
            want = wants[c] = [0] * n
            for j in range(n):
                want[c * j % n] -= j + 1
            assert -min(want) == n * (math.gcd(c, n) + 1) // 2
        for width in range(inverse_width(n), 9):
            for order in (range(1, 2 * n), range(2 * n - 1, 0, -1)):
                numerator = packed_inverse_numerators(n, width)
                for c in order:
                    if c % n:
                        assert _unpack(numerator(c), n, width) == wants[c % n], (n, c, width)

    def test_numerators_refuse_slots_too_narrow(self):
        # for n = 22 the largest |N(c)_e| is n(g + 1)/2: 22 for c = 1 and 132
        # for c = 11, so one-byte slots hold the unit's numerator and refuse
        # the zero divisor's
        numerator = packed_inverse_numerators(22, 1)
        assert min(_unpack(numerator(1), 22, 1)) == -22
        with pytest.raises(BadInput, match="do not fit 1-byte slots"):
            numerator(11)

    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize("count", [1, 137])
    def test_unpack_round_trip_at_every_width(self, width, count):
        # 0 and the extreme slots +-(2^(8w-1) - 1), all equal and then mixed
        # at random, so that a slot borrows from the next or carries into it
        top = (1 << (8 * width - 1)) - 1
        rng = random.Random(width * 1000 + count)
        for slots in ([0] * count, [top] * count, [-top] * count,
                      [rng.choice((0, top, -top)) for _ in range(count)],
                      [rng.randint(-top, top) for _ in range(count)]):
            value = sum(c << (8 * width * e) for e, c in enumerate(slots))
            assert _unpack(value, count, width) == slots

    @pytest.mark.parametrize("width", [0, 9])
    def test_slot_width_outside_one_to_eight_bytes(self, width):
        with pytest.raises(BadInput, match=f"slot width must be 1 to 8 bytes, got {width}"):
            packed_inverse_numerators(7, width)
        with pytest.raises(BadInput, match=f"slot width must be 1 to 8 bytes, got {width}"):
            _unpack(0, 7, width)


def inverse_width(n):
    """Bytes per slot that hold n(n+1)/2 signed: the sum of a numerator's
    coefficients, all of one sign, so a bound on each."""
    return ((n * (n + 1) // 2).bit_length() + 8) // 8


class TestReductionAndProduct:
    """Phi_n by its product formula, and the fold modulo x^n - 1, or
    x^(n/2) + 1 for even n, with division by the tail of Phi_n, both
    against long division.  The fold is checked for every conductor up to
    150 and for 202, 214 and 254, twice a prime.  Among them: Phi_105 has
    a coefficient -2, a product of two numbers for 113 or 127 has
    2 * phi(n) - 1 > n terms, and Phi_120 has 7 nonzero terms."""

    N = [*range(1, 151), 202, 214, 254]

    def test_special_conductors(self):
        assert -2 in cyclotomic_polynomial(105)
        assert all(2 * (len(cyclotomic_polynomial(n)) - 1) - 1 > n for n in (113, 127))
        assert sum(1 for c in cyclotomic_polynomial(120) if c) == 7

    def test_product_formula_matches_long_division(self):
        # 1155 = 3*5*7*11 and 2145 = 3*5*11*13 have four primes, 2236 = 4*13*43
        # a square factor
        for n in [*range(1, 401), 1155, 2145, 2236]:
            assert cyclotomic_polynomial(n) == cyclotomic_by_division(n), n

    @pytest.mark.parametrize("n", [0, -4])
    def test_conductor_below_one(self, n):
        with pytest.raises(BadInput):
            cyclotomic_polynomial(n)
        with pytest.raises(BadInput):
            CyclotomicNumber(n, [5])
        with pytest.raises(BadInput):
            CyclotomicNumber.from_poly(n, [1, 2, 3])

    def test_from_poly_matches_long_division(self):
        for n in self.N:
            rng = random.Random(n)
            phi = len(cyclotomic_polynomial(n)) - 1
            for size in (0, phi, n, 2 * n - 1, 3 * n + 2):
                poly = random_coeffs(rng, size)
                assert CyclotomicNumber.from_poly(n, poly).num == reduced(n, poly), (n, size)
