import pytest
from hypothesis import given, settings, strategies as st

from fibertrace.errors import BadInput, ModulusMismatch
from fibertrace.exactalg import (
    CyclotomicNumber,
    GroupRingElement,
    cyclotomic_polynomial,
    inverse_of_one_minus_root,
)


def G(n, d):
    return GroupRingElement.from_terms(n, d.items())


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

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 12, 15])
    def test_unit_inverse_closed_form(self, n):
        one = CyclotomicNumber.one(n)
        for c in range(1, n):
            u = one - CyclotomicNumber.root_power(n, c)
            inv = inverse_of_one_minus_root(n, c)
            assert inv * u == one
        with pytest.raises(ZeroDivisionError):
            inverse_of_one_minus_root(n, 0)
