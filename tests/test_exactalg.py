import pytest
from hypothesis import given, settings, strategies as st

from fibertrace.errors import BadInput, ModulusMismatch
from fibertrace.exactalg import (
    CyclotomicNumber,
    GroupRingElement,
    cyc_eval,
    cyc_inv,
    cyclotomic_polynomial,
    gr_add,
    gr_eval_at_one,
    gr_geom,
    gr_mul,
    gr_scale,
    inverse_of_one_minus_root,
)


def G(n, d):
    return GroupRingElement.from_terms(n, d.items())


class TestGroupRing:
    def test_ring_identities(self):
        n = 11
        one = GroupRingElement.one(n)
        xi = GroupRingElement.monomial(n, 1)
        assert gr_mul(one + xi, one - xi) == one - xi * xi
        assert GroupRingElement.monomial(n, n - 1) * xi == one
        assert gr_add(GroupRingElement.zero(n), xi) == xi
        assert gr_scale(3, xi) == G(n, {1: 3})

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            gr_add(GroupRingElement.one(5), GroupRingElement.one(7))

    def test_geom(self):
        assert gr_geom(3, 0, 7) == GroupRingElement.zero(7)
        assert gr_geom(0, 4, 7) == G(7, {0: 4})
        assert gr_geom(5, 3, 7) == G(7, {0: 1, 5: 1, 3: 1})

    def test_geom_rejects_negative_count(self):
        with pytest.raises(BadInput):
            gr_geom(1, -1, 7)

    def test_eval_at_one(self):
        assert gr_eval_at_one(G(9, {0: 1, 4: -1})) == 0
        assert gr_eval_at_one(G(9, {0: 3, 1: 2, 2: 1})) == 6
        assert gr_eval_at_one(GroupRingElement.zero(9)) == 0

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
        assert hash(a) == hash(G(n, {7: 1, -1: 5}))
        assert str(a) == f"x^7 + 5*x^{n - 1}"

    def test_dense_constructor(self):
        assert GroupRingElement(5, [0, 2, 0, 0, -1]) == G(5, {1: 2, 4: -1})
        assert GroupRingElement(5, [0] * 5).terms == {}
        with pytest.raises(BadInput):
            GroupRingElement(5, [1, 2])
        with pytest.raises(BadInput):
            GroupRingElement(0)

    @given(
        st.integers(min_value=2, max_value=50),
        st.data(),
    )
    @settings(max_examples=80)
    def test_mul_matches_naive_convolution(self, n, data):
        coeffs = st.lists(
            st.integers(min_value=-9, max_value=9), min_size=n, max_size=n
        )
        a = data.draw(coeffs)
        b = data.draw(coeffs)
        naive = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                naive[(i + j) % n] += x * y
        assert GroupRingElement(n, a) * GroupRingElement(n, b) == GroupRingElement(n, naive)


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
        assert cyc_eval(one, 3) == CyclotomicNumber.one(4)
        xi = GroupRingElement.monomial(4, 1)
        # the class of the degree-1 generator modulo x^2 + 1
        assert cyc_eval(xi, 1) == CyclotomicNumber(4, [0, 1])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
    def test_full_geometric_sum_vanishes(self, n):
        full = GroupRingElement(n, [1] * n)
        assert not full.evaluate(1)

    def test_inverse_examples(self):
        n = 5
        one = CyclotomicNumber.one(n)
        assert cyc_inv(one) == one
        z = CyclotomicNumber.root_power(n, 1)
        assert cyc_inv(z) == CyclotomicNumber.root_power(n, n - 1)
        u = one - z
        assert cyc_inv(u) * u == one

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            cyc_inv(CyclotomicNumber.zero(5))

    def test_division(self):
        n = 7
        a = CyclotomicNumber.root_power(n, 2) + 3
        b = CyclotomicNumber.root_power(n, 5) - 1
        assert (a / b) * b == a

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
        assert (a * b).evaluate(power) == a.evaluate(power) * b.evaluate(power)
        assert (a + b).evaluate(power) == a.evaluate(power) + b.evaluate(power)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 12, 15])
    def test_unit_inverse_closed_form(self, n):
        one = CyclotomicNumber.one(n)
        for c in range(1, n):
            u = one - CyclotomicNumber.root_power(n, c)
            inv = inverse_of_one_minus_root(n, c)
            assert inv * u == one
            assert inv == u.inverse()
        with pytest.raises(ZeroDivisionError):
            inverse_of_one_minus_root(n, 0)

    @given(st.integers(min_value=2, max_value=20), st.data())
    @settings(max_examples=60)
    def test_inverse_is_exact(self, n, data):
        phi = len(cyclotomic_polynomial(n)) - 1
        coords = data.draw(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=phi, max_size=phi)
        )
        a = CyclotomicNumber(n, coords)
        if not a:
            return
        assert a.inverse() * a == CyclotomicNumber.one(n)
