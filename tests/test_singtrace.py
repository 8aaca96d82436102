import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from fibertrace import exactalg, singtrace
from fibertrace.arith import mod_inverse
from fibertrace.errors import BadInput
from fibertrace.exactalg import CyclotomicNumber, GroupRingElement
from fibertrace.resolution import MAX_MULTIPLICITY, Singularity, chain_ends, is_stable, resolve
from fibertrace.singtrace import (
    singularity_trace,
    trace_closed_form,
    trace_oracle,
    trace_polynomial,
)
import reference
from reference import (
    at_degree,
    block_sum,
    closed_form_coefficients,
    edge_blocks,
    per_node_oracle,
    vertex_block,
    vertex_term,
)


def G(n, d):
    return GroupRingElement(n, d.items())


class TestTracePolynomial:
    def test_genus_one_star_edge(self):
        # every edge of the genus-1 star type carries the constant trace 1
        assert trace_polynomial(resolve(Singularity(1, 3, 7))) == G(7, {0: 1})

    def test_two_three_thirteen(self):
        a3 = mod_inverse(3, 13)
        assert a3 == 9
        got = trace_polynomial(resolve(Singularity(2, 3, 13)))
        assert got == G(13, {0: 2, a3: 1})

    def test_three_four_thirteen(self):
        a4 = mod_inverse(4, 13)
        assert a4 == 10
        got = trace_polynomial(resolve(Singularity(3, 4, 13)))
        assert got == G(13, {0: 3, a4: 2, (2 * a4) % 13: 1})

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=150),
    )
    @settings(max_examples=200)
    def test_branch_symmetry(self, m1, m2, n):
        if math.gcd(n, m1) != 1 or math.gcd(n, m2) != 1:
            return
        a = trace_polynomial(resolve(Singularity(m1, m2, n)))
        b = trace_polynomial(resolve(Singularity(m2, m1, n)))
        assert a == b


    def test_node_sum_cell_bound(self, monkeypatch):
        # (3, 4, 13), mu = (4, 3, 2, 1, 3), b = (2, 2, 5): the buffer 13, node
        # products 12 + 6 + 2 + 3 = 23 and corrections sum_k (b_l (mu_{l+1} - k) - 1)
        # = 9 + 4 + 4 = 17, so 53 cells
        res = resolve(Singularity(3, 4, 13))
        monkeypatch.setattr(singtrace, "MAX_NODE_SUM_CELLS", 53)
        assert trace_polynomial(res) == G(13, {0: 3, 10: 2, 7: 1})
        monkeypatch.setattr(singtrace, "MAX_NODE_SUM_CELLS", 52)
        with pytest.raises(BadInput, match="touch 53 cells"):
            trace_polynomial(res)


class TestClosedForm:
    def test_genus_one_star_edge_decomposition(self):
        res = resolve(Singularity(1, 3, 7))
        first, second, m = closed_form_coefficients(res)
        assert first == [1, 0, 0]
        assert second == [1]
        assert m == 1
        assert trace_closed_form(res) == G(7, {0: 1})

    def test_three_four_thirteen_decomposition(self):
        res = resolve(Singularity(3, 4, 13))
        first, second, m = closed_form_coefficients(res)
        assert first == [3, 2, 1, 0]
        assert second == [1, 0, 0]
        assert m == 1

    def test_equal_branches_coefficient_law(self):
        # all multiplicities equal m forces coefficients m, m-1, ..., 1
        for m, n in [(2, 5), (3, 7), (4, 9)]:
            res = resolve(Singularity(m, m, n))
            first, second, got_m = closed_form_coefficients(res)
            assert first == list(range(m, 0, -1))
            assert second == first
            assert got_m == m

    def test_matches_polynomial_on_small_sweep(self):
        # stable chain or not
        for m1 in range(1, 6):
            for m2 in range(1, 6):
                for n in range(2, 80):
                    if math.gcd(n, m1) != 1 or math.gcd(n, m2) != 1:
                        continue
                    res = resolve(Singularity(m1, m2, n))
                    assert trace_closed_form(res) == trace_polynomial(res), (m1, m2, n)

    def test_residue_class_coefficient_stability(self):
        # coefficient sequences depend only on the class of n mod lcm
        for m1, m2 in [(3, 4), (2, 5), (4, 6), (2, 3)]:
            M = math.lcm(m1, m2)
            by_class = {}
            for n in range(2, 60 * M):
                if math.gcd(n, M) != 1:
                    continue
                res = resolve(Singularity(m1, m2, n))
                if not is_stable(res):
                    continue
                key = n % M
                coeffs = closed_form_coefficients(res)
                if key in by_class:
                    assert by_class[key] == coeffs, (m1, m2, n)
                else:
                    by_class[key] = coeffs
            assert by_class

    def test_eval_at_one_consistency(self):
        for m1, m2, n in [(2, 3, 13), (3, 4, 13), (5, 5, 9), (1, 6, 13)]:
            res = resolve(Singularity(m1, m2, n))
            tp, tc = trace_polynomial(res), trace_closed_form(res)
            assert sum(tp.terms.values()) == sum(tc.terms.values())


class TestProductionRoute:
    def test_matches_node_sum_on_both_sides_of_the_gate(self):
        def unstable_chains(triples):
            unstable = 0
            for m1, m2, n in triples:
                if math.gcd(n, m1 * m2) != 1:
                    continue
                sing = Singularity(m1, m2, n)
                res = resolve(sing)
                assert singularity_trace(sing) == trace_polynomial(res), (m1, m2, n)
                unstable += not is_stable(res)
            return unstable

        # n * gcd >= lcm splits this range for every (m1, m2) with lcm/gcd > 2
        small = ((m1, m2, n) for m1 in range(1, 9) for m2 in range(1, 9) for n in range(2, 120))
        assert unstable_chains(small) == 122
        # every degree with n * gcd < lcm and m1, m2 <= 16, where the chain is
        # often unstable: the closed form holds there too
        below = ((m1, m2, n) for m1 in range(1, 17) for m2 in range(1, 17)
                 for n in range(2, math.lcm(m1, m2))
                 if n * math.gcd(m1, m2) < math.lcm(m1, m2))
        assert unstable_chains(below) == 2136

    def test_matches_block_reference(self):
        # the three blocks summed over the lcm and then mapped to degree n
        # agree with the blocks mapped as they are written, at small
        # multiplicities exhaustively and up to MAX_MULTIPLICITY at random,
        # where the node sum cannot follow; the random multiplicities are
        # MAX_MULTIPLICITY^(u^3), so most are small and the test stays short
        def block_route(sing):
            lcm = math.lcm(sing.m1, sing.m2)
            return at_degree(block_sum(edge_blocks(sing.m1, sing.m2, *chain_ends(sing)), lcm),
                             lcm, sing.n)

        small = [Singularity(m1, m2, n) for m1 in range(1, 13) for m2 in range(1, 13)
                 for n in range(2, 80) if math.gcd(n, m1 * m2) == 1]
        rng = random.Random(30)
        large = [Singularity(MAX_MULTIPLICITY, MAX_MULTIPLICITY - 1, MAX_MULTIPLICITY + 1)]
        while len(large) < 300:
            m1, m2 = (round(MAX_MULTIPLICITY ** rng.random() ** 3) for _ in range(2))
            n = rng.randint(2, 10**9)
            if math.gcd(n, m1 * m2) == 1:
                large.append(Singularity(m1, m2, n))
        assert len(small) > 5000 and sum(max(s.m1, s.m2) > 10**4 for s in large) > 25
        for sing in small + large:
            assert singularity_trace(sing) == block_route(sing), sing

    def test_huge_degree_matches_closed_form_shape(self):
        # far beyond any dense buffer: O(m1 + m2) terms, residue-class coefficients
        n = 10**12 + 9
        a3, a4 = mod_inverse(3, n), mod_inverse(4, n)
        small = 13  # same class as n mod lcm(3, 4) = 12
        assert n % 12 == small % 12
        got = singularity_trace(Singularity(3, 4, n))
        want = closed_form_coefficients(resolve(Singularity(3, 4, small)))
        first, second, m = want
        expected = {}
        for k, c in enumerate(first):
            expected[(a4 * k) % n] = expected.get((a4 * k) % n, 0) + c
        for k, c in enumerate(second):
            expected[(a3 * k) % n] = expected.get((a3 * k) % n, 0) + c
        expected[0] -= m
        assert got == G(n, expected)


class TestOracle:
    @pytest.mark.parametrize(
        "m1,m2,n",
        [(1, 3, 7), (2, 3, 13), (3, 4, 13), (5, 5, 7), (2, 5, 9), (4, 5, 11)],
    )
    def test_matches_polynomial_evaluation(self, m1, m2, n):
        res = resolve(Singularity(m1, m2, n))
        tp = trace_polynomial(res)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1][:3]
        for power in units:
            assert trace_oracle(res, power) == tp.evaluate(power), (m1, m2, n, power)

    def test_known_value(self):
        res = resolve(Singularity(1, 3, 7))
        assert trace_oracle(res, 1) == G(7, {0: 1}).evaluate(1)

    def test_rejects_nonprimitive_power(self):
        res = resolve(Singularity(2, 5, 9))
        with pytest.raises(BadInput):
            trace_oracle(res, 3)

    def test_random_sample(self):
        rng = random.Random(7)
        for _ in range(25):
            m1 = rng.randrange(1, 6)
            m2 = rng.randrange(1, 6)
            n = rng.randrange(2, 40)
            if math.gcd(n, m1) != 1 or math.gcd(n, m2) != 1:
                continue
            res = resolve(Singularity(m1, m2, n))
            power = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
            assert trace_oracle(res, power) == trace_polynomial(res).evaluate(power)

    def test_oracle_cell_bound(self, monkeypatch):
        # (3, 4, 13) has a chain of L = 3 curves: (L + 1) * 13^2 = 676 cells
        res = resolve(Singularity(3, 4, 13))
        monkeypatch.setattr(singtrace, "MAX_ORACLE_CELLS", 676)
        assert trace_oracle(res, 1) == trace_polynomial(res).evaluate(1)
        monkeypatch.setattr(singtrace, "MAX_ORACLE_CELLS", 675)
        with pytest.raises(BadInput, match="touch 676 cells, more than MAX_ORACLE_CELLS = 675"):
            trace_oracle(res, 1)

    def test_oracle_bound_admits_every_tested_degree(self):
        # (1, 1, n) has the longest chain at degree n, n - 1 curves
        assert 150**3 <= singtrace.MAX_ORACLE_CELLS
        res = resolve(Singularity(1, 1, 1000))
        start = time.perf_counter()
        with pytest.raises(BadInput, match="MAX_ORACLE_CELLS = 10000000"):
            trace_oracle(res, 1)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("m1,m2,n", [(1, 1, 214), (1, 1, 215), (1, 2144, 2145)])
    def test_slowest_admitted_shapes(self, m1, m2, n):
        # the longest chains, 213 and 214 curves, take 0.017-0.029 s at
        # three powers on a 2-vCPU Xeon VM: one product per pair of middle
        # nodes, 107 of them
        budget = {214: 0.1, 215: 0.1}.get(n)
        res = resolve(Singularity(m1, m2, n))
        assert (res.length + 1) * n * n <= singtrace.MAX_ORACLE_CELLS
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        value = trace_polynomial(res)
        spent = 0.0
        for power in units[:2] + units[-1:]:
            start = time.perf_counter()
            got = trace_oracle(res, power)
            spent += time.perf_counter() - start
            assert got == value.evaluate(power), power
        assert budget is None or spent < budget, spent

    def test_large_end_multiplicities_fill_the_slots(self, monkeypatch):
        # with mu_1 and mu_L in the thousands the end terms dominate the
        # slot bound: the largest final coefficient needs every bit of its
        # slot but the sign in some samples, and fewer than 8 bits less in
        # most, where a slot one byte narrower would not hold it.  The
        # closed form is the reference: mu_0 * mu_1 is past the node sum's
        # bound
        headroom = []

        def unpack(value, count, width):
            coeffs = exactalg._unpack(value, count, width)
            headroom.append(8 * width - 1 - max(map(abs, coeffs)).bit_length())
            return coeffs

        monkeypatch.setattr(singtrace, "_unpack", unpack)
        rng = random.Random(10)
        checked = 0
        while checked < 30:
            m1, m2, n = rng.randrange(1, 10**4), rng.randrange(1, 10**4), rng.randrange(2, 200)
            if math.gcd(n, m1 * m2) != 1:
                continue
            res = resolve(Singularity(m1, m2, n))
            if (res.length + 1) * n * n > singtrace.MAX_ORACLE_CELLS:
                continue
            power = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
            want = singularity_trace(res.sing).evaluate(power)
            assert trace_oracle(res, power) == want, (m1, m2, n, power)
            checked += 1
        assert min(headroom) == 0 and sum(h < 8 for h in headroom) > 20, headroom

    def test_one_reduction_and_no_field_arithmetic(self, monkeypatch):
        # (3, 4, 13) has L = 3: two end nodes and two middle nodes; the field
        # has no sum or product, so the one reduction is all its arithmetic
        assert not hasattr(CyclotomicNumber, "__add__")
        assert not hasattr(CyclotomicNumber, "__mul__")
        calls = []
        from_poly = CyclotomicNumber.from_poly.__func__

        def counting(cls, *args):
            calls.append(args[0])
            return from_poly(cls, *args)

        monkeypatch.setattr(CyclotomicNumber, "from_poly", classmethod(counting))
        res = resolve(Singularity(3, 4, 13))
        value = trace_oracle(res, 2)
        assert calls == [13]
        monkeypatch.undo()
        assert value == trace_polynomial(res).evaluate(2)

    @pytest.mark.parametrize("m1,m2,n,length", [(1, 1, 2, 1), (1, 1, 3, 2), (3, 4, 13, 3),
                                                (1, 1, 5, 4), (1, 1, 117, 116)])
    def test_one_product_per_pair_of_middle_nodes(self, monkeypatch, m1, m2, n, length):
        # every packed numerator, and every value made from one, is a Packed;
        # a product of two Packed is a product of two n-slot integers, and
        # the chain's L - 1 middle nodes make one per pair
        products = []

        class Packed(int):
            def __mul__(self, other):
                if isinstance(other, Packed):
                    products.append(1)
                return Packed(int.__mul__(self, other))

            __rmul__ = __mul__

        def keep(op):
            return lambda self, *other: Packed(op(self, *other))

        for name in ("add", "radd", "sub", "rsub", "and", "rand", "lshift", "rshift", "mod",
                     "neg"):
            setattr(Packed, f"__{name}__", keep(getattr(int, f"__{name}__")))

        def packed(n, width):
            numerator = exactalg.packed_inverse_numerators(n, width)
            return lambda c: Packed(numerator(c))

        monkeypatch.setattr(singtrace, "packed_inverse_numerators", packed)
        res = resolve(Singularity(m1, m2, n))
        assert res.length == length
        value = trace_oracle(res, 1)
        assert len(products) == length // 2, len(products)  # ceil((L - 1) / 2)
        monkeypatch.undo()
        assert value == trace_polynomial(res).evaluate(1)

    def test_matches_the_per_node_loop(self, monkeypatch):
        # the pairing against the loop of one product per middle node and
        # against the node sum: chains of 0 to 3 and more middle nodes,
        # composite n with nodes whose c_l is not a unit, and widths up to
        # 5 bytes, the widest that a random search over admissible triples
        # with multiplicities up to 10^5 found (end multiplicities near 10^5
        # force a short chain at large n).  Both loops hand _unpack the same
        # element of Z[x]/(x^n - 1), packed in slots of the same width.
        # Past the node sum's bound the closed form is the reference
        handed = []

        def unpack(value, count, width):
            handed.append((value, count, width))
            return exactalg._unpack(value, count, width)

        def check(res, power):
            del handed[:]
            got = trace_oracle(res, power)
            assert got == per_node_oracle(res, power), (res.sing, power)
            assert len(handed) == 2 and handed[0] == handed[1], (res.sing, power)
            return got

        def nodes(res, power):
            # (g_l, a_l) of the middle nodes
            unit, rs, mu, n = power * res.alpha1, res.rseq, res.mu, res.n
            return [(math.gcd(unit * rs[l + 1], n),
                     unit * (rs[l] * mu[l + 1] - rs[l + 1] * mu[l]) % n)
                    for l in range(1, res.length)]

        monkeypatch.setattr(singtrace, "_unpack", unpack)
        monkeypatch.setattr(reference, "_unpack", unpack)
        rng = random.Random(23)
        middle, width, non_units, cases = set(), set(), 0, 0
        for top_m, top_n, count in ((12, 150, 300), (10**5, 200, 12)):
            for _ in range(count):
                n = rng.randrange(2, top_n)
                m1, m2 = rng.randrange(1, top_m + 1), rng.randrange(1, top_m + 1)
                if math.gcd(n, m1 * m2) != 1:
                    continue
                res = resolve(Singularity(m1, m2, n))
                if (res.length + 1) * n * n > singtrace.MAX_ORACLE_CELLS:
                    continue
                try:
                    value = trace_polynomial(res)
                except BadInput:
                    value = singularity_trace(res.sing)
                units = [u for u in range(1, n) if math.gcd(u, n) == 1]
                for power in {units[0], units[-1], rng.choice(units)}:
                    assert check(res, power) == value.evaluate(power), (m1, m2, n, power)
                    # r_{l-1} mu_{l+1} - r_l mu_l = m1 (mod n) along a chain,
                    # so every a_l is the unit power and no g_l > 1 divides it
                    assert all(a == power % n for _, a in nodes(res, power))
                    non_units += sum(g > 1 for g, _ in nodes(res, power))
                    middle.add(min(res.length - 1, 4))
                    width.add(handed[0][2])
                    cases += 1
        assert middle == {0, 1, 2, 3, 4} and width == {1, 2, 3, 4, 5}, (middle, width)
        assert non_units > 1000 and cases > 400, (non_units, cases)
        # degrees with many small factors give many middle nodes with
        # g_l > 1, each with its J_g term, and several g_l in one chain
        shared = [0, 0]
        for _ in range(300):
            n = rng.choice([12, 30, 45, 60, 84, 90, 105, 120])
            m1, m2 = rng.choices([u for u in range(1, 3 * n) if math.gcd(u, n) == 1], k=2)
            res = resolve(Singularity(m1, m2, n))
            if res.length < 3:
                continue
            power = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
            check(res, power)
            factors = {g for g, _ in nodes(res, power) if g > 1}
            shared[0] += len(factors)
            shared[1] += len(factors) > 1
        assert shared[0] > 500 and shared[1] > 120, shared

    def test_full_coprime_sweep(self):
        # every coprime pair up to 6, every admissible degree up to 60,
        # two primitive powers each; stability not required
        cases = 0
        for m1 in range(1, 7):
            for m2 in range(1, 7):
                if math.gcd(m1, m2) != 1:
                    continue
                for n in range(2, 61):
                    if math.gcd(n, m1 * m2) != 1:
                        continue
                    res = resolve(Singularity(m1, m2, n))
                    value = trace_polynomial(res)
                    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
                    for power in units[:1] + units[-1:]:
                        assert trace_oracle(res, power) == value.evaluate(power)
                        cases += 1
        assert cases > 1200


def vertex_block_at(mult, genus, self_int, n):
    """The reference route's vertex block at degree n."""
    m, coeffs = vertex_block(mult, genus, self_int)
    return at_degree(block_sum([(m, coeffs)], m), m, n)


class TestVertexTrace:
    def test_multiplicity_three(self):
        n = 13
        a3 = mod_inverse(3, n)
        want = G(n, {0: -2, a3: -1})
        assert vertex_term(3, 0, -1, n) == vertex_block_at(3, 0, -1, n) == want

    def test_multiplicity_four(self):
        n = 13
        a4 = mod_inverse(4, n)
        want = G(n, {0: -7, a4: -5, (2 * a4) % n: -3, (3 * a4) % n: -1})
        assert vertex_term(4, 0, -2, n) == vertex_block_at(4, 0, -2, n) == want

    def test_elliptic_component_is_silent(self):
        assert vertex_term(1, 1, 0, 11) == vertex_block_at(1, 1, 0, 11) == GroupRingElement(11)
