import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fibertrace import arith
from fibertrace.arith import ceil_div, jh_expand, mod_inverse
from fibertrace.errors import BadInput, NotInvertible


def brute_inverse(a, n):
    for x in range(1, n):
        if (a * x) % n == 1:
            return x
    return None


def test_mod_inverse_examples():
    # expected values frozen from the exhaustive-search oracle
    assert brute_inverse(3, 13) == 9
    assert mod_inverse(3, 13) == 9
    assert brute_inverse(4, 13) == 10
    assert mod_inverse(4, 13) == 10
    assert mod_inverse(1, 17) == 1


def test_mod_inverse_refuses_a_modulus_below_2():
    for a, n in ((3, 1), (1, 0), (3, -7)):
        with pytest.raises(BadInput, match=f"^modulus must be >= 2, got {n}$"):
            mod_inverse(a, n)


@given(st.integers(min_value=2, max_value=200), st.integers(min_value=-500, max_value=500))
def test_mod_inverse_matches_search(n, a):
    if math.gcd(a, n) == 1:
        assert mod_inverse(a, n) == brute_inverse(a % n, n)
    else:
        with pytest.raises(NotInvertible):
            mod_inverse(a, n)


def test_ceil_div():
    assert ceil_div(7, 3) == 3
    assert ceil_div(6, 3) == 2
    assert ceil_div(0, 5) == 0
    assert ceil_div(-1, 5) == 0


def test_jh_examples():
    b, rseq = jh_expand(7, 3)
    assert b == (3, 2, 2)
    assert rseq == (7, 3, 2, 1, 0)
    assert len(b) == 3
    b, rseq = jh_expand(13, 9)
    assert b == (2, 2, 5)
    assert rseq == (13, 9, 5, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_jh_all_twos_chain(n):
    b, _ = jh_expand(n, n - 1)
    assert b == (2,) * (n - 1)


def test_jh_rejects_bad_input():
    with pytest.raises(BadInput):
        jh_expand(7, 0)
    with pytest.raises(BadInput):
        jh_expand(7, 7)
    with pytest.raises(BadInput):
        jh_expand(9, 6)


def test_jh_chain_length_bound(monkeypatch):
    # n/(n-1) has n - 1 curves: a chain of exactly the bound is walked, one
    # more curve raises
    monkeypatch.setattr(arith, "MAX_CHAIN_LENGTH", 5)
    b, _ = jh_expand(6, 5)
    assert len(b) == 5
    with pytest.raises(BadInput, match="MAX_CHAIN_LENGTH = 5"):
        jh_expand(7, 6)


def continued_fraction_value(b):
    """Independent oracle: [b_1, ..., b_L] = b_1 - 1/(b_2 - 1/(...))."""
    value = Fraction(b[-1])
    for q in reversed(b[:-1]):
        value = q - 1 / value
    return value


@st.composite
def coprime_pair(draw):
    n = draw(st.integers(min_value=2, max_value=300))
    r = draw(st.integers(min_value=1, max_value=n - 1))
    return n, r


@given(coprime_pair())
def test_jh_invariants(pair):
    n, r = pair
    if math.gcd(n, r) != 1:
        with pytest.raises(BadInput):
            jh_expand(n, r)
        return
    b, rseq = jh_expand(n, r)
    L = len(b)
    # recurrence r_{l-1} = b_{l+1} r_l - r_{l+1} everywhere
    for l in range(0, L):
        assert rseq[l] == b[l] * rseq[l + 1] - rseq[l + 2]
    # partial quotients are the stated ceilings, all >= 2
    for l in range(1, L + 1):
        assert b[l - 1] == ceil_div(rseq[l - 1], rseq[l]) >= 2
    # strictly decreasing, ending 1, 0
    assert all(x > y for x, y in zip(rseq, rseq[1:]))
    assert rseq[-2:] == (1, 0)
    # the expansion really evaluates to n/r
    assert continued_fraction_value(b) == Fraction(n, r)
    # length bound, attained exactly at r = n - 1
    assert L <= n - 1
    assert (L == n - 1) == (r == n - 1)
