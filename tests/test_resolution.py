import math

import pytest
from hypothesis import given, settings, strategies as st

from fibertrace import resolution
from fibertrace.arith import jh_expand
from fibertrace.errors import BadInput
from fibertrace.resolution import Singularity, chain_ends, is_stable, resolve
from reference import universal_polys


def brute_r(m1, m2, n):
    """Independent oracle: linear search for 0 < r < n with m1 + r m2 = 0 mod n."""
    hits = [r for r in range(1, n) if (m1 + r * m2) % n == 0]
    assert len(hits) == 1
    return hits[0]


def large_degree(sing):
    """n * gcd(m1, m2) >= lcm(m1, m2): from this degree on the chain is
    stable and its ends depend on n only through n mod lcm(m1, m2)."""
    g = math.gcd(sing.m1, sing.m2)
    return sing.n * g >= sing.m1 * sing.m2 // g


def admissible_triples(max_m, max_n):
    for m1 in range(1, max_m + 1):
        for m2 in range(1, max_m + 1):
            for n in range(2, max_n + 1):
                if math.gcd(n, m1) == 1 and math.gcd(n, m2) == 1:
                    yield m1, m2, n


def test_resolve_examples():
    res = resolve(Singularity(1, 3, 7))
    assert res.r == brute_r(1, 3, 7) == 2
    assert res.b == (4, 2)
    assert res.mu == (3, 1, 1, 1)
    assert res.length == 2

    res = resolve(Singularity(3, 4, 13))
    assert res.r == brute_r(3, 4, 13) == 9
    assert res.b == (2, 2, 5)
    assert res.mu == (4, 3, 2, 1, 3)
    assert res.mu[-1] == 3  # endpoint is m1


@pytest.mark.parametrize("n", [2, 3, 7, 11, 101])
def test_equal_branches_forces_flat_chain(n):
    res = resolve(Singularity(5, 5, n))
    assert all(mu == 5 for mu in res.mu)


def test_singularity_validation():
    with pytest.raises(BadInput):
        Singularity(2, 3, 4)  # gcd(4, 2) = 2
    with pytest.raises(BadInput):
        Singularity(1, 1, 1)  # n < 2
    with pytest.raises(BadInput):
        Singularity(0, 1, 5)


def test_multiplicity_bound(monkeypatch):
    monkeypatch.setattr(resolution, "MAX_MULTIPLICITY", 7)
    assert Singularity(7, 7, 2) and Singularity(7, 1, 3)
    for m1, m2 in ((8, 1), (1, 8)):
        with pytest.raises(BadInput, match=rf"\({m1}, {m2}\) exceed MAX_MULTIPLICITY = 7"):
            Singularity(m1, m2, 3)


def test_resolution_invariants_sweep():
    """All chain invariants over the full small sweep."""
    checked = 0
    for m1, m2, n in admissible_triples(8, 200):
        res = resolve(Singularity(m1, m2, n))
        mu, L, m = res.mu, res.length, res.m
        # defining identity of the first multiplicity
        assert m1 + res.r * m2 == n * mu[1]
        # chain recurrence
        for l in range(1, L + 1):
            assert mu[l + 1] == res.b[l - 1] * mu[l] - mu[l - 1]
        # gcd divides every multiplicity
        assert all(x % m == 0 for x in mu)
        # no interior weak maximum
        for l in range(1, L + 1):
            assert not (mu[l - 1] < mu[l] and mu[l + 1] <= mu[l])
            assert not (mu[l - 1] <= mu[l] and mu[l + 1] < mu[l])
        # equal branches force a flat chain
        if m1 == m2:
            assert all(x == m1 for x in mu)
        # first exceptional multiplicity is small on the heavy side
        if m2 > m1:
            assert mu[1] < m2
        # universal polynomials track the r-sequence
        p = universal_polys(res)
        for l in range(-1, L + 1):
            assert (p[l + 1] * res.r - res.rseq[l + 1]) % n == 0
        # cross-term identity linking both ends of the chain
        for l in range(L + 1):
            assert mu[l + 1] * res.rseq[l] - mu[l] * res.rseq[l + 1] == m1
        checked += 1
    assert checked > 5000


def test_chain_ends_and_stability_gate_exhaustive():
    """Every admissible triple with m1, m2 <= 12 and n < 300: the O(log n)
    chain ends equal the ends of the walked chain, and a large degree
    implies the walked chain is stable."""
    checked = large = 0
    for m1, m2, n in admissible_triples(12, 299):
        sing = Singularity(m1, m2, n)
        res = resolve(sing)
        assert chain_ends(sing) == (res.mu[1], res.mu[res.length]), (m1, m2, n)
        if large_degree(sing):
            assert is_stable(res), (m1, m2, n)
            large += 1
        checked += 1
    assert checked == 19404
    assert 0 < large < checked


def test_chain_ends_depend_only_on_residue_class_above_gate():
    """Among large degrees, the chain ends depend only on n mod lcm(m1, m2):
    every admissible large-degree triple with m1, m2 <= 12 and
    n < 40 * lcm + 400.  Below, they do not: (1, 3) has ends (2, 2) at
    n = 2 but (2, 1) at n = 5."""
    assert chain_ends(Singularity(1, 3, 2)) == (2, 2)
    assert chain_ends(Singularity(1, 3, 5)) == (2, 1)
    checked = 0
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            big_m = math.lcm(m1, m2)
            by_class = {}
            for n in range(2, 40 * big_m + 400):
                if math.gcd(n, m1 * m2) != 1:
                    continue
                sing = Singularity(m1, m2, n)
                if large_degree(sing):
                    ends = chain_ends(sing)
                    assert by_class.setdefault(n % big_m, ends) == ends, (m1, m2, n)
                    checked += 1
    assert checked == 95940


def test_chain_ends_at_huge_degree():
    # no chain of length ~10^12 can be walked; the ends must still match the
    # walked chain at the smallest large degree of the same class mod lcm(m1, m2)
    n = 10**12 + 39  # prime
    for m1, m2 in [(5, 6), (3, 4), (2, 7)]:
        ends = chain_ends(Singularity(m1, m2, n))
        small = n % math.lcm(m1, m2)
        while small < 2 or not large_degree(Singularity(m1, m2, small)):
            small += math.lcm(m1, m2)
        res = resolve(Singularity(m1, m2, small))
        assert ends == (res.mu[1], res.mu[res.length]), (m1, m2, small)
        assert ends == chain_ends(Singularity(m2, m1, n))[::-1]


def test_universal_polys_examples():
    assert universal_polys(resolve(Singularity(1, 3, 7))) == [0, 1, 4, 7]      # b = [4, 2]
    res = resolve(Singularity(2, 3, 13))
    assert res.b == (2, 3, 3)
    assert universal_polys(res) == [0, 1, 2, 5, 13]
    res = resolve(Singularity(4, 1, 7))
    assert res.b == (3, 2, 2)
    assert universal_polys(res) == [0, 1, 3, 5, 7]


def test_is_stable_examples():
    assert is_stable(resolve(Singularity(3, 4, 13)))       # [4,3,2,1,3]
    assert is_stable(resolve(Singularity(5, 5, 7)))        # flat
    assert not is_stable(resolve(Singularity(3, 4, 5)))    # [4,3,2,3]: dips to 2 > gcd


def test_unstable_cases_exist_in_small_sweep():
    unstable = [
        (m1, m2, n)
        for m1, m2, n in admissible_triples(6, 40)
        if not is_stable(resolve(Singularity(m1, m2, n)))
    ]
    assert (3, 4, 5) in unstable
    assert unstable


def middle_collapsed(mu, m):
    """Chain with the maximal flat run of m's in the middle removed."""
    lo = 0
    while mu[lo] != m:
        lo += 1
    hi = len(mu) - 1
    while mu[hi] != m:
        hi -= 1
    return mu[:lo], mu[hi + 1:]


def test_residue_class_chains_agree_after_collapsing_middle():
    for m1, m2 in [(3, 4), (2, 5), (4, 6), (5, 6), (2, 3)]:
        M = math.lcm(m1, m2)
        for cls in range(1, M):
            if math.gcd(cls, M) != 1:
                continue
            stable = []
            n = cls if cls >= 2 else cls + M
            while len(stable) < 2 and n < 40 * M:
                res = resolve(Singularity(m1, m2, n))
                if is_stable(res):
                    stable.append(res)
                n += M
            assert len(stable) == 2
            a, b = stable
            assert middle_collapsed(a.mu, a.m) == middle_collapsed(b.mu, b.m)


@st.composite
def random_triple(draw):
    m1 = draw(st.integers(min_value=1, max_value=10))
    m2 = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=2, max_value=400))
    return m1, m2, n


@given(random_triple())
@settings(max_examples=150)
def test_resolve_closes_the_chain(triple):
    m1, m2, n = triple
    if math.gcd(n, m1) != 1 or math.gcd(n, m2) != 1:
        return
    res = resolve(Singularity(m1, m2, n))
    assert res.mu[0] == m2
    assert res.mu[-1] == m1
    assert res.r == brute_r(m1, m2, n)


ADMISSIBLE_TRIPLES = random_triple().filter(
    lambda t: math.gcd(t[2], t[0]) == 1 and math.gcd(t[2], t[1]) == 1)


@given(ADMISSIBLE_TRIPLES)
@settings(max_examples=150)
def test_resolution_holds_its_expansion(triple):
    # the record carries the expansion of n/r itself: b and the r-sequence
    # from n, r down to 1, 0, beside a multiplicity for every curve and both
    # branches
    m1, m2, n = triple
    res = resolve(Singularity(m1, m2, n))
    assert (res.b, res.rseq) == jh_expand(n, res.r)
    assert res.rseq[:2] == (n, res.r)
    assert res.rseq[-2:] == (1, 0)
    assert len(res.mu) == res.length + 2
    assert res._fields == ("sing", "r", "b", "rseq", "mu", "alpha1", "alpha2", "m")
