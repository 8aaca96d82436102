"""Numerical resolution data of a tame cyclic quotient singularity.

A singularity is identified with its parameters (m1, m2, n): the chain of
exceptional curves in its minimal resolution carries self-intersections
-b_l read off the continued-fraction expansion of n/r, and multiplicities
mu_0 = m2, mu_1, ..., mu_L, mu_{L+1} = m1 obeying
mu_{l+1} = b_l * mu_l - mu_{l-1}.  ``ResolutionData`` holds all of it in
one record: the expansion's b and r-sequence sit beside mu.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import jh_expand, mod_inverse
from .errors import BadInput, InvariantError, int_text

# Largest branch or vertex multiplicity accepted: the closed-form trace and
# the fiber trace build O(m1 + m2) and O(mult) terms.  `trace-sing 100000 99999
# 100001` takes 0.38-0.40 s and 43 MB max RSS on a 2-vCPU Xeon VM, the trace
# itself a 19.5 MB peak under tracemalloc; 10^8 would need tens of GB.
MAX_MULTIPLICITY = 10**5


class Singularity(NamedTuple("Singularity", [("m1", int), ("m2", int), ("n", int)])):
    """Parameters (m1, m2, n) with n >= 2 coprime to both branch
    multiplicities."""

    __slots__ = ()

    def __new__(cls, m1: int, m2: int, n: int):
        for name, value in (("m1", m1), ("m2", m2), ("n", n)):  # bool, an int, stays accepted
            if not isinstance(value, int):
                raise BadInput(f"{name} must be an integer, got {value!r}")
        if m1 < 1 or m2 < 1:
            raise BadInput(
                f"branch multiplicities must be >= 1, got ({int_text(m1)}, {int_text(m2)})"
            )
        if m1 > MAX_MULTIPLICITY or m2 > MAX_MULTIPLICITY:
            raise BadInput(
                f"branch multiplicities ({int_text(m1)}, {int_text(m2)}) exceed "
                f"MAX_MULTIPLICITY = {MAX_MULTIPLICITY}"
            )
        if n < 2:
            raise BadInput(f"extension degree must be >= 2, got {int_text(n)}")
        if math.gcd(n, m1) != 1 or math.gcd(n, m2) != 1:
            raise BadInput(
                f"degree {int_text(n)} must be coprime to both multiplicities ({m1}, {m2})"
            )
        return tuple.__new__(cls, (m1, m2, n))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both validate like the constructor
        return cls(*iterable)


class ResolutionData(NamedTuple):
    """Everything numeric about the resolution chain of one singularity,
    the expansion n/r = [b_1, ..., b_L] of ``jh_expand`` included."""

    sing: Singularity
    r: int                 # unique 0 < r < n with m1 + r*m2 = 0 (mod n)
    b: tuple[int, ...]     # b_1 .. b_L
    rseq: tuple[int, ...]  # r_{-1} = n, r_0 = r, .., r_L = 0; rseq[l + 1] is r_l
    mu: tuple[int, ...]    # mu_0 .. mu_{L+1}
    alpha1: int            # inverse of m1 mod n
    alpha2: int            # inverse of m2 mod n
    m: int                 # gcd(m1, m2)

    @property
    def n(self) -> int:
        return self.sing.n

    @property
    def length(self) -> int:
        return len(self.b)


def resolve(sing: Singularity) -> ResolutionData:
    """Compute the full resolution data of the singularity."""
    m1, m2, n = sing.m1, sing.m2, sing.n
    alpha1 = mod_inverse(m1, n)
    alpha2 = mod_inverse(m2, n)
    r = (-m1 * alpha2) % n
    b, rseq = jh_expand(n, r)
    if (m1 + r * m2) % n:
        raise InvariantError(f"({m1},{m2},{n}): n does not divide m1 + r*m2 for r={r}")
    mu = [m2, (m1 + r * m2) // n]
    for q in b:  # mu_{l+1} = b_l mu_l - mu_{l-1}
        mu.append(q * mu[-1] - mu[-2])
    if mu[-1] != m1:
        raise InvariantError(f"({m1},{m2},{n}): multiplicity chain {mu} does not end at m1")
    return ResolutionData(
        sing=sing,
        r=r,
        b=b,
        rseq=rseq,
        mu=tuple(mu),
        alpha1=alpha1,
        alpha2=alpha2,
        m=math.gcd(m1, m2),
    )


def chain_ends(sing: Singularity) -> tuple[int, int]:
    """(mu_1, mu_L), the multiplicities at both ends of the exceptional
    chain, without walking it: O(log n) instead of the O(n) of resolve.

    mu_1 = (m1 + r*m2)/n by definition of r.  Reversing the chain gives the
    chain of (m2, m1, n): its continued fraction is [b_L, ..., b_1], which
    expands n/r' with r*r' = 1 (mod n), the r of the swapped singularity,
    and it runs from m1 to m2.  So mu_L is mu_1 of (m2, m1, n).
    """
    m1, m2, n = sing.m1, sing.m2, sing.n
    r = (-m1 * mod_inverse(m2, n)) % n
    r_swapped = (-m2 * mod_inverse(m1, n)) % n
    return (m1 + r * m2) // n, (m2 + r_swapped * m1) // n


def is_stable(res: ResolutionData) -> bool:
    """True iff the multiplicity chain has reached its large-degree shape:
    strictly decreasing to m = gcd(m1, m2), flat at m, then strictly
    increasing (either monotone segment may be empty)."""
    mu = res.mu
    top = len(mu) - 1
    i = 0
    while i < top and mu[i + 1] < mu[i]:
        i += 1
    j = i
    while j < top and mu[j + 1] == mu[j]:
        j += 1
    k = j
    while k < top and mu[k + 1] > mu[k]:
        k += 1
    return k == top and mu[i] == res.m

