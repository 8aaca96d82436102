"""Integer utilities and the Jung-Hirzebruch continued-fraction expansion,
returned as the plain pair (b, rseq) that ``resolution.ResolutionData`` holds.

Everything here is exact integer arithmetic; no floats appear anywhere in
this package.
"""

from __future__ import annotations

import math

from .errors import BadInput, NotInvertible, int_text

# Longest chain jh_expand will walk: (1, 1, n) alone has n - 1 curves, so
# without a bound a huge degree would take minutes and gigabytes to fail.
MAX_CHAIN_LENGTH = 10**6


def mod_inverse(a: int, n: int) -> int:
    """Return the inverse of a modulo n, normalized into [1, n-1]."""
    if n < 2:
        raise BadInput(f"modulus must be >= 2, got {int_text(n)}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertible(f"{int_text(a)} is not invertible modulo {int_text(n)}") from None


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for b > 0."""
    return -((-a) // b)


def jh_expand(n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Jung-Hirzebruch expansion n/r = [b_1, ..., b_L] as the pair
    (b, rseq), with r_{l-1} = b_{l+1} r_l - r_{l+1}.

    ``rseq`` holds r_{-1} = n, r_0 = r, ..., r_{L-1} = 1, r_L = 0, so
    ``rseq[l + 1]`` is r_l.  Every partial quotient b_l is >= 2 and the
    r-sequence is strictly decreasing.

    Requires 0 < r < n and gcd(r, n) = 1.  Each step takes
    b = ceil(previous/current) and continues with b*current - previous;
    the sequence ends at 1, 0 after at most n - 1 steps.  Raises BadInput
    once the chain has more than MAX_CHAIN_LENGTH curves.
    """
    if not 0 < r < n:
        raise BadInput(f"need 0 < r < n, got r={int_text(r)}, n={int_text(n)}")
    if math.gcd(r, n) != 1:
        raise BadInput(f"need gcd(r, n) = 1, got r={int_text(r)}, n={int_text(n)}")
    b: list[int] = []
    rseq = [n, r]
    prev, cur = n, r
    while cur > 0:
        if len(b) == MAX_CHAIN_LENGTH:
            raise BadInput(
                f"the chain of {int_text(n)}/{int_text(r)} has more than "
                f"MAX_CHAIN_LENGTH = {MAX_CHAIN_LENGTH} curves"
            )
        q = ceil_div(prev, cur)
        b.append(q)
        prev, cur = cur, q * cur - prev
        rseq.append(cur)
    return tuple(b), tuple(rseq)
