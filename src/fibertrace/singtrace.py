"""Brauer traces of the cyclic action on the cohomology of resolution
chains, computed three independent ways.

``trace_polynomial`` assembles the denominator-free node-by-node sums and
is valid for every admissible degree.  ``trace_closed_form`` is the short
polynomial that the chain collapses to; it needs only the two outermost
multiplicities at each end of the chain, and it is the production closed
form, ``singularity_trace``, at ``res.sing``.  ``trace_oracle`` evaluates the
fixed-point rational-function form exactly in Q(zeta_n), summing its node
terms as one integer polynomial over the common denominator n^2 and
reducing it once, and is kept independent of the other two so it can
arbitrate between them.

``singularity_trace`` is the one production route: the closed form from
the chain ends alone, at every admissible degree, so its cost does not
depend on n and no chain is walked.  The node sum and the oracle are kept
off that route as test oracles.

Every trace is the image at degree n of blocks, integer coefficients on
the classes k/m of (1/m)Z/Z, under k/m -> k * m^{-1} mod n.  The closed
form has three blocks, over m2, m1 and gcd(m1, m2), and
``singularity_trace`` maps each class as it writes it.
"""

from __future__ import annotations

import itertools
import math

from .arith import ceil_div, mod_inverse
from .errors import BadInput
from .exactalg import CyclotomicNumber, GroupRingElement, _unpack, packed_inverse_numerators
from .resolution import ResolutionData, Singularity, chain_ends

# Most cells the node sum may allocate and touch (about 1.2 s on a 2-vCPU Xeon
# VM).  Its work grows as n plus the cube of the branch multiplicities, so
# large inputs would otherwise run for hours.  No production route calls it.
MAX_NODE_SUM_CELLS = 10**7

# Most cells the cyclotomic oracle may touch, counted as (L + 1) * n^2 for a
# chain of L curves at degree n: L + 1 node terms of up to n^2 cells each.
# The oracle makes one big-integer product of n-slot integers per pair of
# middle nodes, keeps its sum modulo 2^(8 * width * n) - 1, and reduces the
# n-slot result modulo Phi_n once: one update per nonzero term of Phi_n
# below its leading one in each of h - phi(n) steps, at most (h/2)^2
# updates with h = n for odd n and n/2 for even n (see exactalg).  Near the
# bound the slowest shape found, (1, 2144, 2145), takes 0.07-0.10 s per
# power in a fresh interpreter on a 2-vCPU Xeon VM, most of it the
# 1185 * 808 updates of that reduction; building Phi_2145, cached per n,
# takes about 1 ms of it.  At three powers it raises the interpreter's peak
# RSS from 14.9 MB to 24.0 MB, mostly the gather that packs a numerator
# (exactalg): m * min(u, m - u) items of the slot's native size, here up to
# 2145 * 1072 items of 4 bytes.  (1, 1, 214) and (1, 1, 215), the longest
# chains, take 0.005-0.008 s per power, 107 products each; n <= 150 needs
# at most 150^3 cells.  No production route calls it.
MAX_ORACLE_CELLS = 10**7

__all__ = [
    "singularity_trace",
    "trace_polynomial",
    "trace_closed_form",
    "trace_oracle",
]


def trace_polynomial(res: ResolutionData) -> GroupRingElement:
    """Trace of the chain action as an element of Z[Z/n], one polynomial
    serving every n-th root of unity.

    Sums the per-node products of geometric series together with the
    combined correction terms; all exponents are residues of
    alpha1 * (integer combination of the r_l) mod n.  Raises BadInput when
    the sum would touch more than MAX_NODE_SUM_CELLS cells.
    """
    n = res.n
    a1 = res.alpha1
    mu = res.mu
    b = res.b
    L = res.length
    rs = res.rseq  # r_{l-1} = rs[l]
    # the buffer, the node products and the correction counts below
    cells = n + sum(mu[l] * mu[l + 1] for l in range(L + 1))
    cells += sum(b[l] * mu[l + 1] * (mu[l + 1] + 1) // 2 - mu[l + 1] for l in range(L))
    if cells > MAX_NODE_SUM_CELLS:
        raise BadInput(
            f"({res.sing.m1},{res.sing.m2},{n}): the node sum would touch {cells} cells, "
            f"more than MAX_NODE_SUM_CELLS = {MAX_NODE_SUM_CELLS}"
        )
    buf = [0] * n

    # products of geometric sums, one per node y_0..y_L: the factor in
    # xi^(-a1 r_l) has mu_l terms, the one in xi^(a1 r_{l-1}) mu_{l+1}; the
    # smaller factor is expanded term by term against the other
    for l in range(L + 1):
        outer, outer_step = mu[l], -a1 * rs[l + 1] % n
        inner, inner_step = mu[l + 1], a1 * rs[l] % n
        if outer > inner:
            outer, outer_step, inner, inner_step = inner, inner_step, outer, outer_step
        base = 0
        for _ in range(outer):
            e = base
            for _ in range(inner):
                buf[e] += 1
                e += inner_step
                if e >= n:
                    e -= n
            base = (base + outer_step) % n

    # combined correction terms, one per exceptional component: for each k,
    # b_l (mu_{l+1} - k) - 1 terms of the progression in xi^(a1 r_l)
    for l in range(L):
        r_prev, r_l, nu = rs[l], rs[l + 1], mu[l + 1]
        head = -r_l * (mu[l] - 1)
        step = a1 * r_l % n
        for k in range(nu):
            e = a1 * (r_prev * k + head) % n
            for _ in range(b[l] * (nu - k) - 1):
                buf[e] -= 1
                e += step
                if e >= n:
                    e -= n

    return GroupRingElement(n, enumerate(buf))


def trace_closed_form(res: ResolutionData) -> GroupRingElement:
    """Closed-form trace polynomial from the chain's outermost
    multiplicities; O(m1 + m2) terms whatever n is.  It is the production
    route at ``res.sing``, so it does not read the walked chain."""
    return singularity_trace(res.sing)


def singularity_trace(sing: Singularity) -> GroupRingElement:
    """Trace of the chain over one singularity, by the production route:
    the closed form from the chain ends mu_1 and mu_L, which ``chain_ends``
    gives in O(log n), so the chain is never walked.  It holds for every
    chain, stable or not.  Its three blocks are written straight into
    Z[Z/n], the class k/m going to x^(k * m^{-1} mod n): mu_1 -
    ceil(k mu_1 / m2) for k < m2, mu_L - ceil(k mu_L / m1) for k < m1, and
    -1 for k < gcd(m1, m2)."""
    m1, m2, n = sing
    mu1, mu_last = chain_ends(sing)
    a1, a2 = mod_inverse(m1, n), mod_inverse(m2, n)
    m = math.gcd(m1, m2)
    am = mod_inverse(m, n)
    return GroupRingElement(n, itertools.chain(
        ((k * a2, mu1 - ceil_div(k * mu1, m2)) for k in range(m2)),
        ((k * a1, mu_last - ceil_div(k * mu_last, m1)) for k in range(m1)),
        ((k * am, -1) for k in range(m)),
    ))


def trace_oracle(res: ResolutionData, power: int) -> CyclotomicNumber:
    """Fixed-point evaluation of the trace at zeta_n^power, exactly in
    Q(zeta_n).  Requires gcd(power, n) = 1 so that no denominator
    vanishes, and a chain as ``resolve`` makes it.  Raises BadInput when the evaluation would touch more than
    MAX_ORACLE_CELLS cells.

    The node terms are mu_1 / (1 - chi(-r_0)) and mu_L / (1 - chi(r_{L-1}))
    at the two ends and (1 - chi(D_l)) / ((1 - chi(r_{l-1})) (1 - chi(-r_l)))
    in between, D_l = r_{l-1} mu_{l+1} - r_l mu_l and chi(e) =
    zeta_n^(power * alpha1 * e).  D_l is the same at every node: as
    r_{l-2} + r_l = b_l r_{l-1} (``jh_expand``) and mu_{l+1} + mu_{l-1} =
    b_l mu_l, D_l - D_{l-1} = r_{l-1} (mu_{l+1} + mu_{l-1}) - mu_l (r_l +
    r_{l-2}) = 0, and D_0 = n mu_1 - r m2 = m1.  So chi(D_l) = zeta_n^power,
    alpha1 being the inverse of m1 mod n.  Over the common denominator n^2
    each node term is an integer polynomial in zeta_n built from the
    numerators N(c) of n / (1 - zeta_n^c) (``packed_inverse_numerators``).
    With c_l = power * alpha1 * r_l, U_l = N(c_l) and R = 1 - x^power, the
    ends are mu_1 n N(-c_0) and mu_L n U_{L-1}, and middle node l is
    R U_{l-1} N(-c_l).  As N(-c) = n - N(c) - g(n+2) J_g, g = gcd(c, n)
    and J_g = sum_{e < n/g} x^(g e), the middle nodes sum to R times

        n sum U_{l-1} - sum g_l (n+2) U_{l-1} J_(g_l) - sum U_{l-1} U_l,

    and the last sum, taken over pairs of neighbours sharing U_l, is a sum
    of U_l (U_{l-1} + U_{l+1}): one big-integer product per pair of middle
    nodes.  The J_g sum needs none: R J_g = 0 when g_l = 1, and no g_l > 1
    divides power, a unit mod n; y J_g depends only on y modulo x^g - 1,
    that is on the coset sums of y.  R multiplies the middle sum once.

    The whole sum is kept as one Kronecker integer of n slots of s bits.
    Packing is evaluation at x = 2^s, which maps x^n - 1 to M = 2^(s n) - 1,
    so every step, rotations and products included, is a congruence modulo
    M, and slots in between may be negative or overflow.  The final
    polynomial is the same whatever the order of the steps, and its
    coefficients are below 2^(s-1), so the symmetric residue modulo M,
    taken once at the end, is exactly its packed form; it is reduced
    modulo Phi_n once."""
    n = res.n
    if math.gcd(power, n) != 1:
        raise BadInput(f"power {power} must be coprime to {n}")
    mu = res.mu
    L = res.length
    cells = (L + 1) * n * n
    if cells > MAX_ORACLE_CELLS:
        raise BadInput(
            f"({res.sing.m1},{res.sing.m2},{n}): the oracle would touch {cells} cells, "
            f"more than MAX_ORACLE_CELLS = {MAX_ORACLE_CELLS}"
        )
    unit = power * res.alpha1

    # Every N(c) has coefficients in [-M(c), 0] with M(c) = n(g+1)/2,
    # g = gcd(c, n), summing to -S, S = n(n+1)/2 (packed_inverse_numerators).
    # So a middle node's R_l N(c1) N(c2), folded modulo x^n - 1, is the
    # difference of two polynomials with coefficients in
    # [0, min(M(c1), M(c2)) * S] and lies within that bound too; an end
    # node's mu * n * N(c) lies within mu * n * M(c).  The final polynomial
    # is their sum, however it is computed, so each final coefficient has
    # absolute value at most the sum of the node bounds, below 2^k for
    # k = bound.bit_length(), and a slot of k + 1 bits, rounded up to whole
    # bytes, holds it signed.  The end nodes alone make the bound at least
    # n^2 >= M(c), so each N(c) fits its slots too.  Every n(g+1) is even,
    # since g divides n, so the bound is halved once, exactly, at the end.
    # The width stays at or below 7 bytes, within the 8 that
    # packed_inverse_numerators takes: every chain has L >= 1, so
    # (L + 1) n^2 <= MAX_ORACLE_CELLS gives n <= 2236; every g + 1 <= n, as
    # g <= n/2 for c != 0; mu_1 = (m1 + r m2)/n and mu_L, weighted means of
    # m1 and m2, are at most MAX_MULTIPLICITY = 10^5.  So the bound is at
    # most 10^5 n^3 + (L - 1) n^3 (n + 1)/4 <= 10^5 n^3 + MAX_ORACLE_CELLS
    # n (n + 1)/4 < 2^51, and k + 1 <= 52 bits take 7 bytes.
    rs = res.rseq  # r_{l-1} = rs[l]
    # c_l and g_l for l = 0..L-1, and the sum of min(g_{l-1}, g_l) + 1 that
    # makes the middle nodes' bound
    cs = [unit * x % n for x in rs[1:L + 1]]
    gs = [math.gcd(c, n) for c in cs]
    gsum = sum(map(min, gs, gs[1:])) + L - 1
    ends = mu[1] * (gs[0] + 1) + mu[L] * (gs[-1] + 1)
    bound = n * (n * ends + n * (n + 1) // 2 * gsum) // 2
    width = (bound.bit_length() + 8) // 8
    shift = 8 * width
    size = shift * n
    mask = (1 << size) - 1  # M

    numerator = packed_inverse_numerators(n, width)
    us = [numerator(c) for c in cs]
    middle = n * sum(us[:L - 1])  # the middle sum before R
    for l in range(1, L, 2):
        middle -= us[l] * (us[l - 1] + us[l + 1] if l + 1 < L else us[l - 1])
    cosets: dict[int, int] = {}  # g -> sum of the U_{l-1} with g_l = g > 1
    for y, g in zip(us, gs[1:]):
        if g > 1:
            cosets[g] = cosets.get(g, 0) + y
    for g, y in cosets.items():
        # y modulo 2^(s g) - 1 is y's coset sums modulo x^g - 1, and J_g
        # times it is that residue repeated n/g times
        y %= (1 << shift * g) - 1
        middle -= g * (n + 2) * int.from_bytes(y.to_bytes(width * g, "little") * (n // g), "little")
    # R y modulo M, for every integer y: x^a y is y shifted up a slots, the
    # part past slot n wrapped to the bottom; the products have up to 2n
    # slots, so fold them first
    middle = (middle & mask) + (middle >> size)
    a = power % n
    acc = middle - ((middle << shift * a) & mask) - (middle >> shift * (n - a))
    acc += n * (mu[1] * numerator(-cs[0]) + mu[L] * us[-1])
    acc %= mask  # the symmetric residue
    if acc > mask >> 1:
        acc -= mask
    return CyclotomicNumber.from_poly(n, _unpack(acc, n, width), n * n)
