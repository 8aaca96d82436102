"""Reference arithmetic that only the tests use, kept out of the package."""

import math
import sys
from fractions import Fraction
from functools import lru_cache

from fibertrace import cli
from fibertrace.arith import ceil_div, mod_inverse
from fibertrace.errors import FibertraceError, NonIntegralSelfIntersection
from fibertrace.exactalg import (
    CyclotomicNumber,
    GroupRingElement,
    _unpack,
    packed_inverse_numerators,
)
from fibertrace.fiber import limit_trace, total_trace
from fibertrace.resolution import ResolutionData, Singularity, chain_ends


def universal_polys(res: ResolutionData) -> list[int]:
    """P_{-1} = 0, P_0 = 1, P_l = b_l P_{l-1} - P_{l-2}; these satisfy
    r_l = P_l * r_0 (mod n) for every l."""
    p = [0, 1]
    for b in res.b:
        p.append(b * p[-1] - p[-2])
    return p


def edge_blocks(m1: int, m2: int, mu1: int, mu_last: int) -> list[tuple[int, list[int]]]:
    """The closed-form trace of the chain over (m1, m2, n), from its ends
    mu_1 and mu_L, as three blocks (m, coeffs), each standing for
    sum_k coeffs[k] * [k/m]: over m2, over m1, and the all -1 block over
    gcd(m1, m2)."""
    m = math.gcd(m1, m2)
    return [
        (m2, [mu1 - ceil_div(k * mu1, m2) for k in range(m2)]),
        (m1, [mu_last - ceil_div(k * mu_last, m1) for k in range(m1)]),
        (m, [-1] * m),
    ]


def block_sum(blocks, lcm: int) -> dict[int, int]:
    """The sum of the blocks in Z[(1/lcm)Z/Z], every block's m dividing
    lcm: j -> c stands for c times [j/lcm], 0 <= j < lcm."""
    acc: dict[int, int] = {}
    for m, coeffs in blocks:
        step = lcm // m
        for k, c in enumerate(coeffs):
            acc[step * k] = acc.get(step * k, 0) + c
    return acc


def at_degree(terms: dict[int, int], lcm: int, n: int) -> GroupRingElement:
    """The image of a block sum at a degree n coprime to lcm: [j/lcm] goes
    to xi^(j * lcm^{-1} mod n), that is [k/m] to xi^(k * m^{-1} mod n)."""
    u = mod_inverse(lcm, n)
    return GroupRingElement(n, ((j * u, c) for j, c in terms.items()))


def closed_form_coefficients(res: ResolutionData) -> tuple[list[int], list[int], int]:
    """The three coefficient sequences of the closed-form trace, before
    any exponent mapping: coefficients over mu_0 in powers of xi^{alpha2},
    over mu_{L+1} in powers of xi^{alpha1}, and the length-m all-ones
    block that is subtracted.  Once n * gcd(m1, m2) >= lcm(m1, m2) these
    depend only on the residue class of n modulo lcm(m1, m2)."""
    (_, first), (_, second), (m, _) = edge_blocks(res.sing.m1, res.sing.m2, res.mu[1], res.mu[-2])
    return first, second, m


def vertex_term(mult: int, genus: int, self_int: int, n: int) -> GroupRingElement:
    """The trace term of a fiber component fixed pointwise, from its
    definition: sum_{k < mult} x^(k * mult^{-1} mod n) ((mult - k) C^2 + 1 -
    genus) in Z[Z/n], C^2 the self-intersection, summed in a dense buffer."""
    buf = [0] * n
    step = mod_inverse(mult, n)
    for k in range(mult):
        buf[k * step % n] += (mult - k) * self_int + 1 - genus
    return GroupRingElement(n, enumerate(buf))


def vertex_block(mult: int, genus: int, self_int: int) -> tuple[int, list[int]]:
    """Trace contribution of one fiber component fixed pointwise by the
    action, as the block over mult with coefficient
    (mult - k) * C^2 + 1 - genus at k/mult."""
    return mult, [(mult - k) * self_int + 1 - genus for k in range(mult)]


def per_edge_trace(g, n: int) -> tuple[dict[str, int], dict[int, int]]:
    """The total trace at degree n by the per-edge block route: one
    Singularity (m1, m2, n) per edge, m1 the multiplicity of the larger
    endpoint id, its chain ends and closed-form edge blocks, then one
    vertex block per vertex from its self-intersection on the resolved
    surface, all summed in Z[(1/L)Z/Z], L the multiplicity lcm.  Returns
    the self-intersections by id and the trace.

    The end of a chain on the m2 branch has multiplicity mu_1, the end on
    the m1 branch mu_L; a loop gives both ends to its vertex.  A vertex
    whose chain ends do not sum to a multiple of its multiplicity raises
    NonIntegralSelfIntersection, the smallest such id first."""
    mult = {v.id: v.mult for v in g.vertices}
    ends = dict.fromkeys(mult, 0)
    blocks = []
    for lo, hi in g.edges:  # lo <= hi
        sing = Singularity(mult[hi], mult[lo], n)
        mu1, mu_last = chain_ends(sing)
        ends[lo] += mu1
        ends[hi] += mu_last
        blocks += edge_blocks(sing.m1, sing.m2, mu1, mu_last)
    si = {}
    for v in g.vertices:
        if ends[v.id] % v.mult:
            raise NonIntegralSelfIntersection(
                f"vertex {v.id}: chain ends sum to {ends[v.id]}, not a multiple of mult {v.mult}")
        si[v.id] = -(ends[v.id] // v.mult)
    blocks += [vertex_block(v.mult, v.genus, si[v.id]) for v in g.vertices]
    return si, block_sum(blocks, g.mult_lcm)


def edge_counts(g) -> tuple[dict[str, int], dict[str, int]]:
    """Each vertex's degree and the sum of its neighbours' multiplicities,
    by id, from the sorted edge view: each end of an edge counts once and
    adds the multiplicity at the other end, so a loop counts twice and
    adds its own multiplicity twice."""
    mult = {v.id: v.mult for v in g.vertices}
    degree, around = dict.fromkeys(mult, 0), dict.fromkeys(mult, 0)
    for a, b in g.edges:
        degree[a] += 1
        degree[b] += 1
        around[a] += mult[b]
        around[b] += mult[a]
    return degree, around


def rational_trace(g, n: int) -> dict[int, int]:
    """The total trace at degree n as an element of Z[(1/L)Z/Z], L the
    multiplicity lcm: j -> c stands for c times the class of j/L, every c
    nonzero.  It is ``limit_trace`` with each class j/L moved to
    (j n mod L)/L, after the degree and integrality checks of
    ``total_trace``, in their order."""
    total_trace(g, n)
    lcm = g.mult_lcm
    return {j * n % lcm: c for j, c in limit_trace(g).items() if c}


def self_intersections(g, n: int) -> dict[str, int]:
    """Self-intersection of each component on the resolved degree-n
    surface: minus the sum of its chain ends, divided by its multiplicity;
    0 for an isolated vertex."""
    return per_edge_trace(g, n)[0]


def per_node_oracle(res: ResolutionData, power: int) -> CyclotomicNumber:
    """The fixed-point trace at zeta_n^power with one big-integer product
    per middle node: mu_1 n N(-c_0) and mu_L n N(c_{L-1}) at the ends and
    (1 - x^a_l) N(c_{l-1}) N(-c_l) at middle node l, c_l = power * alpha1 *
    r_l, every product folded modulo x^n - 1 as it is formed.  Every
    folded product has slots >= 0, so masking and shifting cut it into
    whole slots with no borrow.  The slot width holds a sign bit above the
    bound on the final coefficients: the end nodes' mu * n * n(g + 1)/2
    plus each middle node's n * min(n(g1 + 1)/2, n(g2 + 1)/2) * n(n + 1)/2."""
    n, mu, rs, L = res.n, res.mu, res.rseq, res.length
    unit = power * res.alpha1
    first = (-unit * rs[1]) % n
    last = (unit * rs[L]) % n
    middle = []
    gsum = 0
    for x, y, m, nu in zip(rs[1:L], rs[2:], mu[1:L], mu[2:]):
        c1, c2 = unit * x % n, -unit * y % n
        middle.append((c1, c2, unit * (x * nu - y * m) % n))
        gsum += min(math.gcd(c1, n), math.gcd(c2, n)) + 1
    ends = mu[1] * (math.gcd(first, n) + 1) + mu[L] * (math.gcd(last, n) + 1)
    bound = n * (n * ends + n * (n + 1) // 2 * gsum) // 2
    width = (bound.bit_length() + 8) // 8
    shift = 8 * width
    size = shift * n
    mask = (1 << size) - 1
    numerator = packed_inverse_numerators(n, width)
    acc = n * (mu[1] * numerator(first) + mu[L] * numerator(last))
    for c1, c2, a in middle:
        p = numerator(c1) * numerator(c2)
        p = (p & mask) + (p >> size)
        acc += p - (((p << shift * a) & mask) + (p >> shift * (n - a)))
    return CyclotomicNumber.from_poly(n, _unpack(acc, n, width), n * n)


def field_product(x: CyclotomicNumber, y: CyclotomicNumber) -> CyclotomicNumber:
    """x * y in Q(zeta_n): the schoolbook product of the numerators, term
    by term, reduced by ``from_poly``."""
    out = [0] * (len(x.num) + len(y.num) - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            out[i + j] += a * b
    return CyclotomicNumber.from_poly(x.n, out, x.den * y.den)


def root_power(n: int, e: int) -> CyclotomicNumber:
    """zeta_n^e, reduced."""
    buf = [0] * n
    buf[e % n] = 1
    return CyclotomicNumber.from_poly(n, buf)


def poly_divmod_monic(a, d) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic integer polynomial d, by
    long division; the remainder has no trailing zeros."""
    a = list(a)
    dd = len(d) - 1
    q = [0] * max(len(a) - dd, 0)
    for i in range(len(a) - 1, dd - 1, -1):
        c = q[i - dd] = a[i]
        if c:
            for j, y in enumerate(d):
                a[i - dd + j] -= c * y
    rem = a[:dd]
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[int, ...]:
    """Phi_n by exact long division of x^n - 1 by Phi_d for every proper
    divisor d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod_monic(num, cyclotomic_by_division(d))
            assert not rem, (n, d)
    return tuple(num)


def acampo_spectrum(g) -> dict:
    """The exponents of the tame monodromy on H^1 by A'Campo's formula
    for its characteristic polynomial, (t - 1)^2 prod_v (t^{m_v} -
    1)^{2 g_v - 2 + deg v}: as a signed multiset of classes mod 1, two
    copies of 0 and 2 g_v - 2 + deg v copies of every k/m_v, from the
    genera, multiplicities and degrees alone."""
    spectrum = {Fraction(0): 2}
    for genus, m, d in zip(g.genera, g.mults, g.degrees):
        for k in range(m) if 2 * genus - 2 + d else ():
            x = Fraction(k, m)
            spectrum[x] = spectrum.get(x, 0) + 2 * genus - 2 + d
    return {x: c for x, c in spectrum.items() if c}


def two_pass_main(argv) -> int:
    """``cli.main`` by the two-level parse: the top-level parser reads the
    whole argv and hands the tokens after the verb to the verb's parser,
    the verb's parser reports the tokens left over, then the verb runs;
    the same exit codes and error lines as main."""
    parser, verbs = cli._build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            verbs[args.verb].error(f"unrecognized arguments: {' '.join(extra)}")
        return cli._run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except FibertraceError as exc:
        print(f"fibertrace: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fibertrace: {exc}", file=sys.stderr)
        return 2
