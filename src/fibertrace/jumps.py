"""Jumps of the rational-index filtration, read off the fiber graph.

The jumps are the classes j/L of 1 - the limit trace in Z[(1/L)Z/Z], L the
multiplicity lcm, each with its coefficient as multiplicity, and every
jump's denominator divides n-tilde (the lcm of the principal component
multiplicities).  The limit trace is the total trace at a degree
n = 1 (mod L): there each chain end is the neighbouring multiplicity mod
the vertex's, and the chain ends cancel between the edge and vertex
blocks, so ``limit_trace`` needs no degree and no chain end.  It reads
each component's genus g_v, multiplicity m_v and its neighbours'
multiplicities m_w:

- a principal component adds W_v(k) = 1 - g_v - sum_{w ~ v} ((-k m_w) mod
  m_v) / m_v on the classes k/m_v;
- any other component adds 1 on the classes of (1/d_v)Z/Z, d_v the gcd
  of m_v with any neighbour's multiplicity (m_v = 1 without one);
- each edge adds -1 on the classes of (1/gcd(m_v, m_w))Z/Z.

The gcd stays the same along a chain of non-principal components, so a
chain costs nothing whatever its length: an arm nets to zero and a bridge
between principal components to -(1/d)Z/Z.  The witness degrees are plain
arithmetic, the degrees n = 1 (mod L) past max(2 * n_tilde * L, n_min);
the character of the degree-n action rounds to the same jumps at each.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, BadJumpDenominator, NonIntegralSelfIntersection
from .fiber import MAX_BLOCK_TERMS, FiberGraph, character_terms

# Most sweep degrees compute_jumps lists; the list is built in full, so a
# huge count would exhaust memory instead of failing.
MAX_SWEEPS = 1000

# Largest genus, the sum of the limit character's coefficients, whose jumps
# compute_jumps lists; it builds one Fraction per unit of genus and the CLI
# prints one line each, so the cost grows linearly with the genus.  It is
# checked by the adjunction formula before the trace is built, and again on
# the character.
MAX_GENUS = 10**5

# Largest n_min compute_jumps accepts, and largest floor 2 * n_tilde * lcm
# of the witness degrees.  The witness degrees are printed in decimal, and
# Python refuses to print an int of more digits than its conversion limit,
# which may be set as low as 640; witnesses just above 10^600 print under
# any limit.  The genus-0 chain 1 - M - (M-1) - ... - 2 - 1, of lcm
# lcm(1..M), passes the floor bound from M = 1399 on.
MAX_N_MIN = 10**600


@dataclass(frozen=True)
class JumpOptions:
    # n_min and sweeps place the witness degrees only, all = 1 (mod the
    # lcm); the jumps do not depend on them
    n_min: int = 1000     # witness degrees exceed max(2 * n_tilde * lcm, n_min)
    sweeps: int = 3       # number of witness degrees listed


@dataclass(frozen=True)
class JumpSet:
    """Sorted multiset of jumps in [0, 1), all with denominator dividing
    n_tilde; ``witnesses`` records the sweep degrees, at each of which the
    rounded character of the degree-n action gives these jumps."""

    jumps: tuple[Fraction, ...]
    n_tilde: int
    witnesses: tuple[int, ...]


def principal_components(g: FiberGraph) -> list[int]:
    """Positions of the principal components: positive genus, or meeting
    the rest of the fiber in at least three points (loop ends count twice,
    parallel edges separately)."""
    return [i for i, (genus, d) in enumerate(zip(g.genera, g.degrees)) if genus > 0 or d >= 3]


def principal_lcm(g: FiberGraph) -> int:
    """n_tilde, the lcm of the multiplicities of the principal components;
    1 when no vertex qualifies."""
    mults = g.mults
    return math.lcm(*[mults[i] for i in principal_components(g)])


def _sweep_degrees(g: FiberGraph, options: JumpOptions, nt: int) -> list[int]:
    """The witness degrees of compute_jumps: the first ``sweeps`` integers
    congruent to 1 mod the multiplicity lcm and exceeding
    max(2 * nt * lcm, n_min), nt the principal lcm."""
    l = g.mult_lcm
    if options.sweeps < 1:
        raise BadInput(f"need at least one sweep, got {options.sweeps}")
    if options.sweeps > MAX_SWEEPS:
        raise BadInput(f"{options.sweeps} sweeps exceed MAX_SWEEPS = {MAX_SWEEPS}")
    if options.n_min > MAX_N_MIN:
        raise BadInput("n_min exceeds MAX_N_MIN = 10^600")
    if 2 * nt * l > MAX_N_MIN:
        raise BadInput("2 * n_tilde * lcm exceeds MAX_N_MIN = 10^600, so the witness "
                       "degrees would be too long to print")
    floor = max(2 * nt * l, options.n_min, 1)
    first = floor + 1 + (-floor % l)
    return [first + k * l for k in range(options.sweeps)]


def _check_genus(genus: int) -> None:
    if genus > MAX_GENUS:
        raise BadInput(f"genus {genus} exceeds MAX_GENUS = {MAX_GENUS}")


def limit_trace(g: FiberGraph, principal: list[int]) -> dict[int, int]:
    """The total trace at every degree n = 1 (mod L) as an element of
    Z[(1/L)Z/Z], L the multiplicity lcm: j -> c stands for c times the
    class of j/L.  ``principal`` holds the positions of the principal
    components (``principal_components``).

    One walk over the edges sums each vertex's neighbour multiplicities,
    which must be a multiple of its own (a non-integral self-intersection
    names the smallest failing id), and lists the principal components'
    neighbours.  Each edge's -(1/gcd)Z/Z is split in halves between its
    ends, so a component on a chain nets to zero, a non-principal one of
    degree d < 2 to (2 - d)/2 times (1/m_v)Z/Z, and each end at a principal
    component to -1/2 times (1/gcd(m_v, m_w))Z/Z.  W_v is built once per
    class (m_v, g_v, sorted neighbour multiplicities) and scaled by its
    count.  The work, m_v (deg v + 1) per principal class plus d per d
    with a nonzero net count, is bounded by MAX_BLOCK_TERMS before any
    term is built."""
    mults = g.mults
    around = [0] * len(mults)  # neighbour multiplicity sum by position
    neighbours: list[list[int] | None] = [None] * len(mults)
    for i in principal:
        neighbours[i] = []
    for lo, hi in g.pairs:
        a = mults[lo]
        b = mults[hi]
        around[lo] += b
        around[hi] += a
        if neighbours[lo] is not None:
            neighbours[lo].append(b)
        if neighbours[hi] is not None:
            neighbours[hi].append(a)
    if any(total % m for total, m in zip(around, mults)):
        vid, total, m = min(row for row in zip(g.ids, around, mults) if row[1] % row[2])
        raise NonIntegralSelfIntersection(
            f"vertex {vid}: neighbour multiplicities sum to {total}, "
            f"not a multiple of mult {m}; not a valid fiber"
        )
    genera, degrees = g.genera, g.degrees
    classes = Counter((mults[i], genera[i], tuple(sorted(neighbours[i]))) for i in principal)
    halves: dict[int, int] = {}  # d -> twice the net count of (1/d)Z/Z
    for i in [i for i, d in enumerate(degrees) if d < 2 and neighbours[i] is None]:
        halves[mults[i]] = halves.get(mults[i], 0) + 2 - degrees[i]
    for (m, _, ws), count in classes.items():
        for w in ws:
            d = math.gcd(m, w)
            halves[d] = halves.get(d, 0) - count
    net = {d: h // 2 for d, h in halves.items() if h}
    terms = sum(m * (len(ws) + 1) for m, _, ws in classes) + sum(net)
    if terms > MAX_BLOCK_TERMS:
        raise BadInput(
            f"the trace would build {terms} block terms, more than "
            f"MAX_BLOCK_TERMS = {MAX_BLOCK_TERMS}"
        )
    lcm = g.mult_lcm
    acc: dict[int, int] = {}
    for (m, genus, ws), count in classes.items():
        step = lcm // m
        for k in range(m):
            value = 1 - genus - sum(-k * w % m for w in ws) // m
            acc[step * k] = acc.get(step * k, 0) + count * value
    for d, count in net.items():
        step = lcm // d
        for k in range(d):
            acc[step * k] = acc.get(step * k, 0) + count
    return acc


def compute_jumps(g: FiberGraph, options: JumpOptions = JumpOptions()) -> JumpSet:
    """Jump multiset of the graph's filtration: the classes j/L of
    1 - ``limit_trace``, with the witness degrees of ``options``.  Neither
    the jumps nor the cost depend on the degree, so ``n_min`` costs
    nothing; the work grows with the principal components, not with the
    chains between them."""
    principal = principal_components(g)
    mults = g.mults
    nt = math.lcm(*[mults[i] for i in principal])  # principal_lcm, from the positions
    degrees = _sweep_degrees(g, options, nt)
    # the blocks grow as the multiplicities, so the genus is bounded before any is built
    _check_genus(g.adjunction_genus())
    l = g.mult_lcm
    terms = character_terms(limit_trace(g, principal))  # classes ascending
    _check_genus(sum(c for _, c in terms))
    for j, _ in terms:
        if j * nt % l:
            raise BadJumpDenominator(
                f"jump {Fraction(j, l)} has a denominator that does not divide "
                f"n_tilde = {nt}; not a valid fiber"
            )
    return JumpSet(
        jumps=tuple(Fraction(j, l) for j, c in terms for _ in range(c)),
        n_tilde=nt,
        witnesses=tuple(degrees),
    )
