"""Jumps of the rational-index filtration, read off the fiber graph.

The jumps are the classes j/L of 1 - ``fiber.limit_trace`` in
Z[(1/L)Z/Z], L the multiplicity lcm, each with its coefficient as
multiplicity, and every jump's denominator divides n-tilde, the lcm of
the multiplicities at ``FiberGraph.principal``.  The limit trace is the
total trace at every degree n = 1 (mod L) and needs no degree, so neither
the jumps nor their cost depend on one.  The witness degrees are plain
arithmetic, the degrees n = 1 (mod L) past max(2 * n_tilde * L, n_min);
the character of the degree-n action rounds to the same jumps at each.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import BadInput, BadJumpDenominator, int_text
from .fiber import FiberGraph, character_terms, limit_trace

# Most sweep degrees compute_jumps lists; the list is built in full, so a
# huge count would exhaust memory instead of failing.
MAX_SWEEPS = 1000

# Largest genus, the sum of the limit character's coefficients, whose jumps
# compute_jumps lists.  It builds one Fraction per distinct class, and the
# CLI writes each class's lines at once; a jump set still holds one entry,
# and the output one line, per unit of genus, so the cost grows linearly with
# the genus: at the bound, two reduced curves meeting 100,001 times (one class)
# take 0.03 s in compute_jumps and 0.2 s for the whole jumps process on a
# 2-vCPU Xeon VM.  It is checked by the adjunction formula before the trace
# is built, and again on the character.
MAX_GENUS = 10**5

# Largest n_min compute_jumps accepts, and largest floor 2 * n_tilde * lcm
# of the witness degrees that the CLI prints.  The witness degrees are
# printed in decimal, and Python refuses to print an int of more digits than
# its conversion limit, which may be set as low as 640; witnesses just above
# 10^600 print under any limit.  Only the jumps command without --machine
# prints them, so only it refuses a floor past the bound: the genus-0 chain
# 1 - M - (M-1) - ... - 2 - 1, of lcm lcm(1..M), passes it from M = 1399 on,
# while compute_jumps and jumps --machine still answer.
MAX_N_MIN = 10**600


class JumpOptions(NamedTuple):
    # n_min and sweeps place the witness degrees only, all = 1 (mod the
    # lcm); the jumps do not depend on them
    n_min: int = 1000     # witness degrees exceed max(2 * n_tilde * lcm, n_min)
    sweeps: int = 3       # number of witness degrees listed


class JumpSet(NamedTuple):
    """Sorted multiset of jumps in [0, 1), all with denominator dividing
    n_tilde; ``witnesses`` records the sweep degrees, at each of which the
    rounded character of the degree-n action gives these jumps."""

    jumps: tuple[Fraction, ...]
    n_tilde: int
    witnesses: tuple[int, ...]


def _sweep_degrees(g: FiberGraph, options: JumpOptions, nt: int) -> list[int]:
    """The witness degrees of compute_jumps: the first ``sweeps`` integers
    congruent to 1 mod the multiplicity lcm and exceeding
    max(2 * nt * lcm, n_min), nt the principal lcm."""
    l = g.mult_lcm
    for name in ("sweeps", "n_min"):  # bool, an int, stays accepted
        if not isinstance(value := getattr(options, name), int):
            raise BadInput(f"{name} must be an integer, got {value!r}")
    if options.sweeps < 1:
        raise BadInput(f"need at least one sweep, got {int_text(options.sweeps)}")
    if options.sweeps > MAX_SWEEPS:
        raise BadInput(f"{int_text(options.sweeps)} sweeps exceed MAX_SWEEPS = {MAX_SWEEPS}")
    if options.n_min > MAX_N_MIN:
        raise BadInput("n_min exceeds MAX_N_MIN = 10^600")
    floor = max(2 * nt * l, options.n_min, 1)
    first = floor + 1 + (-floor % l)
    return [first + k * l for k in range(options.sweeps)]


def _check_genus(genus: int) -> None:
    if genus > MAX_GENUS:
        raise BadInput(f"genus {int_text(genus)} exceeds MAX_GENUS = {MAX_GENUS}")


def compute_jumps(g: FiberGraph, options: JumpOptions = JumpOptions()) -> JumpSet:
    """Jump multiset of the graph's filtration: the classes j/L of
    1 - ``limit_trace``, with the witness degrees of ``options``.  Neither
    the jumps nor the cost depend on the degree, so ``n_min`` costs
    nothing; the work grows with the principal components, not with the
    chains between them."""
    mults = g.mults
    nt = math.lcm(*[mults[i] for i in g.principal])  # n_tilde; 1 when no vertex qualifies
    degrees = _sweep_degrees(g, options, nt)
    # the blocks grow as the multiplicities, so the genus is bounded before any is built
    _check_genus(g.adjunction_genus())
    l = g.mult_lcm
    terms = character_terms(limit_trace(g))  # classes ascending
    _check_genus(sum(c for _, c in terms))
    jumps: list[Fraction] = []
    for j, c in terms:
        if j * nt % l:
            raise BadJumpDenominator(
                f"jump {Fraction(j, l)} has a denominator that does not divide "
                f"n_tilde = {nt}; not a valid fiber"
            )
        jumps += [Fraction(j, l)] * c  # one Fraction per class, c references to it
    return JumpSet(jumps=tuple(jumps), n_tilde=nt, witnesses=tuple(degrees))
