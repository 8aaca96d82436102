"""Jumps of the rational-index filtration, read exactly off the limit
character.

At a degree n coprime to the multiplicity lcm L, each character exponent
a yields the candidate ((-a) mod n)/n.  The exponents are the images of
classes j/L of 1 - ``rational_trace``, a = j * L^{-1} mod n, and once n
exceeds L the candidate lies within 1/n below (j * n^{-1} mod L)/L.  The
witness degrees are taken with n = 1 (mod L), where that rational is j/L
itself: each class j/L is a jump, with its coefficient as multiplicity,
and every jump's denominator divides n-tilde (the lcm of the principal
component multiplicities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, BadJumpDenominator
from .fiber import FiberGraph, character_terms, rational_trace

# Most sweep degrees compute_jumps lists; the list is built in full, so a
# huge count would exhaust memory instead of failing.
MAX_SWEEPS = 1000

# Largest genus, the sum of the limit character's coefficients, whose jumps
# compute_jumps lists; it builds one Fraction per unit of genus and the CLI
# prints one line each, so the cost grows linearly with the genus.  It is
# checked by the adjunction formula before the trace is built, and again on
# the character.
MAX_GENUS = 10**5

# Largest n_min compute_jumps accepts.  The witness degrees are printed in
# decimal, and Python refuses to print an int of more digits than its
# conversion limit, which may be set as low as 640; witnesses just above
# 10^600 print under any limit.
MAX_N_MIN = 10**600


@dataclass(frozen=True)
class JumpOptions:
    # n_min and sweeps place the witness degrees only, all = 1 (mod the
    # lcm); the character is read at the first one, and the jumps do not
    # depend on them
    n_min: int = 1000     # witness degrees exceed max(2 * n_tilde * lcm, n_min)
    sweeps: int = 3       # number of witness degrees listed


@dataclass(frozen=True)
class JumpSet:
    """Sorted multiset of jumps in [0, 1), all with denominator dividing
    n_tilde; ``witnesses`` records the sweep degrees, and the character
    was read at ``witnesses[0]``."""

    jumps: tuple[Fraction, ...]
    n_tilde: int
    witnesses: tuple[int, ...]


def principal_lcm(g: FiberGraph) -> int:
    """lcm of the multiplicities of the principal components: positive
    genus, or meeting the rest of the fiber in at least three points
    (loop ends count twice, parallel edges separately).  1 when no vertex
    qualifies."""
    mults = [m for genus, m, d in zip(g.genera, g.mults, g.degrees) if genus > 0 or d >= 3]
    return math.lcm(*mults) if mults else 1


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
    floor = max(2 * nt * l, options.n_min, 1)
    first = floor + 1 + (-floor % l)
    return [first + k * l for k in range(options.sweeps)]


def _check_genus(genus: int) -> None:
    if genus > MAX_GENUS:
        raise BadInput(f"genus {genus} exceeds MAX_GENUS = {MAX_GENUS}")


def compute_jumps(g: FiberGraph, options: JumpOptions = JumpOptions()) -> JumpSet:
    """Jump multiset of the graph's filtration: the classes j/L of 1 - the
    rational trace at the first witness degree n, which is 1 mod L.  As n
    exceeds the lcm L, its chain ends are the limit ones, the same for
    every degree of its class mod L, and the cost does not depend on
    ``n_min``."""
    nt = principal_lcm(g)
    degrees = _sweep_degrees(g, options, nt)
    # the edge blocks grow as m1 + m2, so the genus is bounded before any is built
    _check_genus(g.adjunction_genus())
    l = g.mult_lcm
    terms = character_terms(rational_trace(g, degrees[0]))  # classes ascending
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
