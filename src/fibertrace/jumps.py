"""Jumps of the rational-index filtration, recovered from character
sweeps over increasing degrees with exact rational rounding.

Each character exponent a at degree n yields the candidate
((-a) mod n)/n; the jump is the common rational with denominator dividing
n-tilde (the lcm of the principal component multiplicities) that every
sweep rounds to within 1/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, InconsistentRounding, ToleranceExceeded
from .fiber import CharacterMultiset, FiberGraph, h1_character

# Most sweeps compute_jumps runs; the list of sweep degrees is built before
# any of them, so a huge count would exhaust memory instead of failing.
MAX_SWEEPS = 1000


@dataclass(frozen=True)
class JumpOptions:
    n_min: int = 1000     # sweep degrees exceed max(2 * n_tilde * lcm, n_min)
    sweeps: int = 3       # number of independent degrees that must agree
    residue: int = 1      # residue class of the sweep degrees mod the lcm


@dataclass(frozen=True)
class JumpSet:
    """Sorted multiset of jumps in [0, 1), all with denominator dividing
    n_tilde; ``witnesses`` records the sweep degrees used."""

    jumps: tuple[Fraction, ...]
    n_tilde: int
    witnesses: tuple[int, ...]


def principal_lcm(g: FiberGraph) -> int:
    """lcm of the multiplicities of the principal components: positive
    genus, or meeting the rest of the fiber in at least three points
    (loop ends count twice, parallel edges separately).  1 when no vertex
    qualifies."""
    mults = [v.mult for v in g.vertices if v.genus > 0 or g.degree(v.id) >= 3]
    return math.lcm(*mults) if mults else 1


def candidate_jumps(char: CharacterMultiset) -> list[Fraction]:
    """One candidate ((-a) mod n)/n per character exponent a, with
    multiplicity; sorted ascending."""
    out: list[Fraction] = []
    for exponent, mult in char.exponents:
        value = Fraction((-exponent) % char.n, char.n)
        out.extend([value] * mult)
    return sorted(out)


def sweep_degrees(g: FiberGraph, options: JumpOptions = JumpOptions()) -> list[int]:
    """The degrees used by compute_jumps: the first ``sweeps`` integers
    congruent to ``residue`` mod the multiplicity lcm and exceeding
    max(2 * n_tilde * lcm, n_min)."""
    return _sweep_degrees(g, options, principal_lcm(g))


def _sweep_degrees(g: FiberGraph, options: JumpOptions, nt: int) -> list[int]:
    l = g.mult_lcm
    if math.gcd(options.residue, l) != 1:
        raise BadInput(f"residue {options.residue} is not coprime to the multiplicity lcm {l}")
    if options.sweeps < 1:
        raise BadInput(f"need at least one sweep, got {options.sweeps}")
    if options.sweeps > MAX_SWEEPS:
        raise BadInput(f"{options.sweeps} sweeps exceed MAX_SWEEPS = {MAX_SWEEPS}")
    floor = max(2 * nt * l, options.n_min, 1)
    first = floor + 1 + ((options.residue - floor - 1) % l)
    return [first + k * l for k in range(options.sweeps)]


def compute_jumps(g: FiberGraph, options: JumpOptions = JumpOptions()) -> JumpSet:
    """Jump multiset of the graph's filtration.

    Runs the character computation at ``sweeps`` degrees, rounds every
    candidate to the nearest rational with denominator n_tilde (tolerance
    1/n, which pins a unique target since the degrees exceed 2 * n_tilde),
    and insists that all sweeps produce the same multiset.

    Every edge trace is the closed form from the chain ends, so the cost
    does not depend on ``n_min``.
    """
    nt = principal_lcm(g)
    degrees = _sweep_degrees(g, options, nt)
    rounded_sets = [_round_candidates(h1_character(g, n), nt) for n in degrees]
    if any(s != rounded_sets[0] for s in rounded_sets[1:]):
        shown = [tuple(Fraction(k, nt) for k in s) for s in rounded_sets]
        raise InconsistentRounding(f"sweeps at degrees {degrees} disagree: {shown}")
    return JumpSet(
        jumps=tuple(Fraction(k, nt) for k in rounded_sets[0]),
        n_tilde=nt,
        witnesses=tuple(degrees),
    )


def _round_candidates(char: CharacterMultiset, nt: int) -> tuple[int, ...]:
    """Numerators k of the targets k/nt that the candidates of one sweep
    round to, with multiplicity, ascending.

    In integers: the candidate c/n (c = -a mod n) rounds to
    k = floor(c/n * nt + 1/2) = (2*c*nt + n) // (2*n), and it is within 1/n
    of k/nt exactly when |c*nt - k*n| <= nt.  Candidates are taken in
    ascending order, so k ascends and an error names the candidate that
    the sorted candidate list meets first.
    """
    n = char.n
    out: list[int] = []
    for c, mult in sorted(((-a) % n, mult) for a, mult in char.exponents):
        k = (2 * c * nt + n) // (2 * n)
        in_tolerance = abs(c * nt - k * n) <= nt
        if nt == 1 and not (in_tolerance and k == 0):
            raise InconsistentRounding(
                f"degree {n}: candidate {Fraction(c, n)} does not round to 0 although "
                "no principal component constrains the denominator"
            )
        if not in_tolerance:
            cand, target = Fraction(c, n), Fraction(k, nt)
            raise ToleranceExceeded(
                f"degree {n}: candidate {cand} is {abs(cand - target)} away from "
                f"{target}, beyond 1/{n}"
            )
        if not 0 <= k < nt:
            raise ToleranceExceeded(
                f"degree {n}: candidate {Fraction(c, n)} rounds to {Fraction(k, nt)}, "
                "outside [0, 1)"
            )
        out.extend([k] * mult)
    return tuple(out)
