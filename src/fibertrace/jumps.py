"""Jumps of the rational-index filtration, read off the principal type.

The jumps are the classes of 1 - ``fiber.type_classes`` of a fiber's
principal type, each with its coefficient as multiplicity, and every
jump's denominator divides n-tilde, the lcm of the principal
multiplicities; ``type_jumps`` reads them off a type alone, as
(j, multiplicity) pairs for the jump j / n-tilde, and ``compute_jumps``
off the type a graph holds.  The limit trace is the total trace at every
degree n = 1 (mod L), L the multiplicity lcm, and needs no degree, so
neither the jumps nor their cost depend on one.  The witness degrees are
plain arithmetic, the degrees n = 1 (mod L) past max(2 * n_tilde * L,
n_min); the character of the degree-n action rounds to the same jumps at
each.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import BadInput, BadJumpDenominator, int_text
from .fiber import FiberGraph, PrincipalType, character_terms, type_classes

if TYPE_CHECKING:
    from fractions import Fraction

# Most sweep degrees compute_jumps lists; the list is built in full, so a
# huge count would exhaust memory instead of failing.
MAX_SWEEPS = 1000

# Largest genus, the sum of the limit character's coefficients, whose jumps
# compute_jumps lists.  A jump set holds one pair per distinct class, but the
# CLI writes one line per unit of genus, so the output grows linearly with the
# genus: at the bound, two reduced curves meeting 100,001 times (one class)
# take 0.015 s in compute_jumps and 0.11-0.13 s for the whole jumps process
# on a 2-vCPU Xeon VM with Python 3.11.  It is checked by the adjunction
# formula before the principal type is read, and again on the character.
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
    n_tilde: ``classes`` holds (j, multiplicity) pairs, j ascending, for
    the jump j / n_tilde; ``witnesses`` records the sweep degrees, at each
    of which the rounded character of the degree-n action gives these
    jumps."""

    classes: tuple[tuple[int, int], ...]
    n_tilde: int
    witnesses: tuple[int, ...]

    @property
    def jumps(self) -> tuple[Fraction, ...]:
        """The jumps as Fractions, ascending, each as often as its
        multiplicity; only reading them imports ``fractions``."""
        from fractions import Fraction

        nt = self.n_tilde
        return tuple(chain.from_iterable(repeat(Fraction(j, nt), c) for j, c in self.classes))


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


def type_jumps(t: PrincipalType) -> tuple[tuple[int, int], ...]:
    """The jumps of a fiber of principal type t, read without its graph:
    (j, multiplicity) pairs, j ascending, for the classes j / n_tilde of
    1 - ``type_classes(t)``, n_tilde the lcm of t's row multiplicities.
    A class whose denominator does not divide n_tilde is refused."""
    nt = math.lcm(*[m for m, _, _ in t.rows])  # 1 when no vertex qualifies
    l = math.lcm(nt, *[d for d, _ in t.net])  # every class lies in (1/l)Z/Z
    terms = character_terms(type_classes(t, l))  # classes ascending
    _check_genus(sum(c for _, c in terms))
    classes = []
    for j, c in terms:
        k, r = divmod(j * nt, l)
        if r:
            d = math.gcd(j, l)
            raise BadJumpDenominator(
                f"jump {j // d}/{l // d} has a denominator that does not divide "
                f"n_tilde = {nt}; not a valid fiber"
            )
        classes.append((k, c))
    return tuple(classes)


def compute_jumps(g: FiberGraph, options: JumpOptions = JumpOptions()) -> JumpSet:
    """Jump multiset of the graph's filtration: ``type_jumps`` of its
    principal type, with the witness degrees of ``options``.  Neither the
    jumps nor the cost depend on the degree, so ``n_min`` costs nothing;
    the work grows with the principal components, not with the chains
    between them, and a graph builds its type once, however often it is
    asked."""
    mults = g.mults
    nt = math.lcm(*[mults[i] for i in g.principal])  # n_tilde; 1 when no vertex qualifies
    degrees = _sweep_degrees(g, options, nt)
    # the blocks grow as the multiplicities, so the genus is bounded before any is built
    _check_genus(g.adjunction_genus())
    return JumpSet(classes=type_jumps(g.principal_type), n_tilde=nt, witnesses=tuple(degrees))
