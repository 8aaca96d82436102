"""Fiber graphs: the multigraph of irreducible components of a special
fiber, with per-vertex genus and multiplicity, plus the trace read off it.

By the Brauer-trace formula the total trace of the degree-n action on the
fiber cohomology depends only on the graph and on n mod L, L the
multiplicity lcm.  ``limit_trace`` builds it in Z[(1/L)Z/Z] at the degrees
n = 1 (mod L) from each component's genus, multiplicity and neighbours'
multiplicities, with no degree, no chain end and no resolution:

- a principal component (positive genus, or meeting the rest of the fiber
  in at least three points) adds W_v(k) = 1 - g_v - sum_{w ~ v}
  ((-k m_w) mod m_v) / m_v on the classes k/m_v;
- any other component adds 1 on the classes of (1/d_v)Z/Z, d_v the gcd of
  m_v with any neighbour's multiplicity (m_v = 1 without one);
- each edge adds -1 on the classes of (1/gcd(m_v, m_w))Z/Z.

The gcd stays the same along a chain of non-principal components, so a
chain costs nothing whatever its length.  ``rational_trace`` moves each
class j/L to (j n mod L)/L for a degree n; ``total_trace`` and
``h1_character`` are its image in Z[Z/n] and the character multiset on H^1.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from operator import itemgetter, mod, sub
from typing import NamedTuple

from .errors import (
    BadInput,
    NegativeCharacterCoefficient,
    NonIntegralSelfIntersection,
    ParseError,
    ValidationError,
)
from .exactalg import GroupRingElement
from .resolution import MAX_MULTIPLICITY
from .resolution import resolve  # noqa: F401  bench/test_smoke.py traces fiber.resolve
from .singtrace import at_degree

# Most characters of graph text that parse_graph accepts; the CLI reads no
# more than one past it.  At the bound, one jumps --machine call takes
# 0.06-0.11 s on a cycle of 20,833 reduced curves with five-digit ids and
# 0.08-0.14 s on two reduced curves meeting 111,105 times (which exits at
# MAX_GENUS before any trace is built), on a 2-vCPU Xeon VM.
MAX_GRAPH_CHARS = 10**6

# Most block terms limit_trace builds, counted before any is built: m per row
# of principal multiplicity m and per distinct end pair (m, m_w) at it, plus d
# per subgroup (1/d)Z/Z with a nonzero net count.  Chains cost nothing, so
# jumps, character and trace-fiber meet the bound on the same fibers.  Near
# it the slowest shape found, two meeting genus-0 curves of multiplicities
# 93,749 and 93,747, each with two arms down to a reduced tail (749,985
# terms, genus 93,747 over as many distinct classes), takes about 0.7 s in
# compute_jumps, 1 s for the whole jumps process with its 93,747 lines, and
# 0.4 s in character on a 2-vCPU Xeon VM.  Every catalog entry needs fewer
# than 100 terms.
MAX_BLOCK_TERMS = 750_000


class Vertex(NamedTuple):
    id: str
    genus: int
    mult: int


class FiberGraph:
    """Connected multigraph (loops and parallel edges allowed) with at
    least one multiplicity-1 vertex, held as columns in input order:
    ``ids``, ``genera``, ``mults`` and ``degrees`` (edge-ends, a loop
    counting twice) by vertex position, and ``pairs``, each edge as the
    positions (lo, hi) of its endpoints with ids[lo] <= ids[hi].

    The sorted views ``vertices`` (Vertex records by id) and ``edges``
    (sorted id pairs) are built on first use; equality, hashing and repr
    are those of the views, so two inputs listing the same vertices and
    edges in any order give equal graphs."""

    ids: tuple[str, ...]
    genera: tuple[int, ...]
    mults: tuple[int, ...]
    degrees: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    _position: dict[str, int]  # id -> position, filled by build

    def __init__(self, ids, genera, mults, degrees, pairs, _position):
        # the only writes: __setattr__ and __delattr__ refuse every other
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_position", _position)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def build(cls, vertices, edges) -> "FiberGraph":
        """Validate and index in one walk over the edges, which checks each
        endpoint, counts degrees and merges components by union-find.
        ``vertices`` holds (id, genus, mult) rows, ``edges`` id pairs."""
        rows = list(vertices)
        ids, genera, mults = zip(*rows, strict=True) if rows else ((), (), ())
        position = dict(zip(ids, range(len(ids))))
        if len(position) != len(ids):
            dup = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise ValidationError(f"duplicate vertex id(s): {', '.join(dup)}")
        if rows and (min(genera) < 0 or min(mults) < 1 or max(mults) > MAX_MULTIPLICITY):
            for vid, genus, mult in rows:  # only to name the first offending vertex
                if genus < 0:
                    raise ValidationError(f"vertex {vid}: genus must be >= 0")
                if mult < 1:
                    raise ValidationError(f"vertex {vid}: multiplicity must be >= 1")
                if mult > MAX_MULTIPLICITY:
                    raise BadInput(
                        f"vertex {vid}: multiplicity {mult} exceeds "
                        f"MAX_MULTIPLICITY = {MAX_MULTIPLICITY}"
                    )
        degree = [0] * len(ids)
        parent = list(range(len(ids)))
        parts = len(ids)
        pairs = []
        for a, b in edges:
            try:
                i, j = position[a], position[b]
            except KeyError:
                missing = a if a not in position else b
                raise ValidationError(
                    f"edge endpoint {missing!r} is not a declared vertex"
                ) from None
            degree[i] += 1
            degree[j] += 1
            pairs.append((i, j) if a <= b else (j, i))
            i, j = parent[i], parent[j]
            if i != j:  # not yet seen to share a component: find both roots
                while parent[i] != i:  # path halving
                    parent[i] = i = parent[parent[i]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i != j:
                    parent[i] = j
                    parts -= 1
        if not rows:
            raise ValidationError("graph has no vertices")
        if parts != 1:
            raise ValidationError("graph is not connected")
        if min(mults) != 1:
            raise ValidationError("no vertex has multiplicity 1")
        return cls(ids, genera, mults, tuple(degree), tuple(pairs), position)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices sorted by id."""
        return tuple(sorted(map(Vertex._make, zip(self.ids, self.genera, self.mults)),
                            key=itemgetter(0)))

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """The edges as id pairs, each with the smaller id first, sorted."""
        ids = self.ids
        return tuple(sorted((ids[lo], ids[hi]) for lo, hi in self.pairs))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"FiberGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    def vertex(self, vid: str) -> Vertex:
        """The vertex of an id; KeyError for an undeclared id."""
        i = self._position[vid]
        return Vertex(vid, self.genera[i], self.mults[i])

    @cached_property
    def mult_lcm(self) -> int:
        return math.lcm(*self.mults)

    def adjunction_genus(self) -> int:
        """The arithmetic genus by adjunction, 2g - 2 = sum_v m_v (2 g_v - 2
        + deg v), in O(V + E); for a valid fiber it is the genus on H^1."""
        return sum(m * (2 * genus - 2 + d)
                   for genus, m, d in zip(self.genera, self.mults, self.degrees)) // 2 + 1


class CharacterMultiset(NamedTuple):
    """Exponents (with multiplicities) of the irreducible characters of
    the degree-n action on H^1; ``total`` is the arithmetic genus."""

    n: int
    exponents: tuple[tuple[int, int], ...]  # (exponent, multiplicity), ascending
    total: int


def parse_graph(text: str) -> FiberGraph:
    """Parse the line-oriented graph format:

        vertex <id> genus=<int> mult=<int>
        edge <id> <id>

    '#' starts a comment; blank lines are skipped.  A text longer than
    MAX_GRAPH_CHARS is refused, and so is a lone surrogate, which is how
    a file read with errors="surrogateescape" carries a byte that is not
    UTF-8.  In the documented field order each distinct field token, such
    as ``genus=0``, is converted to an int once per call and then looked up.
    """
    if len(text) > MAX_GRAPH_CHARS:
        raise BadInput(f"graph text exceeds MAX_GRAPH_CHARS = {MAX_GRAPH_CHARS} characters")
    ascii_text = text.isascii()  # then no token needs its own ASCII check
    if not ascii_text:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            # the sentinel puts a bad character that starts a line on a line of its own
            line = len((text[:exc.start] + "#").splitlines())
            raise ParseError(line, "not valid UTF-8") from None
    vertices: list[tuple[str, int, int]] = []
    edges: list[tuple[str, str]] = []
    # each field token of the documented order -> its value, one dict per
    # field, so that a mult= token is never read as a genus
    genus_of: dict[str, int] = {}
    mult_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 4:
                raise ParseError(lineno, "expected: vertex <id> genus=<int> mult=<int>")
            _, vid, genus, mult = tokens
            if not ascii_text and not vid.isascii():
                raise ParseError(lineno, f"vertex id {vid!r} is not ASCII")
            # the documented order
            genus_value = genus_of.get(genus)
            if genus_value is None and genus[:6] == "genus=":
                try:
                    genus_value = genus_of[genus] = int(genus[6:])
                except ValueError:
                    pass
            mult_value = mult_of.get(mult)
            if mult_value is None and mult[:5] == "mult=":
                try:
                    mult_value = mult_of[mult] = int(mult[5:])
                except ValueError:
                    pass
            if genus_value is not None and mult_value is not None:
                vertices.append((vid, genus_value, mult_value))
                continue
            # the other order, or a bad field: the field loop names it
            fields = {}
            for tok in tokens[2:]:
                key, eq, value = tok.partition("=")
                if not eq or key not in ("genus", "mult"):
                    raise ParseError(lineno, f"expected genus=<int> or mult=<int>, got {tok!r}")
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise ParseError(lineno, f"{key} must be an integer, got {value!r}") from None
            if len(fields) != 2:
                raise ParseError(lineno, "vertex needs both genus= and mult=")
            vertices.append((vid, fields["genus"], fields["mult"]))
        elif kind == "edge":
            if len(tokens) != 3:
                raise ParseError(lineno, "expected: edge <id> <id>")
            if not ascii_text and not (tokens[1].isascii() and tokens[2].isascii()):
                raise ParseError(lineno, "edge endpoints must be ASCII tokens")
            edges.append((tokens[1], tokens[2]))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    return FiberGraph.build(vertices, edges)


def principal_components(g: FiberGraph) -> list[int]:
    """Positions of the principal components: positive genus, or meeting
    the rest of the fiber in at least three points (loop ends count twice,
    parallel edges separately)."""
    return [i for i, (genus, d) in enumerate(zip(g.genera, g.degrees)) if genus > 0 or d >= 3]


def limit_trace(g: FiberGraph, principal: list[int]) -> dict[int, int]:
    """The total trace at every degree n = 1 (mod L) as an element of
    Z[(1/L)Z/Z], L the multiplicity lcm: j -> c stands for c times the
    class of j/L.  ``principal`` holds the positions of the principal
    components (``principal_components``).

    One walk over the edges sums each vertex's neighbour multiplicities,
    which must be a multiple of its own (a non-integral self-intersection
    names the smallest failing id), and counts the ends at principal
    components by their neighbour's multiplicity.  Each edge's
    -(1/gcd)Z/Z is split in halves between its ends, so a component on a
    chain nets to zero, a non-principal one of degree d < 2 to (2 - d)/2
    times (1/m_v)Z/Z, and each end at a principal component to -1/2 times
    (1/gcd(m_v, m_w))Z/Z.  The principal components of one multiplicity m
    share one row over the classes k/m: the sum of their 1 - g_v, less
    the sum over their ends of ((-k m_w) mod m), divided by m once, which
    integrality makes exact.  The work, m per row and per distinct pair
    (m, m_w), plus d per d with a nonzero net count, is bounded by
    MAX_BLOCK_TERMS before any term is built."""
    mults, genera = g.mults, g.genera
    around = [0] * len(mults)  # neighbour multiplicity sum by position
    constants: dict[int, int] = {}  # principal multiplicity m -> sum of 1 - g_v
    rows: dict[int, dict[int, int]] = {}  # m -> the ends at its components, count by m_w
    ends: list[dict | None] = [None] * len(mults)  # by position, principal only
    for i in principal:
        m = mults[i]
        if m not in rows:
            constants[m], rows[m] = 0, {}
        constants[m] += 1 - genera[i]
        ends[i] = rows[m]
    for lo, hi in g.pairs:
        a = mults[lo]
        b = mults[hi]
        around[lo] += b
        around[hi] += a
        if (counts := ends[lo]) is not None:
            counts[b] = counts.get(b, 0) + 1
        if (counts := ends[hi]) is not None:
            counts[a] = counts.get(a, 0) + 1
    if any(map(mod, around, mults)):
        vid, total, m = min(row for row in zip(g.ids, around, mults) if row[1] % row[2])
        raise NonIntegralSelfIntersection(
            f"vertex {vid}: neighbour multiplicities sum to {total}, "
            f"not a multiple of mult {m}; not a valid fiber"
        )
    degrees = g.degrees
    halves: dict[int, int] = {}  # d -> twice the net count of (1/d)Z/Z
    for i in [i for i, d in enumerate(degrees) if d < 2 and ends[i] is None]:
        halves[mults[i]] = halves.get(mults[i], 0) + 2 - degrees[i]
    for m, counts in rows.items():
        for w, count in counts.items():
            d = math.gcd(m, w)
            halves[d] = halves.get(d, 0) - count
    net = {d: h // 2 for d, h in halves.items() if h}
    terms = sum(m * (len(counts) + 1) for m, counts in rows.items()) + sum(net)
    if terms > MAX_BLOCK_TERMS:
        raise BadInput(
            f"the trace would build {terms} block terms, more than "
            f"MAX_BLOCK_TERMS = {MAX_BLOCK_TERMS}"
        )
    lcm = g.mult_lcm
    acc: dict[int, int] = {}
    for m, counts in rows.items():
        row = [m * constants[m]] * m  # m times each class k/m
        for w, c in counts.items():
            row = list(map(sub, row, [c * (-k * w % m) for k in range(m)]))
        for j, value in zip(range(0, lcm, lcm // m), row):
            acc[j] = acc.get(j, 0) + value // m
    for d, count in net.items():
        for j in range(0, lcm, lcm // d):
            acc[j] = acc.get(j, 0) + count
    return acc


def rational_trace(g: FiberGraph, n: int) -> dict[int, int]:
    """The total trace at degree n as an element of Z[(1/L)Z/Z], L the
    multiplicity lcm: j -> c stands for c times the class of j/L, every c
    nonzero.  By the Brauer-trace formula it depends on n only through
    n mod L: it is ``limit_trace`` with each class j/L moved to
    (j n mod L)/L."""
    _check_degree(g, n)
    lcm = g.mult_lcm
    return {j * n % lcm: c for j, c in limit_trace(g, principal_components(g)).items() if c}


def total_trace(g: FiberGraph, n: int) -> GroupRingElement:
    """Trace of the degree-n action on the alternating sum of fiber
    cohomology: the image of ``rational_trace`` at degree n."""
    return at_degree(rational_trace(g, n), g.mult_lcm, n)


def character_terms(trace: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The nonzero terms of 1 - trace, keys ascending; a character has no
    negative coefficient."""
    one_minus = {k: -c for k, c in trace.items()}
    one_minus[0] = one_minus.get(0, 0) + 1
    items = tuple(sorted((k, c) for k, c in one_minus.items() if c))
    bad = [(k, c) for k, c in items if c < 0]
    if bad:
        raise NegativeCharacterCoefficient(
            f"1 - total trace has negative coefficients {bad}; not a valid fiber"
        )
    return items


def h1_character(g: FiberGraph, n: int) -> CharacterMultiset:
    """Character multiset of the action on H^1: the exponents of
    1 - total_trace, which must have nonnegative coefficients."""
    items = character_terms(total_trace(g, n).terms)
    return CharacterMultiset(n=n, exponents=items, total=sum(c for _, c in items))


def _check_degree(g: FiberGraph, n: int) -> None:
    if n < 2:
        raise BadInput(f"degree must be >= 2, got {n}")
    # the lcm itself may have more digits than str() converts
    shared = math.gcd(n, g.mult_lcm)
    if shared != 1:
        raise BadInput(
            f"degree {n} must be coprime to the multiplicity lcm; they share the factor {shared}"
        )
