"""Fiber graphs: the multigraph of irreducible components of a special
fiber, with per-vertex genus and multiplicity, plus the trace read off it.

By the Brauer-trace formula the total trace of the degree-n action on the
fiber cohomology depends only on the graph and on n mod L, L the
multiplicity lcm.  It depends on the graph only through its principal
type (``principal_type``), built once per graph from each component's
genus, multiplicity and neighbours' multiplicities, with no degree, no
chain end and no resolution, and held as ``FiberGraph.principal_type``.
The ``FiberGraph`` constructor's one walk over the edges, the one that
checks connectivity, also counts each component's degree and sums its
neighbours' multiplicities, so the type's builder walks the edges again
only to count the ends at principal components, and not at all without
one:

- a principal component (positive genus, or meeting the rest of the fiber
  in at least three points) adds W_v(k) = 1 - g_v - sum_{w ~ v}
  ((-k m_w) mod m_v) / m_v on the classes k/m_v, a function of each
  m_w mod m_v;
- any other component adds 1 on the classes of (1/d_v)Z/Z, d_v the gcd of
  m_v with any neighbour's multiplicity (m_v = 1 without one);
- each edge adds -1 on the classes of (1/gcd(m_v, m_w))Z/Z.

The gcd stays the same along a chain of non-principal components, so a
chain costs nothing whatever its length.  ``type_classes`` builds the
trace of a type in Z[(1/L)Z/Z] at the degrees n = 1 (mod L), and
``limit_trace`` is that of the graph's type.  ``total_trace`` sends each
class j/L to x^(-floor(j n / L)) in Z[Z/n] at a degree n coprime to L,
and ``h1_character`` reads the character multiset on H^1 off that image.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import cached_property
from itertools import compress, count, repeat
from operator import gt, index, itemgetter, mod, mul, sub
from typing import NamedTuple

from .errors import (
    BadInput,
    NegativeCharacterCoefficient,
    NonIntegralSelfIntersection,
    ParseError,
    ValidationError,
    int_text,
)
from .exactalg import GroupRingElement
from .resolution import MAX_MULTIPLICITY
from .resolution import resolve  # noqa: F401  bench/test_smoke.py traces fiber.resolve

# Most characters of graph text that parse_graph accepts; the CLI reads no
# more than one past it.  At the bound, one jumps --machine call on a cycle
# of 20,833 reduced curves with five-digit ids takes 0.04-0.07 s in the
# plain spelling, read in bulk, and 0.07-0.15 s with each edge line after
# its vertex line and a comment, read line by line; on two reduced curves
# meeting 111,105 times, plain, it takes 0.05-0.07 s (and exits at MAX_GENUS
# before any trace is built).  Measured in process, five calls in each of
# six runs, on a 2-vCPU Xeon VM with Python 3.11.
MAX_GRAPH_CHARS = 10**6

# Most block terms type_classes builds, counted with the principal type and
# compared on every call before any is built: m per row of principal
# multiplicity m and per distinct end key m_w mod m at it, plus d per
# subgroup (1/d)Z/Z with a nonzero net count.  Chains cost nothing, so jumps,
# character and trace-fiber meet the bound on the same fibers.  Near it the
# slowest shape found, two meeting genus-0 curves of multiplicities 93,749
# and 93,747, each with two arms down to a reduced tail (749,985 terms,
# genus 93,747 over as many distinct classes), takes 0.2-0.3 s in
# compute_jumps, 0.35-0.5 s for the whole jumps process with its 93,747
# lines, and 0.5-0.65 s for the whole character process on a 2-vCPU Xeon
# VM with Python 3.11.  Every catalog entry needs fewer than 100 terms.
MAX_BLOCK_TERMS = 750_000


class Vertex(NamedTuple):
    id: str
    genus: int
    mult: int


class FiberGraph:
    """Connected multigraph (loops and parallel edges allowed) with at
    least one multiplicity-1 vertex.  The constructor takes columns,
    ``ids``, ``genera`` and ``mults`` by vertex and ``heads`` and
    ``tails`` the endpoint ids by edge, makes every check, and keeps them
    in input order: ``ids``, ``genera``, ``mults``, ``degrees`` (edge-ends,
    a loop counting twice) and ``neighbour_sums`` (the multiplicities at
    the far ends of those edge-ends, so a loop adds the vertex's own
    twice) by vertex position, and ``heads`` and ``tails`` by edge, the
    positions of each edge's two endpoints.  One walk over the edges
    counts the degrees and neighbour sums and merges components by
    union-find.  ``build`` takes the same graph as rows.

    The sorted views ``vertices`` (Vertex records by id) and ``edges``
    (id pairs, each with the smaller id first) are built on first use;
    equality, hashing and repr are those of the views, so two inputs
    listing the same vertices and edges in any order, with either end of
    an edge first, give equal graphs.  The columns derived from the edges,
    ``degrees`` and ``neighbour_sums``, take no part."""

    ids: tuple[str, ...]
    genera: tuple[int, ...]
    mults: tuple[int, ...]
    degrees: tuple[int, ...]
    neighbour_sums: tuple[int, ...]
    heads: tuple[int, ...]
    tails: tuple[int, ...]
    _position: dict[str, int]  # id -> position

    def __init__(self, ids, genera, mults, heads, tails):
        ids, genera, mults = tuple(ids), tuple(genera), tuple(mults)
        heads, tails = tuple(heads), tuple(tails)
        if not len(ids) == len(genera) == len(mults) or len(heads) != len(tails):
            raise ValidationError(
                f"column lengths differ: {len(ids)} ids, {len(genera)} genera, "
                f"{len(mults)} mults, {len(heads)} heads, {len(tails)} tails"
            )
        position = dict(zip(ids, range(len(ids))))
        if len(position) != len(ids):
            dup = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise ValidationError(f"duplicate vertex id(s): {', '.join(dup)}")
        try:  # one pass: ints, bool among them, sum to an int, which index takes
            index(sum(mults, sum(genera)))
        except (TypeError, ArithmeticError):  # only to name the first offending vertex
            for vid, genus, mult in zip(ids, genera, mults):
                for name, value in (("genus", genus), ("multiplicity", mult)):
                    if not isinstance(value, int):
                        raise BadInput(f"vertex {vid}: {name} must be an integer, got {value!r}")
        if ids and (min(genera) < 0 or min(mults) < 1 or max(mults) > MAX_MULTIPLICITY):
            # only to name the first offending vertex
            for vid, genus, mult in zip(ids, genera, mults):
                if genus < 0:
                    raise ValidationError(f"vertex {vid}: genus must be >= 0")
                if mult < 1:
                    raise ValidationError(f"vertex {vid}: multiplicity must be >= 1")
                if mult > MAX_MULTIPLICITY:
                    raise BadInput(
                        f"vertex {vid}: multiplicity {int_text(mult)} exceeds "
                        f"MAX_MULTIPLICITY = {MAX_MULTIPLICITY}"
                    )
        try:
            his = tuple(map(position.__getitem__, heads))
            tis = tuple(map(position.__getitem__, tails))
        except KeyError:  # only to name the first undeclared endpoint in input order
            missing = next(v for edge in zip(heads, tails) for v in edge if v not in position)
            raise ValidationError(f"edge endpoint {missing!r} is not a declared vertex") from None
        degree = [0] * len(ids)
        around = [0] * len(ids)  # neighbour multiplicity sum; a loop adds its own twice
        parent = list(range(len(ids)))
        parts = len(ids)
        for i, j in zip(his, tis):
            degree[i] += 1
            degree[j] += 1
            around[i] += mults[j]
            around[j] += mults[i]
            i, j = parent[i], parent[j]
            if i != j:  # not yet seen to share a component: find both roots
                while parent[i] != i:  # path halving
                    parent[i] = i = parent[parent[i]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i != j:
                    parent[i] = j
                    parts -= 1
        if not ids:
            raise ValidationError("graph has no vertices")
        if parts != 1:
            raise ValidationError("graph is not connected")
        if min(mults) != 1:
            raise ValidationError("no vertex has multiplicity 1")
        # the only writes: __setattr__ and __delattr__ refuse every other
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "degrees", tuple(degree))
        object.__setattr__(self, "neighbour_sums", tuple(around))
        object.__setattr__(self, "heads", his)
        object.__setattr__(self, "tails", tis)
        object.__setattr__(self, "_position", position)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def build(cls, vertices, edges) -> "FiberGraph":
        """The graph given as rows: ``vertices`` holds (id, genus, mult)
        rows, ``edges`` id pairs."""
        rows = list(vertices)
        ids, genera, mults = zip(*rows, strict=True) if rows else ((), (), ())
        pairs = list(edges)
        heads, tails = zip(*pairs, strict=True) if pairs else ((), ())
        return cls(ids, genera, mults, heads, tails)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices sorted by id."""
        return tuple(sorted(map(Vertex._make, zip(self.ids, self.genera, self.mults)),
                            key=itemgetter(0)))

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """The edges as id pairs, each with the smaller id first, sorted."""
        id_of = self.ids.__getitem__
        return tuple(sorted((a, b) if a <= b else (b, a)
                            for a, b in zip(map(id_of, self.heads), map(id_of, self.tails))))

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

    @cached_property
    def principal(self) -> tuple[int, ...]:
        """Positions of the principal components, ascending: positive
        genus, or meeting the rest of the fiber in at least three points
        (loop ends count twice, parallel edges separately)."""
        high = compress(count(), map(gt, self.degrees, repeat(2)))  # degree >= 3
        if any(self.genera):  # genera are >= 0
            return tuple(sorted({*high, *compress(count(), self.genera)}))
        return tuple(high)

    @cached_property
    def principal_type(self) -> PrincipalType:
        """The graph's ``PrincipalType``, built by ``principal_type`` on
        first use; a graph that fails its checks holds none, and raises
        again on the next use."""
        return principal_type(self)

    def adjunction_genus(self) -> int:
        """The arithmetic genus by adjunction, 2g - 2 = sum_v m_v (2 g_v - 2
        + deg v), in O(V); for a valid fiber it is the genus on H^1."""
        # sum_v m_v deg v is the sum of the neighbour sums, loops included;
        # (2 x + y) // 2 == x + y // 2, so the even part is halved exactly
        mults, genera = self.mults, self.genera
        return ((sum(map(mul, mults, genera)) if any(genera) else 0) - sum(mults)
                + sum(self.neighbour_sums) // 2 + 1)


class CharacterMultiset(NamedTuple):
    """Exponents (with multiplicities) of the irreducible characters of
    the degree-n action on H^1; ``total`` is the arithmetic genus."""

    n: int
    exponents: tuple[tuple[int, int], ...]  # (exponent, multiplicity), ascending
    total: int


# One line of the plain spelling of graph text, or the end of the text:
# single spaces, the line ended by "\n", ids of printable ASCII without "#",
# no vertex line after an edge line, and digit runs of at most 640 digits,
# the lowest limit int() may be set to convert, so that none can fail.
# Text is plain when it starts with such a line and every "\n" is followed
# by one: two flat scans, where a fullmatch over a repeated group would keep
# a backtracking frame per line.  The patterns are compiled on first use.
_PLAIN_LINE = (r'(?:vertex [!-"$-~]+ genus=[0-9]{1,640} mult=[0-9]{1,640}\n'
               r'|edge [!-"$-~]+ [!-"$-~]+\n(?!vertex )|\Z)')
_NOT_PLAIN = rf"\n(?!{_PLAIN_LINE})"


def parse_graph(text: str) -> FiberGraph:
    """Parse the line-oriented graph format:

        vertex <id> genus=<int> mult=<int>
        edge <id> <id>

    '#' starts a comment; blank lines are skipped.  A text longer than
    MAX_GRAPH_CHARS is refused, and so is a lone surrogate, which is how
    a file read with errors="surrogateescape" carries a byte that is not
    UTF-8.  Text in the plain spelling (``_PLAIN_LINE``) is read in bulk
    by ``_plain_columns``, the only route that converts each distinct
    field token once; any other text line by line by ``_read_lines``,
    which gives the same graph where both apply and is the only source of
    ParseError.  Both end in the ``FiberGraph`` constructor's checks.
    """
    if len(text) > MAX_GRAPH_CHARS:
        raise BadInput(f"graph text exceeds MAX_GRAPH_CHARS = {MAX_GRAPH_CHARS} characters")
    if re.match(_PLAIN_LINE, text) and not re.search(_NOT_PLAIN, text):
        return FiberGraph(*_plain_columns(text))
    return FiberGraph.build(*_read_lines(text))


def _plain_columns(text: str):
    """The columns (ids, genera, mults, heads, tails) of text in the plain
    spelling: one split of the vertex lines and one of the edge lines,
    read by stride.  Each distinct field token, such as ``genus=0``, is
    converted to an int once per call and then looked up."""
    # the edge lines start at the first "edge " that starts a line
    split = 0 if text.startswith("edge ") else (text.find("\nedge ") + 1 or len(text))
    tokens = text[:split].split()  # vertex <id> genus=<digits> mult=<digits>, by line
    ids, genus_tokens, mult_tokens = tokens[1::4], tokens[2::4], tokens[3::4]
    genus_of = {tok: int(tok[6:]) for tok in set(genus_tokens)}
    mult_of = {tok: int(tok[5:]) for tok in set(mult_tokens)}
    genera = tuple(map(genus_of.__getitem__, genus_tokens))
    mults = tuple(map(mult_of.__getitem__, mult_tokens))
    del tokens, genus_tokens, mult_tokens  # freed before the edge tokens are made
    tokens = text[split:].split()  # edge <id> <id>, by line
    return ids, genera, mults, tokens[1::3], tokens[2::3]


def _read_lines(text: str):
    """The vertex rows and edge pairs of graph text in any spelling, read
    line by line; a bad line raises ParseError naming it.  Every vertex
    line goes through one field loop, which reads genus= and mult= in
    either order and converts each field where it stands."""
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
            vid = tokens[1]
            if not ascii_text and not vid.isascii():
                raise ParseError(lineno, f"vertex id {vid!r} is not ASCII")
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
    return vertices, edges


class PrincipalType(NamedTuple):
    """The data the limit trace, and so the jumps, depend on.  ``rows``
    holds, for each principal multiplicity m ascending, (m, the sum of
    1 - g_v over the principal components of multiplicity m, their ends as
    (m_w mod m, count) pairs ascending); ``net`` the nonzero net counts
    (d, c) of (1/d)Z/Z, d ascending; ``terms`` the number of block terms
    ``type_classes`` builds from it.  Sorted, so fibers of one type give
    equal values."""

    rows: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    net: tuple[tuple[int, int], ...]
    terms: int


def principal_type(g: FiberGraph) -> PrincipalType:
    """The principal type of a fiber graph, held once built as
    ``FiberGraph.principal_type``.

    Each vertex's ``neighbour_sums`` entry must be a multiple of its own
    multiplicity (a non-integral self-intersection names the smallest
    failing id).  A walk over the edges, skipped when no component is
    principal, counts the ends at principal components by their
    neighbour's multiplicity.  Each edge's -(1/gcd)Z/Z is split in halves
    between its ends, so a component on a chain nets to zero, a
    non-principal one of degree d < 2 to (2 - d)/2 times (1/m_v)Z/Z, and
    each end at a principal component to -1/2 times
    (1/gcd(m_v, m_w))Z/Z.  An end's term (-k m_w) mod m_v and its gcd
    depend on m_w only through m_w mod m_v, which keys it.  The work of
    the classes, m per row and per distinct end key, plus d per net count,
    is counted here and bounded by ``type_classes``."""
    mults, genera = g.mults, g.genera
    if any(map(mod, g.neighbour_sums, mults)):
        vid, total, m = min(row for row in zip(g.ids, g.neighbour_sums, mults) if row[1] % row[2])
        raise NonIntegralSelfIntersection(
            f"vertex {vid}: neighbour multiplicities sum to {total}, "
            f"not a multiple of mult {m}; not a valid fiber"
        )
    constants: dict[int, int] = {}  # principal multiplicity m -> sum of 1 - g_v
    rows: dict[int, dict[int, int]] = {}  # m -> the ends at its components, count by m_w
    ends: list[dict | None] = [None] * len(mults)  # by position, principal only
    for i in g.principal:
        m = mults[i]
        if m not in rows:
            constants[m], rows[m] = 0, {}
        constants[m] += 1 - genera[i]
        ends[i] = rows[m]
    if rows:  # no principal component, as in every In:k, meets no end
        for i, j in zip(g.heads, g.tails):
            if (counts := ends[i]) is not None:
                b = mults[j]
                counts[b] = counts.get(b, 0) + 1
            if (counts := ends[j]) is not None:
                a = mults[i]
                counts[a] = counts.get(a, 0) + 1
    degrees = g.degrees
    halves: dict[int, int] = {}  # d -> twice the net count of (1/d)Z/Z
    for i in compress(count(), map(gt, repeat(2), degrees)):  # degree < 2
        if ends[i] is None:
            halves[mults[i]] = halves.get(mults[i], 0) + 2 - degrees[i]
    typed = []
    for m in sorted(rows):
        keyed: dict[int, int] = {}  # m_w mod m -> ends
        for w, c in rows[m].items():
            keyed[w % m] = keyed.get(w % m, 0) + c
        for r, c in keyed.items():
            d = math.gcd(m, r)
            halves[d] = halves.get(d, 0) - c
        typed.append((m, constants[m], tuple(sorted(keyed.items()))))
    net = tuple(sorted((d, h // 2) for d, h in halves.items() if h))
    terms = sum(m * (len(pairs) + 1) for m, _, pairs in typed) + sum(d for d, _ in net)
    return PrincipalType(tuple(typed), net, terms)


def type_classes(t: PrincipalType, lcm: int) -> dict[int, int]:
    """The limit trace of a fiber of principal type t as an element of
    Z[(1/lcm)Z/Z], lcm a multiple of every m and d in t: j -> c stands for
    c times the class of j/lcm.  The principal components of one
    multiplicity m share one row over the classes k/m: the sum of their
    1 - g_v, less the sum over their ends of ((-k m_w) mod m), divided by
    m once, which integrality makes exact.  ``t.terms`` is compared with
    MAX_BLOCK_TERMS on every call, before any term is built."""
    if t.terms > MAX_BLOCK_TERMS:
        raise BadInput(
            f"the trace would build {t.terms} block terms, more than "
            f"MAX_BLOCK_TERMS = {MAX_BLOCK_TERMS}"
        )
    acc: dict[int, int] = {}
    for m, constant, ends in t.rows:
        row = [m * constant] * m  # m times each class k/m
        for r, c in ends:
            row = list(map(sub, row, [c * (-k * r % m) for k in range(m)]))
        for j, value in zip(range(0, lcm, lcm // m), row):
            acc[j] = acc.get(j, 0) + value // m
    for d, c in t.net:
        for j in range(0, lcm, lcm // d):
            acc[j] = acc.get(j, 0) + c
    return acc


def limit_trace(g: FiberGraph) -> dict[int, int]:
    """The total trace at every degree n = 1 (mod L) as an element of
    Z[(1/L)Z/Z], L the multiplicity lcm: j -> c stands for c times the
    class of j/L.  It is ``type_classes`` of the graph's principal type,
    which is built on the first call and held by the graph."""
    return type_classes(g.principal_type, g.mult_lcm)


def total_trace(g: FiberGraph, n: int) -> GroupRingElement:
    """Trace of the degree-n action on the alternating sum of fiber
    cohomology, for an int n >= 2 coprime to the multiplicity lcm L.  By
    the Brauer-trace formula it is ``limit_trace`` with each class j/L
    moved to (j n mod L)/L, that is to x^((j n mod L) L^-1) in Z[Z/n],
    and (j n mod L) L^-1 = -floor(j n / L) mod n, as j n L^-1 = 0 mod n."""
    if not isinstance(n, int):
        raise BadInput(f"degree must be an integer, got {n!r}")
    if n < 2:
        raise BadInput(f"degree must be >= 2, got {int_text(n)}")
    lcm = g.mult_lcm
    # the lcm itself may have more digits than str() converts
    shared = math.gcd(n, lcm)
    if shared != 1:
        raise BadInput(
            f"degree {int_text(n)} must be coprime to the multiplicity lcm; "
            f"they share the factor {int_text(shared)}"
        )
    return GroupRingElement(n, ((-(j * n // lcm), c) for j, c in limit_trace(g).items()))


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
