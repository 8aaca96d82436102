"""Fiber graphs: the multigraph of irreducible components of a special
fiber, with per-vertex genus and multiplicity, plus everything computed
from it per degree n: self-intersections on the resolved surface, the
total trace (built over the classes j/L of (1/L)Z/Z, L the multiplicity
lcm), and the character multiset on H^1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    BadInput,
    NegativeCharacterCoefficient,
    NonIntegralSelfIntersection,
    ParseError,
    ValidationError,
)
from .exactalg import GroupRingElement
from .resolution import MAX_MULTIPLICITY, Singularity, chain_ends
from .resolution import resolve  # noqa: F401  bench/test_smoke.py traces fiber.resolve
from .singtrace import at_degree, block_sum, edge_blocks, vertex_block

# Most characters of graph text that parse_graph accepts; the CLI reads no
# more than one past it.  At the bound, jumps takes about 0.12 s on a cycle
# of 20,833 reduced curves with five-digit ids and 0.15 s on two reduced
# curves meeting 111,105 times (which exits at MAX_GENUS before any trace is
# built), on a 2-vCPU Xeon VM.
MAX_GRAPH_CHARS = 10**6

# Most block terms a fiber trace builds, counted before any is built.
# rational_trace (character and trace-fiber) builds m1 + m2 + gcd(m1, m2) per
# distinct edge pair and mult per distinct vertex class: a valid fiber of
# genus 0 can need about 1.5 M^2 of them, as the chain 1 - M - (M-1) - ... -
# 2 - 1 does, which neither MAX_GENUS nor MAX_GRAPH_CHARS bounds; at the bound
# that chain (M = 706, a 30 KB file) takes about 0.65 s in character on a
# 2-vCPU Xeon VM.  jumps.limit_trace builds m (deg + 1) per principal class
# and d per net count of (1/d)Z/Z, so chains cost it nothing; at the bound two
# meeting genus-0 curves of multiplicity 83,311, each with two arms down to a
# reduced tail (a 4 KB file of genus 83,310), take about 0.65 s in jumps.
# Every catalog entry needs fewer than 100 terms.
MAX_BLOCK_TERMS = 750_000


class Vertex(NamedTuple):
    id: str
    genus: int
    mult: int


@dataclass(frozen=True, eq=False, repr=False)
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


@dataclass(frozen=True)
class CharacterMultiset:
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
    UTF-8.
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
            if genus[:6] == "genus=" and mult[:5] == "mult=":  # the documented order
                try:
                    vertices.append((vid, int(genus[6:]), int(mult[5:])))
                    continue
                except ValueError:
                    pass  # the field loop names the bad field
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


def self_intersections(g: FiberGraph, n: int) -> dict[str, int]:
    """Self-intersection of each surviving component on the resolved
    degree-n surface: minus the sum of the adjacent exceptional chain-end
    multiplicities, divided by the component multiplicity.

    The end of a chain on the m2 branch has multiplicity mu_1, the end on
    the m1 branch mu_L; a loop contributes both ends to its vertex.
    Isolated vertices get 0.
    """
    return dict(sorted(zip(g.ids, _edge_pass(g, n)[0])))


def _edge_pass(g: FiberGraph, n: int) -> tuple[list[int], dict]:
    """One pass over the edges, at a degree n checked first.  Every edge is a singularity (m1, m2, n),
    m1 the multiplicity of its larger endpoint id and m2 of the other
    (branch symmetry makes the choice immaterial; the rule buys
    determinism), and its trace depends only on (m1, m2).  So chain_ends
    runs once per distinct pair, and each edge adds its ends to its two
    endpoints.  Returns the self-intersections by vertex position and,
    per pair, the chain ends and the number of edges.  A non-integral
    self-intersection names the smallest failing id."""
    _check_degree(g, n)
    mults = g.mults
    ends = [0] * len(mults)  # by vertex position
    classes: dict[tuple[int, int], list[int]] = {}  # (m1, m2) -> [mu_1, mu_L, count]
    for lo, hi in g.pairs:  # ids[lo] <= ids[hi]
        pair = (mults[hi], mults[lo])
        cls = classes.get(pair)
        if cls is None:
            cls = classes[pair] = [*chain_ends(Singularity(*pair, n)), 0]
        ends[lo] += cls[0]
        ends[hi] += cls[1]
        cls[2] += 1
    if any(total % m for total, m in zip(ends, mults)):
        vid, total, m = min(row for row in zip(g.ids, ends, mults) if row[1] % row[2])
        raise NonIntegralSelfIntersection(
            f"vertex {vid}: adjacent chain-end multiplicities sum to {total}, "
            f"not a multiple of mult {m}; not a valid fiber"
        )
    return [-(total // m) for total, m in zip(ends, mults)], classes


def rational_trace(g: FiberGraph, n: int) -> dict[int, int]:
    """The total trace at degree n as an element of Z[(1/L)Z/Z], L the
    multiplicity lcm: j -> c stands for c times the class of j/L, summed
    over the vertex blocks and each edge's closed-form blocks.  Equal
    blocks are built once and scaled by their count.  It depends on n only
    through the chain ends, so once n > L only through n mod L."""
    si, classes = _edge_pass(g, n)
    vertex_classes = Counter(zip(g.mults, g.genera, si))
    terms = sum(m1 + m2 + math.gcd(m1, m2) for m1, m2 in classes)
    terms += sum(mult for mult, _, _ in vertex_classes)
    if terms > MAX_BLOCK_TERMS:
        raise BadInput(
            f"the trace would build {terms} block terms, more than "
            f"MAX_BLOCK_TERMS = {MAX_BLOCK_TERMS}"
        )
    counted = [(vertex_block(*key), k) for key, k in vertex_classes.items()]
    counted += [(block, k) for (m1, m2), (mu1, mu_last, k) in classes.items()
                for block in edge_blocks(m1, m2, mu1, mu_last)]
    return block_sum(((m, [k * c for c in coeffs]) for (m, coeffs), k in counted), g.mult_lcm)


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
    if math.gcd(n, g.mult_lcm) != 1:
        raise BadInput(
            f"degree {n} must be coprime to the multiplicity lcm {g.mult_lcm}"
        )
