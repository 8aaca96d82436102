"""parse_graph, FiberGraph and FiberGraph.build against the line walk
and the validation they replaced, kept here as references: on generated
inputs each must give the same graph, or the same error with the same
message, whether parse_graph reads the text in bulk or line by line.
Also the graph's value semantics: the sorted views are built only on
use, and the input order changes neither equality, hash nor repr; the
degree and neighbour-sum columns against a count over the edge view; and
a graph whose self-intersections are not integers is refused by the
trace, not by the parser."""

import random
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fibertrace import fiber
from fibertrace.catalog import FiberTypeId, lookup
from fibertrace.errors import (
    BadInput,
    FibertraceError,
    NonIntegralSelfIntersection,
    ParseError,
    ValidationError,
)
from fibertrace.fiber import (
    MAX_GRAPH_CHARS,
    FiberGraph,
    Vertex,
    h1_character,
    parse_graph,
    total_trace,
)
from fibertrace.jumps import compute_jumps
from reference import edge_counts
from test_cli import GRAPH_IDS, GRAPH_LINES, SPELLED_INTS


def reference_build(vertices, edges):
    """FiberGraph.build before it validated in one walk over the edges:
    every vertex checked in input order, every endpoint looked up in a set,
    connectivity by a search over adjacency sets, degrees counted last.
    Returns (vertices, edges, degrees)."""
    vs = tuple(Vertex(*v) if not isinstance(v, Vertex) else v for v in vertices)
    ids = [v.id for v in vs]
    known = set(ids)
    if len(known) != len(ids):
        dup = sorted(i for i, count in Counter(ids).items() if count > 1)
        raise ValidationError(f"duplicate vertex id(s): {', '.join(dup)}")
    for v in vs:
        if v.genus < 0:
            raise ValidationError(f"vertex {v.id}: genus must be >= 0")
        if v.mult < 1:
            raise ValidationError(f"vertex {v.id}: multiplicity must be >= 1")
        if v.mult > fiber.MAX_MULTIPLICITY:
            raise BadInput(
                f"vertex {v.id}: multiplicity {v.mult} exceeds "
                f"MAX_MULTIPLICITY = {fiber.MAX_MULTIPLICITY}"
            )
    es = []
    for a, b in edges:
        if a not in known or b not in known:
            missing = a if a not in known else b
            raise ValidationError(f"edge endpoint {missing!r} is not a declared vertex")
        es.append((a, b) if a <= b else (b, a))
    vs, es = tuple(sorted(vs, key=lambda v: v.id)), tuple(sorted(es))
    if not vs:
        raise ValidationError("graph has no vertices")
    adj = {v.id: set() for v in vs}
    for a, b in es:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {vs[0].id}, [vs[0].id]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(vs):
        raise ValidationError("graph is not connected")
    if all(v.mult != 1 for v in vs):
        raise ValidationError("no vertex has multiplicity 1")
    return vs, es, Counter(end for edge in es for end in edge)


def reference_parse(text):
    """parse_graph before it read the fields by position: one field loop
    for every vertex line; the lists go to reference_build."""
    if len(text) > MAX_GRAPH_CHARS:
        raise BadInput(f"graph text exceeds MAX_GRAPH_CHARS = {MAX_GRAPH_CHARS} characters")
    ascii_text = text.isascii()
    if not ascii_text:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            line = len((text[:exc.start] + "#").splitlines())
            raise ParseError(line, "not valid UTF-8") from None
    vertices, edges = [], []
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
            vertices.append(Vertex(vid, fields["genus"], fields["mult"]))
        elif kind == "edge":
            if len(tokens) != 3:
                raise ParseError(lineno, "expected: edge <id> <id>")
            if not ascii_text and not (tokens[1].isascii() and tokens[2].isascii()):
                raise ParseError(lineno, "edge endpoints must be ASCII tokens")
            edges.append((tokens[1], tokens[2]))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    return reference_build(vertices, edges)


def outcome(route, *args):
    """What a route made of its input, in a form both routes share: the
    error's class, message and line, or the sorted vertices and edges with
    each vertex as looked up by id and its degree."""
    try:
        result = route(*args)
    except FibertraceError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, FiberGraph):
        ids = [v.id for v in result.vertices]
        degree = dict(zip(result.ids, result.degrees))
        return (result.vertices, result.edges, [result.vertex(i) for i in ids],
                [degree[i] for i in ids])
    vertices, edges, degrees = result
    return vertices, edges, list(vertices), [degrees[v.id] for v in vertices]


def random_build_input(rng):
    """Vertex and edge lists of up to six vertices: half with a bad genus
    or multiplicity allowed on any vertex, some with a duplicate id or an
    undeclared endpoint, most spanned by a tree, with loops and parallel
    edges on top; tuples and Vertex records mixed."""
    top = fiber.MAX_MULTIPLICITY
    k = rng.choice((0, 1, 1, 2, 3, 4, 5, 6))
    ids = [f"v{i}" for i in range(k)]
    if k > 1 and rng.random() < 0.1:
        ids[rng.randrange(k)] = rng.choice(ids)
    bad = rng.random() < 0.5
    genera = (0, 0, 1, 2, -1) if bad else (0, 0, 1, 2)
    mults = (1, 2, 3, 0, -1, top, top + 1) if bad else (1, 1, 2, 3, top)
    vertices = [(vid, rng.choice(genera), rng.choice(mults)) for vid in ids]
    vertices = [Vertex(*v) if rng.random() < 0.5 else v for v in vertices]
    edges = []
    if rng.random() < 0.8:
        edges += [(ids[rng.randrange(i)], ids[i]) for i in range(1, k)]
    edges += [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3)) if ids]
    edges += rng.sample(edges, min(len(edges), rng.randint(0, 2)))  # parallel edges
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    if rng.random() < 0.08:
        edges.append((rng.choice(ids + ["w"]), "w"))
    rng.shuffle(edges)
    return vertices, edges


ERRORS = ("duplicate vertex id", "genus must be >= 0", "multiplicity must be >= 1",
          "exceeds MAX_MULTIPLICITY", "is not a declared vertex", "has no vertices",
          "is not connected", "no vertex has multiplicity 1")


def from_columns(vertices, edges):
    """The FiberGraph constructor on the columns of the rows."""
    return FiberGraph([v[0] for v in vertices], [v[1] for v in vertices],
                      [v[2] for v in vertices], [a for a, _ in edges], [b for _, b in edges])


def test_build_matches_reference_build():
    # two inputs the constructor once took unchecked: no reduced component,
    # and an edge end given as a position instead of an id
    for vertices, edges in [([("a", 0, 2)], []),
                            ([("a", 0, 1), ("b", 0, 1)], [(5, 0), ("a", "b")])]:
        want = outcome(reference_build, vertices, edges)
        assert want[0] is ValidationError
        assert outcome(from_columns, vertices, edges) == want
        assert outcome(FiberGraph.build, vertices, edges) == want
    rng = random.Random(2611)
    seen = Counter()
    for _ in range(4000):
        vertices, edges = random_build_input(rng)
        want = outcome(reference_build, vertices, edges)
        assert outcome(FiberGraph.build, vertices, edges) == want, (vertices, edges)
        assert outcome(from_columns, vertices, edges) == want, (vertices, edges)
        # two offending vertices, so that the first in input order must be named
        seen["two bad vertices"] += sum(
            v[1] < 0 or not 1 <= v[2] <= fiber.MAX_MULTIPLICITY for v in vertices) > 1
        if isinstance(want[0], type):
            seen[next(error for error in ERRORS if error in want[1])] += 1
        else:
            seen["valid"] += 1
            seen["loop"] += any(a == b for a, b in want[1])
            seen["parallel edges"] += len(set(want[1])) < len(want[1])
            seen["single vertex"] += len(want[0]) == 1
    assert len(seen) == len(ERRORS) + 5 and min(seen.values()) >= 30, seen


def test_ragged_columns_are_refused_first():
    # columns of unequal length, each also with an undeclared end or too few
    # vertex fields, so that the length check must come before the others
    cases = [((("a",), (1,), (1,), ("a",), ()), "1 ids, 1 genera, 1 mults, 1 heads, 0 tails"),
             ((("a", "b"), (0,), (1, 1), ("a",), ("b",)),
              "2 ids, 1 genera, 2 mults, 1 heads, 1 tails"),
             ((("a", "b"), (0, 0), (1,), ("a",), ("b",)),
              "2 ids, 2 genera, 1 mults, 1 heads, 1 tails"),
             ((("a",), (0, 0), (1,), ("a",), ("z",)), "1 ids, 2 genera, 1 mults, 1 heads, 1 tails")]
    for columns, lengths in cases:
        with pytest.raises(ValidationError, match=f"^column lengths differ: {lengths}$"):
            FiberGraph(*columns)
    # iterators are columns too
    g = FiberGraph(iter("ab"), iter((0, 0)), iter((1, 1)), iter("a"), iter("b"))
    assert (g.ids, g.heads, g.tails, g.degrees) == (("a", "b"), (0,), (1,), (1, 1))


# every line break str.splitlines knows
BREAKS = st.sampled_from(
    ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
ODD_LINES = st.one_of(
    GRAPH_LINES,
    st.builds("vertex {} genus={} mult={}{}".format,
              st.one_of(GRAPH_IDS, st.sampled_from(["\u00e9", "\uff56", "a\udcff"])),
              SPELLED_INTS, st.one_of(SPELLED_INTS, st.just("1")),
              st.sampled_from(["", "#", " # c", "\t"])),
    # near-miss keys and separators, in either order
    st.builds("vertex {} {}{}{} {}{}{}".format, GRAPH_IDS,
              *[st.sampled_from(["genus", "mult", "genu", "mul", "multi", "Mult"]),
                st.sampled_from(["=", "==", ":"]), st.integers(0, 12)] * 2),
    st.builds("edge\t{} {}#{}".format, GRAPH_IDS, st.sampled_from(["a", "\u00e9", "\udcff"]),
              st.text(max_size=3)),
    st.sampled_from(["\udcff", "# \ud800", "vertex", "edge a", "# only a comment"]),
)
# field tokens from a small pool in either order, so that one text reuses a
# token, read once and then looked up, in both orders and with spelled ints
POOL_LINES = st.builds(
    "vertex {} {} {}".format, GRAPH_IDS,
    *[st.sampled_from(["genus=0", "genus=1", "genus=+0", "genus=00", "genus=x",
                       "mult=1", "mult=2", "mult=0_1", "mult=", "mult=-1"])] * 2)


def graph_text(lines):
    return "".join(
        (line.decode("utf-8", "surrogateescape") if isinstance(line, bytes) else line) + brk
        for line, brk in lines)


PARSE_CASES = [
    "vertex a genus=1 mult=1\n",
    "vertex a mult=1 genus=1\r\nvertex b genus=0 mult=2\redge a b\x85edge a b\u2028",
    "vertex a genus=+0 mult=0_1 # a comment\tgenus=x\nedge a a#edge a b\n",
    "vertex\ta\tgenus=0\tmult=1\fvertex b genus=-0 mult=1\vedge a b\x1c",
    "vertex a genus=0 mult=\u0661\nvertex b genus=1_0 mult=+1\u2029edge b a\x1d\x1e",
    # a documented-order line, then the other order reusing its tokens
    "vertex a genus=0 mult=1\nvertex b mult=1 genus=0\nedge a b\nedge b b\n",
    "vertex a genus=0 mult=1\nvertex b genus=+0 mult=1\nvertex c genus=00 mult=2\n"
    "vertex d genus=0_0 mult=1\nedge a b\nedge b c\nedge c d\n",
    "vertex a genus=0 mult=1\nvertex b genus=0 genus=1\n",
    "vertex a genus=0 mult=1\nvertex b genus=0 mult=1_\n",
    "vertex a genus=0 mult=1\nvertex b mult=x genus=y\n",
    # genus=0 read on line 1, so only the bad or missing mult is left to name
    "vertex a genus=0 mult=1\nvertex b genus=0 mult=x\n",
    "vertex a genus=0 mult=1\nvertex b genus=0 genus=0\n",
    "vertex a genus=0 mul=11\n",
    "vertex a genera=0 mult=1\n",
    "vertex a genus=0 mult=1\nvertex \u00e9 genus=0 mult=1\n",
    "vertex a genus=0 mult=1\nedge a \udcff\n",
    "vertex a genus=0 mult=1\n# \udcff\nedge a a\n",
    "vertex a genus=0 mult=2\nvertex b genus=-1 mult=1\nvertex c genus=0 mult=0\n",
    "edge a b\n",
    "",
]


def test_parse_matches_reference_parse_on_named_cases():
    outcomes = [outcome(parse_graph, text) for text in PARSE_CASES]
    assert outcomes == [outcome(reference_parse, text) for text in PARSE_CASES]
    assert [i for i, o in enumerate(outcomes) if isinstance(o[0], tuple)] == [0, 1, 2, 3, 4, 5, 6]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.one_of(POOL_LINES, ODD_LINES), BREAKS), max_size=10))
def test_parse_matches_reference_parse(lines):
    text = graph_text(lines)
    assert outcome(parse_graph, text) == outcome(reference_parse, text)


# ids of the plain spelling: printable ASCII without "#", some spelled as
# a keyword or a field
PLAIN_IDS = st.sampled_from(["a", "b", "c", "v10", "!", '"q"', "$", "~", "vertex", "edge",
                             "genus=0", "a-b"])
# a valid fiber's fields, some with leading zeros; a bad multiplicity is
# put in on its own
PLAIN_GENERA = st.sampled_from(["0"] * 6 + ["1", "00", "2"])
PLAIN_MULTS = st.sampled_from(["1"] * 6 + ["2", "2", "01", "3"])


@st.composite
def plain_graph_texts(draw):
    """Graph text in the plain spelling, its vertex lines and then its edge
    lines: one to six vertices, sometimes a duplicate id, most texts spanned
    by a tree, with loops, parallel edges and an undeclared endpoint on
    top, and either end of an edge first."""
    # the rare cases at the top of each range, since hypothesis favours the bottom
    ids = draw(st.lists(PLAIN_IDS, min_size=1, max_size=6, unique=True))
    if draw(st.integers(0, 9)) == 9:
        ids.append(draw(st.sampled_from(ids)))
    mults = [draw(PLAIN_MULTS) for _ in ids]
    if draw(st.integers(0, 7)) == 7:
        mults[draw(st.integers(0, len(ids) - 1))] = draw(
            st.sampled_from(["0", str(fiber.MAX_MULTIPLICITY + 1)]))
    lines = [f"vertex {vid} genus={draw(PLAIN_GENERA)} mult={m}" for vid, m in zip(ids, mults)]
    edges = []
    if draw(st.integers(0, 4)) < 4:
        edges += [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, len(ids))]
    edges += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3))
    if draw(st.integers(0, 9)) == 9:
        edges.append(("w", draw(st.sampled_from(ids))))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(edges))]
    return "".join(f"{line}\n" for line in lines + [f"edge {a} {b}" for a, b in edges])


def near_miss(text, kind, where):
    """The plain text changed into another spelling of one kind; ``where``
    places the change."""
    lines = text.splitlines(keepends=True)
    if kind == "no final newline":
        return text[:-1]
    if kind == "tab":
        spaces = [i for i, ch in enumerate(text) if ch == " "]
        i = spaces[where % len(spaces)]
        return text[:i] + "\t" + text[i + 1:]
    if kind == "CRLF":
        return text.replace("\n", "\r\n")
    if kind == "interleaved edge line":
        vertex_lines = sum(line.startswith("vertex ") for line in lines)
        if vertex_lines < len(lines):  # one edge line moved above a vertex line
            line = lines.pop(vertex_lines + where % (len(lines) - vertex_lines))
            lines.insert(where % max(vertex_lines, 1), line)
        return "".join(lines)
    if kind == "comment":  # on a line of its own, or glued to the end of a line
        i = where % (len(lines) + 1)
        if where % 2 and i < len(lines):
            lines[i] = lines[i][:-1] + "#c\n"
        else:
            lines.insert(i, "# a comment\n")
        return "".join(lines)
    if kind == "long field":
        # past the 640 digits read in bulk: 700 are read line by line,
        # 4,301 and 5,000 are more than int() converts
        digits = ("7" * 700, "1" * 4301, "0" * 5000)[where % 3]
        field = ("genus=", "mult=")[where // 3 % 2]
        return re.sub(f"{field}[0-9]+", field + digits, text, count=1)
    return text


# the plain text itself three times over, so that both routes run often
NEAR_MISSES = ("plain",) * 3 + ("no final newline", "tab", "CRLF", "interleaved edge line",
                                "comment", "long field")


def test_both_parse_routes_match_reference_parse():
    # plain texts are read in bulk and every near miss line by line: each
    # route must run often enough to be checked against the reference
    bulk = mock.patch.object(fiber, "_plain_columns", wraps=fiber._plain_columns)
    loop = mock.patch.object(fiber, "_read_lines", wraps=fiber._read_lines)

    @settings(max_examples=400, deadline=None)
    @given(plain_graph_texts(), st.sampled_from(NEAR_MISSES), st.integers(0, 100))
    def check(text, kind, where):
        text = near_miss(text, kind, where)
        assert outcome(parse_graph, text) == outcome(reference_parse, text)

    with bulk as bulk_route, loop as line_route:
        check()
    assert bulk_route.call_count >= 50 and line_route.call_count >= 50, (
        bulk_route.call_count, line_route.call_count)


@pytest.mark.parametrize("field", ["genus", "mult"])
def test_a_field_past_the_int_digit_limit_is_a_parse_error(field):
    # an otherwise plain text; int() refuses 5,000 digits, which the line
    # walk reports as a ParseError on the line that holds them
    digits = "1" * 5000
    values = {"genus": "0", "mult": "1", field: digits}
    text = (f"vertex a genus=0 mult=1\nvertex b genus={values['genus']} mult={values['mult']}\n"
            "edge a b\n")
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert info.value.line == 2
    assert str(info.value) == f"line 2: {field} must be an integer, got {digits!r}"
    assert outcome(parse_graph, text) == outcome(reference_parse, text)


def test_each_field_token_is_converted_once_per_call(monkeypatch):
    # 1,000 vertex lines over two genus tokens and three mult tokens: five
    # int conversions, where one per field and line would make 2,000
    calls = []

    def counting(*args):
        calls.append(args)
        return int(*args)

    monkeypatch.setattr(fiber, "int", counting, raising=False)
    lines = [f"vertex v{i} genus={i % 2} mult={1 + i % 3}" for i in range(1000)]
    text = "\n".join(lines + [f"edge v{i} v{i + 1}" for i in range(999)]) + "\n"
    g = parse_graph(text)
    assert g.genera == tuple(i % 2 for i in range(1000))
    assert g.mults == tuple(1 + i % 3 for i in range(1000))
    assert sorted(calls) == [("0",), ("1",), ("1",), ("2",), ("3",)]
    # the tokens are held for one call only: a second call converts them again
    assert parse_graph(text) == g and len(calls) == 10


def graph_lines(g):
    """The vertex and edge lines of a graph's text, in sorted order."""
    vertices = [f"vertex {v.id} genus={v.genus} mult={v.mult}" for v in g.vertices]
    return vertices, [f"edge {a} {b}" for a, b in g.edges]


def test_jumps_and_character_build_no_sorted_view():
    # parse, jumps and the character read only the input-order columns
    vertices, edges = graph_lines(lookup(FiberTypeId.parse("kodaira:In*:995")))
    g = parse_graph("\n".join(vertices + edges) + "\n")
    assert len(g.ids) == 1000
    assert compute_jumps(g).jumps == (Fraction(1, 2),)
    assert h1_character(g, 1001).total == 1
    assert "vertices" not in g.__dict__ and "edges" not in g.__dict__
    assert len(g.vertices) == 1000 and "vertices" in g.__dict__


def test_input_order_does_not_change_the_value():
    rng = random.Random(14)
    for cid in ("kodaira:II*", "ogg:4", "kodaira:In:6", "kodaira:In*:3"):
        vertices, edges = graph_lines(lookup(FiberTypeId.parse(cid)))
        graphs = []
        for _ in range(4):
            lines = vertices + [f"edge {b} {a}" if rng.random() < 0.5 else f"edge {a} {b}"
                                for _, a, b in map(str.split, edges)]
            rng.shuffle(lines)
            graphs.append(parse_graph("\n".join(lines)))
        first = graphs[0]
        assert len({g.ids for g in graphs}) > 1, cid
        for g in graphs[1:]:
            assert g == first and hash(g) == hash(first) and repr(g) == repr(first), cid
        assert repr(first) == f"FiberGraph(vertices={first.vertices!r}, edges={first.edges!r})"
        assert first != FiberGraph.build([("a", 0, 1)], []) and first != vertices


def test_undeclared_id_raises_key_error():
    g = parse_graph("vertex a genus=0 mult=1\nvertex b genus=1 mult=1\nedge a a\nedge a b\n")
    assert (g.vertex("b"), g.ids, g.degrees) == (Vertex("b", 1, 1), ("a", "b"), (3, 1))
    with pytest.raises(KeyError):
        g.vertex("c")


@st.composite
def multigraph_rows(draw, prefix="v"):
    """Vertex rows and edge pairs of a connected multigraph of up to eight
    vertices, one of them reduced: a spanning tree, with loops and
    parallel edges on top, the edges shuffled and each either way round."""
    k = draw(st.integers(1, 8))
    ids = [f"{prefix}{i}" for i in range(k)]
    mults = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, fiber.MAX_MULTIPLICITY)),
                          min_size=k, max_size=k))
    mults[draw(st.integers(0, k - 1))] = 1
    genera = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, k)]
    edges += [(ids[a], ids[b]) for a, b in draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=6))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))  # parallel edges
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(edges))]
    return list(zip(ids, genera, mults)), edges


@settings(max_examples=300, deadline=None)
@given(multigraph_rows())
def test_degree_and_neighbour_sum_columns_match_the_edge_view(rows):
    g = FiberGraph.build(*rows)
    degree, around = edge_counts(g)
    assert g.degrees == tuple(map(degree.__getitem__, g.ids))
    assert g.neighbour_sums == tuple(map(around.__getitem__, g.ids))
    assert sum(g.degrees) == 2 * len(g.edges)
    # the columns take no part in the value
    assert "neighbour_sums" not in repr(g) and g == FiberGraph.build(*rows)


@settings(max_examples=100, deadline=None)
@given(multigraph_rows(prefix="a"), multigraph_rows(prefix="b"))
def test_two_components_are_refused(left, right):
    with pytest.raises(ValidationError, match="^graph is not connected$"):
        FiberGraph.build(left[0] + right[0], left[1] + right[1])


# graphs whose neighbour multiplicities do not sum to a multiple of some
# vertex's own, with the message naming the smallest failing id
NON_INTEGRAL = {
    # no principal component, so limit_trace walks no edge
    "path 1-3-1": (
        "vertex a genus=0 mult=1\nvertex b genus=0 mult=3\nvertex c genus=0 mult=1\n"
        "edge a b\nedge b c\n",
        "vertex b: neighbour multiplicities sum to 2, not a multiple of mult 3; not a valid fiber"),
    "center of multiplicity 2": (
        "vertex c genus=0 mult=2\nvertex x genus=0 mult=1\nvertex y genus=0 mult=1\n"
        "vertex z genus=0 mult=1\nedge c x\nedge c y\nedge c z\n",
        "vertex c: neighbour multiplicities sum to 3, not a multiple of mult 2; not a valid fiber"),
    # a loop adds the vertex's own multiplicity twice; d and e both fail
    "loop and two failing ids": (
        "vertex e genus=1 mult=3\nvertex d genus=0 mult=2\nvertex r genus=0 mult=1\n"
        "edge e e\nedge e r\nedge d r\n",
        "vertex d: neighbour multiplicities sum to 1, not a multiple of mult 2; not a valid fiber"),
}


@pytest.mark.parametrize("text, message", NON_INTEGRAL.values(), ids=NON_INTEGRAL)
def test_non_integral_self_intersection_is_found_by_the_trace(text, message):
    g = parse_graph(text)  # the parser takes it
    for call in (lambda: compute_jumps(g), lambda: h1_character(g, 7),
                 lambda: total_trace(g, 7)):
        with pytest.raises(NonIntegralSelfIntersection) as info:
            call()
        assert str(info.value) == message
        assert info.traceback[-1].name == "principal_type"
