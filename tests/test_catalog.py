import copy
import math
from fractions import Fraction

import pytest
from reference import self_intersections
from test_fiber import adjunction_genus

from fibertrace import catalog
from fibertrace.catalog import FiberTypeId, catalog_ids, lookup
from fibertrace.errors import BadInput, UnknownType
from fibertrace.fiber import FiberGraph, h1_character, total_trace
from fibertrace.jumps import JumpOptions, compute_jumps


def test_parse_ids():
    assert FiberTypeId.parse("kodaira:IV") == FiberTypeId("kodaira", "IV")
    assert FiberTypeId.parse("kodaira:In*:3") == FiberTypeId("kodaira", "In*", 3)
    assert FiberTypeId.parse("ogg:4") == FiberTypeId("ogg", "4")
    assert str(FiberTypeId("kodaira", "In", 2)) == "kodaira:In:2"
    with pytest.raises(UnknownType):
        FiberTypeId.parse("IV")
    with pytest.raises(UnknownType):
        FiberTypeId.parse("kodaira:In:x")


def test_kodaira_iv_shape():
    g = lookup(FiberTypeId("kodaira", "IV"))
    mults = sorted(v.mult for v in g.vertices)
    assert mults == [1, 1, 1, 3]
    assert all(v.genus == 0 for v in g.vertices)
    assert len(g.edges) == 3


def test_ogg4_shape():
    g = lookup(FiberTypeId("ogg", "4"))
    assert sorted(v.mult for v in g.vertices) == [1, 1, 2, 2, 2, 3, 4]
    assert len(g.edges) == 6
    [center_degree] = [d for m, d in zip(g.mults, g.degrees) if m == 4]
    assert center_degree == 4


def test_good_reduction_entry():
    for tid in (FiberTypeId("kodaira", "I"), FiberTypeId("kodaira", "In", 0)):
        g = lookup(tid)
        assert len(g.vertices) == 1
        assert g.vertices[0].genus == 1
        assert g.vertices[0].mult == 1
        assert not g.edges


def test_cycle_entries():
    g1 = lookup(FiberTypeId("kodaira", "In", 1))
    assert len(g1.vertices) == 1 and g1.edges == (("v1", "v1"),)
    g2 = lookup(FiberTypeId("kodaira", "In", 2))
    assert len(g2.edges) == 2  # parallel pair
    g5 = lookup(FiberTypeId("kodaira", "In", 5))
    assert len(g5.vertices) == 5 and len(g5.edges) == 5


def test_parameter_bound(monkeypatch):
    monkeypatch.setattr(catalog, "MAX_PARAMETER", 5)
    for name in ("In", "In*"):
        assert lookup(FiberTypeId("kodaira", name, 5))
        with pytest.raises(BadInput, match="parameter 6 exceeds MAX_PARAMETER = 5"):
            lookup(FiberTypeId("kodaira", name, 6))


def test_star_shapes():
    ii = lookup(FiberTypeId("kodaira", "II"))
    assert sorted(v.mult for v in ii.vertices) == [1, 2, 3, 6]
    iii = lookup(FiberTypeId("kodaira", "III"))
    assert sorted(v.mult for v in iii.vertices) == [1, 1, 2, 4]
    ii_star = lookup(FiberTypeId("kodaira", "II*"))
    assert sorted(v.mult for v in ii_star.vertices) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    iv_star = lookup(FiberTypeId("kodaira", "IV*"))
    assert sorted(v.mult for v in iv_star.vertices) == [1, 1, 1, 2, 2, 2, 3]


def test_unknown_entries():
    for bad in ("kodaira:V", "ogg:5", "weier:IV", "kodaira:In", "kodaira:IV:2"):
        with pytest.raises(UnknownType):
            lookup(FiberTypeId.parse(bad))


def test_catalog_ids_listing():
    ids = catalog_ids()
    assert "kodaira:IV" in ids
    assert "ogg:4" in ids
    assert any(i.startswith("kodaira:In*") for i in ids)


def table_entries():
    """Every fixed id of the catalog table, and the members k <= 4 of each
    family, so that a new row is covered without editing this list."""
    out = []
    for cid in catalog_ids():
        if cid.endswith(":<k>"):
            out += [FiberTypeId.parse(cid.replace("<k>", str(k))) for k in range(5)]
        else:
            out.append(FiberTypeId.parse(cid))
    return out


def base_self_intersections(g):
    """E_v^2 on the fiber itself: E_v . F = 0 gives m_v E_v^2 = -(sum of the
    multiplicities of the other components meeting E_v, with multiplicity)."""
    mult = {v.id: v.mult for v in g.vertices}
    meets = dict.fromkeys(mult, 0)
    for a, b in g.edges:
        if a != b:
            meets[a] += mult[b]
            meets[b] += mult[a]
    return {vid: Fraction(-meets[vid], mult[vid]) for vid in mult}


@pytest.mark.parametrize("tid", table_entries(), ids=str)
def test_every_entry_valid_and_integral(tid):
    g = lookup(tid)  # FiberGraph.build already validates
    checked = 0
    for n in range(2, 40):
        if math.gcd(n, g.mult_lcm) == 1:
            si = self_intersections(g, n)  # raises if non-integral
            assert all(c <= 0 for c in si.values())
            checked += 1
    assert checked > 5
    # the numerical conditions an enumerator of fiber types must meet
    base = base_self_intersections(g)
    assert all(e.denominator == 1 for e in base.values()), base
    degree = dict(zip(g.ids, g.degrees))
    contractible = [v.id for v in g.vertices
                    if v.genus == 0 and base[v.id] == -1 and degree[v.id] <= 2]
    assert not contractible, "not minimal"


@pytest.mark.parametrize("tid", table_entries(), ids=str)
def test_every_entry_jumps_cleanly(tid):
    g = lookup(tid)
    js = compute_jumps(g, JumpOptions(n_min=200))
    assert all(0 <= j < 1 for j in js.jumps)
    assert all(js.n_tilde % j.denominator == 0 for j in js.jumps)
    # three witnesses, the first degrees = 1 mod the lcm above max(2 * n_tilde * lcm, 200)
    l = g.mult_lcm
    floor = max(2 * js.n_tilde * l, 200)
    first = js.witnesses[0]
    assert floor < first <= floor + l and first % l == 1 % l
    assert js.witnesses == (first, first + l, first + 2 * l)
    assert len(js.jumps) == adjunction_genus(g)


# -- the graph cache behind lookup ------------------------------------------

ALIASES = [("kodaira:IV", "kodaira:IV:0"), ("kodaira:I", "kodaira:In:0"),
           ("kodaira:I*", "kodaira:In*:0"), ("kodaira:In:1", FiberTypeId("kodaira", "In", True))]


def as_id(tid):
    return FiberTypeId.parse(tid) if isinstance(tid, str) else tid


def columns(g):
    return (g.ids, g.genera, g.mults, g.degrees, g.neighbour_sums, g.heads, g.tails,
            g._position)


def fresh_build(tid):
    """The graph of a valid id built from the table, bypassing lookup."""
    key = f"{tid.family}:{tid.name}"
    if key in catalog.ZERO_MEMBERS:
        return catalog.FAMILIES[catalog.ZERO_MEMBERS[key]](0)
    if key in catalog.FAMILIES:
        return catalog.FAMILIES[key](tid.parameter)
    return catalog._star(*catalog.STARS[key])


@pytest.fixture
def cold_cache():
    catalog._graph.cache_clear()
    yield
    catalog._graph.cache_clear()


def outcome(tid):
    try:
        return lookup(tid)
    except (UnknownType, BadInput) as exc:
        return type(exc), str(exc)


def test_lookup_returns_one_graph_per_canonical_id(cold_cache):
    for tid in table_entries():
        assert lookup(tid) is lookup(tid)
    for a, b in ALIASES:
        assert lookup(as_id(a)) is lookup(as_id(b)), (a, b)
    assert catalog._graph.cache_info().currsize == len(set(map(fresh_build, table_entries())))


def test_second_lookup_builds_nothing(cold_cache, monkeypatch):
    calls = []
    build = FiberGraph.build.__func__

    def counted(cls, vertices, edges):
        calls.append(1)
        return build(cls, vertices, edges)

    monkeypatch.setattr(FiberGraph, "build", classmethod(counted))
    for cid in ("kodaira:IV*", "ogg:4", "kodaira:In:7", "kodaira:In*:3", "kodaira:I"):
        before = len(calls)
        g = lookup(FiberTypeId.parse(cid))
        assert len(calls) == before + 1
        assert lookup(FiberTypeId.parse(cid)) is g
        assert len(calls) == before + 1, cid
    assert lookup(FiberTypeId.parse("kodaira:In:0")) is lookup(FiberTypeId.parse("kodaira:I"))
    assert len(calls) == 5


# (bad id, a valid neighbour that shares its cache key or its family, error, message)
BAD_IDS = [
    ("kodaira:V", "kodaira:IV", UnknownType, "unknown catalog id kodaira:V"),
    ("kodaira:IV:2", "kodaira:IV", UnknownType, "unknown catalog id kodaira:IV:2"),
    ("ogg:4:0", "ogg:4", UnknownType, "unknown catalog id ogg:4:0"),
    ("kodaira:In", "kodaira:In:0", UnknownType, "needs a parameter >= 0"),
    ("kodaira:In:-1", "kodaira:In:1", UnknownType, "needs a parameter >= 0"),
    ("kodaira:In*:-3", "kodaira:In*:3", UnknownType, "needs a parameter >= 0"),
    ("kodaira:In:6", "kodaira:In:5", BadInput, "parameter 6 exceeds MAX_PARAMETER = 5"),
    ("kodaira:In*:7", "kodaira:In*:5", BadInput, "parameter 7 exceeds MAX_PARAMETER = 5"),
    (FiberTypeId("kodaira", "In", 3.0), "kodaira:In:3", UnknownType, "must be an integer"),
    (FiberTypeId("kodaira", "In", "3"), "kodaira:In:3", UnknownType, "must be an integer"),
    (FiberTypeId("kodaira", "IV", 0.0), "kodaira:IV", UnknownType, "must be an integer"),
    (FiberTypeId("kodaira", "I", 0.0), "kodaira:I", UnknownType, "must be an integer"),
]


@pytest.mark.parametrize("bad, neighbour, error, message", BAD_IDS,
                         ids=[str(row[0]) for row in BAD_IDS])
def test_errors_fire_on_every_call(cold_cache, monkeypatch, bad, neighbour, error, message):
    monkeypatch.setattr(catalog, "MAX_PARAMETER", 5)
    bad, neighbour = as_id(bad), as_id(neighbour)
    for _ in range(2):
        with pytest.raises(error, match=message):
            lookup(bad)
    assert catalog._graph.cache_info().currsize == 0  # no error is cached
    lookup(neighbour)
    for _ in range(2):
        with pytest.raises(error, match=message):
            lookup(bad)


def test_bound_is_read_after_an_id_is_cached(cold_cache, monkeypatch):
    g = lookup(FiberTypeId("kodaira", "In*", 7))
    monkeypatch.setattr(catalog, "MAX_PARAMETER", 6)
    with pytest.raises(BadInput, match="parameter 7 exceeds MAX_PARAMETER = 6"):
        lookup(FiberTypeId("kodaira", "In*", 7))
    monkeypatch.setattr(catalog, "MAX_PARAMETER", 7)
    assert lookup(FiberTypeId("kodaira", "In*", 7)) is g


def test_outcomes_do_not_depend_on_lookup_order(cold_cache):
    tids = [as_id(t) for t in ("kodaira:In:2", "kodaira:I", "kodaira:In:0", "kodaira:In:-2",
                               "kodaira:IV", "kodaira:IV:0", "kodaira:IV:1", "ogg:4", "ogg:4:0",
                               "kodaira:In*:2", "kodaira:I*", "kodaira:In*", "kodaira:V",
                               f"kodaira:In:{catalog.MAX_PARAMETER + 1}")]
    tids += [FiberTypeId("kodaira", "In", 2.0), FiberTypeId("kodaira", "IV", 0.0),
             FiberTypeId("kodaira", "In", True), FiberTypeId("kodaira", "I", False)]
    forward = [outcome(t) for t in tids]
    catalog._graph.cache_clear()
    backward = [outcome(t) for t in reversed(tids)][::-1]
    assert forward == backward
    assert sum(isinstance(o, FiberGraph) for o in forward) == 10


def test_cache_is_bounded(cold_cache):
    assert catalog._graph.cache_info().maxsize == 32
    for k in range(40):
        lookup(FiberTypeId("kodaira", "In", k))
        assert catalog._graph.cache_info().currsize <= 32
    assert catalog._graph.cache_info().currsize == 32


def test_every_cached_graph_equals_a_fresh_build(cold_cache):
    for tid in table_entries():
        lookup(tid)
        g, fresh = lookup(tid), fresh_build(tid)
        assert g is not fresh
        assert g == fresh and columns(g) == columns(fresh), tid


@pytest.mark.parametrize("tid", table_entries(), ids=str)
def test_no_route_writes_to_a_shared_graph(tid):
    g = lookup(tid)
    before = copy.deepcopy(columns(g))
    n = next(n for n in range(2, 100) if math.gcd(n, g.mult_lcm) == 1)
    compute_jumps(g, JumpOptions(n_min=200))
    h1_character(g, n)
    total_trace(g, n)
    assert columns(g) == before
    assert lookup(tid) is g
