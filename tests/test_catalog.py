import math
from fractions import Fraction

import pytest
from reference import self_intersections
from test_fiber import adjunction_genus

from fibertrace import catalog
from fibertrace.catalog import FiberTypeId, catalog_ids, lookup
from fibertrace.errors import BadInput, UnknownType
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
