"""Value semantics of the package's records: the named tuples and FiberGraph."""

import copy
import pickle

import pytest

from fibertrace import (
    FiberTypeId,
    JumpOptions,
    Singularity,
    compute_jumps,
    h1_character,
    lookup,
    resolve,
    singularity_trace,
)
from fibertrace.errors import BadInput
from fibertrace.exactalg import GroupRingElement

GRAPH_COLUMNS = ("ids", "genera", "mults", "degrees", "heads", "tails", "_position")


def records():
    """One instance of each record class."""
    g = lookup(FiberTypeId.parse("ogg:4"))
    return [Singularity(3, 4, 13), resolve(Singularity(3, 4, 13)),
            FiberTypeId.parse("kodaira:In:3"), JumpOptions(), compute_jumps(g),
            h1_character(g, 13), g]


def test_seven_record_classes():
    assert len({type(r) for r in records()}) == 7


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned_or_deleted(record):
    fields = getattr(record, "_fields", GRAPH_COLUMNS)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert hasattr(record, name)


def test_graph_columns_cannot_be_deleted():
    g = lookup(FiberTypeId.parse("kodaira:IV"))
    with pytest.raises(AttributeError, match="cannot delete field 'ids'"):
        del g.ids
    with pytest.raises(AttributeError, match="cannot assign to field 'mults'"):
        g.mults = (1,)
    assert len(g.ids) == 4


def test_singularity_validates_on_every_path():
    s = Singularity(3, 4, 13)
    assert repr(s) == "Singularity(m1=3, m2=4, n=13)"
    assert s == Singularity(m1=3, m2=4, n=13) == s._replace(n=13)
    with pytest.raises(BadInput, match="degree 12 must be coprime"):
        s._replace(n=12)
    with pytest.raises(BadInput, match="must be >= 1"):
        Singularity._make((0, 1, 5))
    assert Singularity._make((3, 4, 13)) == s
    assert copy.copy(s) == pickle.loads(pickle.dumps(s)) == s


@pytest.mark.parametrize("args", [(2, 3, 7.0), (2.0, 3, 7), ("2", 3, 7), (2, None, 7)])
def test_singularity_refuses_values_that_are_not_ints(args):
    # a float would pass the range checks and end in a raw TypeError in
    # resolve, chain_ends or the trace, and a string in one inside them
    with pytest.raises(BadInput, match="must be an integer, got "):
        Singularity(*args)


def test_group_ring_refuses_a_modulus_that_is_not_an_int():
    # a float modulus would reduce the exponents to floats
    with pytest.raises(BadInput, match="must be an integer, got 5.5"):
        GroupRingElement(5.5, [(1, 1)])
    with pytest.raises(BadInput, match="must be an integer, got '5'"):
        GroupRingElement("5")


def test_bool_stays_an_int():
    # as in catalog.lookup and the sweep options, bool is an int
    assert Singularity(True, 2, 3) == (1, 2, 3)
    assert GroupRingElement(True, [(0, 1)]).terms == {0: 1}
    assert singularity_trace(Singularity(True, True, 3)) == singularity_trace(Singularity(1, 1, 3))


def test_records_unpack_and_compare_as_tuples():
    m1, m2, n = Singularity(3, 4, 13)
    assert (m1, m2, n) == Singularity(3, 4, 13) == (3, 4, 13)
    assert hash(Singularity(3, 4, 13)) == hash((3, 4, 13))
    assert JumpOptions() == (1000, 3) and JumpOptions(sweeps=2).n_min == 1000
    assert FiberTypeId.parse("kodaira:IV") == ("kodaira", "IV", None)
    assert str(FiberTypeId.parse("kodaira:In:3")) == "kodaira:In:3"
    assert repr(FiberTypeId.parse("ogg:4")) == "FiberTypeId(family='ogg', name='4', parameter=None)"
    res = resolve(Singularity(3, 4, 13))
    assert (res.n, res.length, res.b) == (13, 3, (2, 2, 5))
