"""Value semantics of the package's records: the named tuples and FiberGraph."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from fibertrace import (
    FiberGraph,
    FiberTypeId,
    JumpOptions,
    Singularity,
    compute_jumps,
    h1_character,
    jh_expand,
    lookup,
    mod_inverse,
    resolve,
    singularity_trace,
    total_trace,
)
from fibertrace.errors import BadInput, ModulusMismatch, NotInvertible, UnknownType, int_text
from fibertrace.exactalg import GroupRingElement

GRAPH_COLUMNS = (
    "ids", "genera", "mults", "degrees", "neighbour_sums", "heads", "tails", "_position"
)


def records():
    """One instance of each record class."""
    g = lookup(FiberTypeId.parse("ogg:4"))
    return [Singularity(3, 4, 13), resolve(Singularity(3, 4, 13)),
            FiberTypeId.parse("kodaira:In:3"), JumpOptions(), compute_jumps(g),
            h1_character(g, 13), g, g.principal_type]


def test_eight_record_classes():
    assert len({type(r) for r in records()}) == 8


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


@pytest.mark.parametrize("columns, message", [
    ((["a", "b"], [0, 0], [1, 2.0], ["a"], ["b"]), "vertex b: multiplicity must be an integer, got 2.0"),
    ((["a"], [0.5], [1], [], []), "vertex a: genus must be an integer, got 0.5"),
    ((["a", "b"], [0, "1"], [1, 1], ["a"], ["b"]), "vertex b: genus must be an integer, got '1'"),
    ((["a", "b"], [0, 0], [1, Fraction(2)], ["a"], ["b"]),
     "vertex b: multiplicity must be an integer, got Fraction(2, 1)"),
])
def test_graph_refuses_genera_and_mults_that_are_not_ints(columns, message):
    # both once built, and the trace then ended in a raw TypeError
    with pytest.raises(BadInput, match=f"^{re.escape(message)}$"):
        FiberGraph(*columns)


@pytest.mark.parametrize("pairs", [
    [(1.5, 1), (2, 0.5)], [(1, 0.5)], [(Fraction(1, 2), 1)], [(1, "a")], [("a", 1)],
    [(1, 0.5), (1, -0.5)], [(None, 1)],
])
def test_group_ring_refuses_terms_that_are_not_ints(pairs):
    # the built terms are checked, so two float halves that cancel are too
    with pytest.raises(BadInput, match="^group ring exponents and coefficients must be integers$"):
        GroupRingElement(5, pairs)


def test_bool_stays_an_int():
    # as in catalog.lookup and the sweep options, bool is an int
    assert Singularity(True, 2, 3) == (1, 2, 3)
    assert GroupRingElement(True, [(0, 1)]).terms == {0: 1}
    assert GroupRingElement(5, [(True, True), (6, 1)]).terms == {1: 2}
    g = FiberGraph(["a", "b"], [False, True], [True, 1], ["a"], ["b"])
    assert g.adjunction_genus() == 1 and compute_jumps(g).jumps == (0,)
    assert singularity_trace(Singularity(True, True, 3)) == singularity_trace(Singularity(1, 1, 3))


HUGE = 10**5000  # past the 4,300-digit default limit of int-to-str conversion
IV = lookup(FiberTypeId("kodaira", "IV"))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Singularity(2, 3, 6 * HUGE), BadInput,
                 "degree <5001-digit int> must be coprime to both multiplicities (2, 3)",
                 id="singularity-degree-coprime"),
    pytest.param(lambda: Singularity(HUGE, 3, 7), BadInput,
                 "branch multiplicities (<5001-digit int>, 3) exceed MAX_MULTIPLICITY = 100000",
                 id="singularity-multiplicity"),
    pytest.param(lambda: Singularity(2, 3, 1 - HUGE), BadInput,
                 "extension degree must be >= 2, got -<5000-digit int>",
                 id="singularity-degree-low"),
    pytest.param(lambda: FiberGraph(["a", "b"], [0, 0], [1, HUGE], [], []), BadInput,
                 "vertex b: multiplicity <5001-digit int> exceeds MAX_MULTIPLICITY = 100000",
                 id="graph-multiplicity"),
    pytest.param(lambda: compute_jumps(FiberGraph(["a"], [HUGE], [1], [], [])), BadInput,
                 "genus <5001-digit int> exceeds MAX_GENUS = 100000",
                 id="genus"),
    pytest.param(lambda: compute_jumps(IV, JumpOptions(sweeps=HUGE)), BadInput,
                 "<5001-digit int> sweeps exceed MAX_SWEEPS = 1000",
                 id="sweeps-high"),
    pytest.param(lambda: compute_jumps(IV, JumpOptions(sweeps=-HUGE)), BadInput,
                 "need at least one sweep, got -<5001-digit int>",
                 id="sweeps-low"),
    pytest.param(lambda: total_trace(IV, -HUGE), BadInput,
                 "degree must be >= 2, got -<5001-digit int>",
                 id="trace-degree-low"),
    pytest.param(lambda: total_trace(IV, 3 * HUGE), BadInput,
                 "degree <5001-digit int> must be coprime to the multiplicity lcm; "
                 "they share the factor 3",
                 id="trace-degree-coprime"),
    pytest.param(lambda: GroupRingElement(-HUGE), BadInput,
                 "group ring modulus must be >= 1, got -<5001-digit int>",
                 id="group-ring-modulus"),
    pytest.param(lambda: GroupRingElement(HUGE) + GroupRingElement(3), ModulusMismatch,
                 "moduli differ: <5001-digit int> != 3",
                 id="group-ring-moduli-differ"),
    pytest.param(lambda: lookup(FiberTypeId("kodaira", "In", HUGE)), BadInput,
                 "type In parameter <5001-digit int> exceeds MAX_PARAMETER = 10000",
                 id="catalog-parameter"),
    pytest.param(lambda: lookup(FiberTypeId("kodaira", "II", HUGE)), UnknownType,
                 "unknown catalog id kodaira:II:<5001-digit int>; "
                 "catalog-list names the built-in ones",
                 id="catalog-unknown-id"),
    pytest.param(lambda: lookup(FiberTypeId("kodaira:In", HUGE)), UnknownType,
                 "the family and name of a catalog id must be strings",
                 id="catalog-name-not-a-string"),
    pytest.param(lambda: mod_inverse(2, -HUGE), BadInput,
                 "modulus must be >= 2, got -<5001-digit int>",
                 id="mod-inverse-modulus"),
    pytest.param(lambda: mod_inverse(HUGE, HUGE + 2), NotInvertible,
                 "<5001-digit int> is not invertible modulo <5001-digit int>",
                 id="mod-inverse-not-invertible"),
    pytest.param(lambda: jh_expand(HUGE, HUGE + 1), BadInput,
                 "need 0 < r < n, got r=<5001-digit int>, n=<5001-digit int>",
                 id="jh-expand-range"),
])
def test_a_huge_int_keeps_the_named_error(call, error, message):
    # str() of such an int raises ValueError, which once replaced the error
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_int_text_counts_the_digits_past_the_limit():
    assert [int_text(v) for v in (0, -7, True, 10**4299)] == ["0", "-7", "True", str(10**4299)]
    for digits in (4301, 4302, 5000, 20000):
        for value in (10 ** (digits - 1), 10**digits - 1, 7 * 10 ** (digits - 1) + 3):
            assert int_text(value) == f"<{digits}-digit int>"
            assert int_text(-value) == f"-<{digits}-digit int>"


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
