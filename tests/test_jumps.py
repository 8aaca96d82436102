import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from fibertrace import cli, fiber, jumps, resolution, singtrace
from fibertrace.catalog import FiberTypeId, lookup
from fibertrace.errors import (
    BadInput,
    BadJumpDenominator,
    NegativeCharacterCoefficient,
    NonIntegralSelfIntersection,
    ValidationError,
)
from fibertrace.fiber import (
    FiberGraph,
    PrincipalType,
    h1_character,
    limit_trace,
    parse_graph,
    total_trace,
)
from fibertrace.jumps import JumpOptions, JumpSet, compute_jumps
from reference import acampo_spectrum, per_edge_trace, rational_trace
from test_catalog import table_entries
from test_fiber import (
    CATALOG,
    blow_up,
    decreasing_chain,
    random_multigraph,
    relabel,
    star_fiber,
)


def cat(s):
    return lookup(FiberTypeId.parse(s))


def reference_round(char, nt):
    """The rounding step in Fractions: every candidate ((-a) mod n)/n of
    one sweep rounded to the nearest k/nt within 1/n, sorted."""
    n = char.n
    rounded = []
    for exponent, mult in char.exponents:
        cand = Fraction((-exponent) % n, n)
        k = math.floor(cand * nt + Fraction(1, 2))
        target = Fraction(k, nt)
        if abs(cand - target) > Fraction(1, n) or not 0 <= target < 1:
            raise AssertionError(f"degree {n}: candidate {cand} does not round to a jump")
        rounded += [target] * mult
    return tuple(sorted(rounded))


def jump_set(jumps, nt, witnesses):
    """The JumpSet of a multiset of Fraction jumps, each of denominator
    dividing nt."""
    assert all(nt % j.denominator == 0 for j in jumps), (jumps, nt)
    classes = Counter(j.numerator * (nt // j.denominator) for j in jumps)
    return JumpSet(tuple(sorted(classes.items())), nt, tuple(witnesses))


def principal_mult_lcm(g):
    """n_tilde from the principal components themselves: the lcm of their
    multiplicities, 1 when there is none."""
    return math.lcm(*[g.mults[i] for i in g.principal])


def class_degrees(g, residue, options=JumpOptions()):
    """The sweep degrees of a residue class mod the multiplicity lcm: the
    first ``options.sweeps`` integers of the class exceeding
    max(2 * n_tilde * lcm, n_min); compute_jumps lists those of class 1."""
    l = g.mult_lcm
    floor = max(2 * principal_mult_lcm(g) * l, options.n_min, 1)
    first = floor + 1 + (residue - floor - 1) % l
    return tuple(first + k * l for k in range(options.sweeps))


def sweep_oracle(g, degrees):
    """The sweep route, independent of the limit character: the character
    at every given degree, each sweep rounded, and all sweeps agreeing."""
    nt = principal_mult_lcm(g)
    rounded = {reference_round(h1_character(g, n), nt) for n in degrees}
    if len(rounded) != 1:
        raise AssertionError(f"sweeps at degrees {degrees} disagree: {rounded}")
    return jump_set(rounded.pop(), nt, degrees)


def agrees_in_class(g, options, residue):
    """Whether compute_jumps, which reads the character in class 1, lists
    the degrees of class 1 and gives the jumps and n_tilde of the sweep
    route at the degrees of ``residue``."""
    js = compute_jumps(g, options)
    oracle = sweep_oracle(g, class_degrees(g, residue, options))
    return (js.witnesses == class_degrees(g, 1, options)
            and (js.jumps, js.n_tilde) == (oracle.jumps, oracle.n_tilde))


class TestPrincipalLcm:
    def test_examples(self):
        def n_tilde(cid):
            return compute_jumps(cat(cid)).n_tilde

        assert n_tilde("kodaira:IV") == 3    # triple curve of valence 3
        assert n_tilde("ogg:4") == 4         # valence-4 quadruple curve
        assert n_tilde("kodaira:In:3") == 1  # cycle: no principal vertex
        assert n_tilde("kodaira:In:1") == 1  # loop ends count as 2
        assert n_tilde("kodaira:I") == 1     # positive genus, mult 1
        assert n_tilde("kodaira:II*") == 6

    def test_parallel_edges_count_separately(self):
        # the mult-2 vertex meets two reduced curves twice each: valence 4,
        # so it is principal, though it has only two neighbours
        g = FiberGraph.build([("a", 0, 1), ("b", 0, 2), ("c", 0, 1)],
                             [("a", "b"), ("a", "b"), ("c", "b"), ("c", "b")])
        assert compute_jumps(g).n_tilde == 2


class TestSweepDegrees:
    def test_floor_and_class(self):
        g = cat("kodaira:IV")
        ds = compute_jumps(g, JumpOptions()).witnesses
        assert ds == (1003, 1006, 1009)
        assert all(d % 3 == 1 for d in ds)
        ds = compute_jumps(g, JumpOptions(n_min=5000, sweeps=2)).witnesses
        assert ds == (5002, 5005)

    def test_rounding_unambiguity(self):
        # degrees exceed 2 * n_tilde * lcm, so distinct denominator-n_tilde
        # rationals are more than 2/n apart: at most one rounding target
        for cid in ("kodaira:IV", "kodaira:II*", "ogg:4"):
            g = cat(cid)
            js = compute_jumps(g, JumpOptions())
            nt = js.n_tilde
            for n in js.witnesses:
                assert Fraction(1, nt) > 2 * Fraction(1, n)

    def test_n_min_bound(self):
        # witnesses above 10^600 print in decimal under any int-to-str limit
        js = compute_jumps(cat("kodaira:IV"), JumpOptions(n_min=jumps.MAX_N_MIN))
        assert js.witnesses[0] == jumps.MAX_N_MIN + 3 and len(str(js.witnesses[-1])) == 601
        with pytest.raises(BadInput, match=r"n_min exceeds MAX_N_MIN = 10\^600$"):
            compute_jumps(cat("kodaira:IV"), JumpOptions(n_min=jumps.MAX_N_MIN + 1))

    def test_witness_floor_bound(self, monkeypatch, capsys):
        # the floor 2 * n_tilde * lcm is held to MAX_N_MIN only where the
        # witnesses are printed: kodaira:IV has n_tilde = lcm = 3, a floor of 18
        monkeypatch.setattr(jumps, "MAX_N_MIN", 17)
        assert compute_jumps(cat("kodaira:IV"), JumpOptions(n_min=1)).witnesses == (19, 22, 25)
        argv = ["jumps", "--catalog", "kodaira:IV", "--n-min", "1"]
        monkeypatch.setattr(cli, "MAX_N_MIN", 18)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "n_tilde=3\nwitnesses=19,22,25\njump 1/3\n"
        monkeypatch.setattr(cli, "MAX_N_MIN", 17)
        assert (cli.main(argv), cli.main(argv + ["--machine"])) == (2, 0)
        out, err = capsys.readouterr()
        assert out == "jump 1/3\n"
        assert err.startswith("fibertrace: BadInput: 2 * n_tilde * lcm exceeds MAX_N_MIN = 10^600")

    def test_witness_floor_bound_on_long_chains(self):
        # the chain 1 - M - ... - 2 - 1 has lcm(1..M) as its lcm and n_tilde 1:
        # 2 * lcm(1..1398) is below 10^600 and 2 * lcm(1..1399) above, where
        # the jumps still come, with witnesses too long for the CLI to print
        js = compute_jumps(parse_graph(decreasing_chain(1398)))
        assert js.jumps == () and len(str(js.witnesses[-1])) == 600
        js = compute_jumps(parse_graph(decreasing_chain(1399)))
        assert js.jumps == () and js.witnesses[0] > 2 * math.lcm(*range(1, 1400)) > jumps.MAX_N_MIN

    def test_sweep_count_bound(self, monkeypatch):
        monkeypatch.setattr(jumps, "MAX_SWEEPS", 4)
        assert len(compute_jumps(cat("kodaira:IV"), JumpOptions(sweeps=4)).witnesses) == 4
        with pytest.raises(BadInput, match="5 sweeps exceed MAX_SWEEPS = 4"):
            compute_jumps(cat("kodaira:IV"), JumpOptions(sweeps=5))


class TestComputeJumps:
    def test_genus_bound(self, monkeypatch):
        # a smooth fiber of genus g: the limit character is g times the trivial one
        monkeypatch.setattr(jumps, "MAX_GENUS", 3)
        text = "vertex a genus={} mult=1\n"
        assert compute_jumps(parse_graph(text.format(3))).jumps == (Fraction(0),) * 3
        with pytest.raises(BadInput, match="genus 4 exceeds MAX_GENUS = 3"):
            compute_jumps(parse_graph(text.format(4)))

    def test_genus_bound_before_any_block(self, monkeypatch):
        # the adjunction formula gives the genus from the graph alone: a
        # multiplicity-4 curve meeting a reduced one 4 times has genus 6
        def refuse(*args):
            raise AssertionError("the principal type was read before the genus check")

        monkeypatch.setattr(jumps, "MAX_GENUS", 5)
        monkeypatch.setattr(fiber, "principal_type", refuse)
        monkeypatch.setattr(jumps, "type_classes", refuse)
        g = FiberGraph.build([("a", 0, 4), ("b", 0, 1)], [("a", "b")] * 4)
        assert g.adjunction_genus() == 6
        with pytest.raises(BadInput, match="genus 6 exceeds MAX_GENUS = 5"):
            compute_jumps(g)

    def test_numbers_that_are_not_ints_are_refused(self):
        # a float n_min once gave float witnesses, none of them 1 mod L, and
        # a float degree or sweep count or a str n_min a raw TypeError
        g = cat("kodaira:IV")
        for options, name, value in ((JumpOptions(n_min=1e300), "n_min", "1e+300"),
                                     (JumpOptions(n_min=1e6), "n_min", "1000000.0"),
                                     (JumpOptions(n_min="5"), "n_min", "'5'"),
                                     (JumpOptions(sweeps=2.5), "sweeps", "2.5")):
            with pytest.raises(BadInput, match=f"^{name} must be an integer, got {re.escape(value)}$"):
                compute_jumps(g, options)
        for route in (total_trace, h1_character):
            with pytest.raises(BadInput, match=r"^degree must be an integer, got 13\.0$"):
                route(g, 13.0)
        # a bool is an int, as in catalog.lookup
        assert compute_jumps(g, JumpOptions(n_min=True, sweeps=True)).witnesses == (19,)
        with pytest.raises(BadInput, match="^degree must be >= 2, got True$"):
            total_trace(g, True)

    def test_kodaira_iv(self):
        js = compute_jumps(cat("kodaira:IV"))
        assert list(js.jumps) == [Fraction(1, 3)]
        assert js.n_tilde == 3
        assert len(js.witnesses) == 3

    def test_kodaira_ii_star(self):
        js = compute_jumps(cat("kodaira:II*"))
        assert list(js.jumps) == [Fraction(5, 6)]

    def test_ogg4(self):
        js = compute_jumps(cat("ogg:4"))
        assert list(js.jumps) == [Fraction(1, 4), Fraction(3, 4)]

    def test_cycles_jump_at_zero(self):
        for k in (1, 2, 3, 4, 5, 6):
            js = compute_jumps(cat(f"kodaira:In:{k}"))
            assert list(js.jumps) == [Fraction(0)]
            assert js.n_tilde == 1

    def test_n_independence_every_catalog_entry(self):
        entries = ["kodaira:I", "kodaira:I*", "kodaira:II", "kodaira:II*",
                   "kodaira:III", "kodaira:III*", "kodaira:IV", "kodaira:IV*",
                   "kodaira:In:2", "kodaira:In*:2", "ogg:4"]
        for cid in entries:
            g = cat(cid)
            low = compute_jumps(g, JumpOptions(n_min=200))
            high = compute_jumps(g, JumpOptions(n_min=1000))
            assert set(low.witnesses).isdisjoint(high.witnesses), cid
            assert low.jumps == high.jumps, cid

    def test_huge_degrees(self):
        # the cost does not depend on the sweep degree, so 10^12 is as cheap as 10^3
        table = {
            "kodaira:II*": (Fraction(5, 6),),
            "ogg:4": (Fraction(1, 4), Fraction(3, 4)),
            "kodaira:In*:20": (Fraction(1, 2),),
        }
        for cid, want in table.items():
            js = compute_jumps(cat(cid), JumpOptions(n_min=10**12))
            assert js.jumps == want, cid
            assert min(js.witnesses) > 10**12

    def test_second_residue_class_agrees(self):
        # the jumps read in class 1 round the character at degrees of class 2
        g = cat("kodaira:IV")
        assert agrees_in_class(g, JumpOptions(), 2)

    def test_jump_count_is_genus(self):
        for cid in ("kodaira:I", "kodaira:IV", "ogg:4"):
            g = cat(cid)
            js = compute_jumps(g)
            n = js.witnesses[0]
            assert len(js.jumps) == h1_character(g, n).total

    def test_one_fraction_per_class(self, monkeypatch):
        # a sextic curve with 5000 tails each of multiplicities 1, 2 and 3:
        # genus 29,995 over five classes; compute_jumps builds no Fraction,
        # and reading the jumps five, not one per jump
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        k = 5000
        g = FiberGraph.build([("c", 0, 6)] + [(f"t{m}.{i}", 0, m) for i in range(k) for m in (1, 2, 3)],
                             [("c", f"t{m}.{i}") for i in range(k) for m in (1, 2, 3)])
        with monkeypatch.context() as patched:
            patched.setattr(Fraction, "__new__", counting)
            js = compute_jumps(g)
            assert made == []
            listed = js.jumps
            assert len(made) == 5
        assert js.classes == ((1, 9999), (2, 4999), (3, 4999), (4, 4999), (5, 4999))
        assert len(listed) == g.adjunction_genus() == 29995
        assert Counter(listed) == {Fraction(1, 6): 9999, Fraction(1, 3): 4999,
                                   Fraction(1, 2): 4999, Fraction(2, 3): 4999,
                                   Fraction(5, 6): 4999}
        assert list(listed) == sorted(listed)

    def test_genus_zero_graph_has_no_jumps(self):
        g = FiberGraph.build([("a", 0, 1), ("b", 0, 1)], [("a", "b")])
        assert compute_jumps(g).jumps == ()

    def test_unit_denominator_enforced(self, monkeypatch):
        # a node of an I2 blown up: a mult-2 vertex of valence 2, so L = 2 but
        # n_tilde = 1; every valid fiber then has its jumps at 0, so force a
        # limit character at 1/2 through a principal type with no row and a
        # net count of -1 at (1/2)Z/Z to prove the guard fires
        g = FiberGraph.build([("a", 0, 1), ("b", 0, 1), ("e", 0, 2)],
                             [("a", "b"), ("a", "e"), ("e", "b")])
        assert (compute_jumps(g).n_tilde, g.mult_lcm) == (1, 2)
        assert compute_jumps(g).jumps == (Fraction(0),)
        forced = PrincipalType(rows=(), net=((2, -1),), terms=2)
        with pytest.raises(BadJumpDenominator, match=r"^jump 1/2 .* n_tilde = 1; "):
            jumps.type_jumps(forced)
        monkeypatch.setattr(FiberGraph, "principal_type", property(lambda graph: forced))
        with pytest.raises(BadJumpDenominator, match=r"^jump 1/2 .* n_tilde = 1; "):
            compute_jumps(g)

    def test_negative_limit_character_rejected(self, monkeypatch):
        monkeypatch.setattr(jumps, "type_classes", lambda t, lcm: {0: 1, 1: 2})
        with pytest.raises(NegativeCharacterCoefficient, match=r"\[\(1, -2\)\]"):
            compute_jumps(cat("kodaira:IV"))


class TestAgainstSweepOracle:
    """compute_jumps reads the limit character at one degree, of class 1
    mod the lcm; the sweep route rounds the character at every sweep
    degree of any class coprime to the lcm. Both must give the same jumps."""

    N_MINS = (20, 1000, 10**12)
    ENTRIES = CATALOG + ["kodaira:In:7", "kodaira:In:12", "kodaira:In*:9", "kodaira:In*:12"]

    @staticmethod
    def residues(g):
        return [r for r in range(1, g.mult_lcm + 1) if math.gcd(r, g.mult_lcm) == 1]

    def test_catalog_at_every_residue(self):
        for cid in self.ENTRIES:
            g = cat(cid)
            for residue in self.residues(g):
                for n_min in self.N_MINS:
                    options = JumpOptions(n_min=n_min)
                    assert agrees_in_class(g, options, residue), (cid, options, residue)

    def test_blow_ups(self):
        rng = random.Random(6)
        for _ in range(300):
            g = blow_up(cat(rng.choice(self.ENTRIES)), rng, rng.randint(1, 4))
            residue = rng.choice(self.residues(g))
            for n_min in self.N_MINS:
                options = JumpOptions(n_min=n_min, sweeps=rng.choice((1, 3)))
                assert agrees_in_class(g, options, residue), (g, options, residue)

    def test_star_fibers(self):
        rng = random.Random(8)
        for _ in range(100):
            g = star_fiber(rng)
            residue = rng.choice(self.residues(g))
            for n_min in self.N_MINS:
                options = JumpOptions(n_min=n_min)
                assert agrees_in_class(g, options, residue), (g, options, residue)


def unit_stable(classes: Counter, l: int) -> bool:
    """Whether a multiset of classes k/L has constant multiplicity on each
    orbit of (Z/L)^*, that is, is fixed by every unit."""
    return all(Counter({u * k % l: c for k, c in classes.items()}) == classes
               for u in range(2, l) if math.gcd(u, l) == 1)


def jump_classes(js: JumpSet) -> Counter:
    return Counter(j.numerator * (js.n_tilde // j.denominator) for j in js.jumps)


def galois_closed(js: JumpSet) -> bool:
    """Whether J with -J mod 1 is fixed by every unit mod n_tilde: the
    jumps and their negatives are the exponents of the tame monodromy on the
    etale H^1 of the generic fiber, whose characteristic polynomial has
    integer coefficients (SGA 7 IX; Serre-Tate)."""
    classes = jump_classes(js)
    return unit_stable(classes + Counter({-k % js.n_tilde: c for k, c in classes.items()}),
                       js.n_tilde)


class TestGaloisClosure:
    def test_checker(self):
        def fifths(*ks):
            return jump_set([Fraction(k, 5) for k in ks], 5, (11,))

        # 1/5 and 2/5 are closed only together with 4/5 and 3/5
        assert not galois_closed(fifths(1)) and not galois_closed(fifths(1, 4))
        assert galois_closed(fifths(1, 2)) and galois_closed(fifths(1, 2, 3, 4))
        assert not unit_stable(jump_classes(fifths(1, 2)), 5)

    def test_every_catalog_row(self):
        entries = table_entries() + [FiberTypeId.parse(f"kodaira:{name}:{k}")
                                     for name in ("In", "In*") for k in (7, 12, 10**4)]
        for tid in entries:
            assert galois_closed(compute_jumps(lookup(tid))), tid

    def test_generated_fibers(self):
        rng = random.Random(303)
        graphs = [star_fiber(rng) for _ in range(200)]
        graphs += [blow_up(cat(rng.choice(CATALOG)), rng, rng.randint(1, 4)) for _ in range(100)]
        graphs += [random_multigraph(rng) for _ in range(600)]
        held = jumps_alone_open = 0
        for g in graphs:
            try:
                js = compute_jumps(g)
            except (ValidationError, NegativeCharacterCoefficient, BadJumpDenominator):
                continue  # not a fiber: the closure says nothing about it
            assert galois_closed(js), (g, js.jumps)
            held += 1
            jumps_alone_open += not unit_stable(jump_classes(js), js.n_tilde)
        # many of the jump sets are closed only together with their negatives
        assert held > 400 and jumps_alone_open > 50, (held, jumps_alone_open)


def limit_degrees(g):
    """Three degrees n = 1 (mod L), L the multiplicity lcm, all above L."""
    l = g.mult_lcm
    return [k * l + 1 for k in (1, 2, 1000)] if l > 1 else [2, 3, 1001]


def matches_block_route(g, n):
    """limit_trace has the nonzero terms of the per-edge reference route at
    the degree n = 1 (mod L), or both refuse the same vertex for
    integrality; True when a trace was compared."""
    try:
        _, want = per_edge_trace(g, n)
    except NonIntegralSelfIntersection as exc:
        vid = re.escape(str(exc).split(":")[0])
        with pytest.raises(NonIntegralSelfIntersection,
                           match=f"^{vid}: neighbour multiplicities sum to "):
            limit_trace(g)
        return False
    got = limit_trace(g)
    assert ({j: c for j, c in got.items() if c}
            == {j: c for j, c in want.items() if c}), (g, n)
    return True


def two_centers(mc, md, arms_c, arms_d):
    """Two genus-0 curves c and d meeting each other, each with arms down
    to a reduced tail, the first multiplicities of the arms ``arms_c`` and
    ``arms_d``, chosen to make every self-intersection integral."""
    vertices, edges = [("c", 0, mc), ("d", 0, md)], [("c", "d")]
    for center, m, firsts in (("c", mc, arms_c), ("d", md, arms_d)):
        for arm, a in enumerate(firsts):
            prev, cur, here = m, a, center
            while cur:
                vid = f"{center}{arm}.{len(vertices)}"
                vertices.append((vid, 0, cur))
                edges.append((here, vid))
                prev, cur, here = cur, -prev % cur, vid
    return FiberGraph.build(vertices, edges)


def two_cusps(bridge):
    """Two genus-0 curves p and q of multiplicity 6, each with tails of
    multiplicities 2 and 3 (the shape of kodaira:II), joined by a bridge of
    genus-0 curves of the multiplicities ``bridge``: a genus-2 fiber when
    the bridge is a chain of reduced curves or a blow-up of one."""
    vertices = [("p", 0, 6), ("q", 0, 6), ("p2", 0, 2), ("p3", 0, 3), ("q2", 0, 2), ("q3", 0, 3)]
    vertices += [(f"b{i}", 0, m) for i, m in enumerate(bridge)]
    path = ["p"] + [f"b{i}" for i in range(len(bridge))] + ["q"]
    edges = [("p", "p2"), ("p", "p3"), ("q", "q2"), ("q", "q3")] + list(zip(path, path[1:]))
    return FiberGraph.build(vertices, edges)


class TestLimitTrace:
    """limit_trace reads the trace at n = 1 (mod L) off the graph; the
    reference's per-edge block route, with its chain ends, is its oracle
    there."""

    @pytest.mark.parametrize("cid", CATALOG + ["kodaira:In:100", "kodaira:In*:100"])
    def test_catalog(self, cid):
        g = cat(cid)
        for n in limit_degrees(g):
            assert matches_block_route(g, n), (cid, n)

    def test_blow_ups_and_star_fibers(self):
        rng = random.Random(16)
        graphs = [blow_up(cat(rng.choice(CATALOG)), rng, rng.randint(1, 5)) for _ in range(100)]
        graphs += [star_fiber(rng) for _ in range(100)]
        for g in graphs:
            moved, _ = relabel(g, rng)
            assert limit_trace(moved) == limit_trace(g)
            for n in limit_degrees(g):
                assert matches_block_route(g, n) and matches_block_route(moved, n), (g, n)

    def test_random_multigraphs(self):
        # loops and parallel edges; relabelling moves the smallest failing id
        rng = random.Random(17)
        compared = refused = 0
        for _ in range(500):
            g, _ = relabel(random_multigraph(rng), rng)
            for n in limit_degrees(g)[:2]:
                if matches_block_route(g, n):
                    compared += 1
                else:
                    refused += 1
        assert compared > 200 and refused > 500, (compared, refused)

    def test_bridges_of_every_length(self):
        rng = random.Random(18)
        want = compute_jumps(two_cusps([1])).jumps
        assert len(want) == 2 and compute_jumps(two_cusps([1])).n_tilde == 6
        for length in range(1, 41):
            # blowing up a point of the bridge, its ends at p and q included,
            # puts in a curve of the sum of the two multiplicities there
            chain = [6] + [1] * length + [6]
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(chain) - 1)
                chain.insert(i + 1, chain[i] + chain[i + 1])
            for g in (two_cusps([1] * length), two_cusps(chain[1:-1])):
                assert compute_jumps(g).jumps == want, g
                assert matches_block_route(g, limit_degrees(g)[0]), g

    def test_arms_and_bridges_cost_nothing(self, monkeypatch):
        # the work is m per row of principal multiplicity m and per distinct
        # end pair (m, m_w), plus d per net count: kodaira:II* has the row 6
        # with the pairs (6, 3), (6, 4) and (6, 5), and its arms cancel;
        # In*:1000 has 1004 edges, the row 2 with the pairs (2, 1) and (2, 2),
        # and a bridge of gcd 2; the chain 1 - 5000 - ... - 2 - 1 has no
        # principal component and nets to (1/1)Z/Z
        for cid, work in (("kodaira:II*", 24), ("kodaira:In*:1000", 8)):
            monkeypatch.setattr(fiber, "MAX_BLOCK_TERMS", work)
            compute_jumps(cat(cid))
            monkeypatch.setattr(fiber, "MAX_BLOCK_TERMS", work - 1)
            with pytest.raises(BadInput, match=f"build {work} block terms, more than "
                                               f"MAX_BLOCK_TERMS = {work - 1}$"):
                compute_jumps(cat(cid))
        monkeypatch.setattr(fiber, "MAX_BLOCK_TERMS", 1)
        g = parse_graph(decreasing_chain(5000))
        assert g.principal == () and limit_trace(g) == {0: 1}

    def test_work_bound_before_any_term(self, monkeypatch):
        # with two arms each, the rows of c and d have three distinct end
        # pairs each, and the edge between them, of gcd 1 when their
        # multiplicities differ, nets to -(1/1)Z/Z
        # equal multiplicities 99,991: c and d share the row 99,991, with five
        # distinct end pairs, and the edge c - d nets to -(1/99,991)Z/Z, so
        # 99,991 * (5 + 1) + 99,991 = 699,937 terms, under the bound
        m = 99991
        g = two_centers(m, m, (1944, m - 1944), (1949, m - 1949))
        assert g.adjunction_genus() == 99990 <= jumps.MAX_GENUS
        assert h1_character(g, 1009).total == 99990
        monkeypatch.setattr(fiber, "MAX_BLOCK_TERMS", 699936)
        with pytest.raises(BadInput, match="build 699937 block terms"):
            compute_jumps(g)
        monkeypatch.undo()
        # multiplicities 99,991 and 99,989: 4 * (99,991 + 99,989) + 1 = 799,921
        # terms, while the genus, 99,989, passes MAX_GENUS; building them
        # would take about 1 s (2-vCPU Xeon VM)
        mc, md = 99991, 99989
        g = two_centers(mc, md, (1944, mc + 2 - 1944), (1949, md - 2 - 1949))
        assert g.adjunction_genus() == 99989 <= jumps.MAX_GENUS
        for run in (compute_jumps, lambda g: h1_character(g, 1009)):
            start = time.perf_counter()
            with pytest.raises(BadInput, match="build 799921 block terms, more than MAX_BLOCK_TERMS"):
                run(g)
            assert time.perf_counter() - start < 0.2

    def test_long_rows(self):
        # c and d share the row 10,007 with five distinct end pairs, (m, m)
        # and one per arm; rational_trace matches the per-edge reference
        # below the lcm, where the chains are not yet in their large-degree
        # shape, and above it
        m = 10007
        g = two_centers(m, m, (1944, m - 1944), (1949, m - 1949))
        l = g.mult_lcm
        below = next(n for n in range(1009, l) if math.gcd(n, l) == 1)
        for n in (below, l + 1, l + below):
            _, want = per_edge_trace(g, n)
            assert rational_trace(g, n) == {j: c for j, c in want.items() if c}, n

    def test_no_block_route(self, monkeypatch):
        # compute_jumps reads the graph alone: no chain end, no block
        rng = random.Random(19)
        graphs = [cat(cid) for cid in CATALOG]
        graphs += [blow_up(cat(rng.choice(CATALOG)), rng, 3) for _ in range(30)]
        graphs += [star_fiber(rng) for _ in range(30)]
        want = [compute_jumps(g) for g in graphs]

        def refuse(*args):
            raise AssertionError("compute_jumps reached the block route")

        for module, name in ((resolution, "chain_ends"), (singtrace, "chain_ends"),
                             (singtrace, "singularity_trace"), (fiber, "total_trace")):
            monkeypatch.setattr(module, name, refuse)
        assert [compute_jumps(g) for g in graphs] == want


def signed_union(js: JumpSet) -> dict:
    """J with -J mod 1, as a multiset of classes."""
    union = Counter(js.jumps) + Counter(-j % 1 for j in js.jumps)
    return dict(union)


class TestACampoSpectrum:
    """J with -J mod 1 is the spectrum of the tame monodromy on H^1, which
    A'Campo's formula gives from the genera, multiplicities and degrees."""

    def test_examples(self):
        assert acampo_spectrum(cat("kodaira:II")) == {Fraction(1, 6): 1, Fraction(5, 6): 1}
        assert acampo_spectrum(cat("kodaira:In:5")) == {Fraction(0): 2}
        assert acampo_spectrum(cat("kodaira:In*:5")) == {Fraction(1, 2): 2}
        assert acampo_spectrum(parse_graph(decreasing_chain(6))) == {}

    def test_every_catalog_row(self):
        entries = table_entries() + [FiberTypeId.parse(f"kodaira:{name}:{k}")
                                     for name in ("In", "In*") for k in (7, 12, 10**4)]
        for tid in entries:
            g = lookup(tid)
            assert signed_union(compute_jumps(g)) == acampo_spectrum(g), tid

    def test_generated_fibers(self):
        rng = random.Random(404)
        graphs = [star_fiber(rng) for _ in range(300)]
        graphs += [blow_up(cat(rng.choice(CATALOG)), rng, rng.randint(1, 5)) for _ in range(200)]
        graphs += [two_cusps([1] * rng.randint(1, 9)) for _ in range(10)]
        graphs += [random_multigraph(rng) for _ in range(1500)]
        held = 0
        for g in graphs:
            try:
                js = compute_jumps(g)
            except (ValidationError, NegativeCharacterCoefficient, BadJumpDenominator):
                continue  # not a fiber: the formula says nothing about it
            assert signed_union(js) == acampo_spectrum(g), (g, js.jumps)
            held += 1
        assert held > 800, held
