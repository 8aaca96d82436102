import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from fibertrace import jumps
from fibertrace.catalog import FiberTypeId, lookup
from fibertrace.errors import (
    BadInput,
    BadJumpDenominator,
    NegativeCharacterCoefficient,
    ValidationError,
)
from fibertrace.fiber import FiberGraph, h1_character, parse_graph
from fibertrace.jumps import (
    JumpOptions,
    JumpSet,
    compute_jumps,
    principal_lcm,
)
from test_catalog import table_entries
from test_fiber import CATALOG, blow_up, random_multigraph, star_fiber


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


def class_degrees(g, residue, options=JumpOptions()):
    """The sweep degrees of a residue class mod the multiplicity lcm: the
    first ``options.sweeps`` integers of the class exceeding
    max(2 * n_tilde * lcm, n_min); compute_jumps lists those of class 1."""
    l = g.mult_lcm
    floor = max(2 * principal_lcm(g) * l, options.n_min, 1)
    first = floor + 1 + (residue - floor - 1) % l
    return tuple(first + k * l for k in range(options.sweeps))


def sweep_oracle(g, degrees):
    """The sweep route, independent of the limit character: the character
    at every given degree, each sweep rounded, and all sweeps agreeing."""
    nt = principal_lcm(g)
    rounded = {reference_round(h1_character(g, n), nt) for n in degrees}
    if len(rounded) != 1:
        raise AssertionError(f"sweeps at degrees {degrees} disagree: {rounded}")
    return JumpSet(jumps=rounded.pop(), n_tilde=nt, witnesses=tuple(degrees))


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
        assert principal_lcm(cat("kodaira:IV")) == 3    # triple curve of valence 3
        assert principal_lcm(cat("ogg:4")) == 4         # valence-4 quadruple curve
        assert principal_lcm(cat("kodaira:In:3")) == 1  # cycle: no principal vertex
        assert principal_lcm(cat("kodaira:In:1")) == 1  # loop ends count as 2
        assert principal_lcm(cat("kodaira:I")) == 1     # positive genus, mult 1
        assert principal_lcm(cat("kodaira:II*")) == 6

    def test_parallel_edges_count_separately(self):
        g = FiberGraph.build([("a", 0, 1), ("b", 0, 2)], [("a", "b")] * 3)
        # wait: mult-2 vertex of valence 3 is principal
        assert principal_lcm(g) == 2


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
            nt = principal_lcm(g)
            for n in compute_jumps(g, JumpOptions()).witnesses:
                assert Fraction(1, nt) > 2 * Fraction(1, n)

    def test_n_min_bound(self):
        # witnesses above 10^600 print in decimal under any int-to-str limit
        js = compute_jumps(cat("kodaira:IV"), JumpOptions(n_min=jumps.MAX_N_MIN))
        assert js.witnesses[0] == jumps.MAX_N_MIN + 3 and len(str(js.witnesses[-1])) == 601
        with pytest.raises(BadInput, match=r"n_min exceeds MAX_N_MIN = 10\^600$"):
            compute_jumps(cat("kodaira:IV"), JumpOptions(n_min=jumps.MAX_N_MIN + 1))

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
        def refuse(graph, n):
            raise AssertionError("rational_trace ran before the genus check")

        monkeypatch.setattr(jumps, "MAX_GENUS", 5)
        monkeypatch.setattr(jumps, "rational_trace", refuse)
        g = FiberGraph.build([("a", 0, 4), ("b", 0, 1)], [("a", "b")] * 4)
        assert g.adjunction_genus() == 6
        with pytest.raises(BadInput, match="genus 6 exceeds MAX_GENUS = 5"):
            compute_jumps(g)

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

    def test_genus_zero_graph_has_no_jumps(self):
        g = FiberGraph.build([("a", 0, 1), ("b", 0, 1)], [("a", "b")])
        assert compute_jumps(g).jumps == ()

    def test_unit_denominator_enforced(self, monkeypatch):
        # a node of an I2 blown up: a mult-2 vertex of valence 2, so L = 2 but
        # n_tilde = 1; every valid fiber then has its jumps at 0, so force a
        # limit character at 1/2 through rational_trace to prove the guard fires
        g = FiberGraph.build([("a", 0, 1), ("b", 0, 1), ("e", 0, 2)],
                             [("a", "b"), ("a", "e"), ("e", "b")])
        assert (principal_lcm(g), g.mult_lcm) == (1, 2)
        assert compute_jumps(g).jumps == (Fraction(0),)
        monkeypatch.setattr(jumps, "rational_trace", lambda graph, n: {0: 1, 1: -1})
        with pytest.raises(BadJumpDenominator, match=r"jump 1/2 .* n_tilde = 1"):
            compute_jumps(g)

    def test_negative_limit_character_rejected(self, monkeypatch):
        monkeypatch.setattr(jumps, "rational_trace", lambda graph, n: {0: 1, 1: 2})
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
            return JumpSet(tuple(Fraction(k, 5) for k in ks), 5, (11,))

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
