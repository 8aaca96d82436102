import math
import random
from fractions import Fraction

import pytest

from fibertrace import jumps
from fibertrace.catalog import FiberTypeId, lookup
from fibertrace.errors import BadInput, InconsistentRounding, ToleranceExceeded
from fibertrace.fiber import CharacterMultiset, FiberGraph, h1_character
from fibertrace.jumps import (
    JumpOptions,
    candidate_jumps,
    compute_jumps,
    principal_lcm,
    sweep_degrees,
)


def cat(s):
    return lookup(FiberTypeId.parse(s))


def reference_round(char, nt):
    """The rounding step in Fractions, as compute_jumps did it before it
    rounded in integers: the targets of one sweep, sorted, or the error."""
    n = char.n
    rounded = []
    for cand in candidate_jumps(char):
        k = math.floor(cand * nt + Fraction(1, 2))
        target = Fraction(k, nt)
        in_tolerance = abs(cand - target) <= Fraction(1, n)
        if nt == 1 and not (in_tolerance and target == 0):
            raise InconsistentRounding(
                f"degree {n}: candidate {cand} does not round to 0 although "
                "no principal component constrains the denominator"
            )
        if not in_tolerance:
            raise ToleranceExceeded(
                f"degree {n}: candidate {cand} is {abs(cand - target)} away from "
                f"{target}, beyond 1/{n}"
            )
        if not 0 <= target < 1:
            raise ToleranceExceeded(
                f"degree {n}: candidate {cand} rounds to {target}, outside [0, 1)"
            )
        rounded.append(target)
    return tuple(sorted(rounded))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (InconsistentRounding, ToleranceExceeded) as exc:
        return type(exc).__name__, str(exc)


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


class TestCandidates:
    def test_single_exponent(self):
        ch = CharacterMultiset(n=13, exponents=((9, 1),), total=1)
        assert candidate_jumps(ch) == [Fraction(4, 13)]

    def test_two_exponents(self):
        ch = CharacterMultiset(n=13, exponents=((4, 1), (10, 1)), total=2)
        assert candidate_jumps(ch) == [Fraction(3, 13), Fraction(9, 13)]

    def test_trivial_exponent(self):
        ch = CharacterMultiset(n=10, exponents=((0, 2),), total=2)
        assert candidate_jumps(ch) == [Fraction(0), Fraction(0)]


class TestSweepDegrees:
    def test_floor_and_class(self):
        g = cat("kodaira:IV")
        ds = sweep_degrees(g, JumpOptions())
        assert ds == [1003, 1006, 1009]
        assert all(d % 3 == 1 for d in ds)
        ds = sweep_degrees(g, JumpOptions(n_min=5000, sweeps=2))
        assert ds == [5002, 5005]

    def test_rounding_unambiguity(self):
        # degrees exceed 2 * n_tilde * lcm, so distinct denominator-n_tilde
        # rationals are more than 2/n apart: at most one rounding target
        for cid in ("kodaira:IV", "kodaira:II*", "ogg:4"):
            g = cat(cid)
            nt = principal_lcm(g)
            for n in sweep_degrees(g, JumpOptions()):
                assert Fraction(1, nt) > 2 * Fraction(1, n)

    def test_bad_residue(self):
        with pytest.raises(BadInput):
            sweep_degrees(cat("kodaira:IV"), JumpOptions(residue=3))

    def test_sweep_count_bound(self, monkeypatch):
        monkeypatch.setattr(jumps, "MAX_SWEEPS", 4)
        assert len(sweep_degrees(cat("kodaira:IV"), JumpOptions(sweeps=4))) == 4
        with pytest.raises(BadInput, match="5 sweeps exceed MAX_SWEEPS = 4"):
            sweep_degrees(cat("kodaira:IV"), JumpOptions(sweeps=5))


class TestIntegerRounding:
    """compute_jumps rounds in integers; the Fraction reference above pins
    its results, and on failure its exception type and message."""

    @staticmethod
    def integer_round(char, nt):
        return tuple(Fraction(k, nt) for k in jumps._round_candidates(char, nt))

    def cases(self):
        # every single exponent at small (n, nt), then seeded random multisets
        for n in range(2, 31):
            for nt in range(1, 9):
                for a in range(n):
                    yield CharacterMultiset(n=n, exponents=((a, 1),), total=1), nt
        rng = random.Random(5)
        for _ in range(1500):
            n = rng.choice([rng.randrange(2, 40), rng.randrange(40, 10**6)])
            nt = rng.randrange(1, 13)
            if rng.random() < 0.5:
                # exponents whose candidates sit near a multiple of 1/nt
                exps = {(-(j * n // nt + rng.randrange(-1, 2))) % n for j in range(nt + 1)}
            else:
                exps = {rng.randrange(n) for _ in range(rng.randrange(0, 7))}
            items = tuple((a, rng.randrange(1, 4)) for a in sorted(exps))
            yield CharacterMultiset(n=n, exponents=items, total=0), nt

    def test_matches_fraction_reference(self):
        errors = ("does not round to 0", "away from", "outside [0, 1)")
        met = set()
        for char, nt in self.cases():
            got = outcome(self.integer_round, char, nt)
            assert got == outcome(reference_round, char, nt), (char, nt)
            met.add("ok" if got[0] == "ok" else next(e for e in errors if e in got[1]))
        assert met == {"ok", *errors}


class TestComputeJumps:
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
        g = cat("kodaira:IV")
        default = compute_jumps(g)
        other = compute_jumps(g, JumpOptions(residue=2))
        assert default.jumps == other.jumps

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
        # every valid graph with n_tilde = 1 really does produce candidates
        # at 0, so force a bad character through to prove the guard fires
        import fibertrace.jumps as jumps_mod

        g = cat("kodaira:In:2")  # n_tilde = 1
        monkeypatch.setattr(
            jumps_mod,
            "h1_character",
            lambda graph, n: CharacterMultiset(n=n, exponents=((n // 2, 1),), total=1),
        )
        with pytest.raises(InconsistentRounding):
            compute_jumps(g)

    def test_disagreeing_sweeps_detected(self, monkeypatch):
        import fibertrace.jumps as jumps_mod

        g = cat("kodaira:IV")  # n_tilde = 3

        def fake_character(graph, n):
            # candidate sits near 1/3 for odd witnesses, near 2/3 for even
            k = 1 if n % 2 else 2
            c_num = (k * n) // 3
            return CharacterMultiset(n=n, exponents=(((-c_num) % n, 1),), total=1)

        monkeypatch.setattr(jumps_mod, "h1_character", fake_character)
        with pytest.raises(InconsistentRounding) as exc:
            compute_jumps(g)
        degrees = sweep_degrees(g)
        shown = [reference_round(fake_character(g, n), 3) for n in degrees]
        assert str(exc.value) == f"sweeps at degrees {degrees} disagree: {shown}"
