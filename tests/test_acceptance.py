"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see the lines as they happen)."""

import io
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

import fibertrace
from fibertrace.catalog import FiberTypeId, lookup
from fibertrace.cli import main
from fibertrace.fiber import MAX_GRAPH_CHARS, FiberGraph, h1_character, parse_graph
from fibertrace.jumps import JumpOptions, compute_jumps
from fibertrace.resolution import MAX_MULTIPLICITY, Singularity, is_stable, resolve
from fibertrace.singtrace import (
    singularity_trace,
    trace_closed_form,
    trace_oracle,
    trace_polynomial,
)
from reference import closed_form_coefficients, universal_polys
from test_fiber import subdivide_equal_edges
from test_jumps import class_degrees, sweep_oracle


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def cat(s):
    return lookup(FiberTypeId.parse(s))


def test_criterion_1_genus1_table():
    table = {
        "kodaira:I": [Fraction(0)],
        "kodaira:I*": [Fraction(1, 2)],
        "kodaira:II": [Fraction(1, 6)],
        "kodaira:II*": [Fraction(5, 6)],
        "kodaira:III": [Fraction(1, 4)],
        "kodaira:III*": [Fraction(3, 4)],
        "kodaira:IV": [Fraction(1, 3)],
        "kodaira:IV*": [Fraction(2, 3)],
    }
    for k in (1, 2, 3, 4):
        table[f"kodaira:In:{k}"] = [Fraction(0)]
        table[f"kodaira:In*:{k}"] = [Fraction(1, 2)]
    with criterion(1, "genus-1 jump table"):
        start = time.perf_counter()
        for cid, want in table.items():
            got = compute_jumps(cat(cid))
            assert list(got.jumps) == want, (cid, got.jumps, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"table took {elapsed:.2f}s, budget 1s"


def test_criterion_2_genus2_type4():
    with criterion(2, "genus-2 type 4"):
        start = time.perf_counter()
        g = cat("ogg:4")
        js = compute_jumps(g)
        assert list(js.jumps) == [Fraction(1, 4), Fraction(3, 4)]
        for n in (13,) + js.witnesses:
            a4 = pow(4, -1, n)
            ch = h1_character(g, n)
            assert dict(ch.exponents) == {a4 % n: 1, (3 * a4) % n: 1}, n
            assert ch.total == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"type 4 took {elapsed:.2f}s, budget 0.5s"


def test_criterion_3_formula_equivalence():
    with criterion(3, "closed form = node-sum polynomial"):
        cases = 0
        for m1 in range(1, 7):
            for m2 in range(1, 7):
                if math.gcd(m1, m2) != 1:
                    continue
                M = math.lcm(m1, m2)
                for n in range(2, 401):
                    if math.gcd(n, M) != 1:
                        continue
                    res = resolve(Singularity(m1, m2, n))
                    if not is_stable(res):
                        continue
                    assert trace_closed_form(res) == trace_polynomial(res), (m1, m2, n)
                    cases += 1
        assert cases > 4000, f"only {cases} stable cases exercised"


def test_criterion_4_cyclotomic_oracle():
    with criterion(4, "cyclotomic fixed-point oracle"):
        cases = 0
        for m1, m2 in [(1, 3), (2, 3), (3, 4), (2, 5), (4, 5)]:
            M = math.lcm(m1, m2)
            for n in range(2, 61):
                if math.gcd(n, M) != 1:
                    continue
                res = resolve(Singularity(m1, m2, n))
                value = trace_polynomial(res)
                units = [u for u in range(1, n) if math.gcd(u, n) == 1][:3]
                for power in units:
                    assert trace_oracle(res, power) == value.evaluate(power), (m1, m2, n, power)
                    cases += 1
        assert cases > 300, f"only {cases} oracle evaluations"


def random_admissible(rng, max_m=8, max_n=150):
    while True:
        m1 = rng.randint(1, max_m)
        m2 = rng.randint(1, max_m)
        n = rng.randint(2, max_n)
        if math.gcd(n, m1) == 1 and math.gcd(n, m2) == 1:
            return m1, m2, n


def random_unit_graph(rng):
    """Random connected multigraph with all multiplicities 1 and random
    genera: always a valid compact-type/nodal degeneration shape."""
    k = rng.randint(1, 6)
    vertices = [(f"v{i}", rng.randint(0, 2), 1) for i in range(1, k + 1)]
    edges = [(f"v{rng.randint(1, i - 1)}", f"v{i}") for i in range(2, k + 1)]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randint(1, k), rng.randint(1, k)
        edges.append((f"v{a}", f"v{b}"))
    return FiberGraph.build(vertices, edges)


def test_criterion_5_property_suite():
    rng = random.Random(20260810)
    with criterion(5, "randomized property suite"):
        cases = 0

        # branch symmetry
        for _ in range(120):
            m1, m2, n = random_admissible(rng)
            a = trace_polynomial(resolve(Singularity(m1, m2, n)))
            b = trace_polynomial(resolve(Singularity(m2, m1, n)))
            assert a == b, (m1, m2, n)
            cases += 1

        # chain divisibility and no interior weak maximum
        for _ in range(120):
            m1, m2, n = random_admissible(rng)
            res = resolve(Singularity(m1, m2, n))
            assert all(x % res.m == 0 for x in res.mu)
            for l in range(1, res.length + 1):
                mu = res.mu
                assert not (mu[l - 1] < mu[l] and mu[l + 1] <= mu[l])
                assert not (mu[l - 1] <= mu[l] and mu[l + 1] < mu[l])
            cases += 1

        # universal polynomials track the r-sequence
        for _ in range(100):
            m1, m2, n = random_admissible(rng)
            res = resolve(Singularity(m1, m2, n))
            p = universal_polys(res)
            for l in range(-1, res.length + 1):
                assert (p[l + 1] * res.r - res.rseq[l + 1]) % n == 0
            cases += 1

        # residue-class stability of the closed-form coefficients
        stability = 0
        while stability < 80:
            m1 = rng.randint(1, 6)
            m2 = rng.randint(1, 6)
            M = math.lcm(m1, m2)
            cls = rng.randrange(1, M + 1)
            if math.gcd(cls, M) != 1:
                continue
            base = rng.randrange(0, 20)
            found = []
            n = max(2, cls) if cls >= 2 else cls + M
            n += base * M
            while len(found) < 2 and n < 500 * M:
                res = resolve(Singularity(m1, m2, n))
                if is_stable(res):
                    found.append(closed_form_coefficients(res))
                n += M
            assert len(found) == 2 and found[0] == found[1], (m1, m2, cls)
            stability += 1
            cases += 1

        # nonnegative character coefficients, genus constant across degrees
        graph_cases = 0
        while graph_cases < 80:
            if rng.random() < 0.5:
                g = random_unit_graph(rng)
            else:
                g = cat(rng.choice([
                    "kodaira:I*", "kodaira:II", "kodaira:II*", "kodaira:III",
                    "kodaira:III*", "kodaira:IV", "kodaira:IV*", "ogg:4",
                    "kodaira:In*:2", "kodaira:In:3",
                ]))
            ns = [n for n in range(2, 60) if math.gcd(n, g.mult_lcm) == 1]
            pick = rng.sample(ns, 2)
            genera = set()
            for n in pick:
                ch = h1_character(g, n)  # raises on any negative coefficient
                assert all(mult > 0 for _, mult in ch.exponents)
                genera.add(ch.total)
            assert len(genera) == 1, (g, pick)
            graph_cases += 1
            cases += 1

        assert cases >= 500, f"only {cases} randomized cases"


def test_criterion_6_minus_two_chain_invariance():
    with criterion(6, "(-2)-chain subdivision invariance"):
        # the star type has no equal-multiplicity edge: subdivision is a no-op
        iv = cat("kodaira:IV")
        iv_sub = subdivide_equal_edges(iv)
        assert len(iv_sub.vertices) == len(iv.vertices)
        assert compute_jumps(iv_sub).jumps == compute_jumps(iv).jumps

        opts = JumpOptions(n_min=200)
        for k in range(1, 7):
            g = cat(f"kodaira:In:{k}")
            g_sub = subdivide_equal_edges(g)
            assert len(g_sub.vertices) == 2 * k
            assert compute_jumps(g, opts).jumps == compute_jumps(g_sub, opts).jumps

        # the same holds with multiplicity-2 middles: central chains
        for k in (1, 2, 3):
            g = cat(f"kodaira:In*:{k}")
            g_sub = subdivide_equal_edges(g)
            assert compute_jumps(g, opts).jumps == compute_jumps(g_sub, opts).jumps


def test_criterion_7_degree_independence():
    with criterion(7, "sweep-degree independence"):
        g = cat("kodaira:IV")
        low = compute_jumps(g, JumpOptions(n_min=1000))
        high = compute_jumps(g, JumpOptions(n_min=5000))
        assert low.witnesses != high.witnesses
        assert low.jumps == high.jumps == (Fraction(1, 3),)
        # the exact form: the jumps read in class 1 mod L are those the
        # character rounds to at degrees of every residue class coprime to L
        for cid in ("kodaira:IV", "kodaira:II*", "ogg:4"):
            g = cat(cid)
            l = g.mult_lcm
            by_residue = {
                sweep_oracle(g, class_degrees(g, r)).jumps
                for r in range(1, l) if math.gcd(r, l) == 1
            }
            assert by_residue == {compute_jumps(g).jumps}, (cid, by_residue)


def test_criterion_8_graph_file_at_the_bound(tmp_path):
    with criterion(8, "graph file at MAX_GRAPH_CHARS"):
        # a cycle of reduced curves (the fiber In:k) with ids of equal width,
        # as many as fit, padded with a comment to the bound exactly
        curve = "vertex v{0:05} genus=0 mult=1\nedge v{0:05} v{1:05}\n"
        k = MAX_GRAPH_CHARS // len(curve.format(0, 0))
        text = "".join(curve.format(i, (i + 1) % k) for i in range(k))
        text += "#" * (MAX_GRAPH_CHARS - len(text))
        assert len(text) == MAX_GRAPH_CHARS and k > 20000
        path = tmp_path / "cycle.fg"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = main(["jumps", "--graph", str(path), "--machine"])
        elapsed = time.perf_counter() - start
        assert (code, out.getvalue()) == (0, "jump 0/1\n")
        assert elapsed < 0.5, f"parse, build and jumps took {elapsed:.2f}s, budget 0.5s"


def parse_peak(text):
    """The peak of traced memory while parse_graph reads the text."""
    tracemalloc.start()
    try:
        parse_graph(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_9_plain_graph_file_at_the_bound(tmp_path):
    with criterion(9, "plain graph file at MAX_GRAPH_CHARS"):
        # the same cycle in the plain spelling, which is read in bulk: every
        # vertex line, then every edge line, and 16 genus fields spelled
        # with a leading zero to reach the bound exactly
        vertex, edge = "vertex v{0:05} genus=0 mult=1\n", "edge v{0:05} v{1:05}\n"
        k = MAX_GRAPH_CHARS // len(vertex.format(0) + edge.format(0, 0))
        text = "".join(vertex.format(i) for i in range(k))
        text += "".join(edge.format(i, (i + 1) % k) for i in range(k))
        text = text.replace("genus=0 ", "genus=00 ", MAX_GRAPH_CHARS - len(text))
        assert len(text) == MAX_GRAPH_CHARS and k > 20000
        path = tmp_path / "plain-cycle.fg"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = main(["jumps", "--graph", str(path), "--machine"])
        elapsed = time.perf_counter() - start
        assert (code, out.getvalue()) == (0, "jump 0/1\n")
        assert elapsed < 0.25, f"parse, build and jumps took {elapsed:.2f}s, budget 0.25s"
        # the bulk read holds no more at its peak than the line walk does on
        # the same text with one space spelled as a tab, give or take 10%
        bulk, lines = parse_peak(text), parse_peak(text.replace(" ", "\t", 1))
        assert bulk <= 1.1 * lines, (
            f"bulk read peak {bulk / 1e6:.1f} MB, line walk {lines / 1e6:.1f} MB")


def test_criterion_10_singularity_trace_at_the_multiplicity_bound():
    with criterion(10, "singularity trace at MAX_MULTIPLICITY"):
        # the largest branch multiplicities with a degree coprime to both:
        # 10^5 terms written straight into Z[Z/n] peak at about 20 MB under
        # tracemalloc, while summing the blocks over the lcm first, a dict of
        # lcm classes beside the element, peaks at about 51 MB
        sing = Singularity(MAX_MULTIPLICITY, MAX_MULTIPLICITY - 1, MAX_MULTIPLICITY + 1)
        tracemalloc.start()
        try:
            trace = singularity_trace(sing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.terms) == MAX_MULTIPLICITY
        assert peak <= 30 * 10**6, f"singularity_trace peak {peak / 1e6:.1f} MB, budget 30 MB"
        # the whole command in a fresh interpreter, start-up included
        argv = ["trace-sing", *map(str, sing), "--machine"]
        env = {**os.environ, "PYTHONPATH": str(Path(fibertrace.__file__).parent.parent)}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "fibertrace.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stderr) == (0, "")
        assert len(done.stdout.splitlines()) == MAX_MULTIPLICITY
        assert elapsed < 2, f"trace-sing at the bound took {elapsed:.2f}s, budget 2s"
