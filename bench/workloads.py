"""Seeded workloads of the fibertrace benchmark.

A workload is a sequence of passes, each a list of operations built from
the seed and the pass's index. Every pass draws fresh inputs with the same
cost profile, so a run seldom repeats a request that a cache could answer,
and every run times the same mix of inputs whatever its length. Each
operation returns its answer and carries the answer it must equal; the
program itself only ever sees the generated argv lists, graph texts and
singularity parameters.

Importing this module imports fibertrace, so the time to import it is
part of the benchmark's set-up time.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from fibertrace import cli, fiber, jumps, resolution, singtrace

# Each pass also gets a phase in [0, 1): the seed picks the first, and each
# further pass adds the golden ratio's fractional part, so that the phases
# of any number of passes spread evenly. Builders use it to shift their
# grids of input sizes, so that a run's passes together cover each range
# evenly instead of at random.
GOLDEN = (5 ** 0.5 - 1) / 2

# Jumps of every catalog entry in the acceptance table (genus-1 types and
# the genus-2 entry ogg:4).
HALF = (Fraction(1, 2),)
ZERO = (Fraction(0),)
TABLE = {
    "kodaira:I": ZERO,
    "kodaira:I*": HALF,
    **{f"kodaira:In:{k}": ZERO for k in (1, 2, 3, 4)},
    **{f"kodaira:In*:{k}": HALF for k in (1, 2, 3, 4)},
    "kodaira:II": (Fraction(1, 6),),
    "kodaira:II*": (Fraction(5, 6),),
    "kodaira:III": (Fraction(1, 4),),
    "kodaira:III*": (Fraction(3, 4),),
    "kodaira:IV": (Fraction(1, 3),),
    "kodaira:IV*": (Fraction(2, 3),),
    "ogg:4": (Fraction(1, 4), Fraction(3, 4)),
}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    expected: object


# ---------------------------------------------------------------- catalog-jumps

def _cli_jumps(catalog_id: str, n_min: int) -> tuple[Fraction, ...]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["jumps", "--catalog", catalog_id, "--n-min", str(n_min), "--machine"])
    if code != 0:
        raise RuntimeError(f"fibertrace jumps exited with code {code}")
    return tuple(sorted(
        Fraction(line.split()[1]) for line in out.getvalue().splitlines() if line.startswith("jump ")
    ))


def catalog_jumps(rng: random.Random, phase: float, tiny: bool) -> list[Op]:
    """Every table entry twice, through the CLI: once with n_min in the
    lower half of the decade 10^3..10^4 (on a log scale) and once in the
    upper half. The 17 entries sit in table order on an evenly spaced grid
    over each half, which the pass's phase shifts, so every pass has the
    same spread of n_min and the passes of a run move every entry evenly
    through its range. Two fixed values of n_min would leave gaps between
    the sorted latencies, and p50 and p90 would jump across them from run
    to run."""
    low, high = (100, 200) if tiny else (10**3, 10**4)
    cases = []
    for k, cid in enumerate(TABLE):
        u = (phase + k / len(TABLE)) % 1
        for x in (u / 2, 0.5 + (u + 0.5) % 1 / 2):
            cases.append((cid, round(low * (high / low) ** x)))
    rng.shuffle(cases)
    return [Op(f"{cid}@{n}", partial(_cli_jumps, cid, n), TABLE[cid]) for cid, n in cases]


# ---------------------------------------------------------------- big-fibers
# Graphs are (mults, edges): mults maps vertex id -> multiplicity (all
# components have genus 0), edges is a list of id pairs.

def _cycle(k: int):
    """kodaira:In:k, a cycle of k multiplicity-1 curves."""
    mults = {f"v{i}": 1 for i in range(k)}
    return mults, [(f"v{i}", f"v{(i + 1) % k}") for i in range(k)]


def _istar(k: int):
    """kodaira:In*:k, a chain of k+1 multiplicity-2 curves with two
    multiplicity-1 tails at each end."""
    mults = {f"c{i}": 2 for i in range(k + 1)}
    mults.update(a0=1, a1=1, b0=1, b1=1)
    edges = [(f"c{i}", f"c{i + 1}") for i in range(k)]
    edges += [("a0", "c0"), ("a1", "c0"), ("b0", f"c{k}"), ("b1", f"c{k}")]
    return mults, edges


def _blow_up(graph, size: int, rng: random.Random):
    """Grow the graph to ``size`` components by steps that keep its jumps:
    subdividing an edge whose ends have equal multiplicity, or attaching a
    tail of the same multiplicity at a smooth point of a component.

    Steps alternate between the two kinds and cycle through the
    multiplicities present, falling back to a tail when no edge of the
    turn's multiplicity has equal ends. The seed decides where each step
    acts, not what the graph is made of, so the cost of a graph of a given
    size hardly depends on the seed."""
    mults, edges = graph
    classes = sorted(set(mults.values()))
    members = {m: [v for v in mults if mults[v] == m] for m in classes}
    equal = {m: [e for e in edges if mults[e[0]] == mults[e[1]] == m] for m in classes}
    other = [e for e in edges if mults[e[0]] != mults[e[1]]]
    step = 0
    while len(mults) < size:
        m = classes[step % len(classes)]
        new = f"x{len(mults)}"
        mults[new] = m
        if step % 2 == 0 and equal[m]:
            i = rng.randrange(len(equal[m]))
            equal[m][i], equal[m][-1] = equal[m][-1], equal[m][i]
            a, b = equal[m].pop()
            equal[m] += [(a, new), (new, b)]
        else:
            equal[m].append((rng.choice(members[m]), new))
        members[m].append(new)
        step += 1
    return mults, other + [e for m in classes for e in equal[m]]


def _graph_text(graph, rng: random.Random) -> str:
    mults, edges = graph
    vertices = list(mults)
    rng.shuffle(vertices)
    edges = list(edges)
    rng.shuffle(edges)
    lines = [f"vertex {v} genus=0 mult={mults[v]}" for v in vertices]
    lines += [f"edge {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def _graph_jumps(text: str) -> tuple[Fraction, ...]:
    g = fiber.parse_graph(text)
    return jumps.compute_jumps(g, jumps.JumpOptions(n_min=20)).jumps


def big_fibers(rng: random.Random, phase: float, tiny: bool) -> list[Op]:
    """Twenty-five graphs with distinct component counts, log-spaced over
    100..1000 on a grid that the pass's phase shifts, taking the
    five families in turn: In:k, In*:k, and seeded blow-ups of I*, In:k and
    In*:k. Distinct and shifting sizes keep the latencies pooled over the
    passes free of steps, so p50 and p90 never sit on a jump between two
    size classes. Every graph is checked against the jumps of the catalog
    entry it came from."""
    families = [
        lambda size: (f"In:{size}", _cycle(size), ZERO),
        lambda size: (f"In*:{size - 5}", _istar(size - 5), HALF),
        lambda size: (f"blowup(I*)/{size}", _blow_up(_istar(0), size, rng), HALF),
        lambda size: (f"blowup(In:{size // 3})/{size}", _blow_up(_cycle(size // 3), size, rng), ZERO),
        lambda size: (f"blowup(In*:{size // 3})/{size}", _blow_up(_istar(size // 3), size, rng),
                      HALF),
    ]
    count, low, high = (15, 10, 40) if tiny else (25, 100, 1000)
    cases = [families[i % len(families)](round(low * (high / low) ** ((i + phase) / count)))
             for i in range(count)]
    rng.shuffle(cases)
    ops = []
    for label, graph, expected in cases:
        text = _graph_text(graph, rng)
        fiber.parse_graph(text)  # the benchmark's own inputs must be valid fibers
        ops.append(Op(label, partial(_graph_jumps, text), expected))
    return ops


# ---------------------------------------------------------------- route-agreement

def _chain_length(m1: int, m2: int, n: int) -> int:
    """Length of the Jung-Hirzebruch expansion of n/r for (m1, m2, n),
    computed here rather than by fibertrace so that the choice of inputs
    cannot change when the program does."""
    prev, cur = n, (-m1 * pow(m2, -1, n)) % n
    length = 0
    while cur:
        prev, cur = cur, -(-prev // cur) * cur - prev
        length += 1
    return length


def _routes(m1: int, m2: int, n: int, power: int) -> tuple[bool, bool, bool]:
    """Run both branch orders through every trace route. Returns whether
    the closed form matched the node sum on every stable chain, whether
    the cyclotomic oracle matched the evaluated polynomial, and whether
    the two branch orders gave the same trace."""
    closed_ok = oracle_ok = True
    traces = []
    for a, b in ((m1, m2), (m2, m1)):
        res = resolution.resolve(resolution.Singularity(a, b, n))
        tp = singtrace.trace_polynomial(res)
        if resolution.is_stable(res):
            closed_ok &= singtrace.trace_closed_form(res) == tp
        oracle_ok &= singtrace.trace_oracle(res, power) == tp.evaluate(power)
        traces.append(tp)
    return closed_ok, oracle_ok, traces[0] == traces[1]


@lru_cache(maxsize=None)
def _population(max_n: int) -> list[tuple[int, int, int, int]]:
    """{(m1, m2, n): m1 <= m2 <= 8, n <= max_n, n coprime to m1*m2} as
    (size, n, m1, m2), sorted by oracle size phi(n)^2 * (chain lengths of
    both branch orders)."""
    population = []
    for n in range(2, max_n + 1):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        for m1 in range(1, 9):
            for m2 in range(m1, 9):
                if math.gcd(n, m1 * m2) == 1:
                    size = phi * phi * (_chain_length(m1, m2, n) + _chain_length(m2, m1, n) + 2)
                    population.append((size, n, m1, m2))
    return sorted(population)


def route_agreement(rng: random.Random, phase: float, tiny: bool) -> list[Op]:
    """One singularity from each of 100 equal strata of the population with
    n <= 120, ordered by oracle size, so a pass samples the population
    evenly and latency percentiles pooled over many passes hardly depend
    on the draws. The pass's phase places the triple within its stratum;
    the seed picks which branch comes first, the power u among the first three units mod n (as
    the acceptance suite does; u near n costs up to three times more), and
    the order of the operations."""
    max_n, strata = (30, 10) if tiny else (120, 100)
    population = _population(max_n)
    ops = []
    for i in range(strata):
        place = (phase + i * GOLDEN) % 1
        _, n, m1, m2 = population[int((i + place) * len(population) / strata)]
        if rng.random() < 0.5:
            m1, m2 = m2, m1
        power = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1][:3])
        ops.append(Op(f"({m1},{m2},{n})^{power}", partial(_routes, m1, m2, n, power),
                      (True, True, True)))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "catalog-jumps": catalog_jumps,
    "big-fibers": big_fibers,
    "route-agreement": route_agreement,
}


def build(name: str, seed: int, pass_index: int = 0, tiny: bool = False) -> list[Op]:
    """The operations of one pass of the named workload."""
    phase = (random.Random(f"{name}:{seed}").random() + pass_index * GOLDEN) % 1
    return BUILDERS[name](random.Random(f"{name}:{seed}:{pass_index}"), phase, tiny)
