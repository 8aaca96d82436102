#!/usr/bin/env python3
"""The fibertrace benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process as a closed loop with
one client: each operation starts when the previous one has finished, and
every answer is checked. Passes over the workload's operations, each with
fresh inputs drawn from the seed, are run for about S seconds, and at
least MIN_PASSES times.

The speed of a shared virtual machine drifts by 15% and more (measured
on a 2-vCPU Intel Xeon VM at 2.1 GHz), in phases from seconds to minutes.
So every time is scaled to a machine on which a fixed piece of
pure-Python work (reference_work) takes REFERENCE_S: it is timed after
every REFERENCE_EVERY-th operation, and an execution is scaled by the
median of the five readings nearest to it; each set-up probe is scaled by
its time in the probe's own interpreter. The plain wall-clock figures are printed too.

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
measures the per-layer metrics instead: one untraced pass as reference,
traced passes for the rest of S/2 seconds, then the scaling report.
Per-layer counts and times are given per operation.

The metric names and units are those of BENCHMARK.json. Human-readable
lines go first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 when
every answer was right, 1 when one was wrong, and 2 when the fibertrace
sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SETUP_PROBES = 15
MIN_PASSES = 5
REFERENCE_S = 0.01
REFERENCE_EVERY = 4


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def reference_work() -> int:
    """A fixed piece of work independent of fibertrace that takes about
    REFERENCE_S on a 2-vCPU Intel Xeon VM at 2.1 GHz: a loop of integer
    arithmetic, then a breadth-first search of a graph of 1500
    string-keyed vertices. On that VM, over five runs of each workload,
    timings scaled by the two together spread less than timings scaled by
    either alone (ops_per_s: 0.016 to 0.041 against 0.034 to 0.053 for
    the loop alone and 0.053 to 0.093 for the search alone)."""
    total = 0
    for i in range(75_000):
        total += i * i % 7
    n = 1500
    adj = {f"v{i}": [] for i in range(n)}
    for i in range(n):
        for j in (i * 7 % n, i * 13 % n, (i + 1) % n):
            adj[f"v{i}"].append(f"v{j}")
    seen, frontier = {"v0"}, ["v0"]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return total + len(seen)


def reference_seconds() -> float:
    """Seconds of one reference_work() call, with the garbage collector
    off: a collection of the workload's objects would land in it at random."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure(passes, seconds: float, min_passes: int = MIN_PASSES, run_op=None) -> dict:
    """Run the lists of operations in ``passes``: at least ``min_passes``
    of them, and then until one more would end further beyond ``seconds``
    (at the mean pass time so far) than stopping falls short of it; but
    never past three times ``seconds``, nor past the end of ``passes``.
    ``run_op`` calls one operation; the default calls it directly.
    Returns every execution's time in seconds, plain and scaled to
    reference speed, the failures and the wall time."""
    run_op = run_op or (lambda op: op.run())
    times: list[float] = []
    reference: list[float] = []
    failures: list[str] = []
    done = 0
    start_run = time.perf_counter()
    for ops in passes:
        for op in ops:
            start = time.perf_counter()
            try:
                ok = run_op(op) == op.expected
            except Exception as exc:  # a failed operation is counted, not fatal
                ok = False
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    failures.append(f"{op.label}: wrong answer")
            times.append(time.perf_counter() - start)
            if len(times) % REFERENCE_EVERY == 1:
                reference.append(reference_seconds())
        done += 1
        wall = time.perf_counter() - start_run
        if (done >= min_passes and wall + wall / done / 2 >= seconds) or wall >= 3 * seconds:
            break
    scaled = []
    for k, t in enumerate(times):
        j = k // REFERENCE_EVERY
        scaled.append(t * REFERENCE_S / statistics.median(reference[max(0, j - 2):j + 3]))
    return {"times": times, "scaled": scaled, "failures": failures, "wall": wall,
            "reference": statistics.median(reference)}


def setup_seconds(workload: str, seed: int, tiny: bool) -> list[tuple[float, float]]:
    """(set-up seconds, reference_work seconds) in each of SETUP_PROBES
    fresh interpreters that import fibertrace and build the workload's
    first pass."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("tiny")
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        setup, reference = out.stdout.split()[-2:]
        probes.append((float(setup), float(reference)))
    return probes


def _per_call(fn, min_seconds: float) -> float:
    """Mean seconds per call of ``fn``, over enough calls to fill min_seconds."""
    calls, start = 0, time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls


def _loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def scaling_slopes(tiny: bool) -> tuple[float, float]:
    """Log-log slopes of one-sweep compute_jumps time against n_min (summed
    over kodaira:IV, kodaira:II* and ogg:4) and against the component
    count of kodaira:In*:k."""
    from fibertrace import catalog, jumps

    def graph(cid):
        return catalog.lookup(catalog.FiberTypeId.parse(cid))

    def cost(g, n_min):
        options = jumps.JumpOptions(n_min=n_min, sweeps=1)
        return _per_call(lambda: jumps.compute_jumps(g, options), 0.05)

    n_mins = (200, 400, 800) if tiny else (10**3, 10**4, 10**5)
    small = [graph(c) for c in ("kodaira:IV", "kodaira:II*", "ogg:4")]
    n_times = [sum(cost(g, n) for g in small) for n in n_mins]
    bigs = [graph(f"kodaira:In*:{k}") for k in ((20, 40, 80) if tiny else (250, 500, 1000, 2000))]
    size_times = [cost(g, 20) for g in bigs]
    return (_loglog_slope(n_mins, n_times),
            _loglog_slope([len(g.vertices) for g in bigs], size_times))


def workload_passes(workload: str, seed: int, tiny: bool):
    """The workload's passes 0, 1, 2, ..., each built when it is needed."""
    import workloads

    for index in itertools.count():
        yield workloads.build(workload, seed, index, tiny)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool = False):
    probes = setup_seconds(workload, seed, tiny)
    all_passes = workload_passes(workload, seed, tiny)
    first = next(all_passes)
    baseline_mb = peak_rss_mb()
    raw = measure(itertools.chain([first], all_passes), seconds)
    scaled = raw["scaled"]
    tail = p90(scaled)
    verified = len(scaled) - len(raw["failures"])
    metrics = {
        "ops_per_s": verified / sum(scaled),
        "op_ms.p50": statistics.median(scaled) * 1e3,
        "op_ms.p90": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(s * REFERENCE_S / r for s, r in probes),
    }
    info = {
        "operations_per_pass": len(first),
        "executions": len(scaled),
        "executions_beyond_p90": sum(x > tail for x in scaled),
        "wall_ops_per_s": verified / sum(raw["times"]),
        "reference_ms": raw["reference"] * 1e3,
        "wall_setup_s": statistics.median(s for s, _ in probes),
        "rss_growth_mb": peak_rss_mb() - baseline_mb,
        "failed_ratio": len(raw["failures"]) / len(scaled),
    }
    return raw, metrics, info


def _span_metric(tracer, name: str, count: int) -> float:
    """``<span>.calls``, ``<span>.self_ms`` or ``<module>.self_ms`` (the
    summed self time of the module's spans), per operation."""
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return tracer.calls.get(span, 0) / count
    if "." in span:
        ns = tracer.self_ns.get(span, 0)
    else:
        ns = sum(v for s, v in tracer.self_ns.items() if s.startswith(span + "."))
    return ns / 1e6 / count


def per_layer(workload: str, seed: int, seconds: float, tiny: bool = False):
    from tracer import Tracer

    all_passes = workload_passes(workload, seed, tiny)
    reference = measure(all_passes, 0, min_passes=1)
    with Tracer() as tracer:
        traced = measure(all_passes, max(seconds / 2 - reference["wall"], 0), min_passes=1,
                         run_op=lambda op: tracer.span("op", op.run))
    n_slope, size_slope = scaling_slopes(tiny)

    count = len(traced["times"])
    counters = tracer.counters
    special = {
        "singtrace.density": (counters.get("singtrace.nonzero", 0)
                              / max(counters.get("singtrace.allocated", 0), 1)),
        "exactalg.GroupRingElement.cells": counters.get("exactalg.GroupRingElement.cells", 0) / count,
        "resolution.chain_length.sum": counters.get("resolution.chain_length.sum", 0) / count,
        "trace.overhead_ratio": (statistics.fmean(traced["times"])
                                 / statistics.fmean(reference["times"])),
        "scaling.n_slope": n_slope,
        "scaling.size_slope": size_slope,
    }
    metrics = {m["name"]: special[m["name"]] if m["name"] in special
               else _span_metric(tracer, m["name"], count) for m in SPEC["per_layer"]}

    raw = {"times": reference["times"] + traced["times"],
           "failures": reference["failures"] + traced["failures"]}
    info = {
        "traced_ms_per_op": sum(traced["times"]) * 1e3 / count,
        "traced_executions": count,
        "self_ms_per_op_all_spans": sum(tracer.self_ns.values()) / 1e6 / count,
        "failed_ratio": len(raw["failures"]) / len(raw["times"]),
    }
    return raw, metrics, info


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Measure one workload; returns (result, info) where result is the
    object printed as the last line and info holds the extra figures
    printed above it."""
    measure_fn = per_layer if trace else end_to_end
    raw, metrics, info = measure_fn(workload, seed, seconds, tiny)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not raw["failures"],
        "attempted": len(raw["times"]),
        "failed": len(raw["failures"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    info["failures"] = raw["failures"][:10]
    return result, info


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fibertrace" / "__init__.py").is_file():
        print(f"bench: no fibertrace sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))

    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in info.items():
        if name != "failures":
            print(f"  [{name} = {value:.6g}]")
    for failure in info["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
