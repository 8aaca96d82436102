"""Per-layer tracing of fibertrace from outside the package.

While a Tracer is active, each function in TARGETS is replaced by a timing
wrapper in every fibertrace module namespace that holds it (so both
``fibertrace.resolution.resolve`` and the name ``resolve`` imported into
``fibertrace.fiber`` are traced), and each listed method is replaced on
its class. Leaving the ``with`` block puts every original back. A target
that no longer exists is skipped and reports zero calls.

A span's self time is its duration minus the durations of the traced
spans it called. Time spent in the tracer's own counting hooks is left
out of every span.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import wraps

# Layer -> traced names, relative to the module. Trivial helpers such as
# ResolutionData.r_at and arith.ceil_div are left out: they run millions of
# times inside the chain and trace loops, and wrapping them would swamp the
# spans around them.
TARGETS = {
    "cli": ["main"],
    "catalog": ["lookup", "catalog_ids", "FiberTypeId.parse"],
    "fiber": [
        "parse_graph", "FiberGraph.build", "FiberGraph.vertex", "FiberGraph.degree",
        "edge_singularity", "self_intersections", "total_trace", "h1_character",
    ],
    "jumps": ["compute_jumps", "sweep_degrees", "principal_lcm", "candidate_jumps"],
    "resolution": ["resolve", "is_stable", "node_eigen_data", "universal_polys",
                   "stabilized_profile"],
    "arith": ["jh_expand", "mod_inverse", "gcd_lcm"],
    "singtrace": ["trace_polynomial", "trace_closed_form", "closed_form_coefficients",
                  "trace_oracle", "vertex_trace"],
    "exactalg": [
        "GroupRingElement.__init__", "GroupRingElement.__add__", "GroupRingElement.__sub__",
        "GroupRingElement.__rsub__", "GroupRingElement.__mul__", "GroupRingElement.items",
        "GroupRingElement.eval_at_one", "GroupRingElement.evaluate",
        "cyclotomic_polynomial", "inverse_of_one_minus_root",
        "CyclotomicNumber.from_poly", "CyclotomicNumber.root_power",
        "CyclotomicNumber.__add__", "CyclotomicNumber.__mul__",
    ],
}


def span_name(module: str, qualname: str) -> str:
    """``exactalg`` + ``GroupRingElement.__add__`` -> ``exactalg.GroupRingElement.add``."""
    return f"{module}.{'.'.join(part.strip('_') for part in qualname.split('.'))}"


def _trace_density(tracer, args, result):
    tracer.count("singtrace.nonzero", sum(1 for c in result.coeffs if c))
    tracer.count("singtrace.allocated", result.n)


# Counters taken from a traced call's arguments and result. They read plain
# attributes only, so they never call a traced function themselves.
HOOKS = {
    "exactalg.GroupRingElement.init":
        lambda t, args, result: t.count("exactalg.GroupRingElement.cells", args[0].n),
    "resolution.resolve":
        lambda t, args, result: t.count("resolution.chain_length.sum", result.length),
    "singtrace.trace_polynomial": _trace_density,
    "singtrace.trace_closed_form": _trace_density,
    "singtrace.vertex_trace": _trace_density,
}


class Tracer:
    """Context manager that installs the wrappers and collects, per span
    name, the number of calls and the self time in nanoseconds."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack = [0]   # per open span: nanoseconds spent in its traced children
        self._patches = []  # (owner, attribute, original), in installation order

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn):
        """Call ``fn()`` as a traced span called ``name``."""
        return self._wrap(fn, name)()

    def _wrap(self, fn, name):
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += end - start - children
                stack[-1] += end - start
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the traced code changed shape; the counter stays as it is
                stack[-1] += clock() - end
            return result

        return wrapper

    def _wrap_attribute(self, raw, name):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(raw.__func__, name))
        return self._wrap(raw, name)

    def _patch(self, owner, original, replacement) -> None:
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, replacement)

    def __enter__(self):
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "fibertrace" or n.startswith("fibertrace.")]
        for module_name, qualnames in TARGETS.items():
            try:
                module = importlib.import_module(f"fibertrace.{module_name}")
            except ImportError:
                module = None
            for qualname in qualnames:
                name = span_name(module_name, qualname)
                self.calls.setdefault(name, 0)
                self.self_ns.setdefault(name, 0)
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    if isinstance(owner, type) and attr in vars(owner):
                        raw = vars(owner)[attr]
                        self._patch(owner, raw, self._wrap_attribute(raw, name))
                else:
                    fn = getattr(module, attr, None)
                    if callable(fn):
                        wrapper = self._wrap(fn, name)
                        for namespace in namespaces:
                            self._patch(namespace, fn, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False
