"""Command-line surface: every pipeline stage behind one executable.

Machine-readable lines are stable:  ``jump <p>/<q>``,
``char <exponent> <multiplicity>``, ``mu <list>``, ``tr <exp> <coeff>``.
Exit codes: 0 success, 1 usage error, 2 validation/domain error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import groupby

from .catalog import FiberTypeId, catalog_ids, lookup
from .errors import BadInput, FibertraceError
from .fiber import MAX_GRAPH_CHARS, FiberGraph, h1_character, parse_graph, total_trace
from .jumps import MAX_N_MIN, JumpOptions, compute_jumps
from .resolution import Singularity, is_stable, resolve
from .singtrace import singularity_trace


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Built on the first main call, not at import, and then reused: argparse
# keeps no state between parse_args calls, and usage, errors and help look up
# sys.stdout and sys.stderr when they print.  Returns the top-level parser
# and the parser of each verb by name.  When argv starts with a verb, main
# hands the rest straight to that verb's parser: the top-level pass would
# scan every token only to pass the same tokens on.  The top-level parser
# still takes every other argv.  Tokens left over are reported by the
# verb's parser either way, with the verb's usage.
@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    # allow_abbrev=False: an option is spelled in full, so --n is not --n-min
    p = _Parser(prog="fibertrace", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = p.add_subparsers(dest="verb", required=True)
    verbs = {}

    def add_verb(name, help):
        verbs[name] = sp = sub.add_parser(name, help=help, allow_abbrev=False)
        return sp

    def add_graph_source(sp):
        sp.add_argument("--graph", metavar="PATH", help="graph file to read")
        sp.add_argument("--catalog", metavar="ID", help="built-in fiber type, e.g. kodaira:IV")

    sp = add_verb("resolve", "resolution data of a singularity (m1, m2, n)")
    sp.add_argument("m1", type=int)
    sp.add_argument("m2", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--machine", action="store_true")

    sp = add_verb("trace-sing", "trace polynomial of a singularity (m1, m2, n)")
    sp.add_argument("m1", type=int)
    sp.add_argument("m2", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--machine", action="store_true")

    sp = add_verb("trace-fiber", "total trace of a fiber graph at degree n")
    add_graph_source(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--machine", action="store_true")

    sp = add_verb("character", "H^1 character multiset at degree n")
    add_graph_source(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--machine", action="store_true")

    sp = add_verb("jumps", "filtration jumps of a fiber graph")
    add_graph_source(sp)
    sp.add_argument("--n-min", type=int, default=1000, dest="n_min")
    sp.add_argument("--sweeps", type=int, default=3)
    sp.add_argument("--machine", action="store_true")

    add_verb("catalog-list", "list built-in fiber types")
    return p, verbs


def _load_graph(args) -> FiberGraph:
    # an empty value is a source too, and fails as a path or an id does
    if (args.graph is None) == (args.catalog is None):
        _build_parser()[1][args.verb].error(
            "supply exactly one input source: --graph PATH or --catalog ID")
    if args.graph is not None:
        # one character past the bound is enough for parse_graph to refuse the file
        with open(args.graph, encoding="utf-8", errors="surrogateescape") as f:
            return parse_graph(f.read(MAX_GRAPH_CHARS + 1))
    return lookup(FiberTypeId.parse(args.catalog))


def _print_trace(trace, machine: bool) -> None:
    if not machine:
        print(f"Tr = {trace}")
    for e, c in trace.items():
        print(f"tr {e} {c}")


def _run(args) -> int:
    if args.verb == "resolve":
        res = resolve(Singularity(args.m1, args.m2, args.n))
        if args.machine:
            print(f"mu {' '.join(map(str, res.mu))}")
        else:
            print(f"singularity ({args.m1},{args.m2},{args.n})")
            print(f"r={res.r}")
            print(f"b=[{','.join(map(str, res.b))}]")
            print(f"mu=[{','.join(map(str, res.mu))}]")
            print(f"alpha1={res.alpha1}")
            print(f"alpha2={res.alpha2}")
            print(f"stable={'yes' if is_stable(res) else 'no'}")
    elif args.verb == "trace-sing":
        trace = singularity_trace(Singularity(args.m1, args.m2, args.n))
        if not args.machine:
            print(f"singularity ({args.m1},{args.m2},{args.n})")
        _print_trace(trace, args.machine)
    elif args.verb == "trace-fiber":
        g = _load_graph(args)
        trace = total_trace(g, args.n)
        if not args.machine:
            print(f"graph: {len(g.ids)} vertices, {len(g.pairs)} edges")
            print(f"n={args.n}")
        _print_trace(trace, args.machine)
    elif args.verb == "character":
        g = _load_graph(args)
        char = h1_character(g, args.n)
        if not args.machine:
            print(f"n={args.n}")
            print(f"genus={char.total}")
        for e, mult in char.exponents:
            print(f"char {e} {mult}")
    elif args.verb == "jumps":
        g = _load_graph(args)
        js = compute_jumps(g, JumpOptions(n_min=args.n_min, sweeps=args.sweeps))
        if not args.machine:
            if 2 * js.n_tilde * g.mult_lcm > MAX_N_MIN:  # only here are witnesses printed
                raise BadInput("2 * n_tilde * lcm exceeds MAX_N_MIN = 10^600, so the witness "
                               "degrees would be too long to print")
            print(f"n_tilde={js.n_tilde}")
            print(f"witnesses={','.join(map(str, js.witnesses))}")
        for j, same in groupby(js.jumps):  # one write per class, however many copies
            sys.stdout.write(f"jump {j.numerator}/{j.denominator}\n" * sum(1 for _ in same))
    elif args.verb == "catalog-list":
        for cid in catalog_ids():
            print(cid)
    return 0


def main(argv=None) -> int:
    parser, verbs = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        verb = verbs.get(argv[0]) if argv else None
        if verb is None:
            args, extra = parser.parse_known_args(argv)
        else:
            args, extra = verb.parse_known_args(argv[1:])
            args.verb = argv[0]
        if extra:
            verbs[args.verb].error(f"unrecognized arguments: {' '.join(extra)}")
        return _run(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 1
    except FibertraceError as exc:
        print(f"fibertrace: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fibertrace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
