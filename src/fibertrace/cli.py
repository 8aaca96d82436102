"""Command-line surface: every pipeline stage behind one executable.

Machine-readable lines are stable:  ``jump <p>/<q>``,
``char <exponent> <multiplicity>``, ``mu <list>``, ``tr <exp> <coeff>``.
Exit codes: 0 success, 1 usage error, 2 validation/domain error.

Each verb's arguments are declared once, in ``_VERBS``.  A plain argv, a
verb and its own options, values and positionals, is read from that table
directly; argparse, built from the same table, answers help, usage errors
and every other spelling, and is imported only then.
"""

from __future__ import annotations

import functools
import math
import sys
from types import SimpleNamespace

from .catalog import FiberTypeId, catalog_ids, lookup
from .errors import BadInput, FibertraceError
from .fiber import MAX_GRAPH_CHARS, FiberGraph, h1_character, parse_graph, total_trace
from .jumps import MAX_N_MIN, JumpOptions, compute_jumps
from .resolution import Singularity, is_stable, resolve
from .singtrace import singularity_trace

# Every verb's arguments, declared once: verb -> (help, int positionals,
# options), and each option flag -> (type, default, metavar, required, help);
# type bool is a flag that stores True, type None keeps the token as given.
# The dest is the flag without its dashes, "-" read as "_", as argparse makes it.
_SOURCE = {"--graph": (None, None, "PATH", False, "graph file to read"),
           "--catalog": (None, None, "ID", False, "built-in fiber type, e.g. kodaira:IV")}
_MACHINE = {"--machine": (bool, False, None, False, None)}
_N = {"--n": (int, None, None, True, None)}
_VERBS = {
    "resolve": ("resolution data of a singularity (m1, m2, n)", ("m1", "m2", "n"), _MACHINE),
    "trace-sing": ("trace polynomial of a singularity (m1, m2, n)", ("m1", "m2", "n"), _MACHINE),
    "trace-fiber": ("total trace of a fiber graph at degree n", (), {**_SOURCE, **_N, **_MACHINE}),
    "character": ("H^1 character multiset at degree n", (), {**_SOURCE, **_N, **_MACHINE}),
    "jumps": ("filtration jumps of a fiber graph", (), {
        **_SOURCE, "--n-min": (int, 1000, None, False, None),
        "--sweeps": (int, 3, None, False, None), **_MACHINE}),
    "catalog-list": ("list built-in fiber types", (), {}),
}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments the verb's parser would read from a plain argv, or
    None when argv is not plain.  A plain argv is a verb, then tokens each
    of which is a flag of the verb, an option of the verb and a value that
    does not start with "-", or a positional that does not start with "-";
    no option twice, every positional and required option given, every int
    conversion succeeding.  argparse reads such an argv the same way, by
    the same int() calls and defaults, so only other argvs need it."""
    spec = _VERBS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, positionals, options = spec
    args = {"verb": argv[0]}
    given = set()
    names = iter(positionals)
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token[:1] != "-":
                name = next(names, None)
                if name is None:
                    return None
                args[name] = int(token)
                continue
            option = options.get(token)
            if option is None or token in given:
                return None
            given.add(token)
            kind = option[0]
            if kind is bool:
                value = True
            else:
                value = next(tokens, "-")
                if value[:1] == "-":
                    return None
                if kind is int:
                    value = int(value)
            args[token[2:].replace("-", "_")] = value
    except ValueError:
        return None
    if next(names, None) is not None:
        return None
    for flag, (_, default, _, required, _) in options.items():
        if flag not in given:
            if required:
                return None
            args[flag[2:].replace("-", "_")] = default
    return SimpleNamespace(**args)


# argparse answers every argv that is not plain: help, usage errors, the
# --name=value and -- forms, and the source error of _load_graph.  The
# parsers are built from _VERBS on the first such call, importing argparse
# only then, and reused: argparse keeps no state between parse_args calls,
# and usage, errors and help look up sys.stdout and sys.stderr when they
# print.  Returns the top-level parser and the parser of each verb by name.
# When argv starts with a verb, main hands the rest straight to that verb's
# parser; the top-level parser takes every other argv.  Tokens left over are
# reported by the verb's parser either way, with the verb's usage.
@functools.cache
def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    # allow_abbrev=False: an option is spelled in full, so --n is not --n-min
    p = _Parser(prog="fibertrace", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = p.add_subparsers(dest="verb", required=True)
    verbs = {}
    for name, (about, positionals, options) in _VERBS.items():
        verbs[name] = sp = sub.add_parser(name, help=about, allow_abbrev=False)
        for positional in positionals:
            sp.add_argument(positional, type=int)
        for flag, (kind, default, metavar, required, text) in options.items():
            if kind is bool:
                sp.add_argument(flag, action="store_true")
            else:
                sp.add_argument(flag, type=kind, default=default, metavar=metavar,
                                required=required, help=text)
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
            print(f"graph: {len(g.ids)} vertices, {len(g.heads)} edges")
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
        nt = js.n_tilde
        for j, c in js.classes:  # one write per class, however many copies; 0/1 for class 0
            d = math.gcd(j, nt)
            sys.stdout.write(f"jump {j // d}/{nt // d}\n" * c)
    elif args.verb == "catalog-list":
        for cid in catalog_ids():
            print(cid)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain_args(argv)
        if args is None:
            parser, verbs = _build_parser()
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
