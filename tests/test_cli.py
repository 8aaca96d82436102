import argparse
import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from fibertrace import cli, fiber
from fibertrace.cli import main
from fibertrace.resolution import Singularity, is_stable, resolve
from fibertrace.singtrace import trace_closed_form
from reference import two_pass_main

OGG_4 = """\
vertex v1 genus=0 mult=1
vertex v2 genus=0 mult=2
vertex v3 genus=0 mult=3
vertex v4 genus=0 mult=4
vertex v5 genus=0 mult=2
vertex v6 genus=0 mult=2
vertex v7 genus=0 mult=1
edge v1 v2
edge v2 v3
edge v3 v4
edge v5 v4
edge v6 v4
edge v7 v4
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resolve_golden(capsys):
    code, out, err = run(capsys, "resolve", "3", "4", "13")
    assert code == 0 and not err
    assert out == (
        "singularity (3,4,13)\n"
        "r=9\n"
        "b=[2,2,5]\n"
        "mu=[4,3,2,1,3]\n"
        "alpha1=9\n"
        "alpha2=10\n"
        "stable=yes\n"
    )


def test_resolve_machine(capsys):
    code, out, _ = run(capsys, "resolve", "3", "4", "13", "--machine")
    assert code == 0
    assert out == "mu 4 3 2 1 3\n"


def test_resolve_validation_error_exits_2(capsys):
    code, out, err = run(capsys, "resolve", "3", "4", "12")
    assert code == 2
    assert "coprime" in err


def test_resolve_past_chain_bound_exits_2(capsys):
    # (1, 1, n) has n - 1 curves; the walk stops after MAX_CHAIN_LENGTH of
    # them (about 0.5 s) instead of walking 10^9
    start = time.perf_counter()
    code, out, err = run(capsys, "resolve", "1", "1", "1000000000")
    assert time.perf_counter() - start < 2
    assert code == 2 and not out
    assert "MAX_CHAIN_LENGTH = 1000000" in err


def test_trace_sing_past_node_sum_bound_exits_0(capsys):
    # the node sum would touch 1.6e10 cells, far past MAX_NODE_SUM_CELLS; the
    # production route reads only the chain ends, unstable chain or not
    start = time.perf_counter()
    code, out, err = run(capsys, "trace-sing", "3000", "2999", "3001", "--machine")
    assert time.perf_counter() - start < 1
    assert code == 0 and not err
    res = resolve(Singularity(3000, 2999, 3001))
    assert res.length == 1500 and not is_stable(res)
    assert out.splitlines() == [f"tr {e} {c}" for e, c in trace_closed_form(res).items()]
    assert len(out.splitlines()) == 3000


def test_trace_sing_past_multiplicity_bound_exits_2(capsys):
    # the closed form would build about 2 * 10^8 terms (tens of GB)
    start = time.perf_counter()
    code, out, err = run(capsys, "trace-sing", "100000000", "99999999", "100000001")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "MAX_MULTIPLICITY = 100000" in err


def test_jumps_past_genus_bound_exits_2(tmp_path, capsys):
    # one jump line per unit of genus: 10^9 of them would take hours
    path = tmp_path / "big-genus.fg"
    path.write_text("vertex a genus=1000000000 mult=1\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "jumps", "--graph", str(path), "--machine")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "genus 1000000000 exceeds MAX_GENUS = 100000" in err


def test_jumps_on_a_field_past_the_int_digit_limit_exits_2(tmp_path, capsys):
    # an otherwise plain file whose second line holds 5,000 digits, more than
    # int() converts: a ParseError naming that line, not a traceback
    path = tmp_path / "long-field.fg"
    path.write_text("vertex a genus=0 mult=1\nvertex b genus=0 mult=" + "1" * 5000
                    + "\nedge a b\n", encoding="utf-8")
    code, out, err = run(capsys, "jumps", "--graph", str(path))
    assert code == 2 and not out
    assert err.startswith("fibertrace: ParseError: line 2: mult must be an integer, got '111")


def test_jumps_past_genus_bound_exits_2_before_tracing(tmp_path, capsys):
    # a multiplicity-4000 curve meeting a reduced curve 4000 times (36 KB):
    # its edge blocks hold 8000 terms each, and the genus is 7,998,000
    path = tmp_path / "heavy-edges.fg"
    path.write_text("vertex a genus=0 mult=4000\nvertex b genus=0 mult=1\n" + "edge a b\n" * 4000,
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "jumps", "--graph", str(path), "--machine")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "BadInput: genus 7998000 exceeds MAX_GENUS = 100000" in err


def long_chain(tmp_path, top):
    """A graph file of the genus-0 chain 1 - top - (top - 1) - ... - 2 - 1."""
    path = tmp_path / f"chain-{top}.fg"
    lines = ["vertex a genus=0 mult=1", "vertex b genus=0 mult=1", f"edge a v{top}", "edge v2 b"]
    lines += [f"vertex v{k} genus=0 mult={k}" for k in range(2, top + 1)]
    lines += [f"edge v{k} v{k - 1}" for k in range(3, top + 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_long_chain_answers_jumps_and_character(tmp_path, capsys):
    # the chain 1 - 800 - ... - 2 - 1 (35 KB) has no principal component, so
    # its trace is one term at every degree; the per-edge block route would
    # build 962,000 block terms there
    path = long_chain(tmp_path, 800)
    start = time.perf_counter()
    code, out, err = run(capsys, "jumps", "--graph", str(path), "--machine")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (0, "", "")
    for verb, want in (("character", "n=1009\ngenus=0\n"), ("trace-fiber", "tr 0 1\n")):
        start = time.perf_counter()
        code, out, err = run(capsys, verb, "--graph", str(path), "--n", "1009")
        assert time.perf_counter() - start < 0.5
        assert code == 0 and not err
        assert out.endswith(want), verb
        assert "char " not in out


def test_character_of_a_curve_with_many_tails(tmp_path, capsys):
    # a multiplicity-1000 curve with 1000 reduced tails: the trace has one
    # row of 1000 classes and the end pair (1000, 1), 2000 terms, where
    # counting each component's neighbours would make it 1,001,000; the limit
    # character is 999 - k at each class k/1000, k = 1..998, which degree n
    # moves to the class (k n mod 1000)/1000
    path = tmp_path / "tails.fg"
    path.write_text("vertex c genus=0 mult=1000\n"
                    + "".join(f"vertex t{i} genus=0 mult=1\nedge c t{i}\n" for i in range(1000)),
                    encoding="utf-8")
    code, out, err = run(capsys, "character", "--graph", str(path), "--n", "1009", "--machine")
    assert code == 0 and not err
    inverse = pow(1000, -1, 1009)
    want = sorted((k * 1009 % 1000 * inverse % 1009, 999 - k) for k in range(1, 999))
    assert out == "".join(f"char {e} {c}\n" for e, c in want)


def test_integrality_message_on_every_verb(tmp_path, capsys):
    # a double curve meeting a reduced one once is refused in the same words
    # by every verb that reads a graph
    path = tmp_path / "half.fg"
    path.write_text("vertex a genus=0 mult=2\nvertex b genus=0 mult=1\nedge a b\n",
                    encoding="utf-8")
    want = ("fibertrace: NonIntegralSelfIntersection: vertex a: neighbour multiplicities "
            "sum to 1, not a multiple of mult 2; not a valid fiber\n")
    for argv in (["jumps"], ["character", "--n", "5"], ["trace-fiber", "--n", "5"]):
        assert run(capsys, *argv, "--graph", str(path)) == (2, "", want), argv


def test_jumps_on_the_1000_chain(tmp_path, capsys):
    # lcm(1..1000) has 433 digits; the witnesses are printed in full
    path = long_chain(tmp_path, 1000)
    start = time.perf_counter()
    code, out, err = run(capsys, "jumps", "--graph", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 0 and not err
    assert out.startswith("n_tilde=1\nwitnesses=") and "jump" not in out


def test_jumps_past_witness_bound_exits_2(tmp_path, capsys):
    # the chain 1 - 12000 - ... - 2 - 1 (580 KB) passes every other bound, and
    # its first witness, above 2 * lcm(1..12000), has over 5,000 digits: more
    # than Python prints by default.  Only the human form prints witnesses, so
    # only it refuses; --machine prints the jumps, of which there are none
    path = long_chain(tmp_path, 12000)
    for machine, want in (((), 2), (("--machine",), 0)):
        start = time.perf_counter()
        code, out, err = run(capsys, "jumps", "--graph", str(path), *machine)
        assert time.perf_counter() - start < 1
        assert code == want and not out and "Traceback" not in err
        assert err == ("" if want == 0 else
                       "fibertrace: BadInput: 2 * n_tilde * lcm exceeds MAX_N_MIN = 10^600, "
                       "so the witness degrees would be too long to print\n")


def test_degree_sharing_a_factor_with_a_huge_lcm_exits_2(tmp_path, capsys):
    # lcm(1..12000) has over 5,000 digits, more than str() converts, so the
    # refusal names only the factor it shares with the degree
    path = long_chain(tmp_path, 12000)
    want = ("fibertrace: BadInput: degree 13 must be coprime to the multiplicity lcm; "
            "they share the factor 13\n")
    for verb in ("character", "trace-fiber"):
        assert run(capsys, verb, "--graph", str(path), "--n", "13") == (2, "", want), verb


def test_many_duplicate_vertex_ids_exit_2_quickly(tmp_path, capsys):
    # counting each id by a scan of all ids took about 8 s on this file (2-vCPU Xeon VM)
    path = tmp_path / "duplicates.fg"
    path.write_text("".join(f"vertex v{i // 2} genus=0 mult=1\n" for i in range(20000)),
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "jumps", "--graph", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "ValidationError: duplicate vertex id(s): v0, v1, v10, v100, " in err


def test_graph_file_past_size_bound_exits_2(tmp_path, capsys):
    # the bound counts characters: a file of MAX_GRAPH_CHARS two-byte
    # characters is read whole, one character more is refused
    head = "vertex a genus=1 mult=1\n#"
    path = tmp_path / "padded.fg"
    for extra, want in ((0, 0), (1, 2)):
        pad = "\u00e9" * (fiber.MAX_GRAPH_CHARS + extra - len(head))
        path.write_text(head + pad, encoding="utf-8")
        code, out, err = run(capsys, "jumps", "--graph", str(path), "--machine")
        assert code == want, (extra, err)
    assert not out and f"MAX_GRAPH_CHARS = {fiber.MAX_GRAPH_CHARS}" in err


def test_trace_sing_golden(capsys):
    code, out, _ = run(capsys, "trace-sing", "2", "3", "13")
    assert code == 0
    assert out == "singularity (2,3,13)\nTr = 2 + x^9\ntr 0 2\ntr 9 1\n"


def test_jumps_catalog(capsys):
    code, out, _ = run(capsys, "jumps", "--catalog", "kodaira:IV")
    assert code == 0
    assert out.endswith("jump 1/3\n")
    assert "n_tilde=3" in out


def test_jumps_machine_only_machine_lines(capsys):
    code, out, _ = run(capsys, "jumps", "--catalog", "kodaira:IV", "--machine")
    assert code == 0
    assert out == "jump 1/3\n"
    code, out, _ = run(capsys, "jumps", "--catalog", "kodaira:In:2", "--machine")
    assert out == "jump 0/1\n"


def test_jumps_at_huge_degree(capsys):
    code, out, _ = run(capsys, "jumps", "--catalog", "kodaira:IV", "--n-min",
                       "1000000000000", "--machine")
    assert code == 0
    assert out == "jump 1/3\n"


def test_jumps_n_min_past_bound_exits_2(capsys):
    # 4300 nines parse as an int, but the witnesses above them have too many
    # digits to print; past MAX_N_MIN both modes refuse with a diagnostic
    for n_min in ("9" * 4300, str(10**600 + 1)):
        for tail in ((), ("--machine",)):
            code, out, err = run(capsys, "jumps", "--catalog", "kodaira:IV", "--n-min", n_min,
                                 *tail)
            assert (code, out) == (2, ""), (len(n_min), tail)
            assert err == "fibertrace: BadInput: n_min exceeds MAX_N_MIN = 10^600\n"
    code, out, _ = run(capsys, "jumps", "--catalog", "kodaira:IV", "--n-min", str(10**600))
    assert code == 0 and out.endswith("jump 1/3\n")
    assert f"witnesses={10**600 + 3}," in out


def test_degree_and_sweep_bounds_exit_2(capsys):
    for argv, err in [
        (("character", "--catalog", "kodaira:IV", "--n", "1"), "degree must be >= 2, got 1"),
        (("trace-fiber", "--catalog", "kodaira:IV", "--n", "-5", "--machine"),
         "degree must be >= 2, got -5"),
        (("jumps", "--catalog", "kodaira:IV", "--sweeps", "0"), "need at least one sweep, got 0"),
    ]:
        assert run(capsys, *argv) == (2, "", f"fibertrace: BadInput: {err}\n"), argv


def test_trace_sing_huge_degree(capsys):
    code, out, _ = run(capsys, "trace-sing", "2", "3", "1000000000003", "--machine")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tr 0 2"
    assert len(lines) == 2 and lines[1].endswith(" 1")


def test_jumps_flags(capsys):
    code, out, _ = run(capsys, "jumps", "--catalog", "ogg:4", "--machine",
                       "--n-min", "200", "--sweeps", "2")
    assert code == 0
    assert out == "jump 1/4\njump 3/4\n"


def test_character_graph_file(tmp_path, capsys):
    path = tmp_path / "type4.fg"
    path.write_text(OGG_4, encoding="utf-8")
    code, out, _ = run(capsys, "character", "--graph", str(path), "--n", "13", "--machine")
    assert code == 0
    assert out == "char 4 1\nchar 10 1\n"


def test_character_human_header(capsys):
    code, out, _ = run(capsys, "character", "--catalog", "ogg:4", "--n", "13")
    assert code == 0
    assert out == "n=13\ngenus=2\nchar 4 1\nchar 10 1\n"


def test_trace_fiber(tmp_path, capsys):
    path = tmp_path / "type4.fg"
    path.write_text(OGG_4, encoding="utf-8")
    code, out, _ = run(capsys, "trace-fiber", "--graph", str(path), "--n", "13", "--machine")
    assert code == 0
    assert out == "tr 0 1\ntr 4 -1\ntr 10 -1\n"


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    lines = out.splitlines()
    assert "kodaira:IV" in lines
    assert "ogg:4" in lines


def test_usage_error_exits_1(capsys):
    assert main(["resolve", "3"]) == 1          # missing argument
    capsys.readouterr()
    assert main(["frobnicate"]) == 1            # unknown verb
    capsys.readouterr()


def test_abbreviated_options_are_refused(capsys):
    # options are spelled in full: --n is not --n-min, nor --mach --machine
    for argv, token in ((["jumps", "--n", "13", "--catalog", "kodaira:IV"], "--n 13"),
                        (["jumps", "--mach", "--catalog", "kodaira:IV"], "--mach")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out, argv
        assert err.startswith("usage: fibertrace jumps [-h]"), argv
        assert err.endswith(f"fibertrace jumps: error: unrecognized arguments: {token}\n"), argv
    code, out, err = run(capsys, "jumps", "--n-min=13", "--catalog", "kodaira:IV", "--machine")
    assert (code, out, err) == (0, "jump 1/3\n", "")


def test_jump_lines_repeat_each_class(tmp_path, capsys):
    # each class's lines go out in one write, the same bytes as one line per jump
    path = tmp_path / "tails.fg"
    path.write_text("vertex c genus=0 mult=6\n" + "".join(
        f"vertex t{m}.{i} genus=0 mult={m}\nedge c t{m}.{i}\n" for i in range(3) for m in (1, 2, 3)),
        encoding="utf-8")
    code, out, err = run(capsys, "jumps", "--graph", str(path), "--machine")
    assert code == 0 and not err
    want = [(1, 6)] * 5 + [(1, 3)] * 2 + [(1, 2)] * 2 + [(2, 3)] * 2 + [(5, 6)] * 2
    assert out == "".join(f"jump {p}/{q}\n" for p, q in want)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "resolve" in out and "jumps" in out


def test_exactly_one_source(capsys):
    code, out, err = run(capsys, "jumps", "--catalog", "kodaira:IV", "--graph", "x.fg")
    assert code == 1
    assert "exactly one" in err
    code, out, err = run(capsys, "jumps")
    assert code == 1


def test_empty_source_values_are_sources(capsys):
    # an empty --graph or --catalog is given, not absent: two of them are
    # one too many, and one alone fails as a path or a catalog id
    for verb in (["jumps"], ["trace-fiber", "--n", "5"], ["character", "--n", "5"]):
        code, out, err = run(capsys, *verb, "--graph", "", "--catalog", "kodaira:IV", "--machine")
        assert (code, out) == (1, ""), verb
        assert err.startswith(f"usage: fibertrace {verb[0]} ")
        assert err.endswith(f"fibertrace {verb[0]}: error: supply exactly one input source: "
                            "--graph PATH or --catalog ID\n")
    assert run(capsys, "jumps", "--graph", "") == (
        2, "", "fibertrace: [Errno 2] No such file or directory: ''\n")
    code, out, err = run(capsys, "jumps", "--catalog", "")
    assert (code, out) == (2, "") and err.startswith("fibertrace: UnknownType: ")


def test_source_error_prints_the_verb_usage(capsys):
    code, out, err = run(capsys, "jumps", "--machine")
    assert (code, out) == (1, "")
    assert err.startswith("usage: fibertrace jumps [-h] [--graph PATH] [--catalog ID]")
    assert err.endswith("\nfibertrace jumps: error: supply exactly one input source: "
                        "--graph PATH or --catalog ID\n")


def test_leftover_tokens_print_the_verb_usage(capsys):
    # tokens a verb leaves over are a usage error of that verb, whether they
    # come after the verb or before it
    assert run(capsys, "catalog-list", "--machine") == (
        1, "", "usage: fibertrace catalog-list [-h]\n"
               "fibertrace catalog-list: error: unrecognized arguments: --machine\n")
    for argv, token in ((["jumps", "--catalog", "kodaira:IV", "extra"], "extra"),
                        (["--machine", "jumps", "--catalog", "kodaira:IV"], "--machine")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage: fibertrace jumps [-h] [--graph PATH] [--catalog ID]"), argv
        assert err.endswith(f"\nfibertrace jumps: error: unrecognized arguments: {token}\n"), argv


def test_unknown_catalog_exits_2(capsys):
    code, _, err = run(capsys, "jumps", "--catalog", "kodaira:X")
    assert code == 2
    assert "UnknownType" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "jumps", "--graph", "/nonexistent/q.fg")
    assert code == 2


def test_invalid_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.fg"
    path.write_text("vertex a genus=0 mult=1\nvertex b genus=0 mult=1\n", encoding="utf-8")
    code, _, err = run(capsys, "character", "--graph", str(path), "--n", "5")
    assert code == 2
    assert "connected" in err


def run_captured(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


REUSE_SEQUENCE = [
    ["resolve", "3"],                                          # usage error
    ["--help"],
    ["trace-sing", "3", "4", "12"],                            # domain error
    ["jumps", "--catalog", "ogg:4"],
]


def test_parser_is_built_once_and_reused(monkeypatch):
    shared = [run_captured(argv) for argv in REUSE_SEQUENCE]
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in shared] == [1, 0, 2, 0]
    assert shared[3][1].endswith("\njump 1/4\njump 3/4\n")
    # the same calls, each with a parser of its own
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert [run_captured(argv) for argv in REUSE_SEQUENCE] == shared


def _not_an_int(token):
    # a long number as a degree could make one call walk a long chain
    for part in token.split("="):
        try:
            int(part)
        except ValueError:
            continue
        return False
    return True


VERBS = ["resolve", "trace-sing", "trace-fiber", "character", "jumps", "catalog-list"]
TOKENS = st.one_of(
    st.sampled_from(VERBS + ["bogus"]),
    st.sampled_from(
        ["--machine", "--n", "--n-min", "--sweeps", "--catalog", "--graph", "--help", "-h", "--"]
    ),
    st.sampled_from(["kodaira:IV", "ogg:4", "kodaira:In:3", "kodaira:In*:2", "kodaira:X"]),
    st.integers(-3, 40).map(str),
    st.text(max_size=8).filter(lambda t: not t.startswith("/") and _not_an_int(t)),
)


def test_fuzzed_argv_exits_cleanly_and_leaves_parser_intact(tmp_path, monkeypatch):
    # relative --graph paths then name nothing, or an empty directory
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TOKENS, max_size=7))
    def check(argv):
        code, _, err = run_captured(argv)
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert err.strip(), argv
        probe = run_captured(["jumps", "--catalog", "kodaira:IV", "--machine"])
        assert probe == (0, "jump 1/3\n", ""), argv

    check()


def test_a_verb_call_parses_once(monkeypatch):
    # a plain argv is read from the verb table alone; any other argv is
    # parsed once, by the verb's parser, with no top-level pass before it
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    argv = ["jumps", "--catalog", "kodaira:IV", "--machine"]
    assert run_captured(argv) == (0, "jump 1/3\n", "")
    assert calls == []
    argv = ["jumps", "--n-min=13", "--catalog", "kodaira:IV", "--machine"]
    assert run_captured(argv) == (0, "jump 1/3\n", "")
    assert calls == ["fibertrace jumps"]


NAMED_ARGV = [
    [], ["-h"], ["--help"], ["--machine", "jumps"], ["bogus"], ["bogus", "--catalog", "ogg:4"],
    ["jumps"], ["jumps", "--graph", ""], ["jumps", "--graph", "", "--catalog", "ogg:4"],
    ["jumps", "-h"], ["jumps", "--he"], ["jumps", "--mach", "--catalog", "ogg:4"],
    ["jumps", "--catalog", "kodaira:IV", "extra"], ["jumps", "--catalog", "kodaira:IV", "-x", "y"],
    ["catalog-list"], ["catalog-list", "extra"], ["resolve", "3", "4", "13", "14"],
    ["--machine", "catalog-list"], ["catalog-list", "--machine"],
    # --name=value forms, a prefix of --n-min among them
    ["--n=5"], ["jumps", "--n=5"], ["character", "--catalog=ogg:4", "--n=13", "--machine"],
    ["trace-fiber", "--catalog", "ogg:4", "--n=x"], ["jumps", "--catalog=ogg:4", "--sweeps=2"],
    # a bare --, before and after the verb
    ["--"], ["--", "jumps", "--catalog", "kodaira:IV"], ["jumps", "--"],
    ["jumps", "--", "--catalog", "kodaira:IV"], ["jumps", "--catalog", "kodaira:IV", "--"],
    ["resolve", "--", "3", "4", "13"], ["resolve", "3", "4", "13", "--", "--machine"],
    # at the edge of a plain argv: a repeat, dash-led values, what int() reads
    # besides plain digits, a missing value or option, positionals around a
    # flag, too few and too many of them, odd graph paths
    ["jumps", "--catalog", "ogg:4", "--n-min", "5", "--n-min", "7"],
    ["jumps", "--catalog", "ogg:4", "--n-min", "-7"],
    ["jumps", "--catalog", "ogg:4", "--sweeps", " 2"],
    ["jumps", "--catalog", "ogg:4", "--n-min", "\u0661\u0662"],
    ["jumps", "--catalog", "ogg:4", "--n-min", "1_0"],
    ["jumps", "--catalog"], ["jumps", "--catalog", "-x"], ["character", "--catalog", "ogg:4"],
    ["resolve", "3", "--machine", "4", "13"], ["resolve", "3", "4"], ["resolve", "3", "4", "13", "5"],
    ["jumps", "--graph", "-"], ["jumps", "--graph", ""],
]


def test_one_parse_pass_answers_as_two(tmp_path, monkeypatch):
    # byte for byte against the two-level parse: the top-level parser's
    # parse_args over the whole argv, then the verb
    monkeypatch.chdir(tmp_path)
    for argv in NAMED_ARGV:
        assert run_captured(argv) == run_captured(argv, two_pass_main), argv

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(TOKENS, max_size=7),
                     st.builds(lambda verb, rest: [verb, *rest],
                               st.sampled_from(VERBS), st.lists(TOKENS, max_size=6))))
    def check(argv):
        assert run_captured(argv) == run_captured(argv, two_pass_main), argv

    check()


GRAPH_IDS = st.sampled_from(["a", "b", "c", "d"])
# what int() reads besides plain digits: signs, underscores, other decimal digits
SPELLED_INTS = st.sampled_from(["+1", "-0", "0_1", "1_2", "\u0661", "01", "1_", "", "1.0"])
GRAPH_LINES = st.one_of(
    st.builds("vertex {} genus={} mult={}".format,
              GRAPH_IDS, st.integers(-1, 2), st.integers(-1, 12)),
    # the other field order, spelled integers, tabs and a trailing comment
    st.builds("vertex\t{} mult={}  genus={}{}".format, GRAPH_IDS,
              st.one_of(st.integers(-1, 12).map(str), SPELLED_INTS),
              st.one_of(st.integers(-1, 2).map(str), SPELLED_INTS),
              st.sampled_from(["", " # note", "#", "\t#mult=0"])),
    st.builds("edge {} {}".format, GRAPH_IDS, GRAPH_IDS),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.binary(max_size=12),  # raw bytes, often not UTF-8
)


def test_fuzzed_graph_files_exit_cleanly(tmp_path):
    # mostly vertex and edge lines over four ids, so that many files pass
    # parsing and reach validation, the trace and the jump readout
    path = tmp_path / "fuzz.fg"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(GRAPH_LINES, max_size=10))
    def check(lines):
        path.write_bytes(b"\n".join(
            line if isinstance(line, bytes) else line.encode("utf-8") for line in lines))
        code, out, err = run_captured(["jumps", "--graph", str(path), "--machine"])
        assert code in (0, 2), (lines, code)
        if code:
            assert err.strip() and not out, lines
        else:
            assert all(line.startswith("jump ") for line in out.splitlines()), lines

    check()
