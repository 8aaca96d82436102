"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q bench

Checks that every metric in BENCHMARK.json is produced with its unit, that
traced self times fit inside the traced wall time, that the tracer puts
everything back and tolerates names that no longer exist, that each pass
draws fresh inputs from the seed, and that a wrong answer is counted and
fails the command.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", "0"],
                    tiny=True)
    out = capsys.readouterr().out
    result = last_json_line(out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in out.splitlines())
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, info = run.run(workload, seed=5, seconds=0.2, trace=True, tiny=True)
    assert result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    modules = [name for name in units if name.count(".") == 1 and name.endswith(".self_ms")]
    layer_ms = sum(result["metrics"][name]["value"] for name in modules)
    assert 0 < layer_ms <= info["self_ms_per_op_all_spans"] <= info["traced_ms_per_op"]
    oracle_calls = result["metrics"]["singtrace.trace_oracle.calls"]["value"]
    assert (oracle_calls > 0) == (workload == "route-agreement")


def test_tracer_restores_originals_and_skips_missing_names(monkeypatch):
    from fibertrace import exactalg, fiber, resolution

    before = (fiber.resolve, resolution.resolve, fiber.FiberGraph.vertex,
              exactalg.GroupRingElement.__add__, exactalg.GroupRingElement.__radd__)
    monkeypatch.setitem(tracer.TARGETS, "resolution", ["resolve", "no_such_function"])
    monkeypatch.setitem(tracer.TARGETS, "no_such_module", ["anything", "Cls.method"])
    with tracer.Tracer() as t:
        assert fiber.resolve is resolution.resolve is not before[0]
        assert exactalg.GroupRingElement.__radd__ is exactalg.GroupRingElement.__add__
        fiber.resolve(resolution.Singularity(2, 3, 7))
    assert (fiber.resolve, resolution.resolve, fiber.FiberGraph.vertex,
            exactalg.GroupRingElement.__add__, exactalg.GroupRingElement.__radd__) == before
    assert t.calls["resolution.resolve"] == 1
    assert t.calls["resolution.no_such_function"] == 0
    assert t.calls["no_such_module.Cls.method"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_is_counted(workload):
    ops = workloads.build(workload, 5, tiny=True)
    ops[0].expected = "deliberately wrong"
    raw = run.measure([ops], 0)
    assert raw["failures"] == [f"{ops[0].label}: wrong answer"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_passes_draw_fresh_inputs(workload):
    def inputs(pass_index):
        return [op.run.args for op in workloads.build(workload, 5, pass_index, tiny=True)]

    assert inputs(0) == inputs(0)
    assert inputs(0) != inputs(1)


def test_wrong_table_entry_fails_the_command(monkeypatch, capsys):
    monkeypatch.setitem(workloads.TABLE, "kodaira:IV", (Fraction(1, 2),))
    code = run.main(["--workload", "catalog-jumps", "--seed", "5", "--seconds", "0",
                     "--trace", "0"], tiny=True)
    result = last_json_line(capsys.readouterr().out)
    assert code == 1
    assert not result["correct"] and result["failed"] == 2  # kodaira:IV at both n_min


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
