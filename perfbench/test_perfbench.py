"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace, tmp_path):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--out", str(tmp_path))
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert (tmp_path / f"spans_{workload}.csv").is_file()
    else:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def corrupt(path: Path, workload: str, edit) -> None:
    data = json.loads((HERE / "goldens.json").read_text())
    edit(data["workloads"][workload])
    path.write_text(json.dumps(data))


def test_corrupted_golden_is_a_failure(tmp_path):
    goldens = tmp_path / "goldens.json"

    def flip(entry):
        digest = entry["runs"]["busy_bus"]["trace_csv"]
        entry["runs"]["busy_bus"]["trace_csv"] = digest[::-1]

    corrupt(goldens, "busy_bus", flip)
    proc = bench("--workload", "busy_bus", "--seed", "0", "--seconds", "1",
                 "--goldens", str(goldens), "--out", str(tmp_path))
    res = result_of(proc)
    assert res["correct"] is False and res["failed"] == res["attempted"] == 1
    assert "busy_bus: outputs differ from the golden" in proc.stderr


def test_missing_golden_is_a_failure_not_a_skip(tmp_path):
    goldens = tmp_path / "goldens.json"
    corrupt(goldens, "long_idle", lambda entry: entry["runs"].clear())
    proc = bench("--workload", "long_idle", "--seed", "0", "--seconds", "1",
                 "--goldens", str(goldens), "--out", str(tmp_path))
    res = result_of(proc)
    assert res["correct"] is False and res["failed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "cookbook", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrappers_reach_engine_bindings_and_come_off():
    cv = run.import_canvolt()
    engine, electrical = cv["engine"], cv["electrical"]
    original = engine.solve_bus_detailed
    cfg, _ = cv["cli"].parse_config_full((ROOT / "configs" / "fra_sweep.ini").read_text())
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.solve_bus_detailed is not original
        assert electrical.solve_bus_detailed is engine.solve_bus_detailed
        tracer.scenario = 7
        points = engine.run_sweep(cfg)
    finally:
        tracer.uninstall()
    assert engine.solve_bus_detailed is original
    assert electrical.solve_bus_detailed is original

    names = [tracer.names[i] for i in tracer.span_name]
    sweep = names.index("engine.run_sweep")
    scenarios = [i for i, n in enumerate(names) if n == "engine.run_scenario"]
    assert len(scenarios) == len(points)
    assert all(tracer.span_parent[i] == sweep for i in scenarios)
    assert set(tracer.span_scenario) == {7}
    totals = tracer.totals()
    assert totals["electrical.solve_bus_detailed"][0] > 0
    assert all(tracer.span_start[i] <= tracer.span_end[i] for i in range(len(names)))
