"""Byte-for-byte goldens: every cookbook config and the benchmark's
generated workloads at the default seed must reproduce the SHA-256
digests recorded in perfbench/goldens.json."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from canvolt import cli, engine

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
SEED = GOLDENS["default_seed"]
CASES = [
    pytest.param(workload, name, text, id=f"{workload}/{name}")
    for workload in ("cookbook", "busy_bus", "attacked_bus", "long_idle")
    for name, text in workloads.GENERATORS[workload](ROOT, SEED)
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload,name,text", CASES)
def test_outputs_match_goldens(workload, name, text, tmp_path):
    golden = GOLDENS["workloads"][workload]
    assert golden["inputs"][name] == sha256(text.encode()), "config differs from the golden's input"
    runs = golden["runs"]
    cfg, _ = cli.parse_config_full(text)
    if cfg.sweep is None:
        trace, summary = engine.run_scenario(cfg)
        trace_path, summary_path = tmp_path / "trace.csv", tmp_path / "summary.json"
        cli.emit_outputs(trace, summary, str(trace_path), str(summary_path))
        assert sha256(trace_path.read_bytes()) == runs[name]["trace_csv"]
        assert sha256(summary_path.read_bytes()) == runs[name]["summary_json"]
        return
    points = engine.run_sweep(cfg)
    sweep_path = tmp_path / "sweep.csv"
    cli.write_sweep_csv(points, str(sweep_path), cfg)
    rids = [f"{name}@{v!r}" for v in cfg.sweep.values()]
    assert [p.value for p in points] == cfg.sweep.values()
    assert sha256(sweep_path.read_bytes()) == runs[rids[0]]["sweep_csv"]
    for rid, point in zip(rids, points):
        summary_text = json.dumps(cli.summary_to_dict(point.summary), indent=2, sort_keys=True) + "\n"
        assert sha256(summary_text.encode()) == runs[rid]["summary_json"], rid
