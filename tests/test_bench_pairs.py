"""tools/bench_pairs.py: paired benchmark runs written to BENCH_<label>.json."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tool_imports_the_standard_library_only():
    tree = ast.parse(TOOL.read_text())
    names = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    names |= {n.module.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert names <= set(sys.stdlib_module_names) | {"__future__"}


def test_head_against_head_writes_both_sides_of_one_pair(tmp_path):
    has_head = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD:perfbench/run.py"], cwd=REPO, capture_output=True
    ).returncode == 0
    if not has_head:
        pytest.skip("needs a git checkout whose HEAD holds perfbench/run.py")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--label", "t", "--workloads", "attacked_bus",
         "--pairs", "1", "--seconds", "0.05", "--trace", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert bench["correct"] is True
    assert bench["parent"] == bench["head"]
    assert {"python", "cpus", "seconds", "pairs", "order"} <= bench.keys()
    entry = bench["workloads"]["attacked_bus"]["0"]
    assert [(r["pair"], r["side"], r["position"], r["correct"]) for r in entry["runs"]] == [
        (1, "parent", 1, True), (1, "head", 2, True),
    ]
    end_to_end = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(entry["metrics"]) == {m["name"] for m in end_to_end}
    for m in entry["metrics"].values():
        assert {"parent", "head", "pairs_won", "ratio_median", "ratio_median_by_order", "verdict"} <= m.keys()
        assert m["pairs"] == 1 and m["ratio_median_by_order"]["head_first"] is None
        for side in ("parent", "head"):
            assert m[side]["q1"] == m[side]["median"] == m[side]["q3"]
    # one traced run per side, whose counts agree
    assert all(r["correct"] for r in entry["traced"].values())
    assert entry["counts_differ"] == {}


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "frames_per_s", "unit": "attempts/s", "better": "higher", "bound": 0.25}


def _verdict(metric, parent, head):
    pairs = [(k % 2 == 0, p, h) for k, (p, h) in enumerate(zip(parent, head))]
    return _tool().compare(metric, pairs)["verdict"]


@pytest.mark.parametrize("metric, parent, head, verdict", [
    # the parent's runs agree: the verdict follows the medians
    (WALL, [1.0] * 10, [1.3] * 10, "regression"),
    (WALL, [1.0] * 10, [0.8] * 10, "gain"),
    (WALL, [1.0] * 10, [1.1] * 10, "within bound"),
    (WALL, [1.0, 1.01] * 5, [1.01, 1.0] * 5, "within bound"),
    # a gain needs nine pairs in ten won
    (WALL, [1.0] * 10, [0.8] * 8 + [1.1] * 2, "within bound"),
    (RATE, [1.0] * 10, [1.2] * 10, "gain"),
    (RATE, [1.0] * 10, [0.7] * 10, "regression"),
    # quartiles 1.1 and 2.9 around 2.0: wider than the bound (0.5)
    (WALL, [1.0, 1.1, 2.0, 2.9, 3.0] * 2, [1.9, 1.2, 1.8, 2.8, 2.9] * 2, "unresolved"),
    (RATE, [1.0, 1.1, 2.0, 2.9, 3.0] * 2, [2.1, 1.2, 2.2, 2.8, 3.0] * 2, "unresolved"),
    # ... unless every head run reads better than every parent run
    (WALL, [1.0, 1.1, 2.0, 2.9, 3.0] * 2, [0.9] * 10, "within bound"),
    (RATE, [1.0, 1.1, 2.0, 2.9, 3.0] * 2, [3.1] * 10, "within bound"),
    (WALL, [1.0, 1.1, 2.0, 2.9, 3.0] * 2, [0.1] * 10, "gain"),
    (WALL, [1.0, 1.1, 2.0, 2.9, 3.0] * 2, [2.6] * 10, "regression"),
])
def test_compare_gives_each_verdict(metric, parent, head, verdict):
    assert _verdict(metric, parent, head) == verdict
