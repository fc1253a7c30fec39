#!/usr/bin/env python3
"""canvolt benchmark: generate a workload from a seed, run it, check it, report.

    python3 perfbench/run.py --workload cookbook --seed 0 --seconds 20 --trace 0

Run from the root of a canvolt checkout; the simulator is imported from
its ``src/``. ``--trace 0`` repeats the workload with nothing wrapped for
``--seconds`` and prints the end-to-end metrics: medians over the passes
(and over repeated set-ups), in host seconds scaled to a reference host
speed (see `reference_work`). ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. Every pass
writes its outputs under ``perfbench/out/`` and checks them against the
goldens (``perfbench/goldens.json``), the configs' ``[check]`` sections,
the paper's sweep thresholds and the workload's invariants. Human-readable
lines come first; the last line of stdout is one JSON object.

``--write-goldens`` records the outputs of the default seed instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads
from tracer import Tracer

SETUPS = 10
# Timings are scaled to a reference host speed: host seconds times
# REFERENCE_S over the time `reference_work` takes around the measurement.
# REFERENCE_S is that kernel's time on the 2-core x86 host the baseline was
# measured on, so scaled times read as seconds on that host when it is idle.
REFERENCE_S = 0.016
REFERENCE_TRIES = 5
EXIT_UNAVAILABLE = 2

FRAME_ATTEMPTS = ("FrameSent", "Retransmission")
TRIPS = ("FuseBlown", "BreakerTripped", "ThermostatOpen")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_s_per_wall_s": "sim_s/s",
    "frames_per_s": "attempts/s",
    "us_per_sim_bit": "us/bit",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "electrical.solve_calls": "count",
    "electrical.solve_s": "s",
    "electrical.solve_distinct_ratio": "ratio",
    "electrical.solves_per_bit": "solves/bit",
    "link.codec_calls": "count",
    "link.codec_s": "s",
    "link.arbitrate_calls": "count",
    "link.arbitrate_s": "s",
    "link.retransmissions": "count",
    "link.attempt_success_ratio": "ratio",
    "attacks.calls": "count",
    "attacks.s": "s",
    "irs.step_calls": "count",
    "irs.s": "s",
    "irs.trips": "count",
    "engine.self_s": "s",
    "engine.scenarios": "count",
    "engine.trace_records": "count",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.trace_bytes": "bytes",
    "cli.check_s": "s",
    "bench.verify_s": "s",
    "tracing.overhead_s": "s",
}

# per-layer groups of traced functions, by span name
CODEC = ("link.bus_bits", "link.ack_delimiter_index", "link.frame_bit_length")
ATTACKS = (
    "attacks.pin_override",
    "attacks.dominant_blocked",
    "attacks.pulse_blocks_bits",
    "attacks.fra_ack_delimiter_corrupted",
)
IRS = ("irs.device_step", "irs.thermostat_step", "irs.resettable_fuse_current")


class Unavailable(RuntimeError):
    """The checkout lacks what the benchmark needs to run."""


@dataclass
class Item:
    """One workload config: a single scenario, or a sweep of them."""

    name: str
    text: str
    cfg: object
    checks: dict

    @property
    def run_ids(self) -> list:
        if self.cfg.sweep is None:
            return [self.name]
        return [f"{self.name}@{v!r}" for v in self.cfg.sweep.values()]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def import_canvolt():
    """A fresh import of the checkout's canvolt; returns its modules."""
    if not (SRC / "canvolt" / "__init__.py").is_file():
        raise Unavailable(f"no canvolt package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "canvolt" or n.startswith("canvolt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("canvolt")
    if Path(pkg.__file__).resolve().parent != (SRC / "canvolt").resolve():
        raise Unavailable(f"canvolt imported from {pkg.__file__}, not {SRC}")
    return {n: importlib.import_module(f"canvolt.{n}") for n in
            ("cli", "engine", "electrical", "link", "attacks", "irs")}


def setup(workload: str, seed: int, tracer: Tracer | None = None) -> tuple:
    """Import canvolt, generate the workload and parse it; returns (seconds, modules, items)."""
    t0 = perf_counter()
    cv = import_canvolt()
    if tracer is not None:
        tracer.install([("cli", "parse_config_full")])
    try:
        items = []
        for name, text in workloads.GENERATORS[workload](ROOT, seed):
            cfg, checks = cv["cli"].parse_config_full(text)
            items.append(Item(name, text, cfg, checks))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not items:
        raise Unavailable(f"workload {workload} generated no configs")
    return perf_counter() - t0, cv, items


def summary_json(cv, summary) -> str:
    """The summary exactly as `emit_outputs` writes it."""
    return json.dumps(cv["cli"].summary_to_dict(summary), indent=2, sort_keys=True) + "\n"


class Checker:
    """Compares each pass's outputs with the goldens and the first pass."""

    def __init__(self, items: list, golden: dict | None):
        self.items = items
        self.golden = golden
        self.first: dict | None = None

    def check_inputs(self) -> dict:
        """Run ids whose config text differs from the one the goldens were made from."""
        failures = {}
        if self.golden is None:
            return failures
        inputs = self.golden.get("inputs", {})
        for item in self.items:
            if inputs.get(item.name) != sha256_text(item.text):
                for rid in item.run_ids:
                    failures[rid] = f"{item.name}: input config differs from the goldens' input"
        return failures

    def compare(self, digests: dict) -> dict:
        failures = {}
        refs = [("golden", self.golden["runs"] if self.golden else None), ("first pass", self.first)]
        for label, ref in refs:
            if ref is None:
                continue
            for rid, got in digests.items():
                want = ref.get(rid)
                if want != got:
                    failures.setdefault(rid, f"{rid}: outputs differ from the {label}: {want} != {got}")
        if self.first is None:
            self.first = digests
        return failures


def run_pass(cv, items: list, out: Path, tracer: Tracer | None, scenario_base: int) -> tuple:
    """One pass over the workload: simulate, write outputs, check them.

    Returns (wall seconds, digests by run id, check failures by run id,
    trace CSV bytes written).
    """
    cli, engine = cv["cli"], cv["engine"]
    digests: dict = {}
    failures: dict = {}
    trace_bytes = 0
    verify = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = perf_counter()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.scenario = scenario_base + k
        if item.cfg.sweep is None:
            trace, summary = engine.run_scenario(item.cfg)
            trace_path = out / f"{item.name}.trace.csv"
            summary_path = out / f"{item.name}.summary.json"
            cli.emit_outputs(trace, summary, str(trace_path), str(summary_path))
            del trace
            with verify("bench.verify"):
                digests[item.name] = {
                    "trace_csv": sha256_file(trace_path),
                    "summary_json": sha256_file(summary_path),
                }
                trace_bytes += trace_path.stat().st_size
                for msg in cli.run_checks(item.checks, summary):
                    failures.setdefault(item.name, f"{item.name}: [check] {msg}")
                invariant = workloads.INVARIANTS.get(item.name)
                for msg in invariant(item.cfg, summary) if invariant else ():
                    failures.setdefault(item.name, f"{item.name}: {msg}")
        else:
            points = engine.run_sweep(item.cfg)
            sweep_path = out / f"{item.name}.sweep.csv"
            cli.write_sweep_csv(points, str(sweep_path), item.cfg)
            with verify("bench.verify"):
                rids = item.run_ids
                if len(points) != len(rids):
                    failures[rids[0]] = f"{item.name}: {len(points)} sweep points, expected {len(rids)}"
                for rid, p in zip(rids, points):
                    digests[rid] = {"summary_json": sha256_text(summary_json(cv, p.summary))}
                digests[rids[0]]["sweep_csv"] = sha256_file(sweep_path)
                failures.update(check_threshold(item, points))
    return perf_counter() - t0, digests, failures, trace_bytes


def check_threshold(item: Item, points: list) -> dict:
    """A cookbook sweep's first success must sit on the paper's desk threshold."""
    want = workloads.SWEEP_THRESHOLDS.get(item.name)
    if want is None:
        return {}
    first = next((p.value for p in points if p.success), None)
    if first is not None and math.isclose(first, want, rel_tol=1e-9):
        return {}
    nearest = min(points, key=lambda p: abs(p.value - want))
    return {f"{item.name}@{nearest.value!r}": f"{item.name}: first success at {first!r}, paper says {want!r}"}


@dataclass
class Census:
    """Simulated work in one pass, counted from full traces (untimed)."""

    runs: int = 0
    sim_s: float = 0.0
    attempts: int = 0
    delivered: int = 0
    retransmissions: int = 0
    bits: int = 0
    trips: int = 0
    trace_records: int = 0


def count_bits(cv, cfg, records) -> int:
    """Bit times the bus carried: each attempt up to its end or its error
    bit, plus the error flag that follows an error."""
    link = cv["link"]
    frames = {e.name: e.frame for e in cfg.ecus if e.frame is not None}
    bit_time = 1.0 / cfg.bus_speed
    bits = 0
    open_attempt = None  # (start, ecu, length in bits)
    for r in records:
        if r.kind in FRAME_ATTEMPTS:
            if open_attempt is not None:
                bits += open_attempt[2]
            open_attempt = (r.t, r.ecu, link.frame_bit_length(frames[r.ecu]))
        elif r.kind == "ErrorFrame" and open_attempt is not None and r.ecu == open_attempt[1]:
            bits += round((r.t - open_attempt[0]) / bit_time) + link.ERROR_FLAG_BITS
            open_attempt = None
    if open_attempt is not None:
        bits += open_attempt[2]
    return bits


def census(cv, items: list, digests: dict) -> tuple:
    """Re-run every scenario with full traces, sweep points one by one.

    Also checks that each sweep point's summary equals the one
    `run_sweep` returned in the measured passes.
    """
    engine = cv["engine"]
    c = Census()
    failures = {}
    for item in items:
        if item.cfg.sweep is None:
            runs = [(item.name, item.cfg)]
        else:
            runs = [
                (rid, engine.set_sweep_value(item.cfg, item.cfg.sweep.path, v))
                for rid, v in zip(item.run_ids, item.cfg.sweep.values())
            ]
        for rid, cfg in runs:
            trace, summary = engine.run_scenario(cfg)
            records = trace.records
            kinds = [r.kind for r in records]
            c.runs += 1
            c.sim_s += cfg.duration
            c.attempts += sum(kinds.count(k) for k in FRAME_ATTEMPTS)
            c.delivered += kinds.count("FrameReceived")
            c.retransmissions += kinds.count("Retransmission")
            c.trips += sum(kinds.count(k) for k in TRIPS)
            c.trace_records += len(records)
            c.bits += count_bits(cv, cfg, records)
            if item.cfg.sweep is not None:
                got = sha256_text(summary_json(cv, summary))
                if digests.get(rid, {}).get("summary_json") != got:
                    failures[rid] = f"{rid}: run_scenario disagrees with run_sweep"
    return c, failures


def load_golden(path: Path, workload: str, seed: int) -> dict | None:
    if not workloads.goldens_apply(workload, seed):
        return None
    if not path.is_file():
        raise Unavailable(f"goldens file {path} missing")
    data = json.loads(path.read_text())
    if data.get("default_seed") != workloads.DEFAULT_SEED:
        raise Unavailable(f"{path} was recorded for seed {data.get('default_seed')!r}")
    # a workload with no goldens fails every run rather than skipping the check
    return data.get("workloads", {}).get(workload, {"inputs": {}, "runs": {}})


class _Sample:
    __slots__ = ("t", "v")

    def __init__(self, t: float, v: float):
        self.t = t
        self.v = v


def reference_work(n: int = 30_000) -> float:
    """Fixed pure-Python work that touches no canvolt code.

    It mixes the operations the simulator's loops are made of: small
    object creation, attribute reads, tuple keys, dict updates and float
    math, so host contention slows it about as much as it slows them.
    """
    table: dict = {}
    acc = 0.0
    for i in range(n):
        s = _Sample(i * 1e-6, (i % 7) * 0.5)
        key = (i & 63, s.v > 1.0)
        table[key] = table.get(key, 0.0) + s.v
        acc += math.exp(-s.t) * s.v if key[1] else s.t
    return acc + len(table)


def host_speed() -> float:
    """Host seconds `reference_work` takes now: the fastest of a few tries."""
    best = math.inf
    for _ in range(REFERENCE_TRIES):
        t0 = perf_counter()
        reference_work()
        best = min(best, perf_counter() - t0)
    return best


def measure(args) -> dict:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traced = args.trace == 1
    parse_tracer = Tracer() if traced else None

    setup_s, parse_s = [], []
    for _ in range(SETUPS):
        scale = REFERENCE_S / host_speed()
        if parse_tracer is not None:
            parse_tracer.reset()
        seconds, cv, items = setup(args.workload, args.seed, parse_tracer)
        setup_s.append(seconds * scale)
        if parse_tracer is not None:
            parse_s.append(parse_tracer.totals()["cli.parse_config_full"][1] * scale)

    checker = Checker(items, load_golden(Path(args.goldens), args.workload, args.seed))
    input_failures = checker.check_inputs()
    tracer = Tracer() if traced else None
    runs_per_pass = sum(len(item.run_ids) for item in items)
    walls, traced_walls, layer_passes = [], [], []
    host_walls, refs = [], [host_speed()]
    attempted = failed = 0
    trace_bytes = 0
    messages: dict = {}
    scenario_base = 0
    deadline = perf_counter() + args.seconds
    pass_s: list = []
    while True:
        with_trace = traced and len(traced_walls) < len(walls)
        gc.collect()
        t_pass = perf_counter()
        if with_trace:
            tracer.reset()
            tracer.install()
        try:
            wall, digests, failures, trace_bytes = run_pass(
                cv, items, out, tracer if with_trace else None, scenario_base)
        finally:
            if with_trace:
                tracer.uninstall()
        refs.append(host_speed())
        # host speed is gauged just before and just after the pass
        scale = REFERENCE_S / (0.5 * (refs[-2] + refs[-1]))
        scenario_base += len(items)
        if with_trace:
            traced_walls.append(wall * scale)
            layer_passes.append((scale, tracer.totals(), tracer.solve_distinct))
        else:
            walls.append(wall * scale)
            host_walls.append(wall)
        failures.update(checker.compare(digests))
        failures.update(input_failures)
        attempted += runs_per_pass
        failed += len(failures)
        messages.update(failures)
        pass_s.append(perf_counter() - t_pass)
        done = len(walls) >= 1 and (not traced or len(traced_walls) >= 1)
        if done and perf_counter() + statistics.median(pass_s) > deadline:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.collect()
    work, census_failures = census(cv, items, checker.first)
    if census_failures:
        # counted once: these runs already sit in the attempted total
        failed += len(set(census_failures) - set(failures))
        messages.update(census_failures)
    if work.runs != runs_per_pass:
        raise RuntimeError(f"census ran {work.runs} scenarios, passes ran {runs_per_pass}")

    wall = statistics.median(walls)
    result = {
        "attempted": attempted,
        "failed": failed,
        "messages": [messages[k] for k in sorted(messages)],
        "work": work,
        "host_walls": host_walls,
        "refs": refs,
    }
    if not traced:
        result["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "sim_s_per_wall_s": work.sim_s / wall,
            "frames_per_s": work.attempts / wall,
            "us_per_sim_bit": wall * 1e6 / work.bits,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        tracer.write_csv(out / f"spans_{args.workload}.csv")
        result["metrics"] = layer_metrics(layer_passes, work, trace_bytes, parse_s,
                                          statistics.median(traced_walls) - wall)
    return result


def layer_metrics(passes: list, work: Census, trace_bytes: int, parse_s: list, overhead: float) -> dict:
    """Per-layer numbers: counts from the first traced pass, times as medians."""
    _, first, solve_distinct = passes[0]

    def calls(names):
        return sum(first.get(n, (0, 0.0))[0] for n in names)

    def seconds(names):
        return statistics.median(
            [scale * sum(p.get(n, (0, 0.0))[1] for n in names) for scale, p, _ in passes])

    solve_calls = calls(["electrical.solve_bus_detailed"])
    return {
        "electrical.solve_calls": solve_calls,
        "electrical.solve_s": seconds(["electrical.solve_bus_detailed"]),
        "electrical.solve_distinct_ratio": (
            solve_distinct / solve_calls if solve_calls else 0.0),
        "electrical.solves_per_bit": solve_calls / work.bits if work.bits else 0.0,
        "link.codec_calls": calls(CODEC),
        "link.codec_s": seconds(CODEC),
        "link.arbitrate_calls": calls(["link.arbitrate"]),
        "link.arbitrate_s": seconds(["link.arbitrate"]),
        "link.retransmissions": work.retransmissions,
        "link.attempt_success_ratio": work.delivered / work.attempts if work.attempts else 0.0,
        "attacks.calls": calls(ATTACKS),
        "attacks.s": seconds(ATTACKS),
        "irs.step_calls": calls(IRS),
        "irs.s": seconds(IRS),
        "irs.trips": work.trips,
        "engine.self_s": seconds(["engine.run_scenario", "engine.run_sweep"]),
        "engine.scenarios": calls(["engine.run_scenario"]),
        "engine.trace_records": work.trace_records,
        "cli.parse_s": statistics.median(parse_s),
        "cli.emit_s": seconds(["cli.emit_outputs", "cli.write_sweep_csv"]),
        "cli.trace_bytes": trace_bytes,
        "cli.check_s": seconds(["cli.run_checks"]),
        "bench.verify_s": seconds(["bench.verify"]),
        "tracing.overhead_s": overhead,
    }


def write_goldens(args) -> None:
    """Record the default seed's outputs after two identical, checked passes."""
    if args.seed != workloads.DEFAULT_SEED:
        raise SystemExit(f"goldens are recorded at --seed {workloads.DEFAULT_SEED}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, cv, items = setup(args.workload, args.seed)
    checker = Checker(items, None)
    failures = {}
    for _ in range(2):
        _, digests, found, _ = run_pass(cv, items, out, None, 0)
        failures.update(found)
        failures.update(checker.compare(digests))
    if failures:
        raise SystemExit("not recording goldens:\n" + "\n".join(failures.values()))
    path = Path(args.goldens)
    data = json.loads(path.read_text()) if path.is_file() else {}
    data["default_seed"] = workloads.DEFAULT_SEED
    data.setdefault("workloads", {})[args.workload] = {
        "inputs": {item.name: sha256_text(item.text) for item in items},
        "runs": checker.first,
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(checker.first)} runs of {args.workload} in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", default=str(HERE / "goldens.json"))
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_goldens:
            write_goldens(args)
            return 0
        result = measure(args)
    except Unavailable as exc:
        print(f"benchmark unavailable: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE

    for msg in result["messages"]:
        print(f"FAIL {msg}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    w = result["work"]
    print(f"workload {args.workload} seed {args.seed}: {w.runs} scenario runs, "
          f"{w.sim_s:g} simulated s, {w.attempts} frame attempts and {w.bits} bits per pass")
    print("untraced passes, unscaled host s: " + " ".join(f"{x:.4f}" for x in result["host_walls"]))
    print(f"reference_work host s: median {statistics.median(result['refs']):.5f} "
          f"(REFERENCE_S {REFERENCE_S})")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} failed/run")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
