"""Spans around calls into canvolt's layers, recorded from outside the program.

`Tracer.install` replaces each listed function with a timing wrapper in
every canvolt module that binds it, so a name the engine imported with
``from .electrical import solve_bus_detailed`` is wrapped as well as the
module attribute. `Tracer.uninstall` puts the originals back; untraced
runs measure with nothing installed.
"""

from __future__ import annotations

import csv
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (defining module, function) for every layer boundary the benchmark times
LAYER_FUNCTIONS = (
    ("electrical", "solve_bus_detailed"),
    ("link", "bus_bits"),
    ("link", "ack_delimiter_index"),
    ("link", "frame_bit_length"),
    ("link", "arbitrate"),
    ("attacks", "pin_override"),
    ("attacks", "dominant_blocked"),
    ("attacks", "pulse_blocks_bits"),
    ("attacks", "fra_ack_delimiter_corrupted"),
    ("irs", "device_step"),
    ("irs", "thermostat_step"),
    ("irs", "resettable_fuse_current"),
    ("engine", "run_scenario"),
    ("engine", "run_sweep"),
    ("cli", "parse_config_full"),
    ("cli", "emit_outputs"),
    ("cli", "write_sweep_csv"),
    ("cli", "run_checks"),
)

SOLVE = "electrical.solve_bus_detailed"
SCENARIO = "engine.run_scenario"


class Tracer:
    """Spans (name, start, end, parent, scenario) kept in memory, plus
    per-name call counts and self times.

    A span's self time is its duration minus the time its child spans
    cover. Spans of one workload item share its scenario id; sweep
    points nest under their `run_sweep` span.
    """

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._patched: list = []
        self.scenario = -1
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and totals; installed wrappers stay."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_scenario = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._child: list = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._solve_inputs: set = set()
        self.solve_distinct = 0
        self.epoch = perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _open(self, sid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_scenario.append(self.scenario)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        self.span_start.append(t0)
        return idx

    def _close(self, sid: int, idx: int) -> None:
        t1 = perf_counter()
        self.span_end[idx] = t1
        self._stack.pop()
        dur = t1 - self.span_start[idx]
        self.calls[sid] += 1
        self.self_s[sid] += dur - self._child.pop()
        if self._child:
            self._child[-1] += dur

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        sid = self._name_id(name)
        idx = self._open(sid)
        try:
            yield
        finally:
            self._close(sid, idx)

    def _flush_solve_inputs(self) -> None:
        self.solve_distinct += len(self._solve_inputs)
        self._solve_inputs.clear()

    def _wrapper(self, name: str, fn):
        sid = self._name_id(name)
        open_, close = self._open, self._close
        if name == SOLVE:
            inputs = self._solve_inputs

            def wrapper(drive, pins=None, *args, **kwargs):
                inputs.add((tuple(drive.items()), tuple(pins.items()) if pins else ()))
                idx = open_(sid)
                try:
                    return fn(drive, pins, *args, **kwargs)
                finally:
                    close(sid, idx)

        elif name == SCENARIO:
            # distinct solve inputs are counted per scenario run
            def wrapper(*args, **kwargs):
                self._flush_solve_inputs()
                idx = open_(sid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid, idx)
                    self._flush_solve_inputs()

        else:

            def wrapper(*args, **kwargs):
                idx = open_(sid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid, idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, functions=LAYER_FUNCTIONS) -> None:
        """Wrap each function wherever a loaded canvolt module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "canvolt" or n.startswith("canvolt.")]
        for mod_name, fn_name in functions:
            original = getattr(sys.modules[f"canvolt.{mod_name}"], fn_name)
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self) -> dict:
        """{name: (calls, self seconds)} since the last reset."""
        self._flush_solve_inputs()
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "parent", "scenario", "name", "start_s", "end_s"))
            for i in range(len(self.span_name)):
                w.writerow((
                    i,
                    self.span_parent[i],
                    self.span_scenario[i],
                    self.names[self.span_name[i]],
                    f"{self.span_start[i] - self.epoch:.9f}",
                    f"{self.span_end[i] - self.epoch:.9f}",
                ))
