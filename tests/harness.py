"""What the differential suites share.

`test_at_rest`, `test_idle_runs`, `test_parking`, `test_quiescent`,
`test_resting_bits` and `test_summaries` each run the engine as it is
and with one shortcut switched off, and require the same outcome. This
module holds what they share: the bus they build, the senders and
attacks they draw, the references and a call counter. It is a plain
module, with no fixtures and no pytest hooks; each suite keeps its own
constants, strategy parameters and examples.

The references are context managers. Each wraps its seam, a method of
the physical-layer `_Bus` or of the link-layer `_Scheduler`, as it
stands when the reference is called, so they compose:

    with per_bit(), sliced_idle():
        trace, summary = run_scenario(cfg)

A new shortcut gets its reference here, and a seam that moves is
retargeted here once.
"""

import inspect
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from canvolt import engine
from canvolt.attacks import ActiveOvercurrent, DoS, ForcedRetransmission, PassiveOvercurrent, PulseAttack
from canvolt.cli import emit_outputs
from canvolt.config import EcuSpec, IrsConfig, ScenarioConfig
from canvolt.engine import run_scenario
from canvolt.link import Frame

HOST = "A"


def bus(senders, period, names=None, loggers=("B",), **fields) -> ScenarioConfig:
    """Host A, the `loggers` (B by default) and a sender per (frame,
    offset), named S0, S1, ... unless `names` names them, each sending
    every `period`; `fields` set the rest of the config."""
    names = names or [f"S{k}" for k in range(len(senders))]
    ecus = [EcuSpec(HOST, "vids-host"), *(EcuSpec(name, "logger") for name in loggers)]
    for name, (frame, offset) in zip(names, senders):
        ecus.append(EcuSpec(name, "sender", period=period, frame=frame, offset=offset))
    return ScenarioConfig(ecus=tuple(ecus), **fields)


def senders(max_offset_us, min_size, max_size):
    """Lists of senders with distinct ids, each (id, data, offset in us)."""
    sender = st.tuples(st.integers(1, 0x7FF), st.binary(max_size=8), st.integers(0, max_offset_us))
    return st.lists(sender, min_size=min_size, max_size=max_size, unique_by=lambda s: s[0])


def plan(drawn) -> list:
    """The (frame, offset) of each drawn sender."""
    return [(Frame(id=fid, data=data), off * 1e-6) for fid, data, off in drawn]


_STATIC = {
    "dos": DoS, "fra": ForcedRetransmission, "active": ActiveOvercurrent, "passive": PassiveOvercurrent,
}


def attack(kind, start, end, period=600e-9, duty=0.5, phase=0.0):
    """The attack of a drawn kind over [start, end) on host A: "none",
    "dos" (CANL at 5 V), "fra" (CANH at 5 V), "active", "passive", or a
    pulse, "pulse_canl" or "pulse_canh", of this period, duty and phase."""
    if kind == "none":
        return None
    if kind.startswith("pulse_"):
        line = kind.removeprefix("pulse_")
        return PulseAttack(t_start=start, t_end=end, line=line, period=period, duty=duty, phase=phase)
    return _STATIC[kind](t_start=start, t_end=end)


def irs_config(name, **fields):
    """The protective devices of a drawn name: None for "none"; a
    "driven_thermostat" carries the bench's 3 A in the attack window,
    whatever its pins carry."""
    if name == "none":
        return None
    if name == "driven_thermostat":
        return IrsConfig(device="thermostat", coil_drive=3.0, **fields)
    return IrsConfig(device=name, **fields)


def outputs(cfg) -> tuple:
    """The trace CSV and summary JSON texts of a run."""
    trace, summary = run_scenario(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path, summary_path = Path(tmp, "trace.csv"), Path(tmp, "summary.json")
        emit_outputs(trace, summary, str(trace_path), str(summary_path))
        return trace_path.read_text(), summary_path.read_text()


# --- seams -----------------------------------------------------------------------


@contextmanager
def _patched(owner, name, value):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, value)
        yield


class Call(NamedTuple):
    args: dict  # each parameter's value, `self` and defaults included
    result: object


@contextmanager
def counting(owner, name):
    """`owner.name` recording each call as a `Call`, in order; yields the
    list. A list argument is recorded as a copy taken at the call, since
    the call or a later one may change it. A property records each read
    as a call of its getter."""
    prop = inspect.getattr_static(owner, name)
    is_property = isinstance(prop, property)
    original = prop.fget if is_property else getattr(owner, name)
    signature = inspect.signature(original)
    calls = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = {k: list(v) if isinstance(v, list) else v for k, v in bound.arguments.items()}
        result = original(*args, **kwargs)
        calls.append(Call(arguments, result))
        return result

    with _patched(owner, name, property(recording) if is_property else recording):
        yield calls


def per_bit():
    """Reference: every frame runs bit by bit, from its SOF and from any
    later bit."""
    return _patched(engine._Bus, "quiescent", lambda self, *frame: None)


def no_remainders():
    """Reference: a frame is crossed from its SOF only, never from a later bit."""
    quiescent = engine._Bus.quiescent

    def from_sof(self, bits, ack_delim, first_attempt, t0, k=0):
        return quiescent(self, bits, ack_delim, first_attempt, t0) if k == 0 else None

    return _patched(engine._Bus, "quiescent", from_sof)


def sliced_idle():
    """Reference: every idle stretch is sliced at whole seconds."""
    side = engine._Bus.side

    def restless(self, in_window):
        return side(self, in_window)._replace(idle_rests=False)

    return _patched(engine._Bus, "side", restless)


@contextmanager
def every_step():
    """Reference: every error flag is driven, and every piece of a driven
    bit or flag steps the accumulators, whatever the kept verdicts say.

    It replaces `_Bus.error_flag` and `_Bus.drive` with the plain walk
    over `cuts` rather than forcing a verdict False, so it also sees a
    crossing that ignores the verdict."""

    def drive(self, dominant, a, b):
        pieces, cursor, cuts = [], a, self.cuts(a, b)
        while cursor < b:
            hi = next(cuts)
            sol, i = self.solved(dominant, self.pins_at(0.5 * (cursor + hi)))
            reached = self.advance_constant(cursor, hi, i)
            pieces.append((cursor, reached, sol.voltages.v_diff))
            if reached < hi:
                cuts = self.cuts(reached, b)
            cursor = reached
        self.integrated_to = max(self.integrated_to, b)
        return pieces

    def flag(self, a, b):
        return drive(self, True, a, b)

    with _patched(engine._Bus, "error_flag", flag), _patched(engine._Bus, "drive", drive):
        yield


def unparked():
    """Reference: a failed attempt is never parked; it retries after its error frame."""
    return _patched(engine._Bus, "attack_blocking", lambda self, t: False)


@contextmanager
def forgetful():
    """Reference: no pin fact and no window side's verdict is kept; each
    ask derives it afresh, and a verdict from pin facts derived afresh."""
    side, pin_facts = engine._Bus.side, engine._Bus.pin_facts

    def side_afresh(self, in_window):
        self.resting.clear()
        return side(self, in_window)

    def facts_afresh(self, in_window):
        self.resting.clear()  # a kept side holds its pin facts
        self.facts.clear()
        return pin_facts(self, in_window)

    with _patched(engine._Bus, "side", side_afresh), _patched(engine._Bus, "pin_facts", facts_afresh):
        yield


def row_summaries():
    """Reference: each run's summary is read from its trace's rows, as
    `_Scheduler.summarize` read them before it kept what it needs during the
    run. Its indicator has its own copy of the slot rule."""

    def summarize(self):
        cfg, rows, bank = self.cfg, self.trace.event_rows, self.bus.bank
        senders = [e for e in cfg.ecus if e.role == "sender"]
        period = senders[0].period if senders else 1.0
        loggers = sorted(e.name for e in cfg.ecus if e.role == "logger")
        receiver = loggers[0] if loggers else None
        slots = int(round(cfg.duration / period))
        indicator = [0] * slots
        for t, kind, ecu, _, _, _ in rows:
            if kind == "FrameReceived" and (receiver is None or ecu == receiver):
                k = int(t // period)
                if 0 <= k < slots:
                    indicator[k] = 1
        received = [t for t, kind, *_ in rows if kind == "FrameReceived"]
        retransmitted = [t for t, kind, *_ in rows if kind == "Retransmission"]
        a = cfg.attack
        if isinstance(a, (DoS, PulseAttack)):
            expected = any(a.active(t) for t, _, _ in self.sends)
            success = expected and not any(a.active(t) for t in received)
        elif isinstance(a, ForcedRetransmission):
            success = any(a.active(t) for t in retransmitted)
        else:
            success = isinstance(a, (PassiveOvercurrent, ActiveOvercurrent)) and bank.damaged
        return engine.Summary(
            messages_sent=len(self.sends),
            messages_received=len(received),
            indicator=tuple(indicator),
            retransmissions=len(retransmitted),
            attack_success=success,
            device_trips=dict(bank.trip_times),
            damaged=bank.damaged,
            damage_time=bank.damaged_at,
            first_failure_reason=self.first_failure,
        )

    return _patched(engine._Scheduler, "summarize", summarize)
