"""Idle time in O(events) against per-tick references.

The engine crosses an idle stretch in one step when no step there could
change anything, and keeps its 1 Hz samples as runs of ticks. These tests
run generated long buses, with frames on integer seconds, attack windows
that span ticks and protective devices, and check:

- every sample record against a per-tick oracle: the bus solved at the
  tick's attacker pin pair (`attacks.pin_override`), gated by the trip
  and flip records stamped at or before the tick;
- the whole trace against a reference that slices idle time at every
  whole second and keeps its records as a plain list in the order they
  were made, stably sorted by time and, at equal stamps, by `RANK`;
- that idle time costs a bounded number of steps and solves per frame.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import attacks as atk
from canvolt import engine, irs
from canvolt import trace as trace_module
from canvolt.electrical import INPUT, BusTopology, solve_bus_detailed
from canvolt.config import IrsConfig
from canvolt.engine import run_scenario
from canvolt.link import Frame, bus_bits
from canvolt.trace import SAMPLE_KINDS, TraceRecord
from harness import HOST, attack, bus, counting, sliced_idle

BIT = 2e-6  # 500 kbit/s
PULSE = 20e-6  # a pulse attack's period

DEVICES = {
    "none": None,
    "fuse": IrsConfig(device="fuse"),
    "breaker": IrsConfig(device="breaker"),
    "resettable_fuse": IrsConfig(device="resettable_fuse"),
    "thermostat": IrsConfig(device="thermostat"),
    # heated by the bench supply for the whole window, then cools for tens of seconds
    "driven_thermostat": IrsConfig(device="thermostat", coil_drive=1.0),
}
OPENS = {"FuseBlown": True, "BreakerTripped": True, "ThermostatOpen": True, "ThermostatClosed": False}
# at equal stamps: every other event, AttackStart, the tick, AttackEnd, frame starts
RANK = {
    "AttackStart": 1,
    "LineVoltageSample": 2,
    "PinCurrentSample": 2,
    "AttackEnd": 3,
    "FrameSent": 4,
    "Retransmission": 4,
}


def idle_bus(duration, frame, period, offset, attack, device):
    """One sender, C, over a long run."""
    return bus([(frame, offset)], period, ["C"], duration=duration, attack=attack, irs_config=DEVICES[device])


def run_logged(cfg):
    """run_scenario, plus every record in the order the engine made it:
    the events as added, then the ticks of each sample run (only samples
    have their rank, so this order sorts as the interleaved one)."""
    with counting(trace_module.Trace, "add") as events, counting(trace_module.Trace, "add_ticks") as runs:
        trace, summary = run_scenario(cfg)
    log = [TraceRecord(*tuple(c.args.values())[1:]) for c in events]  # each argument but self
    for c in runs:
        for k in range(c.args["first"], c.args["last"] + 1):
            log.extend(TraceRecord(float(k), *fields) for fields in c.args["samples"])
    return trace, summary, log


def run_reference(cfg):
    """Idle time sliced at every whole second; records as made, stably
    sorted by time and rank."""
    with sliced_idle():
        _, summary, log = run_logged(cfg)
    return sorted(log, key=lambda r: (r.t, RANK.get(r.kind, 0))), summary, log


def oracle_mismatches(cfg, log) -> list:
    """Sample records that disagree with a fresh solve at their tick."""
    topo = BusTopology(termination=cfg.termination)
    params = cfg.params.transceiver()
    changes = sorted(
        (r for r in log if r.kind in OPENS and r.detail != "resettable"), key=lambda r: r.t
    )
    opened = {"ph": False, "pl": False}
    bad = []
    i = 0
    for r in sorted((r for r in log if r.kind in SAMPLE_KINDS), key=lambda r: r.t):
        while i < len(changes) and changes[i].t <= r.t:
            opened[changes[i].line] = OPENS[changes[i].kind]
            i += 1
        p_h, p_l = atk.pin_override(cfg.attack, r.t)
        pins = (INPUT if opened["ph"] else p_h, INPUT if opened["pl"] else p_l)
        sol = solve_bus_detailed({"bus": False}, {HOST: pins}, topo, params)
        want = {
            "canh": sol.voltages.v_canh,
            "canl": sol.voltages.v_canl,
            "ph": sol.pin_currents[HOST].i_ph,
            "pl": sol.pin_currents[HOST].i_pl,
        }[r.line]
        if repr(r.value) != repr(want):
            bad.append((r, want))
    return bad


@st.composite
def idle_buses(draw):
    duration = draw(st.integers(10, 5000)) + draw(st.sampled_from([0.0, 0.25]))
    frame = Frame(id=draw(st.integers(1, 0x7FF)), data=draw(st.binary(max_size=8)))
    period = float(draw(st.integers(5, 900)))
    second = draw(st.integers(1, 9))
    # a frame that starts, or ends, exactly on a tick ties with its sample
    offset = draw(st.sampled_from([
        float(second),
        second - len(bus_bits(frame)) * BIT,
        second + 0.3,
    ]))
    kind = draw(st.sampled_from(["none", "dos", "pulse_canl", "pulse_canh", "active"]))
    start = draw(st.integers(0, int(duration))) + draw(st.sampled_from([0.0, 0.5, -3e-6]))
    width = draw(st.integers(1, 40)) + draw(st.sampled_from([0.0, 0.5]))
    window = attack(kind, max(start, 0.0), max(start, 0.0) + width, period=PULSE)
    device = draw(st.sampled_from(sorted(DEVICES)))
    return idle_bus(duration, frame, period, offset, window, device)


TIE_CASE = idle_bus(
    60.0, Frame(id=0x123, data=b"\x01\x02"), 7.0, 3.0,
    attack("pulse_canl", 9.0, 12.5, period=PULSE), "fuse",
)
COOLING_CASE = idle_bus(
    120.0, Frame(id=0x55, data=b""), 9.0, 2.5,
    attack("dos", 20.0, 30.0), "driven_thermostat",
)


# a frame sent at 1029.999774 s ends as the window opens, and the
# window's current trips the breaker 1 us later
WINDOW_START_CASE = idle_bus(
    1031.0, Frame(id=1, data=b"\x2f" * 8), 7.0, 1.0 - 113 * BIT,
    attack("active", 1030.0, 1031.0), "breaker",
)


def check_against_references(cfg):
    """Both runs' samples match the oracle, and the run matches the
    reference; returns the run's trace."""
    trace, summary, log = run_logged(cfg)
    ref_records, ref_summary, ref_log = run_reference(cfg)
    assert oracle_mismatches(cfg, log) == []
    assert oracle_mismatches(cfg, ref_log) == []
    assert trace.records == ref_records
    assert summary == ref_summary
    return trace


@settings(max_examples=20, deadline=None)
@given(cfg=idle_buses())
@example(cfg=TIE_CASE)
@example(cfg=COOLING_CASE)
def test_sample_runs_and_idle_jumps_match_per_tick_references(cfg):
    check_against_references(cfg)


def test_a_trip_after_a_frame_that_ends_as_the_window_opens_matches_the_references():
    """The frame's last bit ends at 1029.9999999999998 s, one ulp before
    the window opens. The engine jumps that sliver at the idle inputs;
    the reference steps it, at the pins of the sliver's start, outside
    the window (its midpoint rounds to 1030.0 s, inside), so both trip
    the breaker at 1030.000001 s."""
    check_against_references(WINDOW_START_CASE)


@pytest.mark.parametrize("start, end", [(2.5, math.inf), (-math.inf, 3.5)])
def test_windows_with_an_infinite_edge(start, end):
    """Ticks are split at the window edges, which may be infinite."""
    cfg = idle_bus(6.0, Frame(id=1, data=b""), 1.0, 0.5, attack("dos", start, end), "fuse")
    trace = check_against_references(cfg)
    assert len(trace.records) == 4 * 7 + len(trace.events)


def test_the_tie_case_ties():
    """TIE_CASE sends on integer seconds, so its samples and frames share stamps."""
    trace, _ = run_scenario(TIE_CASE)
    sent = {r.t for r in trace.of_kind("FrameSent")}
    assert sent and all(t == int(t) for t in sent)
    order = [r.kind for r in trace.records if r.t == 3.0]
    assert order == ["LineVoltageSample"] * 2 + ["PinCurrentSample"] * 2 + ["FrameSent"]


def test_ticks_after_events_on_ties_are_caught():
    """Ranking a frame start with the other events puts a frame sent
    exactly on a tick ahead of that tick's samples. A row is ranked when
    the rows are first ordered, so the records are read under the patch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(trace_module._RANKS, "FrameSent", 0)
        trace, _ = run_scenario(TIE_CASE)
        records = trace.records
    ref_records, _, _ = run_reference(TIE_CASE)
    assert records != ref_records


def test_a_flip_in_the_last_idle_stretch_does_not_end_the_run():
    """With no frame due, a thermostat heated through the window flips in
    the run's last idle stretch; the run still reaches its duration, with
    every tick and the window's end."""
    cfg = bus(
        [], None, duration=10.0, attack=attack("dos", 0.0, 6.5), irs_config=DEVICES["driven_thermostat"]
    )
    trace = check_against_references(cfg)
    assert sorted({r.t for r in trace.of_kind("LineVoltageSample")}) == [float(k) for k in range(11)]
    assert [r.t for r in trace.of_kind("AttackEnd")] == [6.5]
    flips = trace.of_kind("ThermostatOpen") + trace.of_kind("ThermostatClosed")
    assert max(r.t for r in flips) == pytest.approx(6.7)


def test_a_tick_shows_the_devices_at_its_stamp():
    """A frame spans the tick at 5 s and a pulse window opens just before
    it; the fuse blows 3 us after the tick, so the tick still sees the
    pulse's high phase drive both lines to 5 V."""
    window = attack("pulse_canl", 4.9999995, 6.0, period=PULSE)
    cfg = idle_bus(8.0, Frame(id=0x7FF, data=b""), 100.0, 4.99999, window, "fuse")
    trace, _, log = run_logged(cfg)
    assert [r.t for r in trace.of_kind("FuseBlown")] == [pytest.approx(5.000003)]
    at_five = {r.line: r.value for r in trace.records if r.t == 5.0 and r.kind in SAMPLE_KINDS}
    assert at_five["canh"] == at_five["canl"] == 5.0
    assert oracle_mismatches(cfg, log) == []


def test_jumping_while_a_coil_is_not_idle_is_caught():
    """An idle jump that ignores the thermostat skips its heating in the
    window and its cooling after it."""
    original = engine._Sim.side

    def ignoring_coils(self, in_window):
        devices = self.bank.devices
        self.bank.devices = {
            pin: dev for pin, dev in devices.items() if not isinstance(dev, irs.ThermostatCoil)
        }
        try:
            return original(self, in_window)
        finally:
            self.bank.devices = devices

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "side", ignoring_coils)
        trace, summary = run_scenario(COOLING_CASE)
    ref_records, ref_summary, _ = run_reference(COOLING_CASE)
    assert any(r.kind == "ThermostatOpen" for r in ref_records)
    assert (trace.records, summary) != (ref_records, ref_summary)


# --- idle cost -------------------------------------------------------------------

IDLE_PERIOD = 600.0
IDLE_DURATION = 1e5


def late_window_bus():
    """One 600 s sender over 1e5 s; a 100 us CANL pulse window opens 3 us
    before a late frame, and the fuse trips inside it."""
    sends, t = [], 0.5
    while t < IDLE_DURATION:
        sends.append(t)
        t = t + IDLE_PERIOD
    start = sends[-10] - 3e-6
    return idle_bus(
        IDLE_DURATION, Frame(id=0x123, data=bytes(range(8))), IDLE_PERIOD, 0.5,
        attack("pulse_canl", start, start + 100e-6, period=PULSE), "fuse",
    )


def test_idle_cost_follows_events_not_simulated_seconds():
    with counting(engine._Sim, "advance_constant") as steps, counting(engine._Sim, "solved") as solves:
        trace, summary = run_scenario(late_window_bus())

    assert summary.device_trips, "the fuse did not trip in the window"
    attempts = len(trace.of_kind("FrameSent")) + len(trace.of_kind("Retransmission"))
    assert attempts >= IDLE_DURATION // IDLE_PERIOD
    for name, calls in (("advance_constant", steps), ("solved", solves)):
        assert len(calls) < 50 * attempts, (name, len(calls), attempts)
    assert len(trace.records) == 4 * (int(IDLE_DURATION) + 1) + len(trace.events)
