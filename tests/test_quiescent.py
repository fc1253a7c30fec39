"""The quiescent-frame shortcut against the per-bit path it replaces.

A frame is crossed without per-bit physics when no attack window
overlaps it, or a window holds it, while every bit reads as driven
(`link.reads_driven` under the window's phases at each driven level),
every damage timer rests, and each device rests or sees one current;
a device that moves is folded over the frame's pieces. These tests
place attack windows on the edges of frames, around them and across
them, run pulses short and long of the decode hold, heat and cool coils
and run over-timers across frames, and require the same trace and
summary as the per-bit path, which stays the reference.
"""

import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine, irs
from canvolt.attacks import DoS, ForcedRetransmission
from canvolt.cli import parse_config
from canvolt.config import IrsConfig, set_sweep_value
from canvolt.engine import run_scenario
from canvolt.link import Frame, ack_delimiter_index, ack_slot_index, frame_bit_length
from harness import attack, bus, counting, per_bit, plan, senders

BIT = 2e-6  # 500 kbit/s
PERIOD = 1e-3
DURATION = 4e-3


def quiescent_bus(senders, attack=None, irs=None, period=PERIOD, shift=0.0):
    """Senders of (frame, offset) over DURATION; `shift` moves the offsets
    and the end of the run."""
    moved = [(frame, shift + offset) for frame, offset in senders]
    return bus(moved, period, duration=shift + DURATION, attack=attack, irs_config=irs)


def run_counting_quiescent(cfg):
    """run_scenario, plus how many attempts took the shortcut from their
    SOF outside any attack window and how many inside a steady one; a
    crossing of a frame's remaining bits is not counted."""
    with counting(engine._Bus, "quiescent") as calls:
        trace, summary = run_scenario(cfg)
    taken = []
    for c in calls:
        if c.result is not None and c.args["k"] == 0:
            a, t0 = c.args["self"].attack, c.args["t0"]
            t1 = t0 + (len(c.args["bits"]) - 1) * BIT + BIT
            taken.append(a is not None and a.t_start < t1 and t0 < a.t_end)
    return trace, summary, taken.count(False), taken.count(True)


def run_per_bit(cfg):
    with per_bit():
        return run_scenario(cfg)


def make_attack(kind, start, end, line):
    return attack(f"pulse_{line}" if kind == "pulse" else kind, start, end)


IRS = {
    "none": None,
    "fuse": IrsConfig(device="fuse"),
    "resettable_fuse": IrsConfig(device="resettable_fuse"),
    # opens within 2 bits of driven window, recloses within 7 bits after
    # the drive stops and is back at ambient about 1.7 ms later
    "thermostat": IrsConfig(device="thermostat", coil_drive=3.0, tau_thermal=1e-4),
}

SENDERS = senders(400, 2, 4)


# window placements on a frame's edges, where other frames stay outside it
EDGES = ("ends_at_start", "starts_at_end", "overlaps_last_bit")


def test_quiescent_frames_match_the_per_bit_path():
    steady_hits = []

    @settings(max_examples=24, deadline=None)
    @given(
        senders=SENDERS,
        kind=st.sampled_from(["dos", "fra", "pulse", "active", "passive"]),
        line=st.sampled_from(["canl", "canh"]),
        edge=st.sampled_from(
            list(EDGES) + ["holds", "opens_at_sof", "closes_at_eof", "opens_inside",
                           "closes_inside"]
        ),
        pick=st.integers(0, 1000),
        width_bits=st.integers(1, 300),
        irs=st.sampled_from(sorted(IRS)),
    )
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 200)],
        kind="dos",
        line="canl",
        edge="ends_at_start",
        pick=1,
        width_bits=100,
        irs="thermostat",
    )
    # a fuse blows in the first attempt; the window holds the retry
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 200)],
        kind="dos",
        line="canl",
        edge="opens_at_sof",
        pick=0,
        width_bits=300,
        irs="fuse",
    )
    def check(senders, kind, line, edge, pick, width_bits, irs):
        schedule = plan(senders)
        frames = {f"S{k}": frame for k, (frame, _) in enumerate(schedule)}
        unattacked, _ = run_scenario(quiescent_bus(schedule))
        sent = unattacked.of_kind("FrameSent")
        target = sent[pick % len(sent)]
        t0 = target.t
        n_bits = frame_bit_length(frames[target.ecu])
        t_end = t0 + (n_bits - 1) * BIT + BIT  # as the engine sums it
        width = width_bits * BIT
        inside = t0 + (width_bits % n_bits + 0.3) * BIT  # strictly inside the frame
        start, end = {
            "ends_at_start": (t0 - width, t0),
            "starts_at_end": (t_end, t_end + width),
            "overlaps_last_bit": (t_end - BIT, t_end - BIT + width),
            "holds": (t0 - width, t_end + width),
            "opens_at_sof": (t0, t_end + width),
            "closes_at_eof": (t0 - width, t_end),  # the frame's last bit ends with the window
            "opens_inside": (inside, t_end + width),
            "closes_inside": (t0 - width, inside),
        }[edge]
        cfg = quiescent_bus(schedule, make_attack(kind, start, end, line), IRS[irs])

        trace, summary, outside, steady = run_counting_quiescent(cfg)
        ref_trace, ref_summary = run_per_bit(cfg)
        if edge in EDGES:
            assert outside > 0
        assert trace.records == ref_trace.records
        assert summary == ref_summary
        steady_hits.append(steady)

    check()
    # the pinned fuse example alone takes the steady case
    assert sum(steady_hits) > 0


def test_a_forced_retransmission_fails_each_first_attempt_and_retries_steady():
    """Damage trips in the first frame's first dominant bit; from then on
    the window rests. The first attempt of each frame still fails at the
    ACK delimiter, the second frame's in the steady case, and each retry
    is delivered in it."""
    frame = Frame(id=0x123, data=b"\x55")
    t0 = 1e-3
    cfg = quiescent_bus([(frame, t0)], ForcedRetransmission(t_start=0.5e-3, t_end=2.5e-3, v_attack_h=5.0))
    trace, summary, outside, steady = run_counting_quiescent(cfg)

    ack_error = (ack_delimiter_index(frame) + 1) * BIT
    errors = [(e.t, e.detail) for e in trace.of_kind("ErrorFrame")]
    assert errors == [(t0 + ack_error, "form_error_ack_delimiter"),
                      (2 * t0 + ack_error, "form_error_ack_delimiter")]
    assert (steady, outside) == (3, 1)
    assert summary.retransmissions == 2
    assert summary.messages_received == summary.messages_sent == 3
    ref_trace, ref_summary = run_per_bit(cfg)
    assert (trace.records, summary) == (ref_trace.records, ref_summary)


@pytest.mark.parametrize("kind, later", [("dos", 3), ("passive", 2), ("active", 2)])
@pytest.mark.parametrize("closes_at_eof", [False, True])
def test_a_static_window_goes_steady_once_a_fuse_blows(kind, later, closes_at_eof):
    """The window opens on a frame's SOF and the fuse blows inside that
    attempt; each later attempt the window holds is steady (the DoS's
    retry, then the frames at 2 and 3 ms). A window that closes exactly
    where the 3 ms frame's last bit ends does not hold that frame: as in
    `drive`, the frame must end before the window does."""
    frame = Frame(id=0x123, data=b"\x55")
    n_bits = frame_bit_length(frame)
    end = 3e-3 + (n_bits - 1) * BIT + BIT if closes_at_eof else 3.5e-3
    cfg = quiescent_bus([(frame, 1e-3)], make_attack(kind, 1e-3, end, "canl"), IRS["fuse"])
    trace, summary, _, steady = run_counting_quiescent(cfg)
    assert summary.device_trips
    assert steady == later - closes_at_eof
    ref_trace, ref_summary = run_per_bit(cfg)
    assert (trace.records, summary) == (ref_trace.records, ref_summary)


@pytest.mark.parametrize("into_bit, delivered", [(0.1, False), (0.5, True)])
def test_dos_opening_inside_the_ack_slot(into_bit, delivered):
    """The ACK slot is the frame's last dominant bit; it fails only when
    the DoS opens before its sample point."""
    frame = Frame(id=0x123, data=bytes(range(8)))
    t0 = 1e-3
    ack = ack_slot_index(frame)
    start = t0 + (ack + into_bit) * BIT
    attack = DoS(t_start=start, t_end=t0 + frame_bit_length(frame) * BIT, v_attack_l=5.0)
    trace, summary = run_scenario(quiescent_bus([(frame, t0)], attack))

    errors = trace.of_kind("ErrorFrame")
    assert summary.messages_received == summary.messages_sent
    if delivered:
        assert errors == []
        assert summary.retransmissions == 0
    else:
        assert [(e.t, e.detail) for e in errors] == [(t0 + (ack + 1) * BIT, "bit_error")]
        assert summary.first_failure_reason == "bit_error"
        assert summary.retransmissions == 1


def check_pulse_window(senders, period, duty, phase, line, irs, shift):
    """A pulse window over the whole run gives the per-bit path's events,
    sample runs and summary; returns how many attempts it held steady.

    A shifted run's senders send once a second: the summary's indicator
    has a slot per sender period over the whole run. Traces compare by
    events and sample runs, which do not expand the run's ticks."""
    window = attack(f"pulse_{line}", shift, shift + DURATION, period, duty, phase)
    cfg = quiescent_bus(plan(senders), window, IRS[irs], period=PERIOD if shift == 0.0 else 1.0, shift=shift)
    trace, summary, _, steady = run_counting_quiescent(cfg)
    ref_trace, ref_summary = run_per_bit(cfg)
    assert (trace.events, trace.runs) == (ref_trace.events, ref_trace.runs)
    assert summary == ref_summary
    return steady


def test_pulse_windows_match_the_per_bit_path():
    """Pulses from far shorter than the decode hold to past it, the
    desk's 680 ns (CANL) and 570 ns (CANH) blocking periods among them,
    at any duty, phase, line and device, and shifted in time."""
    steady_hits = []

    @settings(max_examples=30, deadline=None)
    @given(
        senders=SENDERS,
        period=st.one_of(st.floats(100e-9, 4e-6), st.floats(560e-9, 700e-9)),
        duty=st.floats(0.05, 0.95),
        phase=st.floats(0.0, 1.0),
        line=st.sampled_from(["canl", "canh"]),
        irs=st.sampled_from(sorted(IRS)),
        shift=st.sampled_from([0.0, 1e3, 1e6]),
    )
    def check(senders, period, duty, phase, line, irs, shift):
        steady_hits.append(check_pulse_window(senders, period, duty, phase, line, irs, shift))

    check()
    assert sum(steady_hits) > 0


PINNED = [(0x10, b"\x01", 0), (0x20, b"", 200), (0x30, bytes(8), 350)]


@pytest.mark.parametrize(
    "period, shift, steady",
    [
        # attacked_bus's pulse: every attempt after the first, in which the fuses trip
        (600e-9, 0.0, 11),
        (600e-9, 1e6, 2),  # a shifted sender sends once
        (670e-9, 0.0, 11),  # a 335 ns masking phase, 5 ns short of the hold
        # at 1e6 s those 5 ns lie within 64 ulps of the window's end, so every bit runs
        (670e-9, 1e6, 0),
    ],
)
def test_pinned_canl_pulses(period, shift, steady):
    """A CANL pulse at 50% duty with resettable fuses on both pins."""
    got = check_pulse_window(PINNED, period, 0.5, 0.0, "canl", "resettable_fuse", shift)
    assert got == steady


@pytest.mark.parametrize("name, period", [("pulse_canh_sweep", 500e-9), ("pulse_canl_sweep", 600e-9)])
def test_an_unbounded_pulse_window_goes_steady(name, period):
    """A pulse short of the blocking period with `end = inf` runs as one
    whose end lies past the run, and goes steady: a phase's float slop
    scales with the latest instant a piece can end, not the window's end.
    Every frame is delivered."""
    cfg = parse_config((Path(__file__).parent.parent / "configs" / f"{name}.ini").read_text())
    point = set_sweep_value(cfg, cfg.sweep.path, period)
    runs = [
        run_counting_quiescent(replace(point, attack=replace(point.attack, t_end=end)))
        for end in (math.inf, 2 * point.duration)
    ]
    (trace, summary, _, steady), (past_trace, past_summary, _, past_steady) = runs
    assert (trace.records, summary) == (past_trace.records, past_summary)
    assert steady == past_steady > 0
    assert summary.messages_received == summary.messages_sent


def run_counting_folds(cfg):
    """run_scenario, plus how many device folds crossed a frame."""
    with counting(irs._Switch, "steps") as switches, counting(irs.ThermostatCoil, "steps") as coils:
        trace, summary = run_scenario(cfg)
    return trace, summary, sum(c.result is not None for c in switches + coils)


def moving_device(device, coil_drive, tau_exp, opening_exp):
    if device == "thermostat":
        return IrsConfig(device="thermostat", coil_drive=coil_drive, tau_thermal=10.0**tau_exp)
    return IrsConfig(device=device, opening_time=10.0**opening_exp)


# a 3 A drive opens a 100 us coil within the window's first frame, and the
# coil then flips open and closed inside later frames
FLIPPING = dict(
    senders=[(0x10, b"\x01", 0), (0x20, b"", 200)],
    kind="dos",
    line="canl",
    start_us=500,
    width_us=2000,
    device="thermostat",
    coil_drive=3.0,
    tau_exp=-4.0,
    opening_exp=-3.0,
)


def moving_bus(senders, kind, line, start_us, width_us, device, coil_drive, tau_exp, opening_exp):
    window = make_attack(kind, start_us * 1e-6, (start_us + width_us) * 1e-6, line)
    return quiescent_bus(plan(senders), window, moving_device(device, coil_drive, tau_exp, opening_exp))


def test_frames_under_moving_devices_match_the_per_bit_path():
    """Coils heated by a bench drive or their pin current, or cooling,
    from 100 us to 2 s time constants, and fuses and breakers whose
    over-timers run for 10 us to 10 ms, under each attack kind."""
    fired = []

    @settings(max_examples=60, deadline=None)
    @given(
        senders=SENDERS,
        kind=st.sampled_from(["dos", "fra", "pulse", "active", "passive"]),
        line=st.sampled_from(["canl", "canh"]),
        start_us=st.integers(0, 3000),
        width_us=st.integers(1, 3000),
        # coils weighted twice, and fast ones that flip inside frames
        device=st.sampled_from(["thermostat", "thermostat", "fuse", "breaker"]),
        coil_drive=st.sampled_from([None, 0.5, 3.0]),
        tau_exp=st.floats(-4.0, -2.5) | st.floats(-4.0, math.log10(2.0)),
        opening_exp=st.floats(-5.0, -2.0),
    )
    @example(**FLIPPING)
    def check(**case):
        cfg = moving_bus(**case)
        trace, summary, folds = run_counting_folds(cfg)
        ref_trace, ref_summary = run_per_bit(cfg)
        assert trace.records == ref_trace.records
        assert summary == ref_summary
        fired.append(folds)

    check()
    assert sum(fired) > 0


def test_a_fold_that_ignores_flips_is_caught():
    """A coil fold that commits a state past an open/close change loses
    the change's trace record and the heating after it."""

    def ignoring_flips(self, i, spans):
        temp, is_open, _ = self._heat(i, self.temp, self.open, spans, settle=True)
        return self._at(temp, is_open)

    cfg = moving_bus(**FLIPPING)
    ref_trace, ref_summary = run_per_bit(cfg)
    trace, summary = run_scenario(cfg)
    assert (trace.records, summary) == (ref_trace.records, ref_summary)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irs.ThermostatCoil, "steps", ignoring_flips)
        trace, _ = run_scenario(cfg)
    assert trace.records != ref_trace.records
