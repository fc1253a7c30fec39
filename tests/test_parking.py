"""Parking against the unparked retries it replaces.

A frame that fails inside a DoS or pulse window whose gated window
pairs do not read a dominant bit as driven (the steady rule,
`_Sim.phases_read_driven`) is parked until the window ends or a device
changes connectivity, instead of retrying every error frame. These
tests run generated buses with parking and with it patched off, and
require the same outcome: success flag, first failure reason, indicator
and delivered frames. Retransmission counts differ on purpose: that is
the work parking saves.

Without parking the first frame after the window is delivered up to one
error frame (36 us) later, so each window ends early in an indicator
slot, and each sender sends at most once per window: the frames held by
the window are delivered in the slot where it ends, in both runs.

Thermostats are left out because of a known defect, the end-of-step
wake: `_Sim.advance_constant` returns the step's end both when nothing
changed and when a device changed exactly there, so a thermostat that
opens at an idle slice end does not wake a parked frame. The parked
frame sleeps through an open coil that an unparked retry would see.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine
from canvolt.attacks import DoS, PulseAttack, pulse_blocks_bits
from canvolt.engine import EcuSpec, IrsConfig, ScenarioConfig, run_scenario
from canvolt.link import Frame

PERIOD = 10e-3  # every sender's period, and so the indicator slot
DURATION = 4 * PERIOD


def bus(senders, attack, device, pins):
    ecus = [EcuSpec("A", "vids-host"), EcuSpec("B", "logger")]
    for k, (frame, offset) in enumerate(senders):
        ecus.append(EcuSpec(f"S{k}", "sender", period=PERIOD, frame=frame, offset=offset))
    irs = None if device == "none" else IrsConfig(device=device, pins=pins)
    return ScenarioConfig(duration=DURATION, ecus=tuple(ecus), attack=attack, irs_config=irs)


def run_counting_parks(cfg):
    """run_scenario, plus how many failed attempts were parked."""
    parks = []
    original = engine._Sim.attack_blocking

    def counting(self, t):
        blocking = original(self, t)
        parks.append(blocking)
        return blocking

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "attack_blocking", counting)
        trace, summary = run_scenario(cfg)
    return trace, summary, sum(parks)


def run_unparked(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "attack_blocking", lambda self, t: False)
        return run_scenario(cfg)


def outcome(trace, summary):
    """Everything parking must keep; the sorted ids also give the count."""
    delivered = sorted(int(r.value) for r in trace.of_kind("FrameReceived"))
    return summary.attack_success, summary.first_failure_reason, summary.indicator, delivered


senders = st.lists(
    st.tuples(
        st.integers(1, 0x7FF),
        st.binary(max_size=8),
        st.integers(0, 9_000),  # offset in us
    ),
    min_size=2,
    max_size=3,
    unique_by=lambda s: s[0],
)


def test_dos_parking_keeps_the_outcome_of_unparked_retries():
    parked = []

    @settings(max_examples=30, deadline=None)
    @given(
        senders=senders,
        decivolts=st.integers(10, 50),
        slot=st.integers(1, 2),
        end_in_slot=st.integers(5, 50),  # percent of the slot
        width_us=st.integers(1_000, 5_000),
        device=st.sampled_from(["none", "fuse", "breaker", "resettable_fuse"]),
        pins=st.sampled_from(["both", "pl"]),
    )
    # the DoS pin leaks through an open resettable fuse: parked until the window ends
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 3_000)],
        decivolts=50,
        slot=1,
        end_in_slot=30,
        width_us=5_000,
        device="resettable_fuse",
        pins="both",
    )
    # the fuse blows in the first failed attempt, and the retry is delivered
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 3_000)],
        decivolts=50,
        slot=1,
        end_in_slot=30,
        width_us=5_000,
        device="fuse",
        pins="pl",
    )
    def check(senders, decivolts, slot, end_in_slot, width_us, device, pins):
        plan = [(Frame(id=fid, data=data), off * 1e-6) for fid, data, off in senders]
        t_end = (slot + end_in_slot / 100) * PERIOD
        attack = DoS(t_start=t_end - width_us * 1e-6, t_end=t_end, v_attack_l=decivolts / 10)
        cfg = bus(plan, attack, device, pins)

        trace, summary, parks = run_counting_parks(cfg)
        assert outcome(trace, summary) == outcome(*run_unparked(cfg))
        parked.append(parks)

    check()
    assert sum(parked) > 0


def test_pulse_parking_keeps_the_outcome_of_unparked_retries():
    """Pulses on either line from 500 to 1200 ns, on both sides of the
    paper's blocking periods (680 ns on CANL, 570 ns on CANH)."""
    parked = []

    @settings(max_examples=30, deadline=None)
    @given(
        senders=senders,
        line=st.sampled_from(["canl", "canh"]),
        period_ns=st.integers(500, 1200),
        slot=st.integers(1, 2),
        end_in_slot=st.integers(5, 50),  # percent of the slot
        width_us=st.integers(1_000, 5_000),
        device=st.sampled_from(["none", "fuse", "breaker", "resettable_fuse"]),
        pins=st.sampled_from(["both", "ph", "pl"]),
    )
    # a blocking CANL pulse on an unprotected bus: parked until the window
    # ends (a 1000 ns pulse would not do: its phases keep in step with the
    # 2 us bits, and its masking phase never covers a sample point)
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 3_000)],
        line="canl",
        period_ns=900,
        slot=1,
        end_in_slot=30,
        width_us=5_000,
        device="none",
        pins="both",
    )
    # the pulsed pin leaks through an open resettable fuse: still parked
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 3_000)],
        line="canl",
        period_ns=700,
        slot=1,
        end_in_slot=30,
        width_us=5_000,
        device="resettable_fuse",
        pins="both",
    )
    # the fuse on the pulsed CANH pin blows in the first failed attempt,
    # and the retry is delivered
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 3_000)],
        line="canh",
        period_ns=800,
        slot=1,
        end_in_slot=30,
        width_us=5_000,
        device="fuse",
        pins="ph",
    )
    def check(senders, line, period_ns, slot, end_in_slot, width_us, device, pins):
        plan = [(Frame(id=fid, data=data), off * 1e-6) for fid, data, off in senders]
        t_end = (slot + end_in_slot / 100) * PERIOD
        attack = PulseAttack(
            t_start=t_end - width_us * 1e-6, t_end=t_end, line=line, period=period_ns * 1e-9
        )
        cfg = bus(plan, attack, device, pins)

        trace, summary, parks = run_counting_parks(cfg)
        assert outcome(trace, summary) == outcome(*run_unparked(cfg))
        parked.append(parks)

    check()
    assert sum(parked) > 0


@pytest.mark.parametrize("shift_us", [0.0, 0.3])
def test_a_pulse_locked_to_the_bit_grid_blocks_no_bit(shift_us):
    """A 1000 ns, 50% CANL pulse whose window opens on the 2 us bit grid
    masks only the first 500 ns of each bit of a frame sent on the grid,
    never the sample point: the frame is delivered, though the steady
    rule counts the pulse as blocking every bit. Moved by 0.3 us, its
    masking phase covers the sample point of the first dominant bit; the
    attempt fails and is parked until the window ends."""
    assert pulse_blocks_bits("canl", 1000e-9)
    frame = Frame(id=0x10, data=b"\x01")
    attack = PulseAttack(t_start=8e-3 + shift_us * 1e-6, t_end=13e-3, line="canl", period=1000e-9)
    trace, summary = run_scenario(bus([(frame, 10e-3)], attack, "none", "both"))

    errors = [(e.t, e.detail) for e in trace.of_kind("ErrorFrame")]
    retries = [r.t for r in trace.of_kind("Retransmission")]
    if shift_us:
        assert errors == [(10e-3 + 2e-6, "bit_error")]
        assert retries == [13e-3]
    else:
        assert errors == retries == []
    assert summary.messages_received == summary.messages_sent == 3
