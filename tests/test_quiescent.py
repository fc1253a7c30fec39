"""The quiescent-frame shortcut against the per-bit path it replaces.

A frame that no attack window overlaps, sent while every thermostat
rests, is delivered without per-bit physics. These tests place attack
windows on the edges of such frames and require the same trace and
summary as the per-bit path, which stays the reference.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine
from canvolt.attacks import ActiveOvercurrent, DoS, ForcedRetransmission, PulseAttack
from canvolt.engine import EcuSpec, IrsConfig, ScenarioConfig, run_scenario
from canvolt.link import Frame, ack_slot_index, frame_bit_length

BIT = 2e-6  # 500 kbit/s
PERIOD = 1e-3
DURATION = 4e-3


def bus(senders, attack=None, irs=None):
    ecus = [EcuSpec("A", "vids-host"), EcuSpec("B", "logger")]
    for k, (frame, offset) in enumerate(senders):
        ecus.append(EcuSpec(f"S{k}", "sender", period=PERIOD, frame=frame, offset=offset))
    return ScenarioConfig(duration=DURATION, ecus=tuple(ecus), attack=attack, irs_config=irs)


def run_counting_quiescent(cfg):
    """run_scenario, plus how many attempts took the quiescent path."""
    taken = []
    original = engine._Sim.quiescent

    def counting(self, t0, t1):
        q = original(self, t0, t1)
        taken.append(q)
        return q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "quiescent", counting)
        trace, summary = run_scenario(cfg)
    return trace, summary, sum(taken)


def run_per_bit(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "quiescent", lambda self, t0, t1: False)
        return run_scenario(cfg)


def make_attack(kind, start, end, line):
    if kind == "dos":
        return DoS(t_start=start, t_end=end, v_attack_l=5.0)
    if kind == "fra":
        return ForcedRetransmission(t_start=start, t_end=end, v_attack_h=5.0)
    if kind == "active":
        return ActiveOvercurrent(t_start=start, t_end=end)
    return PulseAttack(t_start=start, t_end=end, line=line, period=600e-9, duty=0.5)


IRS = {
    "none": None,
    "fuse": IrsConfig(device="fuse"),
    "resettable_fuse": IrsConfig(device="resettable_fuse"),
    # opens within 2 bits of driven window, recloses within 7 bits after
    # the drive stops and is back at ambient about 1.7 ms later
    "thermostat": IrsConfig(device="thermostat", coil_drive=3.0, tau_thermal=1e-4),
}

senders = st.lists(
    st.tuples(
        st.integers(1, 0x7FF),
        st.binary(max_size=8),
        st.integers(0, 400),  # offset in us
    ),
    min_size=2,
    max_size=4,
    unique_by=lambda s: s[0],
)


@settings(max_examples=12, deadline=None)
@given(
    senders=senders,
    kind=st.sampled_from(["dos", "fra", "pulse", "active"]),
    line=st.sampled_from(["canl", "canh"]),
    edge=st.sampled_from(["ends_at_start", "starts_at_end", "overlaps_last_bit"]),
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
def test_quiescent_frames_match_the_per_bit_path(senders, kind, line, edge, pick, width_bits, irs):
    plan = [(Frame(id=fid, data=data), off * 1e-6) for fid, data, off in senders]
    frames = {f"S{k}": frame for k, (frame, _) in enumerate(plan)}
    unattacked, _ = run_scenario(bus(plan))
    sent = unattacked.of_kind("FrameSent")
    target = sent[pick % len(sent)]
    t0 = target.t
    t_end = t0 + frame_bit_length(frames[target.ecu]) * BIT
    width = width_bits * BIT
    start = {
        "ends_at_start": t0 - width,
        "starts_at_end": t_end,
        "overlaps_last_bit": t_end - BIT,
    }[edge]
    cfg = bus(plan, make_attack(kind, start, start + width, line), IRS[irs])

    trace, summary, quiescent = run_counting_quiescent(cfg)
    ref_trace, ref_summary = run_per_bit(cfg)
    assert quiescent > 0
    assert trace.records == ref_trace.records
    assert summary == ref_summary


@pytest.mark.parametrize("into_bit, delivered", [(0.1, False), (0.5, True)])
def test_dos_opening_inside_the_ack_slot(into_bit, delivered):
    """The ACK slot is the frame's last dominant bit; it fails only when
    the DoS opens before its sample point."""
    frame = Frame(id=0x123, data=bytes(range(8)))
    t0 = 1e-3
    ack = ack_slot_index(frame)
    start = t0 + (ack + into_bit) * BIT
    attack = DoS(t_start=start, t_end=t0 + frame_bit_length(frame) * BIT, v_attack_l=5.0)
    trace, summary = run_scenario(bus([(frame, t0)], attack))

    errors = trace.of_kind("ErrorFrame")
    assert summary.messages_received == summary.messages_sent
    if delivered:
        assert errors == []
        assert summary.retransmissions == 0
    else:
        assert [(e.t, e.detail) for e in errors] == [(t0 + (ack + 1) * BIT, "bit_error")]
        assert summary.first_failure_reason == "bit_error"
        assert summary.retransmissions == 1
