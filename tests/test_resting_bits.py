"""Resting pulse bits against the piece-by-piece path they replace.

A driven bit inside a pulse window, while both phase pin pairs leave
every accumulator at rest, is cut and sampled without an accumulator
step per piece. These tests run generated pulse buses with that path and
with it switched off, and require the same trace CSV and summary.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine
from canvolt.attacks import PulseAttack
from canvolt.cli import emit_outputs
from canvolt.electrical import INPUT
from canvolt.engine import DamageParams, EcuSpec, IrsConfig, ScenarioConfig, run_scenario
from canvolt.link import Frame

BIT = 2e-6  # 500 kbit/s
PERIOD = 1e-3
DURATION = 3e-3


def bus(senders, attack, device, pins, rating, i_max):
    ecus = [EcuSpec("A", "vids-host"), EcuSpec("B", "logger")]
    for k, (frame, offset) in enumerate(senders):
        ecus.append(EcuSpec(f"S{k}", "sender", period=PERIOD, frame=frame, offset=offset))
    irs = None
    if device != "none":
        # a fast thermostat heats and opens within the run; a driven one
        # carries the bench's 3 A in the window, whatever its pins carry
        device, drive = ("thermostat", 3.0) if device == "driven_thermostat" else (device, None)
        irs = IrsConfig(
            device=device, pins=pins, rating=rating, tau_thermal=1e-4, coil_drive=drive
        )
    return ScenarioConfig(
        duration=DURATION,
        ecus=tuple(ecus),
        attack=attack,
        irs_config=irs,
        damage=DamageParams(i_max=i_max),
    )


def outputs(cfg):
    """The trace CSV and summary JSON texts of a run."""
    trace, summary = run_scenario(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path, summary_path = Path(tmp, "trace.csv"), Path(tmp, "summary.json")
        emit_outputs(trace, summary, str(trace_path), str(summary_path))
        return trace_path.read_text(), summary_path.read_text()


def run_counting_resting(cfg):
    """outputs(cfg), plus how many bits took the resting path."""
    fired = []
    original = engine._Sim.resting_levels

    def counting(self, dominant):
        levels = original(self, dominant)
        fired.append(levels is not None)
        return levels

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "resting_levels", counting)
        texts = outputs(cfg)
    return texts, sum(fired)


def run_piece_by_piece(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "resting_levels", lambda self, dominant: None)
        return outputs(cfg)


senders = st.lists(
    st.tuples(
        st.integers(1, 0x7FF),
        st.binary(max_size=8),
        st.integers(0, 400),  # offset in us
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda s: s[0],
)

# the run's whole span under a 600 ns CANL pulse with resettable fuses on
# both pins: the fuses trip, then leak enough to damage a pin, and from
# there every bit rests
ATTACKED_BUS = dict(
    senders=[(0x10, b"\x01\x02", 0), (0x20, b"\xff" * 8, 150)],
    line="canl",
    period_ns=600,
    duty=0.5,
    phase=0.0,
    start_bits=0.0,
    width_bits=2000.0,
    device="resettable_fuse",
    pins="both",
    rating=0.010,
    i_max=0.040,
)


@settings(max_examples=12, deadline=None)
@given(
    senders=senders,
    line=st.sampled_from(["canl", "canh"]),
    period_ns=st.integers(100, 4000),
    duty=st.floats(0.05, 0.95),
    phase=st.floats(0.0, 1.0),
    # window edges in bits from the first sender's first frame: they land
    # inside frames and inside bits
    start_bits=st.floats(-20.0, 150.0),
    width_bits=st.floats(0.5, 1500.0),
    device=st.sampled_from(
        ["none", "fuse", "breaker", "resettable_fuse", "thermostat", "driven_thermostat"]
    ),
    pins=st.sampled_from(["both", "ph", "pl"]),
    # around the phase currents of a pulsed pin (tens to hundreds of mA)
    rating=st.sampled_from([0.010, 0.1, 0.3]),
    i_max=st.sampled_from([0.040, 0.3, 1.0]),
)
@example(**ATTACKED_BUS)
@example(  # a window of one bit, edges on bit edges: only that bit rests
    senders=[(1, b"", 0)], line="canl", period_ns=100, duty=0.5, phase=0.0,
    start_bits=1.0, width_bits=1.0, device="none", pins="both", rating=0.01, i_max=0.3,
)
@example(  # the window opens on the first recessive bit (a stuff bit): the
    # bench drive heats the coil there, so no bit may rest
    senders=[(1, b"", 0)], line="canl", period_ns=600, duty=0.5, phase=0.0,
    start_bits=5.0, width_bits=40.0, device="driven_thermostat", pins="both",
    rating=0.01, i_max=0.3,
)
def test_resting_bits_match_the_piece_by_piece_path(**case):
    plan = [(Frame(id=fid, data=data), off * 1e-6) for fid, data, off in case["senders"]]
    start = plan[0][1] + case["start_bits"] * BIT
    attack = PulseAttack(
        t_start=start, t_end=start + case["width_bits"] * BIT, line=case["line"],
        period=case["period_ns"] * 1e-9, duty=case["duty"], phase=case["phase"],
    )
    cfg = bus(plan, attack, case["device"], case["pins"], case["rating"], case["i_max"])

    texts, fired = run_counting_resting(cfg)
    assert texts == run_piece_by_piece(cfg)
    if case == ATTACKED_BUS:
        assert fired > 0


def test_a_trip_clears_the_resting_verdict():
    """The verdict holds until the next full accumulator step: once the
    pulsed pin's fuse blows, a dominant bit rests at the idle pins.

    A run cannot show a stale verdict: a recessive bit carries no pin
    current and the same v_diff at any gating, and once a dominant bit
    rests no later step changes anything. So it is checked here.
    """
    attack = PulseAttack(t_start=0.0, t_end=1.0, line="canl", period=600e-9)
    sim = engine._Sim(ScenarioConfig(
        duration=1.0,
        ecus=(EcuSpec("A", "vids-host"),),
        attack=attack,
        # above both phase currents of a dominant bit (281 and 58 mA)
        irs_config=IrsConfig(device="fuse", pins="pl", rating=0.3),
        damage=DamageParams(i_max=1.0),
    ))
    idle = sim.solved(True, (INPUT, INPUT))[0].voltages.v_diff
    pulsed = sim.resting_levels(True)
    assert pulsed is not None and pulsed != (idle, idle)

    sim.advance_constant(0.0, 1e-3, {"ph": 0.0, "pl": 1.0})
    assert sim.bank.devices["pl"].tripped
    assert sim.resting_levels(True) == (idle, idle)
