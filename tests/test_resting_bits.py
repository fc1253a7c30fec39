"""Crossings of a frame's remaining bits against the per-bit path.

A frame run bit by bit hands the rest of it to the quiescent crossing
after a bit in which a device opened or closed or a damage timer
tripped, and at its first bit that starts on the other side of a window
edge: from there its bits rest, and are crossed in one step. These tests
run generated pulse and static buses, whose windows open and close
inside frames and whose fuses and pin damage trip inside them, with
those crossings and with them switched off (`quiescent` still crosses
whole frames from their SOF), and with no window verdict kept between
asks, and require the same trace CSV and summary.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine
from canvolt.attacks import DoS, PulseAttack
from canvolt.cli import parse_config
from canvolt.config import DamageParams, EcuSpec, IrsConfig, ScenarioConfig, set_sweep_value
from canvolt.engine import run_scenario
from canvolt.link import Frame, frame_bit_length
from harness import attack, bus, counting, forgetful, irs_config, no_remainders, outputs, plan, senders

BIT = 2e-6  # 500 kbit/s
PERIOD = 1e-3
DURATION = 3e-3


def resting_bus(senders, attack, device, pins="both", rating=0.010, i_max=0.040, opening_time=1e-6,
                tau_thermal=1e-4):
    irs = irs_config(device, pins=pins, rating=rating, opening_time=opening_time, tau_thermal=tau_thermal)
    return bus(senders, PERIOD, duration=DURATION, attack=attack, irs_config=irs,
               damage=DamageParams(i_max=i_max))


def check_remainders(cfg):
    """The outputs with and without remainder crossings, and without kept
    window verdicts, agree; returns (frame start, bit) of each remainder
    crossed."""
    with counting(engine._Bus, "quiescent") as calls:
        texts = outputs(cfg)
    with no_remainders():
        assert texts == outputs(cfg)
    with forgetful():
        assert texts == outputs(cfg)
    return [(c.args["t0"], c.args["k"]) for c in calls if c.result is not None and c.args["k"] > 0]


# the run's whole span under a 600 ns CANL pulse with resettable fuses on
# both pins: the fuses trip in the first frame, then leak enough to
# damage a pin, and from there every bit rests
ATTACKED_BUS = dict(
    senders=[(0x10, b"\x01\x02", 0), (0x20, b"\xff" * 8, 150)],
    kind="pulse_canl",
    period_ns=600,
    duty=0.5,
    phase=0.0,
    start_bits=0.0,
    width_bits=2000.0,
    device="resettable_fuse",
    pins="both",
    rating=0.010,
    i_max=0.040,
    opening_us=1.0,
    tau_thermal=1e-4,
)


def test_remainders_match_the_per_bit_path():
    fired = []

    @settings(max_examples=30, deadline=None)
    @given(
        senders=senders(400, 1, 3),
        kind=st.sampled_from(["pulse_canl", "pulse_canh", "dos", "fra", "active", "passive"]),
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
        # devices that trip inside a bit, inside a frame and past it, and
        # coils that flip inside a frame or heat and cool across frames
        opening_us=st.sampled_from([0.2, 1.0, 30.0, 300.0]),
        tau_thermal=st.sampled_from([1e-4, 2e-3, 0.05]),
    )
    @example(**ATTACKED_BUS)
    @example(  # a window of one bit, edges on bit edges: the frame's bits after
        # it are crossed
        senders=[(1, b"", 0)], kind="pulse_canl", period_ns=100, duty=0.5, phase=0.0,
        start_bits=1.0, width_bits=1.0, device="none", pins="both", rating=0.01, i_max=0.3,
        opening_us=1.0, tau_thermal=1e-4,
    )
    @example(  # the window opens on the first recessive bit (a stuff bit): the
        # bench drive heats the coil there, so only the bits after it are crossed
        senders=[(1, b"", 0)], kind="pulse_canl", period_ns=600, duty=0.5, phase=0.0,
        start_bits=5.0, width_bits=40.0, device="driven_thermostat", pins="both",
        rating=0.01, i_max=0.3, opening_us=1.0, tau_thermal=1e-4,
    )
    @example(  # an overcurrent jams the idle bus 20 us before the frame, and
        # both fuses blow 1 us later: the window's kept verdict must go with
        # the jam, or the frame is parked to the window's end
        senders=[(0x10, b"\x01", 100)], kind="active", period_ns=100, duty=0.5, phase=0.0,
        start_bits=-10.0, width_bits=1000.0, device="fuse", pins="both", rating=0.01,
        i_max=1.0, opening_us=1.0, tau_thermal=1e-4,
    )
    def check(senders, kind, period_ns, duty, phase, start_bits, width_bits, opening_us, **devices):
        schedule = plan(senders)
        start = schedule[0][1] + start_bits * BIT
        window = attack(kind, start, start + width_bits * BIT, period_ns * 1e-9, duty, phase)
        cfg = resting_bus(schedule, window, opening_time=opening_us * 1e-6, **devices)
        fired.append(len(check_remainders(cfg)))

    check()
    assert sum(fired) > 0


def test_damage_one_microsecond_into_a_frame_leaves_its_rest_steady():
    """`pulse_canl_sweep` at 600 ns: the host's P_L carries 281 and 58 mA
    in the two phases of a dominant bit, both above i_max, so the pin is
    damaged 1 us into the 1.0 s frame, inside its SOF; the rest of that
    frame is crossed from its next bit."""
    cfg = parse_config((Path(__file__).parent.parent / "configs" / "pulse_canl_sweep.ini").read_text())
    point = set_sweep_value(cfg, cfg.sweep.path, 600e-9)
    _, summary = run_scenario(point)
    assert summary.damage_time == pytest.approx(1.0 + 1e-6, abs=1e-12)
    assert summary.messages_received == summary.messages_sent
    assert check_remainders(point) == [(1.0, 1)]


def test_a_damage_timer_that_clears_leaves_the_rest_of_its_frame_steady():
    """`active_overcurrent_fuse`: both fuses blow 1 us into the jammed
    window, as the pins' damage timers reach their limit, which leaves
    the timers full but not tripped. The parked frame is sent at the
    trip; its first bit clears both timers, and the rest of it is
    crossed from its next bit."""
    path = Path(__file__).parent.parent / "configs" / "active_overcurrent_fuse.ini"
    cfg = parse_config(path.read_text())
    _, summary = run_scenario(cfg)
    assert summary.device_trips == dict.fromkeys(("ph", "pl"), pytest.approx(10.000001, abs=1e-12))
    assert not summary.damaged
    assert check_remainders(cfg) == [(pytest.approx(10.000001, abs=1e-12), 1)]


@pytest.mark.parametrize("edge", ["opens", "closes"])
def test_a_frame_that_straddles_a_window_edge(edge):
    """A 600 ns CANL pulse that opens or closes 30.3 bits into a frame:
    the frame runs bit by bit up to its first bit on the window's other
    side, which crosses the rest of it."""
    frame = Frame(id=0x123, data=b"\x55\xaa")
    t0 = 1e-3
    inside = t0 + 30.3 * BIT
    start, end = (inside, 2.5e-3) if edge == "opens" else (0.5e-3, inside)
    # 600 ns, as `period_ns * 1e-9` gives it
    cfg = resting_bus([(frame, t0)], attack("pulse_canl", start, end, 600 * 1e-9), "none", i_max=1.0)
    # the window's edge lies inside the frame
    assert t0 < end and start < t0 + frame_bit_length(frame) * BIT
    assert check_remainders(cfg) == [(t0, 31)]


def test_a_fuse_that_blows_mid_frame_under_a_dos():
    """A DoS window opens 21.5 bits into a frame, inside a run of
    recessive bits, which carry no pin current; its first bit in the
    window runs bit by bit, since the DoS would mask a dominant bit. The
    P_L fuse blows 0.2 us into the next dominant bit, too soon for the
    DoS to mask it, and the frame's bits after that one cross in one
    step. The frame is delivered without a retransmission."""
    frame = Frame(id=0x7FF, data=b"\xff")
    t0 = 1e-3
    window = DoS(t_start=t0 + 21.5 * BIT, t_end=2.5e-3, v_attack_l=5.0)
    cfg = resting_bus([(frame, t0)], window, "fuse", pins="pl", opening_time=0.2e-6)
    _, summary = run_scenario(cfg)
    assert summary.device_trips == {"pl": pytest.approx(t0 + 26.1 * BIT, abs=1e-12)}
    assert summary.messages_received == summary.messages_sent
    assert summary.retransmissions == 0
    assert check_remainders(cfg) == [(t0, 27)]


def test_a_trip_clears_the_resting_verdict():
    """The window's verdict is kept until the next full accumulator step:
    once the pulsed pin's fuse blows, a frame in the window rests at the
    idle pins.

    A 100 mA fuse on P_L sits between the two phase currents of a
    dominant bit (281 and 58 mA), so the fuse moves at two currents and
    no frame is crossed until it blows."""
    attack = PulseAttack(t_start=0.0, t_end=1.0, line="canl", period=600e-9)
    sim = engine._Bus(ScenarioConfig(
        duration=1.0,
        ecus=(EcuSpec("A", "vids-host"),),
        attack=attack,
        irs_config=IrsConfig(device="fuse", pins="pl", rating=0.1),
        damage=DamageParams(i_max=1.0),
    ))
    assert sim.side(True).frame is None

    sim.advance_constant(0.0, 1e-3, {"ph": 0.0, "pl": 1.0})
    assert sim.bank.devices["pl"].tripped
    assert sim.side(True).frame == ()
