"""Acceptance gate: every criterion prints one PASS line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import csv
import random

import pytest

from canvolt.attacks import (
    ActiveOvercurrent,
    AttackClass,
    DoS,
    ForcedRetransmission,
    PulseAttack,
    classify_pin_combo,
    min_pulse_period,
    overcurrent_current,
    tau_bit_table,
)
from canvolt.electrical import (
    INPUT,
    OUTPUT_LOW,
    BusTopology,
    Input,
    OutputHigh,
    OutputLow,
    Pulse,
    TransceiverParams,
    solve_bus_detailed,
)
from canvolt.config import EcuSpec, IrsConfig, ScenarioConfig, SweepSpec
from canvolt.engine import run_scenario, run_sweep
from canvolt.irs import ThermostatCoil, thermostat_step
from canvolt.link import (
    BitTiming,
    Frame,
    bus_bits,
    decode_bitstream,
    dominant_to_recessive_transitions,
    encode_frame,
    frame_body_bits,
    stuff_bits,
)

FRAME = Frame(id=0x01, data=b"\x01")


def _ok(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def paper_scenario(attack=None, irs=None, duration=60.0):
    return ScenarioConfig(
        duration=duration,
        ecus=(
            EcuSpec("A", "vids-host"),
            EcuSpec("B", "logger"),
            EcuSpec("C", "sender", period=1.0, frame=FRAME),
        ),
        attack=attack,
        irs_config=irs,
    )


def sweep_scenario(attack, path, start, stop, step):
    return ScenarioConfig(
        duration=4.0,
        ecus=(
            EcuSpec("A", "vids-host"),
            EcuSpec("B", "logger"),
            EcuSpec("C", "sender", period=1.0, frame=FRAME),
        ),
        attack=attack,
        sweep=SweepSpec(path=path, start=start, stop=stop, step=step),
    )


def test_criterion_1_overcurrent_currents():
    passive = overcurrent_current("passive")
    active = overcurrent_current("active")
    assert abs(passive.amps - 0.0583) <= 1e-4
    assert abs(active.amps - 0.0833) <= 1e-4
    capped = overcurrent_current("active", source_limit=0.052)
    assert capped.amps == 0.052 and capped.exceeds_i_max
    _ok(1, "overcurrent 58.3 mA passive / 83.3 mA active / 52 mA capped")


def test_criterion_2_dos_threshold_sweep():
    cfg = sweep_scenario(DoS(t_start=1.0, t_end=3.0), "attack.v_attack_l", 0.1, 5.0, 0.1)
    points = run_sweep(cfg)
    assert len(points) == 50
    for p in points:
        assert p.success == (p.value >= 2.2 - 1e-9), f"wrong indicator at {p.value}"
    _ok(2, "blocking indicator steps exactly at 2.2 V on the 0.1 V grid")


def test_criterion_3_fra_threshold_sweep():
    cfg = sweep_scenario(
        ForcedRetransmission(t_start=1.0, t_end=3.0), "attack.v_attack_h", 2.5, 5.0, 0.5
    )
    points = run_sweep(cfg)
    flags = {p.value: p.success for p in points}
    assert flags == {2.5: False, 3.0: False, 3.5: False, 4.0: False, 4.5: True, 5.0: True}
    _ok(3, "forced retransmission first succeeds at exactly 4.5 V")


def test_criterion_4_tau_bit_table():
    reference = {2.5: 2.00e-6, 3.0: 2.24e-6, 3.5: 2.86e-6, 4.0: 2.98e-6, 4.5: 3.07e-6, 5.0: 3.16e-6}
    table = tau_bit_table()
    assert table[5.0] == pytest.approx(3.16e-6, abs=1e-12)
    for v, ref in reference.items():
        assert abs(table[v] - ref) / ref <= 0.12, f"tau_bit({v}) off by >12%"
    above = [table[v] for v in (3.5, 4.0, 4.5, 5.0)]
    assert all(a < b for a, b in zip(above, above[1:]))
    _ok(4, "bit-length table within 12%, 5.0 V exact, monotone above 3.5 V")


def test_criterion_5_pulse_minimum_periods():
    assert min_pulse_period("canl") == pytest.approx(680e-9, abs=1e-15)
    assert min_pulse_period("canh") == pytest.approx(570e-9, abs=1e-15)
    assert min_pulse_period("canl", timing=BitTiming(decode_hold=350e-9)) == pytest.approx(700e-9)
    for line, threshold in (("canl", 680e-9), ("canh", 570e-9)):
        cfg = sweep_scenario(
            PulseAttack(line=line, period=600e-9, t_start=1.0, t_end=3.0),
            "attack.period", 500e-9, 700e-9, 10e-9,
        )
        for p in run_sweep(cfg):
            assert p.success == (p.value >= threshold - 1e-12), f"{line} at {p.value}"
    _ok(5, "pulse thresholds 680 ns (CANL) / 570 ns (CANH); 700 ns bound at 350 ns hold")


def test_criterion_6_irs_timelines():
    attacks = {
        "dos": DoS(v_attack_l=5.0),
        "fra": ForcedRetransmission(v_attack_h=5.0),
        "pulse": PulseAttack(line="canl", period=100e-6, duty=0.5),
    }
    blocked = tuple(0 if 10 <= k < 30 else 1 for k in range(60))
    for name, attack in attacks.items():
        trace, bare = run_scenario(paper_scenario(attack))
        if name == "fra":
            assert bare.indicator == (1,) * 60
            retrans = [r for r in trace.records if r.kind == "Retransmission" and 10 <= r.t < 30]
            assert len(retrans) >= 20  # at least one per frame in the window
        else:
            assert bare.indicator == blocked
        _, fused = run_scenario(paper_scenario(attack, IrsConfig(device="fuse")))
        assert fused.indicator == (1,) * 60
        assert fused.messages_received == 60
    _ok(6, "fuse keeps 60/60 for dos/fra/pulse; bare dos+pulse drop 10-29, fra retransmits")


def test_criterion_7_retransmission_spacing():
    trace, _ = run_scenario(paper_scenario(ForcedRetransmission(v_attack_h=5.0), duration=12.0))
    sent = next(r for r in trace.records if r.kind == "FrameSent" and r.t >= 10.0)
    retry = next(r for r in trace.records if r.kind == "Retransmission")
    spacing = retry.t - sent.t
    assert abs(spacing - 132e-6) <= 13.2e-6
    _ok(7, f"frame-start spacing {spacing*1e6:.1f} us within 132 us +/- 10%")


def test_criterion_8_encoder_transition_count():
    # the seven transitions live in the id/data region; the stuffed
    # bitstream adds six more across CRC, delimiters, and ACK (13 total
    # on the acked wire), which is frozen here as the full-frame count
    body_portion = stuff_bits(frame_body_bits(FRAME))
    assert dominant_to_recessive_transitions(body_portion) == 7
    assert dominant_to_recessive_transitions(bus_bits(FRAME)) == 13
    _ok(8, "7 dominant->recessive transitions through the data field (13 full frame)")


def test_criterion_9_damage_model():
    _, bare = run_scenario(paper_scenario(ActiveOvercurrent(), duration=12.0))
    assert bare.damaged
    assert bare.damage_time == pytest.approx(10.0 + 1e-6, abs=1e-9)
    _, fused = run_scenario(
        paper_scenario(ActiveOvercurrent(), IrsConfig(device="fuse"), duration=12.0)
    )
    assert not fused.damaged
    _, leaky = run_scenario(
        paper_scenario(ActiveOvercurrent(), IrsConfig(device="resettable_fuse"), duration=12.0)
    )
    assert leaky.damaged
    _ok(9, "damage within 1 us bare, prevented by the fuse, persists through leakage")


def test_criterion_10_thermostat_cycle():
    t = ThermostatCoil()
    elapsed = 0.0
    while not t.open and elapsed < 5.0:
        t = thermostat_step(t, 1.0, 0.05)
        elapsed += 0.05
    assert t.open and elapsed < 5.0
    opened_after = elapsed
    while t.open and elapsed < opened_after + 30.0:
        t = thermostat_step(t, 0.0, 0.05)
        elapsed += 0.05
    assert not t.open and elapsed - opened_after < 30.0
    # closed device leaves the measurement path untouched
    bare = solve_bus_detailed({"C": True}, {}).voltages
    tapped = solve_bus_detailed({"C": True}, {"A": (INPUT, INPUT)}).voltages
    assert bare == tapped
    _ok(10, f"thermostat opens at {opened_after:.2f} s, recloses, stays transparent")


def test_criterion_11_property_suites():
    rng = random.Random(0xC0FFEE)
    for _ in range(10_000):
        f = Frame(
            id=rng.randrange(2048),
            data=bytes(rng.randrange(256) for _ in range(rng.randrange(9))),
        )
        bits = encode_frame(f)
        assert decode_bitstream(bits) == f
        run, prev = 0, None
        for b in bits[: len(bits) - 10]:
            run = run + 1 if b == prev else 1
            prev = b
            assert run <= 5

    modes = [
        lambda: INPUT,
        lambda: OUTPUT_LOW,
        lambda: OutputHigh(round(rng.uniform(0.1, 5.0), 3)),
    ]
    for _ in range(1000):
        sol = solve_bus_detailed(
            {"C": rng.random() < 0.5},
            {"A": (rng.choice(modes)(), rng.choice(modes)())},
            BusTopology(),
            TransceiverParams(),
        )
        pins = sol.pin_currents["A"]
        res_h = sol.i_driver_h - sol.i_rload - pins.i_ph
        res_l = sol.i_rload - sol.i_sink_l - pins.i_pl
        assert abs(res_h) < 1e-9 and abs(res_l) < 1e-9

    def render(trace):
        buf = io.StringIO()
        w = csv.writer(buf)
        for r in trace.records:
            w.writerow([repr(r.t), r.kind, r.ecu, r.line, repr(r.value), r.detail])
        return buf.getvalue().encode()

    cfg = paper_scenario(DoS(v_attack_l=5.0), IrsConfig(device="fuse"), duration=20.0)
    first, _ = run_scenario(cfg)
    second, _ = run_scenario(cfg)
    assert render(first) == render(second)

    table = {
        (Input(), Input()): AttackClass.NOT_AN_ATTACK,
        (Input(), OutputHigh(5.0)): AttackClass.DOS,
        (Input(), OutputLow()): AttackClass.PASSIVE_OVERCURRENT,
        (OutputHigh(5.0), Input()): AttackClass.FORCED_RETRANSMISSION,
        (OutputHigh(5.0), OutputLow()): AttackClass.ACTIVE_OVERCURRENT,
        (OutputLow(), Input()): AttackClass.DOS_OR_PASSIVE_OVERCURRENT,
        (OutputLow(), OutputHigh(5.0)): AttackClass.DOS_OR_ACTIVE_OVERCURRENT,
        (OutputLow(), OutputLow()): AttackClass.DOS_OR_PASSIVE_OVERCURRENT,
        (Pulse(1e-6, 0.5, 5.0), Input()): AttackClass.PULSE,
        (Input(), Pulse(1e-6, 0.5, 5.0)): AttackClass.PULSE,
    }
    assert len(table) == 10
    for (p_h, p_l), expected in table.items():
        assert classify_pin_combo(p_h, p_l) is expected

    _ok(11, "codec x10000, stuffing, Kirchhoff x1000, determinism, 10-row pin table")
