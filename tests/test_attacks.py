"""Attack classification, pin overrides, and threshold predictors."""

from dataclasses import replace
from pathlib import Path

import pytest

from canvolt.attacks import (
    ActiveOvercurrent,
    AttackClass,
    DoS,
    ForcedRetransmission,
    PassiveOvercurrent,
    PulseAttack,
    classify_pin_combo,
    dominant_blocked,
    fra_ack_delimiter_corrupted,
    min_dos_voltage,
    min_fra_voltage,
    min_pulse_period,
    overcurrent_current,
    pin_override,
    pulse_blocking_duration,
    pulse_blocks_bits,
    tau_bit_table,
)
from canvolt.cli import parse_config
from canvolt.config import set_sweep_value
from canvolt.engine import _Sim
from canvolt.electrical import INPUT, Input, OutputHigh, OutputLow, Pulse
from canvolt.irs import FuseState
from canvolt.link import BitTiming

CONFIGS = Path(__file__).parent.parent / "configs"

PIN_TABLE = [
    (Input(), Input(), AttackClass.NOT_AN_ATTACK),
    (Input(), OutputHigh(5.0), AttackClass.DOS),
    (Input(), OutputLow(), AttackClass.PASSIVE_OVERCURRENT),
    (OutputHigh(5.0), Input(), AttackClass.FORCED_RETRANSMISSION),
    (OutputHigh(5.0), OutputLow(), AttackClass.ACTIVE_OVERCURRENT),
    (OutputLow(), Input(), AttackClass.DOS_OR_PASSIVE_OVERCURRENT),
    (OutputLow(), OutputHigh(5.0), AttackClass.DOS_OR_ACTIVE_OVERCURRENT),
    (OutputLow(), OutputLow(), AttackClass.DOS_OR_PASSIVE_OVERCURRENT),
    (Pulse(1e-6, 0.5, 5.0), Input(), AttackClass.PULSE),
    (Input(), Pulse(1e-6, 0.5, 5.0), AttackClass.PULSE),
]


@pytest.mark.parametrize("p_h,p_l,expected", PIN_TABLE)
def test_pin_combo_table(p_h, p_l, expected):
    assert classify_pin_combo(p_h, p_l) is expected


def test_classification_total_over_all_shapes():
    shapes = [Input(), OutputHigh(5.0), OutputLow(), Pulse(1e-6, 0.5, 5.0)]
    for p_h in shapes:
        for p_l in shapes:
            assert isinstance(classify_pin_combo(p_h, p_l), AttackClass)


def test_pin_override_outside_window_is_passive():
    for spec in (DoS(), ForcedRetransmission(), PassiveOvercurrent(), ActiveOvercurrent()):
        assert pin_override(spec, 5.0) == (INPUT, INPUT)
        assert pin_override(spec, 30.0) == (INPUT, INPUT)
    assert pin_override(None, 15.0) == (INPUT, INPUT)


def test_pin_override_inside_window():
    assert pin_override(DoS(v_attack_l=5.0), 15.0) == (INPUT, OutputHigh(5.0))
    assert pin_override(ForcedRetransmission(v_attack_h=4.5), 15.0) == (OutputHigh(4.5), INPUT)
    assert pin_override(PassiveOvercurrent(), 15.0) == (INPUT, OutputLow())
    assert pin_override(ActiveOvercurrent(), 15.0) == (OutputHigh(5.0), OutputLow())


def test_pin_override_pulse_phase_arithmetic():
    spec = PulseAttack(line="canl", period=1e-6, duty=0.5)
    assert pin_override(spec, 10.0 + 0.25e-6) == (INPUT, OutputHigh(5.0))
    assert pin_override(spec, 10.0 + 0.75e-6) == (INPUT, OutputLow())
    high = PulseAttack(line="canh", period=1e-6, duty=0.5)
    assert pin_override(high, 10.0 + 0.25e-6) == (OutputHigh(5.0), INPUT)


def test_override_class_matches_spec_class():
    cases = [
        (DoS(), AttackClass.DOS),
        (ForcedRetransmission(), AttackClass.FORCED_RETRANSMISSION),
        (PassiveOvercurrent(), AttackClass.PASSIVE_OVERCURRENT),
        (ActiveOvercurrent(), AttackClass.ACTIVE_OVERCURRENT),
        (PulseAttack(line="canl"), AttackClass.PULSE),
        (PulseAttack(line="canh"), AttackClass.PULSE),
    ]
    for spec, expected in cases:
        for t in (10.0, 17.3, 29.999):
            p_h, p_l = pin_override(spec, t)
            got = classify_pin_combo(p_h, p_l)
            if expected is AttackClass.PULSE:
                # the instantaneous pulse level looks like its static mode
                assert got in (
                    AttackClass.PULSE,
                    AttackClass.DOS,
                    AttackClass.PASSIVE_OVERCURRENT,
                    AttackClass.FORCED_RETRANSMISSION,
                    AttackClass.DOS_OR_PASSIVE_OVERCURRENT,
                )
            else:
                assert got is expected


def test_window_validation():
    with pytest.raises(ValueError):
        DoS(t_start=5.0, t_end=5.0)
    with pytest.raises(ValueError):
        PulseAttack(duty=1.5)
    with pytest.raises(ValueError):
        PulseAttack(line="mid")


def test_overcurrent_values():
    passive = overcurrent_current("passive")
    active = overcurrent_current("active")
    assert passive.amps == pytest.approx(0.05833, abs=1e-4)
    assert active.amps == pytest.approx(0.08333, abs=1e-4)
    assert passive.exceeds_i_max and active.exceeds_i_max


def test_overcurrent_with_supply_limit():
    capped = overcurrent_current("active", source_limit=0.052)
    assert capped.amps == 0.052
    assert capped.exceeds_i_max
    assert not overcurrent_current("passive", i_max=0.060).exceeds_i_max
    with pytest.raises(ValueError):
        overcurrent_current("sideways")


def test_dos_threshold_is_two_point_two():
    assert min_dos_voltage() == pytest.approx(2.2)
    assert dominant_blocked(2.2)
    assert not dominant_blocked(2.1)
    assert dominant_blocked(5.0)
    assert not dominant_blocked(0.1)


def test_fra_threshold_is_four_point_five():
    assert min_fra_voltage() == pytest.approx(4.5)
    assert not fra_ack_delimiter_corrupted(4.0)
    assert fra_ack_delimiter_corrupted(4.5)
    assert fra_ack_delimiter_corrupted(5.0)
    assert not fra_ack_delimiter_corrupted(2.5)


def test_pulse_minimum_periods():
    assert min_pulse_period("canl") == pytest.approx(680e-9)
    assert min_pulse_period("canh") == pytest.approx(570e-9)


def test_pulse_analytic_bound_at_350ns_hold():
    strict = BitTiming(decode_hold=350e-9)
    assert min_pulse_period("canl", timing=strict) == pytest.approx(700e-9)


def test_pulse_blocking_durations():
    assert pulse_blocking_duration("canl", 680e-9) == pytest.approx(340e-9)
    assert pulse_blocking_duration("canh", 570e-9) == pytest.approx(340e-9)
    with pytest.raises(ValueError):
        pulse_blocking_duration("mid", 680e-9)


def test_tau_bit_table_matches_reference_within_tolerance():
    reference = {2.5: 2.00e-6, 3.0: 2.24e-6, 3.5: 2.86e-6, 4.0: 2.98e-6, 4.5: 3.07e-6, 5.0: 3.16e-6}
    table = tau_bit_table()
    assert table[5.0] == pytest.approx(3.16e-6, abs=1e-12)
    for v, ref in reference.items():
        assert abs(table[v] - ref) / ref <= 0.12


def sweep_sims(name):
    """A `_Sim` per grid point of a shipped sweep config."""
    cfg = parse_config((CONFIGS / f"{name}.ini").read_text())
    for value in cfg.sweep.values():
        yield value, _Sim(set_sweep_value(cfg, cfg.sweep.path, value))


def blocking_outside_the_window_or_cut_off(sim, pin):
    """Whether `attack_blocking` parks just before the window, at its end,
    or inside it once the device on `pin` has blown. The blown fuse drops
    the kept window verdicts, as every engine step that moves an
    accumulator does."""
    a = sim.attack
    outside = [sim.attack_blocking(t) for t in (a.t_start - 1e-6, a.t_end, a.t_end + 1.0)]
    sim.bank.devices[pin] = FuseState(tripped=True)
    sim.resting.clear()
    return any(outside) or sim.attack_blocking(0.5 * (a.t_start + a.t_end))


@pytest.mark.parametrize("name, first_blocking", [
    ("pulse_canl_sweep", 680e-9),
    ("pulse_canh_sweep", 570e-9),
])
def test_the_steady_rule_agrees_with_pulse_blocks_bits(name, first_blocking):
    """At full connectivity, the engine's steady rule passes a dominant bit
    under a sweep's pulse exactly where the predictor says it is not
    blocked, and parking inside the window follows it; the first point it
    fails is the paper's threshold. Outside the window, or once the pulsed
    pin's fuse has blown, nothing parks."""
    failing = []
    for period, sim in sweep_sims(name):
        levels = tuple(sim.solved(True, pins)[0].voltages.v_diff for pins in sim.window_pins)
        a = sim.attack
        blocks = pulse_blocks_bits(
            a.line, a.period, a.duty, sim.timing, sim.cfg.params.transition_extension
        )
        assert sim.phases_read_driven(True, levels) is not blocks, period
        assert sim.attack_blocking(0.5 * (a.t_start + a.t_end)) is blocks, period
        pulsed = "ph" if a.line == "canh" else "pl"
        assert not blocking_outside_the_window_or_cut_off(sim, pulsed), period
        if blocks:
            failing.append(period)
    assert failing[0] == pytest.approx(first_blocking, abs=1e-12)


def test_dos_parking_agrees_with_dominant_blocked():
    """Over the DoS sweep's 0.1-5.0 V grid, a failed attempt in the window
    parks exactly where the predictor says the raised CANL blocks a
    dominant bit, and nowhere once the CANL pin's fuse has blown."""
    for v, sim in sweep_sims("dos_sweep"):
        a = sim.attack
        blocked = dominant_blocked(v, sim.plan.params, sim.plan.topo)
        assert sim.attack_blocking(0.5 * (a.t_start + a.t_end)) is blocked, v
        assert not blocking_outside_the_window_or_cut_off(sim, "pl"), v


def test_forced_retransmission_and_overcurrent_never_park():
    """A forced retransmission succeeds by a retransmission in its window,
    so it never parks, not even at 2.0 V, where no dominant bit engages
    the comparator; nor does an overcurrent."""
    cfg = parse_config((CONFIGS / "fra_sweep.ini").read_text())
    window = dict(t_start=cfg.attack.t_start, t_end=cfg.attack.t_end, node=cfg.attack.node)
    attacks = [ForcedRetransmission(v_attack_h=v, **window) for v in (2.0, 2.5, 3.5, 4.5, 5.0)]
    attacks += [ActiveOvercurrent(**window), PassiveOvercurrent(**window)]
    for attack in attacks:
        sim = _Sim(replace(cfg, attack=attack, sweep=None))
        for t in (attack.t_start, 0.5 * (attack.t_start + attack.t_end), attack.t_end - 1e-6):
            assert not sim.attack_blocking(t), (attack, t)
