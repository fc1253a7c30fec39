"""Bus DC solver, recovery waveform, and bit-length measurement."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canvolt.electrical import (
    INPUT,
    OUTPUT_LOW,
    BusTopology,
    ConflictingSources,
    InvalidVoltage,
    LineVoltages,
    OutputHigh,
    Pulse,
    PulseClock,
    TransceiverParams,
    TAU_RC_DEFAULT,
    measure_tau_bit,
    recovery_waveform,
    solve_bus,
    solve_bus_detailed,
    time_to_reach,
)


def test_default_rails_resolve_to_nominal():
    p = TransceiverParams()
    assert p.v_dominant_canh == pytest.approx(3.5, abs=1e-12)
    assert p.v_dominant_canl == pytest.approx(1.5, abs=1e-12)
    assert BusTopology().r_load == 60.0


def test_idle_bus_sits_at_reference():
    v, c = solve_bus({"C": False}, {"A": (INPUT, INPUT)})
    assert (v.v_canh, v.v_canl) == (2.5, 2.5)
    assert v.v_diff == 0.0
    assert c["A"].i_ph == 0.0 and c["A"].i_pl == 0.0


def test_dominant_bit_nominal_levels():
    v, _ = solve_bus({"C": True}, {"A": (INPUT, INPUT)})
    assert v.v_canh == pytest.approx(3.5, abs=1e-12)
    assert v.v_canl == pytest.approx(1.5, abs=1e-12)
    assert v.v_diff == pytest.approx(2.0, abs=1e-12)


def test_grounded_canl_draws_supply_current_into_the_pin():
    v, c = solve_bus({"C": True}, {"A": (INPUT, OUTPUT_LOW)})
    assert c["A"].i_pl == pytest.approx(0.0583333, abs=1e-4)
    assert v.v_canh == pytest.approx(3.5, abs=1e-12)


def test_both_pins_driven_pushes_current_across_the_bus():
    for dominant in (True, False):
        v, c = solve_bus({"C": dominant}, {"A": (OutputHigh(5.0), OUTPUT_LOW)})
        assert c["A"].i_pl == pytest.approx(5.0 / 60.0, abs=1e-12)
        assert c["A"].i_ph == pytest.approx(-5.0 / 60.0, abs=1e-12)
        assert v.v_diff == pytest.approx(5.0, abs=1e-12)


def test_raised_canl_sources_through_the_sink_path():
    v, c = solve_bus({"C": True}, {"A": (INPUT, OutputHigh(5.0))})
    # (5.0 - 1.4) / 12.8 out of the pin
    assert c["A"].i_pl == pytest.approx(-0.28125, abs=1e-12)
    assert v.v_diff == 0.0  # pull-up blocked above its rail


def test_raised_canh_feeds_the_sink_through_the_terminators():
    v, c = solve_bus({"C": True}, {"A": (OutputHigh(5.0), INPUT)})
    assert c["A"].i_ph == pytest.approx(-(5.0 - 1.5) / 60.0, abs=1e-12)
    assert v.v_canl == pytest.approx(1.5, abs=1e-12)
    # recessive bits carry nothing
    v, c = solve_bus({"C": False}, {"A": (OutputHigh(5.0), INPUT)})
    assert v.v_diff == 0.0
    assert c["A"].i_ph == 0.0


def test_counter_voltage_engages_the_drive_impedance():
    v, _ = solve_bus({"C": True}, {"A": (INPUT, OutputHigh(2.2))})
    assert v.v_diff == pytest.approx((3.5 - 2.2) * 60.0 / 86.7, abs=1e-12)
    assert v.v_diff < 0.9


def test_clamp_above_rail_blocks_the_driver():
    sol = solve_bus_detailed({"C": True}, {"A": (INPUT, OutputHigh(4.0))})
    assert sol.voltages.v_canh == 4.0
    assert sol.i_driver_h == 0.0
    assert sol.i_rload == 0.0


def test_two_sources_on_one_line_rejected():
    pins = {"A": (INPUT, OutputHigh(5.0)), "B": (INPUT, OUTPUT_LOW)}
    with pytest.raises(ConflictingSources):
        solve_bus({"C": True}, pins)


def test_pulse_pin_must_be_resolved_first():
    with pytest.raises(ValueError):
        solve_bus({"C": True}, {"A": (Pulse(1e-6, 0.5, 5.0), INPUT)})


def test_line_voltages_reject_nan():
    with pytest.raises(InvalidVoltage):
        LineVoltages(float("nan"), 2.5)


def _node_residuals(sol, params, topo):
    # reconstruct the element laws and check both line nodes balance
    i_pin_h = sum(pc.i_ph for pc in sol.pin_currents.values())
    i_pin_l = sum(pc.i_pl for pc in sol.pin_currents.values())
    res_h = sol.i_driver_h - sol.i_rload - i_pin_h
    res_l = sol.i_rload - sol.i_sink_l - i_pin_l
    return res_h, res_l


def test_kirchhoff_on_random_instances():
    rng = random.Random(20240117)
    modes = [
        lambda: INPUT,
        lambda: OUTPUT_LOW,
        lambda: OutputHigh(round(rng.uniform(0.1, 5.0), 3)),
    ]
    params = TransceiverParams()
    topo = BusTopology()
    for _ in range(1000):
        p_h = rng.choice(modes)()
        p_l = rng.choice(modes)()
        dominant = rng.random() < 0.5
        sol = solve_bus_detailed({"C": dominant}, {"A": (p_h, p_l)}, topo, params)
        res_h, res_l = _node_residuals(sol, params, topo)
        assert abs(res_h) < 1e-9
        assert abs(res_l) < 1e-9


def test_reverse_blocking_property():
    for level in (3.5, 3.6, 4.2, 5.0):
        sol = solve_bus_detailed({"C": True}, {"A": (INPUT, OutputHigh(level))})
        assert sol.i_driver_h == 0.0


def test_input_mode_pins_never_draw():
    sol = solve_bus_detailed({"C": True}, {"A": (INPUT, INPUT)})
    assert sol.pin_currents["A"].i_ph == 0.0
    assert sol.pin_currents["A"].i_pl == 0.0


def test_recovery_waveform_shape():
    v = recovery_waveform(1.5, 5.0, TAU_RC_DEFAULT)
    assert v(0.0) == pytest.approx(1.5)
    # time to 90% of 5.0 V is the calibration anchor
    t90 = time_to_reach(1.5, 5.0, TAU_RC_DEFAULT, 4.5)
    assert t90 == pytest.approx(1.16e-6, rel=1e-9)
    assert v(t90) == pytest.approx(4.5, rel=1e-9)
    assert abs(v(1.0) - 5.0) < 1e-9  # asymptote


def test_recovery_waveform_degenerate_and_errors():
    v = recovery_waveform(2.5, 2.5, 1e-6)
    assert v(0.0) == v(5e-6) == 2.5
    with pytest.raises(ValueError):
        recovery_waveform(1.5, 5.0, 0.0)
    assert time_to_reach(1.5, 5.0, 1e-6, 6.0) == math.inf


def test_tau_bit_anchor_and_nominal():
    bit = 2e-6
    assert measure_tau_bit(bit, 5.0) == pytest.approx(3.16e-6, abs=1e-12)
    assert measure_tau_bit(bit, None) == pytest.approx(2.1e-6, abs=1e-12)
    assert measure_tau_bit(bit, 2.5) == pytest.approx(2.1e-6, abs=1e-12)
    with pytest.raises(InvalidVoltage):
        measure_tau_bit(bit, -1.0)


def test_tau_bit_monotone_above_three_and_a_half():
    bit = 2e-6
    values = [measure_tau_bit(bit, v) for v in (3.5, 3.75, 4.0, 4.5, 5.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_pulse_normalization():
    with pytest.raises(ValueError):
        Pulse(1e-6, 1.5, 5.0)


def test_pulse_clock_phases():
    clock = PulseClock(0.0, 1e-6, 0.5e-6)
    assert clock.phase(0.25e-6) == 0
    assert clock.phase(0.75e-6) == 1
    assert clock.phase(1.25e-6) == 0


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from([0.0, 10.0, 3.6e3, 8.64e4, 1e6]),
    offset=st.floats(-1e-3, 1e-3),
    period=st.floats(1e-7, 1e-4),
    duty=st.floats(0.01, 0.99),
    cursor=st.floats(-1e-3, 1e-3),
    fraction=st.floats(0.0, 1.0),
)
def test_the_clock_holds_its_phase_up_to_the_next_edge(base, offset, period, duty, cursor, fraction):
    """next_edge(a) lies after a, within the longer phase; the phase is
    constant on (a, next_edge(a)), away from the float rounding at either
    end, and is the phase test written out here."""
    origin, high = base + offset, duty * period
    clock = PulseClock(origin, period, high)
    a = base + cursor
    edge = clock.next_edge(a)
    assert a < edge
    rounding = 64 * math.ulp(abs(base) + 1.0)
    assert edge - a <= max(high, period - high) + rounding
    phases = set()
    for f in (fraction, 0.5):
        t = a + f * (edge - a)
        if min(t - a, edge - t) > rounding:
            phase = clock.phase(t)
            assert phase == (0 if (t - origin) % period < high else 1)
            phases.add(phase)
    assert len(phases) <= 1


def test_the_unbounded_clock_is_high_at_every_time():
    clock = PulseClock()
    assert clock.lengths == (math.inf,)
    for t in (-1e6, 0.0, 1e6):
        assert clock.phase(t) == 0
        assert clock.next_edge(t) == math.inf
