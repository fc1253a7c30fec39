"""Protective-device state machines."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt.cli import parse_config
from canvolt.config import IrsConfig
from canvolt.engine import run_scenario
from canvolt.irs import (
    BreakerState,
    FuseState,
    NotTripped,
    ResettableFuseState,
    ThermostatCoil,
    TripTimer,
    device_step,
    resettable_fuse_current,
    thermostat_step,
)

BASELINE = Path(__file__).resolve().parents[1] / "configs" / "baseline.ini"


def test_fuse_blows_after_opening_time():
    f = FuseState()
    f = f.advance(0.0583, 0.5e-6)
    assert not f.tripped
    f = f.advance(0.0583, 0.5e-6)
    assert f.tripped


def test_fuse_never_blows_below_rating():
    f = FuseState()
    for _ in range(100):
        f = f.advance(0.005, 1e-3)
    assert not f.tripped


def test_fuse_timer_resets_on_gap():
    f = FuseState()
    f = f.advance(0.060, 0.9e-6)
    f = f.advance(0.0, 1e-6)
    assert f.over_timer == 0.0
    f = f.advance(0.060, 0.9e-6)
    assert not f.tripped


def test_blown_fuse_is_absorbing():
    f = FuseState().advance(0.060, 1e-6)
    assert f.tripped
    for i in (0.0, 0.005, 0.5):
        f = f.advance(i, 1.0)
        assert f.tripped


def test_fuse_trip_bounded_by_one_step():
    f = FuseState()
    dt = 0.3e-6
    t = 0.0
    while not f.tripped:
        f = f.advance(0.0583, dt)
        t += dt
    assert t <= f.opening_time + dt


def test_fuse_uses_current_magnitude():
    f = FuseState().advance(-0.28125, 1e-6)
    assert f.tripped


def test_breaker_trip_and_manual_reset():
    b = BreakerState().advance(0.0583, 1e-6)
    assert b.tripped
    b = b.reset()
    assert not b.tripped and b.over_timer == 0.0
    b = b.advance(0.0583, 1e-6)
    assert b.tripped  # re-trips under sustained overcurrent


def test_breaker_reset_requires_trip():
    with pytest.raises(NotTripped):
        BreakerState().reset()


def test_resettable_fuse_leaks_when_open():
    r = ResettableFuseState().advance(0.281, 1e-6)
    assert r.tripped
    assert resettable_fuse_current(r, 0.281) == pytest.approx(0.100)
    assert resettable_fuse_current(r, 0.005) == pytest.approx(0.005)
    assert resettable_fuse_current(r, -0.281) == pytest.approx(-0.100)


def test_resettable_fuse_closed_is_identity():
    r = ResettableFuseState()
    assert resettable_fuse_current(r, 0.281) == 0.281


def test_thermostat_opens_at_one_amp():
    t = ThermostatCoil()
    elapsed = 0.0
    while not t.open and elapsed < 5.0:
        t = thermostat_step(t, 1.0, 0.1)
        elapsed += 0.1
    assert t.open
    assert elapsed < 5.0
    assert t.temp > t.t_limit


def _heat(t, i, duration, dt=0.1):
    """Step the coil through any flips at constant current."""
    for _ in range(round(duration / dt)):
        t = thermostat_step(t, i, dt)
    return t


def test_thermostat_recloses_when_cooled():
    t = _heat(ThermostatCoil(), 1.0, 5.0)
    assert t.open
    elapsed = 0.0
    while t.open and elapsed < 30.0:
        t = thermostat_step(t, 0.0, 0.1)
        elapsed += 0.1
    assert not t.open
    assert elapsed <= 5.0 * t.tau_thermal
    assert t.temp < t.t_limit - t.hysteresis + 0.2


def test_thermostat_ignores_tiny_currents():
    t, elapsed = ThermostatCoil().step(1e-6, 60.0)
    assert elapsed == pytest.approx(60.0)
    assert not t.open
    assert t.temp == pytest.approx(25.0, abs=0.01)


def test_thermostat_steady_state_at_one_amp():
    t = _heat(ThermostatCoil(), 1.0, 40.0)
    assert t.temp == pytest.approx(65.0, abs=0.5)


def test_a_coil_step_stops_at_the_first_flip():
    # at one amp the coil passes 40 degC after 2 ln(40/25) = 0.94 s
    t, elapsed = ThermostatCoil().step(1.0, 5.0)
    assert t.open
    assert elapsed == pytest.approx(1.0)  # the 0.2 s step that crossed the limit
    assert t.temp == pytest.approx(65.0 - 40.0 * 0.9**5)
    # the same grid stepped by hand flips on the same step
    by_hand = ThermostatCoil()
    for _ in range(5):
        by_hand = thermostat_step(by_hand, 1.0, 0.2)
    assert by_hand == t


def test_device_step_runs_a_thermostat_through_every_flip():
    assert device_step(ThermostatCoil(), 1.0, 40.0).temp == pytest.approx(65.0, abs=0.5)
    assert device_step(FuseState(), 0.060, 1e-6).tripped


@settings(max_examples=100, deadline=None)
@given(
    temp=st.sampled_from([25.0, 25.0 + 5e-7, 25.0 - 5e-7, 25.0 + 1e-3, 30.0, 39.0, 45.0])
    | st.floats(0.0, 100.0),
    is_open=st.booleans(),
    i=st.sampled_from([0.0, -0.0, 1e-3, -0.5, 1.0]),
    dt=st.floats(1e-3, 10.0),
)
def test_a_coil_rests_exactly_where_a_step_leaves_it_closed_at_ambient(temp, is_open, i, dt):
    """The engine skips a coil's step when the coil is at rest: a resting
    coil stays closed within 1e-6 degC of ambient over any step, and a step
    moves every other coil."""
    coil = ThermostatCoil(temp=temp, open=is_open)
    after, _ = coil.step(i, dt)
    if coil.at_rest(i):
        assert not after.open and abs(after.temp - coil.t_ambient) < 1e-6
    else:
        assert after != coil


def test_thermostat_step_rejects_coarse_dt():
    with pytest.raises(ValueError):
        thermostat_step(ThermostatCoil(), 0.0, 1.0)
    with pytest.raises(ValueError):
        thermostat_step(ThermostatCoil(), 0.0, 0.0)


def test_trip_timer_time_to_trip():
    t = TripTimer(rating=0.040, opening_time=1e-6)
    assert t.time_to_trip(0.040) == float("inf")  # at the rating is not over it
    assert t.time_to_trip(-0.0583) == 1e-6
    t = t.advance(0.0583, 0.4e-6)
    assert t.time_to_trip(0.0583) == pytest.approx(0.6e-6)
    assert not t.advance(0.0583, 0.5e-6).tripped
    assert t.advance(0.0583, t.time_to_trip(0.0583)).tripped
    assert t.advance(0.0583, 1.0).time_to_trip(0.0583) == float("inf")


def test_closed_device_in_series_with_input_pin_is_transparent():
    # with no attack the host's pins are inputs and draw nothing, so a
    # device on either or both of them leaves the run unchanged
    cfg = parse_config(BASELINE.read_text())
    bare_trace, bare_summary = run_scenario(cfg)
    for device in ("fuse", "breaker", "resettable_fuse", "thermostat"):
        for pins in ("both", "ph", "pl"):
            irs = IrsConfig(device=device, pins=pins)
            trace, summary = run_scenario(replace(cfg, irs_config=irs))
            assert trace.records == bare_trace.records, (device, pins)
            assert summary == bare_summary, (device, pins)


def devices():
    """Every device kind, in any state its timers and switch can reach."""
    timer = dict(
        rating=st.floats(0.0, 0.1), opening_time=st.floats(1e-7, 1e-5),
        over_timer=st.floats(0.0, 1e-5), tripped=st.booleans(),
    )
    return st.one_of(
        st.builds(FuseState, **timer),
        st.builds(BreakerState, **timer),
        st.builds(ResettableFuseState, leakage_current=st.floats(0.0, 0.2), **timer),
        st.builds(
            ThermostatCoil, temp=st.floats(0.0, 100.0), open=st.booleans(),
            tau_thermal=st.floats(0.1, 10.0),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(dev=devices(), i=st.floats(-2.0, 2.0), dt=st.floats(1e-9, 20.0))
def test_every_device_steps_to_dt_or_to_its_first_change(dev, i, dt):
    """`step` ends at dt with the switch as it was, or no later than dt at
    its first open/close change; `device_step` resumes it from each change,
    and a device off the bus passes nothing."""
    after, elapsed = dev.step(i, dt)
    if after.open == dev.open:
        assert elapsed == dt
    else:
        assert 0.0 <= elapsed <= dt
    stepped, left = dev, dt
    while left > 0.0:
        stepped, elapsed = stepped.step(i, left)
        left -= elapsed
    assert device_step(dev, i, dt) == stepped
    if not dev.conducting:
        assert dev.passes(i) == 0.0
    elif not dev.open:
        assert dev.passes(i) == i


def fold_steps(dev, i, spans):
    """`step` over each span in turn, a span skipped while at rest, as the
    engine steps a device piece by piece; None at an open/close change."""
    state = dev
    for dt in spans:
        if not state.at_rest(i):
            state, _ = state.step(i, dt)
            if state.open != dev.open:
                return None
    return state


def test_a_device_folds_its_steps_over_the_spans():
    """`steps` is `step` folded over the spans with the at-rest skip, and
    None exactly when some span's step opens or closes the device."""
    outcomes = set()

    @settings(max_examples=300, deadline=None)
    @given(
        dev=devices(),
        i=st.sampled_from([0.0, -0.0, 1e-3, 0.05, -0.5, 1.0]) | st.floats(-2.0, 2.0),
        # each span in units of the device's own time: tau_thermal/10 for
        # a coil, the opening time for a trip device; shorter and longer
        scales=st.lists(st.floats(1e-3, 3.0), max_size=40),
    )
    @example(dev=ThermostatCoil(temp=39.9), i=1.0, scales=[0.3, 1.0, 2.5])  # opens
    @example(dev=FuseState(), i=0.06, scales=[0.4, 0.4, 0.4])  # blows in the third
    @example(dev=BreakerState(over_timer=5e-7), i=0.005, scales=[0.5, 2.0])  # clears, rests
    def check(dev, i, scales):
        unit = dev.tau_thermal / 10.0 if isinstance(dev, ThermostatCoil) else dev.opening_time
        spans = [s * unit for s in scales]
        folded = dev.steps(i, spans)
        assert folded == fold_steps(dev, i, spans)
        outcomes.add(folded is None)

    check()
    assert outcomes == {False, True}


def test_a_coil_fold_skips_the_spans_after_it_comes_to_rest():
    """A fast coil cools to within 1e-6 degC of ambient on the way; the
    later spans are skipped, so the coil stays where it came to rest."""
    coil = ThermostatCoil(temp=25.0 + 2e-6, tau_thermal=1e-5)
    spans = [1e-6] * 40
    folded = coil.steps(0.0, spans)
    assert folded == fold_steps(coil, 0.0, spans)
    assert folded.at_rest(0.0)
    assert folded.temp != device_step(coil, 0.0, sum(spans)).temp


@pytest.mark.parametrize(
    "coil, i, dt, temp, is_open, elapsed",
    [
        (ThermostatCoil(tau_thermal=1.7), 0.93, 0.41, 32.727118352941176, False, 0.41),
        (ThermostatCoil(temp=39.9, tau_thermal=1.3), 0.77, 5.0, 40.7816, True, 0.13),
        (ThermostatCoil(temp=44.0, open=True, tau_thermal=0.9), 0.0, 3.3, 37.4659, False, 0.36),
        (ThermostatCoil(temp=30.0, tau_thermal=1e-4), 0.5, 7.3e-5, 32.680260035, False, 7.3e-5),
    ],
)
def test_a_coil_step_keeps_its_floats(coil, i, dt, temp, is_open, elapsed):
    """Outputs of `ThermostatCoil.step` as recorded before it shared its
    Euler law with `steps`; equal to the last bit."""
    after, took = coil.step(i, dt)
    assert (after.temp, after.open, took) == (temp, is_open, elapsed)


@pytest.mark.parametrize(
    "coil, i, dt, temp, is_open",
    [
        (ThermostatCoil(temp=39.99, tau_thermal=1.1), 0.93, 0.11, 41.9506, True),
        (ThermostatCoil(temp=38.01, open=True, tau_thermal=0.7), 0.0, 0.013, 37.768385714285714, False),
    ],
)
def test_thermostat_step_keeps_its_floats(coil, i, dt, temp, is_open):
    after = thermostat_step(coil, i, dt)
    assert (after.temp, after.open) == (temp, is_open)
