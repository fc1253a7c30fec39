"""The rest rule against every step taken.

An accumulator is at rest when its pin currents leave it as it is: each
trip device and damage timer is tripped, or at most its rating with a
zero over-timer, and each thermostat is closed at ambient with no coil
current. `advance_constant` leaves a device or damage timer at rest as
it is, and the frame crossings, idle jumps, error flag crossings and
resting pieces ask `_PinBank.moving` whether anything moves. These tests
run generated attacked buses as they are and with every frame run bit
by bit, every idle stretch sliced, every error flag driven and every
piece stepped, and require the same trace and summary.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine, irs
from canvolt.config import DamageParams
from canvolt.engine import run_scenario
from harness import attack, bus, counting, every_step, irs_config, per_bit, plan, senders, sliced_idle

PERIOD = 1e-3
DURATION_MS = 4


def device_config(name, rating):
    # a fast coil cools back to ambient within the run, where it rests again
    if name == "thermostat":
        return irs_config(name, tau_thermal=1e-5)
    if name == "driven_thermostat":
        # on P_H, which a CANL attack leaves without current: only the
        # bench drive heats the coil, through 40 degC, in the window
        return irs_config(name, pins="ph", tau_thermal=1e-5)
    if name == "slow_driven_thermostat":
        # on both pins, heated by the bench drive over many error flags
        return irs_config("driven_thermostat", tau_thermal=1e-4)
    return irs_config(name, rating=rating)


# a 100 mA rating sits between the two phase currents of a CANL pulse on
# a dominant bit (281 and 58 mA), so the over-timer runs and clears
# within a bit; a 300 mA pin limit lets that show without pin damage
MUTANT_CASE = dict(
    senders=[(0x10, b"\x01\x02", 0), (0x20, b"", 300)],
    kind="pulse_canl",
    start_us=0,
    width_us=3000,
    device="fuse",
    rating=0.1,
    i_max=0.3,
    duration_ms=DURATION_MS,
)


# a DoS keeps every frame in its window failing, and the coil heats at the
# bench drive through each error flag: crossing those flags as if the
# coil rested opens it later (the always-cross mutant)
FLAG_CASE = dict(
    senders=[(0x10, b"\x01\x02", 0), (0x20, b"", 300)],
    kind="dos",
    start_us=0,
    width_us=2000,
    device="slow_driven_thermostat",
    rating=0.1,
    i_max=0.3,
    duration_ms=50,
)


def outcomes(senders, kind, start_us, width_us, device, rating, i_max, duration_ms=DURATION_MS):
    """The run, plus how many rest verdicts found nothing to move, and the
    run with every frame run bit by bit, every idle stretch sliced, every
    error flag driven and every piece stepped."""
    cfg = bus(
        plan(senders), PERIOD, duration=duration_ms * 1e-3,
        attack=attack(kind, start_us * 1e-6, (start_us + width_us) * 1e-6),
        irs_config=device_config(device, rating), damage=DamageParams(i_max=i_max),
    )
    with counting(engine._PinBank, "moving") as rests:
        trace, summary = run_scenario(cfg)
    with per_bit(), sliced_idle(), every_step():
        return (trace, summary, sum(c.result == () for c in rests)), run_scenario(cfg)


@settings(max_examples=15, deadline=None)
@given(
    senders=senders(400, 2, 4),
    kind=st.sampled_from(["pulse_canl", "pulse_canh", "dos", "fra", "active"]),
    start_us=st.integers(0, 2000),
    width_us=st.integers(1, 2000),
    device=st.sampled_from(
        ["none", "fuse", "breaker", "resettable_fuse", "thermostat", "driven_thermostat"]
    ),
    rating=st.sampled_from([0.010, 0.1]),
    i_max=st.sampled_from([0.040, 0.3]),
    duration_ms=st.just(DURATION_MS),
)
@example(**MUTANT_CASE)
@example(**{**MUTANT_CASE, "device": "thermostat", "kind": "dos", "start_us": 0})
@example(**{**MUTANT_CASE, "device": "driven_thermostat", "kind": "dos", "start_us": 0})
@example(**FLAG_CASE)
def test_skipped_steps_match_every_step_taken(
    senders, kind, start_us, width_us, device, rating, i_max, duration_ms
):
    (trace, summary, skipped), (ref_trace, ref_summary) = outcomes(
        senders, kind, start_us, width_us, device, rating, i_max, duration_ms
    )
    assert skipped > 0
    assert trace.records == ref_trace.records
    assert summary == ref_summary


def test_skipping_while_an_over_timer_runs_is_caught():
    """A skip that ignores a non-zero over-timer lets the timer survive
    the low phase, so the fuse blows where the full step never trips it."""

    def mutant(self, i):
        return self.tripped or abs(i) <= self.rating

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irs.TripTimer, "at_rest", mutant)
        (trace, summary, _), _ = outcomes(**MUTANT_CASE)
    (_, ref_summary, _), (ref_trace, _) = outcomes(**MUTANT_CASE)
    assert ref_summary.device_trips == {}
    assert summary.device_trips != {}
    assert trace.records != ref_trace.records
