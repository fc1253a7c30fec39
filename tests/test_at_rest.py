"""The rest rule against every step taken.

An accumulator is at rest when its pin currents leave it as it is: each
trip device and damage timer is tripped, or at most its rating with a
zero over-timer, and each thermostat is closed at ambient with no coil
current. `advance_constant` leaves a device or damage timer at rest as
it is, and the frame crossings and idle jumps ask `_PinBank.moving`
whether anything moves. These tests run generated attacked buses as they are and with
every frame run bit by bit and every idle stretch sliced, and require
the same trace and summary.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine, irs
from canvolt.attacks import ActiveOvercurrent, DoS, PulseAttack
from canvolt.engine import DamageParams, EcuSpec, IrsConfig, ScenarioConfig, run_scenario
from canvolt.link import Frame

PERIOD = 1e-3
DURATION = 4e-3


def device_config(device, rating):
    if device == "none":
        return None
    # a fast coil cools back to ambient within the run, where it rests again
    if device == "thermostat":
        return IrsConfig(device="thermostat", tau_thermal=1e-5)
    if device == "driven_thermostat":
        # on P_H, which a CANL attack leaves without current: only the
        # bench drive heats the coil, through 40 degC, in the window
        return IrsConfig(device="thermostat", pins="ph", tau_thermal=1e-5, coil_drive=3.0)
    return IrsConfig(device=device, rating=rating)


def bus(senders, attack, device, rating, i_max):
    ecus = [EcuSpec("A", "vids-host"), EcuSpec("B", "logger")]
    for k, (frame, offset) in enumerate(senders):
        ecus.append(EcuSpec(f"S{k}", "sender", period=PERIOD, frame=frame, offset=offset))
    return ScenarioConfig(
        duration=DURATION,
        ecus=tuple(ecus),
        attack=attack,
        irs_config=device_config(device, rating),
        damage=DamageParams(i_max=i_max),
    )


def run_counting_skips(cfg):
    """run_scenario, plus how many rest verdicts found nothing to move."""
    rests = []
    original = engine._PinBank.moving

    def counting(self, raws, in_window):
        moving = original(self, raws, in_window)
        rests.append(moving == ())
        return moving

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._PinBank, "moving", counting)
        trace, summary = run_scenario(cfg)
    return trace, summary, sum(rests)


def run_every_step(cfg):
    """run_scenario with every frame run bit by bit, from its SOF and from
    any later bit, and every idle stretch sliced at whole seconds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Sim, "idle_inert", lambda self, a, b: False)
        mp.setattr(engine._Sim, "quiescent", lambda self, *frame: None)
        return run_scenario(cfg)


def make_attack(kind, start, end):
    if kind == "dos":
        return DoS(t_start=start, t_end=end, v_attack_l=5.0)
    if kind == "active":
        return ActiveOvercurrent(t_start=start, t_end=end)
    line = "canl" if kind == "pulse_canl" else "canh"
    return PulseAttack(t_start=start, t_end=end, line=line, period=600e-9, duty=0.5)


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
)


def outcomes(senders, kind, start_us, width_us, device, rating, i_max):
    plan = [(Frame(id=fid, data=data), off * 1e-6) for fid, data, off in senders]
    attack = make_attack(kind, start_us * 1e-6, (start_us + width_us) * 1e-6)
    cfg = bus(plan, attack, device, rating, i_max)
    return run_counting_skips(cfg), run_every_step(cfg)


@settings(max_examples=15, deadline=None)
@given(
    senders=senders,
    kind=st.sampled_from(["pulse_canl", "pulse_canh", "dos", "active"]),
    start_us=st.integers(0, 2000),
    width_us=st.integers(1, 2000),
    device=st.sampled_from(
        ["none", "fuse", "breaker", "resettable_fuse", "thermostat", "driven_thermostat"]
    ),
    rating=st.sampled_from([0.010, 0.1]),
    i_max=st.sampled_from([0.040, 0.3]),
)
@example(**MUTANT_CASE)
@example(**{**MUTANT_CASE, "device": "thermostat", "kind": "dos", "start_us": 0})
@example(**{**MUTANT_CASE, "device": "driven_thermostat", "kind": "dos", "start_us": 0})
def test_skipped_steps_match_every_step_taken(
    senders, kind, start_us, width_us, device, rating, i_max
):
    (trace, summary, skipped), (ref_trace, ref_summary) = outcomes(
        senders, kind, start_us, width_us, device, rating, i_max
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
