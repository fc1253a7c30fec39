"""Sweeps against their points run one by one.

`run_sweep` validates a sweep once and runs its points on one plan,
which shares the encoded frames, the send schedule and the raw bus
solves; each point keeps its own source-limit cap, phase slop, window
and accumulators. These tests sweep every number field of each attack,
with and without protective devices, and require each point's trace and
summary to equal `run_scenario` on the point's own config. They also
count the solves a sweep makes, and check that an invalid point fails
the sweep before any point runs.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine
from canvolt.attacks import PulseAttack
from canvolt.cli import parse_config
from canvolt.config import ConfigError, DamageParams, SweepSpec, set_sweep_value
from canvolt.electrical import INPUT
from canvolt.engine import run_scenario, run_sweep
from canvolt.link import Frame
from harness import attack, bus, counting, irs_config, plan, senders

CONFIGS = Path(__file__).parent.parent / "configs"
BIT = 2e-6  # 500 kbit/s
PERIOD = 1e-3
DURATION = 3e-3
PULSES = ["pulse_canl", "pulse_canh"]
KINDS = ["dos", "fra", "active", "passive"] + PULSES
LAST = 17  # a drawn grid's last index: its first index, plus 3 steps of at most 3
# each sweepable field: the attack kinds that have it, and the value at
# grid index k, valid for k in 0..LAST; a window edge is counted from the
# first frame's SOF, and the window is [-20, 400) bits from there but
# for the swept edge
GRIDS = {
    "v_attack_l": (["dos"], lambda k: 0.5 + 0.25 * k),
    "v_attack_h": (["fra"], lambda k: 0.75 + 0.25 * k),
    "period": (PULSES, lambda k: (400 + 40 * k) * 1e-9),
    "duty": (PULSES, lambda k: 0.1 + 0.05 * k),
    "phase": (PULSES, lambda k: 0.1 * k),
    "v_low": (PULSES, lambda k: 0.25 * k),
    "v_high": (PULSES + ["active"], lambda k: 1.0 + 0.2 * k),
    "source_limit": (["active"], lambda k: 0.01 * k),
    "t_start": (KINDS, lambda k: (10 * k - 20) * BIT),
    "t_end": (KINDS, lambda k: (200 + 10 * k) * BIT),
}


def sweep_bus(senders, kind, field, first, step, n, device, pins="both", rating=0.010, i_max=0.040):
    """A bus under an attack of this kind over [-20, 400) bits from the
    first frame's SOF, swept over `field` at grid indices first,
    first + step, ... (n of them)."""
    t0 = senders[0][1]
    value = GRIDS[field][1]
    shift = t0 if field.startswith("t_") else 0.0
    sweep = SweepSpec(
        f"attack.{field}", shift + value(first), shift + value(first + (n - 1) * step),
        value(first + step) - value(first),
    )
    window = attack(kind, t0 - 20 * BIT, t0 + 400 * BIT)
    return bus(
        senders, PERIOD, duration=DURATION, attack=window, sweep=sweep,
        irs_config=irs_config(device, pins=pins, rating=rating), damage=DamageParams(i_max=i_max),
    )


def check_points_match_their_own_runs(cfg):
    """Each point of the sweep reaches `run_scenario` once, and its trace
    and summary equal a run of its own config."""
    with counting(engine, "run_scenario") as runs:
        points = run_sweep(cfg)
    assert [p.value for p in points] == cfg.sweep.values()
    assert len(runs) == len(points)
    for p, run in zip(points, runs):
        trace, summary = run_scenario(set_sweep_value(cfg, cfg.sweep.path, p.value))
        assert run.result[1] == p.summary == summary, p.value
        assert p.success == summary.attack_success
        assert run.result[0].records == trace.records, p.value


def test_sweep_points_match_their_own_runs():
    @settings(max_examples=50, deadline=None)
    @given(
        senders=senders(400, 1, 3),
        field_kind=st.sampled_from([(f, k) for f, (kinds, _) in GRIDS.items() for k in kinds]),
        first=st.integers(0, LAST - 9),
        step=st.integers(1, 3),
        n=st.integers(2, 4),
        device=st.sampled_from(["none", "fuse", "breaker", "resettable_fuse", "thermostat"]),
        pins=st.sampled_from(["both", "ph", "pl"]),
        rating=st.sampled_from([0.010, 0.1]),
        i_max=st.sampled_from([0.040, 0.3]),
    )
    # an active overcurrent's source limit across a 10 mA fuse's rating:
    # the fuses hold at 0 and 10 mA and blow at 20 and 30 mA, so a cap
    # shared between points changes their trips
    @example(
        senders=[(0x10, b"\x01", 0)], field_kind=("source_limit", "active"), first=0, step=1, n=4,
        device="fuse", pins="both", rating=0.010, i_max=0.3,
    )
    # a pulse's end: each point's phase slop follows its own window end
    @example(
        senders=[(0x10, b"\x01", 0), (0x20, b"", 150)], field_kind=("t_end", "pulse_canl"), first=0,
        step=3, n=4, device="none", pins="both", rating=0.010, i_max=0.040,
    )
    def check(senders, field_kind, first, step, n, **devices):
        field, kind = field_kind
        check_points_match_their_own_runs(sweep_bus(plan(senders), kind, field, first, step, n, **devices))

    check()


def solve_inputs(calls) -> list:
    """The (driven level, VIDS pins) of each counted `solve_bus_detailed` call."""
    return [(c.args["drive"]["bus"], *c.args["pins"].values()) for c in calls]


def test_a_sweep_solves_each_level_and_pin_pair_once():
    """A sweep solves each (driven level, gated pins) once, the idle pair
    included, not once per point: the DoS sweep's 50 points each add
    their own level's pairs, while the pulse sweep's 21 periods share
    their window pairs."""
    solves = {}
    for name in ("pulse_canh_sweep", "dos_sweep"):
        cfg = parse_config((CONFIGS / f"{name}.ini").read_text())
        with counting(engine, "solve_bus_detailed") as calls:
            points = run_sweep(cfg)
        inputs = solve_inputs(calls)
        assert len(inputs) == len(set(inputs)), name
        assert inputs.count((False, (INPUT, INPUT))) == 1, name
        solves[name] = len(inputs), len(points)
    assert solves["pulse_canh_sweep"] == (1 + 2 * 2, 21)
    assert solves["dos_sweep"] == (1 + 2 * 50, 50)


def test_an_invalid_point_fails_the_sweep_before_any_point_runs():
    """A pulse period grid that reaches the frame time (112 us for one
    data byte) is refused at `attack.period`, as a run of that point is."""
    window = PulseAttack(t_start=0.0, t_end=0.5, line="canl", period=600e-9)
    cfg = bus(
        [(Frame(id=0x10, data=b"\x01"), 0.0)], 0.01, duration=1.0, attack=window,
        sweep=SweepSpec("attack.period", 90e-6, 130e-6, 10e-6),
    )
    with counting(engine, "run_scenario") as runs, pytest.raises(ConfigError) as refused:
        run_sweep(cfg)
    assert refused.value.path == "attack.period"
    assert runs == []
    with pytest.raises(ConfigError) as point:
        run_scenario(set_sweep_value(cfg, cfg.sweep.path, 130e-6))
    assert point.value.path == "attack.period"
