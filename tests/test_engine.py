"""Scenario engine: timelines, determinism, conservation, damage."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt.attacks import (
    ActiveOvercurrent,
    DoS,
    ForcedRetransmission,
    PassiveOvercurrent,
    PulseAttack,
    overcurrent_current,
    pin_override,
)
from canvolt.electrical import INPUT
from canvolt.config import (
    ConfigError,
    DamageParams,
    EcuSpec,
    IrsConfig,
    ScenarioConfig,
    SweepSpec,
    set_sweep_value,
    validate_config,
)
from canvolt.engine import (
    _Bus,
    _Scheduler,
    run_scenario,
    run_sweep,
)
from canvolt.irs import FuseState, ThermostatCoil, TripTimer
from canvolt.link import Frame
from canvolt.trace import TRACE_KINDS, Trace, TraceRecord
from harness import counting

FRAME = Frame(id=0x01, data=b"\x01")


def scenario(attack=None, irs=None, duration=60.0, damage=None):
    return ScenarioConfig(
        duration=duration,
        ecus=(
            EcuSpec("A", "vids-host"),
            EcuSpec("B", "logger"),
            EcuSpec("C", "sender", period=1.0, frame=FRAME),
        ),
        attack=attack,
        irs_config=irs,
        damage=damage or DamageParams(),
    )


def test_baseline_delivers_every_message():
    trace, summary = run_scenario(scenario(duration=10.0))
    assert summary.messages_sent == 10
    assert summary.messages_received == 10
    assert summary.indicator == (1,) * 10
    assert summary.retransmissions == 0
    assert not summary.attack_success


def test_dos_blocks_exactly_the_window_slots():
    _, summary = run_scenario(scenario(DoS(v_attack_l=5.0)))
    expected = tuple(0 if 10 <= k < 30 else 1 for k in range(60))
    assert summary.indicator == expected
    assert summary.attack_success


def test_dos_with_fuse_keeps_all_slots():
    _, summary = run_scenario(scenario(DoS(v_attack_l=5.0), IrsConfig(device="fuse")))
    assert summary.indicator == (1,) * 60
    assert "pl" in summary.device_trips
    assert summary.device_trips["pl"] == pytest.approx(10.0, abs=1e-5)
    assert not summary.attack_success
    assert not summary.damaged


def test_fra_delivers_after_forced_retransmissions():
    trace, summary = run_scenario(scenario(ForcedRetransmission(v_attack_h=5.0)))
    assert summary.indicator == (1,) * 60
    assert summary.retransmissions == 20
    assert summary.attack_success
    retrans = [r for r in trace.records if r.kind == "Retransmission"]
    assert all(10.0 <= r.t < 30.0 for r in retrans)


def test_fra_retransmission_spacing():
    trace, _ = run_scenario(scenario(ForcedRetransmission(v_attack_h=5.0), duration=12.0))
    sent = next(r for r in trace.records if r.kind == "FrameSent" and r.t >= 10.0)
    retry = next(r for r in trace.records if r.kind == "Retransmission")
    spacing = retry.t - sent.t
    assert abs(spacing - 132e-6) <= 0.1 * 132e-6


def test_pulse_blocks_window_without_irs():
    _, summary = run_scenario(scenario(PulseAttack(line="canl", period=100e-6, duty=0.5)))
    expected = tuple(0 if 10 <= k < 30 else 1 for k in range(60))
    assert summary.indicator == expected


def test_pulse_with_fuse_keeps_all_slots():
    _, summary = run_scenario(
        scenario(PulseAttack(line="canl", period=100e-6, duty=0.5), IrsConfig(device="fuse"))
    )
    assert summary.indicator == (1,) * 60


def test_active_overcurrent_damages_within_damage_time():
    trace, summary = run_scenario(scenario(ActiveOvercurrent(), duration=12.0))
    assert summary.damaged
    assert summary.damage_time == pytest.approx(10.0 + 1e-6, abs=1e-9)
    assert any(r.kind == "Damage" for r in trace.records)


def test_active_overcurrent_fuse_prevents_damage():
    _, summary = run_scenario(scenario(ActiveOvercurrent(), IrsConfig(device="fuse"), duration=12.0))
    assert not summary.damaged
    assert set(summary.device_trips) == {"ph", "pl"}


def test_active_overcurrent_resettable_fuse_still_damages():
    trace, summary = run_scenario(
        scenario(ActiveOvercurrent(), IrsConfig(device="resettable_fuse"), duration=12.0)
    )
    assert summary.damaged
    # the fuses trip at the damage deadline and cut the current first; their
    # 100 mA leakage then marks the damage at that same instant
    events = [(r.kind, r.line) for r in trace.records if r.kind in ("FuseBlown", "Damage")]
    assert events == [("FuseBlown", "ph"), ("FuseBlown", "pl"), ("Damage", "ph")]
    assert summary.damage_time == summary.device_trips["ph"] == summary.device_trips["pl"]


def test_an_overcurrent_of_exactly_damage_time_damages_unless_a_fuse_opens_then():
    """A window exactly `damage_time` long damages a pin as it ends, as a
    window twice as long does. Fuses that open at that same instant cut
    the current first, and nothing is damaged."""
    t_end = 0.5 + 2**-20
    damage = DamageParams(damage_time=2**-20)
    for width in (2**-20, 2**-19):
        attack = ActiveOvercurrent(t_start=0.5, t_end=0.5 + width)
        trace, summary = run_scenario(scenario(attack, duration=1.0, damage=damage))
        assert summary.damaged
        assert summary.damage_time == t_end
        assert [r.t for r in trace.of_kind("Damage")] == [t_end]

    attack = ActiveOvercurrent(t_start=0.5, t_end=t_end)
    fuses = IrsConfig(device="fuse", opening_time=2**-20)
    trace, summary = run_scenario(scenario(attack, fuses, duration=1.0, damage=damage))
    assert summary.device_trips == {"ph": t_end, "pl": t_end}
    assert not summary.damaged and summary.damage_time is None
    assert trace.of_kind("Damage") == []


def test_passive_overcurrent_damages_but_traffic_passes():
    _, summary = run_scenario(scenario(PassiveOvercurrent(), duration=12.0))
    assert summary.damaged
    assert summary.indicator == (1,) * 12


def test_breaker_behaves_like_a_fuse_in_one_run():
    _, summary = run_scenario(scenario(DoS(v_attack_l=5.0), IrsConfig(device="breaker")))
    assert summary.indicator == (1,) * 60
    assert "pl" in summary.device_trips


def pin_damage(i_max=0.040, damage_time=1e-6):
    """The engine's damage accumulator for one pin of the VIDS host."""
    return TripTimer(rating=i_max, opening_time=damage_time)


def test_damage_boundary_is_strict():
    d = pin_damage(i_max=0.020)
    d = d.advance(0.020, 1.0)
    assert not d.tripped
    d = d.advance(0.0201, 2e-6)
    assert d.tripped


def test_damage_step_accumulates_and_resets():
    d = pin_damage()
    d = d.advance(0.0583, 0.5e-6)
    assert d.over_timer == pytest.approx(0.5e-6)
    d = d.advance(0.039, 1.0)
    assert d.over_timer == 0.0
    d = d.advance(0.0583, 1e-6)
    assert d.tripped


def test_attack_currents_visible_to_a_ten_milliamp_fuse():
    attacks = [
        PassiveOvercurrent(),
        ActiveOvercurrent(),
        DoS(v_attack_l=5.0),
        ForcedRetransmission(v_attack_h=5.0),
        PulseAttack(line="canl", period=100e-6),
    ]
    for attack in attacks:
        _, summary = run_scenario(scenario(attack, IrsConfig(device="fuse"), duration=12.0))
        assert summary.device_trips, f"{type(attack).__name__} left the fuse cold"


def test_determinism_identical_traces():
    a, _ = run_scenario(scenario(DoS(v_attack_l=5.0), IrsConfig(device="fuse"), duration=15.0))
    b, _ = run_scenario(scenario(DoS(v_attack_l=5.0), IrsConfig(device="fuse"), duration=15.0))
    assert a.records == b.records


def test_trace_timestamps_non_decreasing():
    trace, _ = run_scenario(scenario(ForcedRetransmission(v_attack_h=5.0), duration=15.0))
    stamps = [r.t for r in trace.records]
    assert stamps == sorted(stamps)


def test_conservation_received_plus_undelivered():
    _, summary = run_scenario(scenario(DoS(v_attack_l=5.0), duration=25.0))
    undelivered = summary.messages_sent - summary.messages_received
    assert undelivered == sum(1 for v in summary.indicator if v == 0)
    assert summary.messages_received <= summary.messages_sent


def test_attack_window_locality():
    base, _ = run_scenario(scenario(duration=20.0))
    attacked, _ = run_scenario(scenario(DoS(v_attack_l=5.0), duration=20.0))
    cut = 10.0
    base_prefix = [r for r in base.records if r.t < cut]
    attacked_prefix = [r for r in attacked.records if r.t < cut]
    assert base_prefix == attacked_prefix


def test_isolation_soundness_after_both_pins_open():
    attacked, _ = run_scenario(
        scenario(ActiveOvercurrent(), IrsConfig(device="fuse"), duration=20.0)
    )
    base, _ = run_scenario(scenario(duration=20.0))
    keep = ("FrameSent", "FrameReceived", "ErrorFrame", "Retransmission")
    cut = 10.1
    a = [r for r in attacked.records if r.kind in keep and r.t > cut]
    b = [r for r in base.records if r.kind in keep and r.t > cut]
    assert a == b


def test_thermostat_coil_drive_isolates_and_recovers():
    cfg = scenario(
        DoS(v_attack_l=5.0, t_start=10.0, t_end=30.0),
        IrsConfig(device="thermostat", coil_drive=1.0),
        duration=40.0,
    )
    trace, summary = run_scenario(cfg)
    opens = [r for r in trace.records if r.kind == "ThermostatOpen"]
    closes = [r for r in trace.records if r.kind == "ThermostatClosed"]
    assert opens and opens[0].t < 15.0
    assert closes and closes[0].t < opens[0].t + 30.0
    # isolation restores delivery for the rest of the window
    assert all(summary.indicator[k] == 1 for k in range(12, 30))


def test_a_coil_stops_at_the_other_coils_earlier_flip():
    """One step, both pins coiled: the P_L coil at 1 A opens 1 s in, and
    the P_H coil at 0.5 A is heated up to that flip, not over the span."""
    sim = _Bus(scenario(irs=IrsConfig(device="thermostat"), damage=DamageParams(i_max=2.0)))
    a = 1.0
    reached = sim.advance_constant(a, 3.0, {"ph": 0.5, "pl": 1.0})
    assert reached == a + ThermostatCoil().step(1.0, 2.0)[1] < 3.0
    assert sim.bank.devices["pl"].open
    assert sim.bank.devices["ph"] == ThermostatCoil().step(0.5, reached - a)[0]
    assert [(r.t, r.kind, r.line) for r in sim.trace.records] == [
        (reached, "ThermostatOpen", "pl")
    ]


def test_pulse_threshold_invariant_under_phase_offset():
    for phase in (0.0, 0.25, 0.5, 0.9):
        below = scenario(
            PulseAttack(line="canl", period=670e-9, phase=phase, t_start=1.0, t_end=3.0),
            duration=4.0,
        )
        above = scenario(
            PulseAttack(line="canl", period=680e-9, phase=phase, t_start=1.0, t_end=3.0),
            duration=4.0,
        )
        _, s_below = run_scenario(below)
        _, s_above = run_scenario(above)
        assert not s_below.attack_success, f"phase {phase} blocked below threshold"
        assert s_above.attack_success, f"phase {phase} failed at threshold"


def test_trace_kinds_stay_in_schema():
    trace, _ = run_scenario(
        scenario(DoS(v_attack_l=5.0), IrsConfig(device="thermostat", coil_drive=1.0), duration=20.0)
    )
    assert {r.kind for r in trace.records} <= set(TRACE_KINDS)


def test_two_senders_lowest_id_first():
    cfg = ScenarioConfig(
        duration=3.0,
        ecus=(
            EcuSpec("A", "vids-host"),
            EcuSpec("B", "logger"),
            EcuSpec("C", "sender", period=1.0, frame=Frame(id=0x010, data=b"\x10")),
            EcuSpec("D", "sender", period=1.0, frame=Frame(id=0x001, data=b"\x01")),
        ),
    )
    trace, summary = run_scenario(cfg)
    assert summary.messages_received == 6
    ids = [int(r.value) for r in trace.records if r.kind == "FrameReceived"]
    assert ids == [1, 16, 1, 16, 1, 16]


def test_sweep_values_grid():
    s = SweepSpec(path="attack.v_attack_l", start=0.1, stop=0.5, step=0.1)
    assert s.values() == [0.1, 0.2, 0.3, 0.4, 0.5]


def test_set_sweep_value_replaces_attack_field():
    cfg = scenario(DoS(v_attack_l=5.0))
    out = set_sweep_value(cfg, "attack.v_attack_l", 1.0)
    assert out.attack.v_attack_l == 1.0
    with pytest.raises(ConfigError):
        set_sweep_value(cfg, "attack.nope", 1.0)
    with pytest.raises(ConfigError):
        set_sweep_value(scenario(), "attack.v_attack_l", 1.0)


def test_run_sweep_requires_sweep_section():
    with pytest.raises(ConfigError):
        run_sweep(scenario(DoS()))


def test_validation_rejects_bad_configs():
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(ecus=()))
    with pytest.raises(ConfigError):
        validate_config(
            ScenarioConfig(ecus=(EcuSpec("A", "vids-host"), EcuSpec("B", "vids-host")))
        )
    with pytest.raises(ConfigError):
        validate_config(
            ScenarioConfig(
                ecus=(EcuSpec("A", "vids-host"), EcuSpec("C", "sender", period=1e-5, frame=FRAME))
            )
        )
    with pytest.raises(ConfigError):
        validate_config(
            ScenarioConfig(
                ecus=(EcuSpec("A", "vids-host"), EcuSpec("C", "sender", period=1.0, frame=FRAME)),
                attack=DoS(node="C"),
            )
        )
    with pytest.raises(ConfigError):
        validate_config(
            ScenarioConfig(
                ecus=(EcuSpec("A", "vids-host"), EcuSpec("C", "sender", period=1.0, frame=FRAME)),
                attack=PulseAttack(period=1.0),
            )
        )
    # the bench drive heats a thermostat's coil; no other device has one
    for device in ("fuse", "breaker", "resettable_fuse"):
        with pytest.raises(ConfigError, match="^irs.coil_drive: "):
            validate_config(scenario(irs=IrsConfig(device=device, coil_drive=1.0)))


@pytest.mark.parametrize(
    "base, t_end, valid",
    [(1e8, 1e8 + 0.005, True), (1e10, 1e10 + 0.005, False), (1e10, math.inf, False), (0.0, 0.005, True)],
)
def test_a_pulse_phase_lost_in_float_time_is_a_config_error(base, t_end, valid):
    """One float step near 1e10 s (about 1.9 us) is longer than each 300 ns
    phase of a 600 ns pulse, so its edge walk cannot move and the run
    would never end; only validated here. The check is made at the latest
    instant a piece can end in the window: its end, or the end of an
    attempt started before a run of 1e10 s ends."""
    sender = EcuSpec("C", "sender", period=1.0, frame=FRAME, offset=base + 0.002)
    cfg = ScenarioConfig(
        duration=1e10 + 0.01,
        ecus=(EcuSpec("A", "vids-host"), sender),
        attack=PulseAttack(t_start=base + 0.001, t_end=t_end, period=600e-9),
    )
    if valid:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError, match="^attack.period: pulse phase 3e-07 s"):
            validate_config(cfg)


def test_validation_rejects_negative_limits():
    # with a negative limit an idle pin would count as over it
    with pytest.raises(ConfigError, match="irs.rating"):
        validate_config(scenario(irs=IrsConfig(device="fuse", rating=-0.01)))
    with pytest.raises(ConfigError, match="damage.i_max"):
        validate_config(scenario(damage=DamageParams(i_max=-1.0)))
    validate_config(scenario(irs=IrsConfig(device="fuse", rating=0.0), damage=DamageParams(i_max=0.0)))


@pytest.mark.parametrize("v_high", [3.0, 5.0])
def test_active_overcurrent_predictor_matches_engine_samples(v_high):
    attack = ActiveOvercurrent(t_start=1.0, t_end=3.0, v_high=v_high)
    trace, _ = run_scenario(scenario(attack, duration=4.0))
    samples = [r for r in trace.of_kind("PinCurrentSample") if attack.active(r.t)]
    assert {r.line for r in samples} == {"ph", "pl"}
    predicted = overcurrent_current("active", v_high=v_high).amps
    for r in samples:
        assert abs(r.value) == pytest.approx(predicted, rel=1e-12)


@pytest.mark.parametrize("limit", [0.030, 0.052])
def test_active_overcurrent_source_limit_caps_pin_current(limit):
    attack = ActiveOvercurrent(t_start=1.0, t_end=3.0, source_limit=limit)
    trace, summary = run_scenario(scenario(attack, duration=4.0))
    predicted = overcurrent_current("active", source_limit=limit)
    samples = [r for r in trace.of_kind("PinCurrentSample") if attack.active(r.t)]
    assert {r.line for r in samples} == {"ph", "pl"}
    for r in samples:
        assert abs(r.value) == predicted.amps
    assert summary.damaged == predicted.exceeds_i_max
    if summary.damaged:
        assert summary.damage_time == pytest.approx(1.0 + 1e-6, abs=1e-9)


def pulse_edges(pulse, phase_origin, lo, hi):
    """Phase edges in [lo, hi) of a pulse whose high phase starts at
    phase_origin, listed period by period: the reference for the clock's
    `next_edge`. `pulse` is anything with a period and a duty."""
    period = pulse.period
    high = pulse.duty * period
    t = phase_origin + math.floor((lo - phase_origin) / period) * period
    edges = []
    while t < hi:
        for edge in (t, t + high):
            if lo <= edge < hi:
                edges.append(edge)
        t += period
    return edges


def first_cut_after(attack, a, b):
    """The first cut after a in the sorted set {a, b}, window edges and
    `pulse_edges` over the window's part of [a, b); b without an attack."""
    if attack is None:
        return b
    cuts = {b, attack.t_start, attack.t_end}
    cuts.update(
        pulse_edges(attack, attack.phase_origin, max(a, attack.t_start), min(b, attack.t_end))
    )
    return min(c for c in cuts if c > a)


@settings(max_examples=300, deadline=None)  # about a third without an attack
@given(
    base=st.sampled_from([0.0, 10.0, 3.6e3, 8.64e4, 1e6]),
    start=st.floats(0.0, 1e-3),
    width=st.floats(1e-7, 1e-3),
    period=st.floats(1e-7, 1e-4),
    duty=st.floats(0.01, 0.99),
    phase=st.floats(0.0, 2.0),
    line=st.sampled_from(["canl", "canh"]),
    v_low=st.sampled_from([0.0, 1.0]),
    cursor=st.floats(-0.5, 1.5),
    span=st.floats(1e-9, 4e-6),
    open_pins=st.sets(st.sampled_from(["ph", "pl"])),
    attacked=st.sampled_from([True, True, False]),
)
@example(
    base=1e6, start=0.0, width=1e-3, period=600e-9, duty=0.5, phase=0.0, line="canl",
    v_low=0.0, cursor=0.5, span=2e-6, open_pins=set(), attacked=True,
)
@example(  # binary-exact edges: the phase test meets its bound exactly
    base=0.0, start=0.0, width=1e-4, period=2.0**-20, duty=0.5, phase=0.0, line="canh",
    v_low=1.0, cursor=0.0, span=4e-6, open_pins={"pl"}, attacked=True,
)
@example(  # no attack: a window that never opens
    base=1e6, start=0.0, width=1e-3, period=600e-9, duty=0.5, phase=0.0, line="canl",
    v_low=0.0, cursor=0.5, span=2e-6, open_pins=set(), attacked=False,
)
def test_cursor_cuts_and_phase_pins_match_the_reference(
    base, start, width, period, duty, phase, line, v_low, cursor, span, open_pins, attacked
):
    """Each cut, gated pin pair and phase pair of a pulse window, or of no
    attack, against `pulse_edges` and `pin_override`."""
    t_start = base + start
    attack = PulseAttack(
        t_start=t_start, t_end=t_start + width, line=line, period=period, duty=duty,
        phase=phase, v_low=v_low,
    ) if attacked else None
    sim = _Bus(ScenarioConfig(duration=1.0, ecus=(EcuSpec("A", "vids-host"),), attack=attack))
    for pin in open_pins:
        sim.bank.devices[pin] = FuseState(tripped=True)

    def gated_reference(t):
        p_h, p_l = pin_override(attack, t)
        return (INPUT if "ph" in open_pins else p_h, INPUT if "pl" in open_pins else p_l)

    a = t_start + cursor * width
    b = a + span
    pieces = 0
    for nxt in sim.cuts(a, b):
        assert a < nxt  # a cut at or before its cursor never ends the walk
        assert nxt == first_cut_after(attack, a, b)
        for t in (a, 0.5 * (a + nxt)):
            assert sim.pins_at(t) == gated_reference(t)
            if attack is None or attack.active(t):
                assert sim.window_pins[sim.clock.phase(t)] == pin_override(attack, t)
        a = nxt
        pieces += 1
        assert pieces <= 4 * (span / period + 2)  # no runaway walk
    assert a == b
    if attack is None:
        for t in (-1e6, 0.0, 1e6):
            assert sim.pins_at(t) == (INPUT, INPUT)
            assert sim.window_pins[sim.clock.phase(t)] == pin_override(None, t)


@pytest.mark.parametrize(
    "attack",
    [
        None,
        DoS(t_start=10.0, t_end=20.0),
        ForcedRetransmission(t_start=10.0, t_end=20.0),
        PulseAttack(t_start=10.0, t_end=20.0),
        ActiveOvercurrent(t_start=10.0, t_end=20.0),
        PassiveOvercurrent(t_start=10.0, t_end=20.0),
    ],
    ids=lambda a: type(a).__name__,
)
@pytest.mark.parametrize("device", [None, "fuse", "breaker", "resettable_fuse", "thermostat"])
def test_a_run_keeps_fewer_than_30_attributes(attack, device):
    """CPython 3.11 keeps an instance's attributes in its class's shared
    layout only while there are fewer than 30; past that every `self.x`
    load in the engine is slower (see `_Bus`). Each layer is counted
    before and after a run, so no attribute is added on the way."""
    drive = 1.0 if device == "thermostat" else None
    irs = None if device is None else IrsConfig(device=device, coil_drive=drive)
    scheduler = _Scheduler(scenario(attack, irs, duration=30.0))
    bus = scheduler.bus
    assert len(vars(scheduler)) < 30 and len(vars(bus)) < 30
    scheduler.run()
    assert len(vars(scheduler)) < 30 and len(vars(bus)) < 30


@pytest.mark.parametrize(
    "attack",
    [None, DoS(t_start=10.0, t_end=20.0), ForcedRetransmission(t_start=10.0, t_end=20.0)],
    ids=lambda a: type(a).__name__,
)
def test_a_run_builds_no_trace_record(attack, monkeypatch):
    """A run and its summary read the trace's plain rows; `TraceRecord`s
    are built only when a caller asks for `events` or `records`."""
    built = []
    init = TraceRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counted)
    trace, summary = run_scenario(scenario(attack, duration=30.0))
    assert built == [] and summary.messages_received > 0
    assert [TraceRecord(*row) for row in trace.event_rows] == trace.events
    assert len(built) == 2 * len(trace.event_rows)


@pytest.mark.parametrize(
    "attack",
    [None, DoS(t_start=10.0, t_end=20.0), ForcedRetransmission(t_start=10.0, t_end=20.0)],
    ids=lambda a: type(a).__name__,
)
def test_a_run_orders_no_rows(attack):
    """Neither a run nor a sweep reads its trace's rows: each summary is
    kept as the rows are added."""
    cfg = scenario(attack, duration=30.0)
    sweep = SweepSpec("attack.t_end", 15.0, 25.0, 5.0)
    swept = replace(cfg, attack=attack or DoS(t_start=10.0, t_end=20.0), sweep=sweep)
    with counting(Trace, "event_rows") as reads:
        trace, summary = run_scenario(cfg)
        points = run_sweep(swept)
        assert reads == []
        assert trace.event_rows and len(reads) == 1  # a reader is counted
    assert summary.messages_received > 0 and len(points) == 3
