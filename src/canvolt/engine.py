"""Deterministic scenario engine: a link-layer scheduler over a
physical-layer bus.

The split is ISO 11898-1's, between the data link layer and physical
signalling, and each layer is one component of a DEVS coupled model.
`_Scheduler` decides when a frame goes and when it retries: the send
schedule, the queues, arbitration, error frames and retransmission
timing, and the summary. `_Bus` decides whether the frame's bits read as
driven: the attacker's pins, the bus solves, the receiver comparator, the
protective devices and pin damage, and the 1 Hz samples. Both add rows
to one `Trace`. The scheduler asks the bus five questions:

- `advance_idle(t)`: integrate the idle bus up to t; it returns early
  where a device changes connectivity, which wakes every parked frame;
- `jammed(t)`: does an idle bus that reads dominant let no frame start
  at t, and until when;
- `sample_bits(bits, ack_delim, first_attempt, t0)`: what an attempt's
  bits give from t0, the error bit and reason;
- `error_flag(a, b)`: drive an error flag over [a, b);
- `retry_at(t)`: does the attack block every attempt at t, so that a
  failed frame parks until its window ends.

After the run it asks the bus for the window markers and the samples
(`record_ticks`), and the summary reads the bank's trips and damage and
the plan's indicator period. It reads nothing else of the bus: no window
edge, clock, pin fact, solve or accumulator.

A run's *plan* (`_Plan`) holds what it takes from its config but for the
attack. `run_scenario` validates its config and builds its plan.
`run_sweep` validates the sweep once, the config and every point's
attack, and runs each point through `run_scenario` on one plan: a point
differs from its config in the attack only. No plan outlives the call
that built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import attacks as atk
from . import irs
# `set_sweep_value` is re-exported: the benchmark builds sweep points through it
from .config import ConfigError, ScenarioConfig, set_sweep_value, validate_config
from .electrical import (
    INPUT,
    BusTopology,
    OutputHigh,
    PulseClock,
    TransceiverParams,
    solve_bus_detailed,
)
from .link import (
    DOMINANT_THRESHOLD,
    ERROR_DELIMITER_BITS,
    ERROR_FLAG_BITS,
    INTERMISSION_BITS,
    BitDecision,
    BitTiming,
    Frame,
    arbitrate,
    bus_bits,
    ack_delimiter_index,
    reads_driven,
    sample_bit,
)
from .trace import Trace


@dataclass(frozen=True)
class Summary:
    messages_sent: int
    messages_received: int
    indicator: tuple
    retransmissions: int
    attack_success: bool
    device_trips: dict
    damaged: bool
    damage_time: float | None
    first_failure_reason: str


# --- internal simulation -------------------------------------------------

# the attacks that block frames: each keeps dominant bits from reading,
# and parks a frame it kills
_BLOCKING = (atk.DoS, atk.PulseAttack)


class _Plan(NamedTuple):
    """What a run takes from its config but for the attack: built once
    per `run_scenario`, and once per `run_sweep` for all its points,
    which differ from their config in the attack only."""

    topo: BusTopology
    params: TransceiverParams
    timing: BitTiming
    vids: str
    receiver: str | None  # the first logger by name, which alone records FrameReceived rows
    # a sender has one frame: its bus bits, ACK delimiter index, and
    # the value and detail of its FrameSent and FrameReceived rows
    encoded: dict
    sends: list  # (t, sender, frame) of every send, by time and then sender
    period: float  # the summary's indicator slot: the first sender's period, 1.0 without one
    # (dominant, gated pins) -> BusSolution; the gated pins carry the
    # attacker's levels, so a solve holds for every attack that gates to them
    raw: dict

    @classmethod
    def of(cls, cfg: ScenarioConfig) -> "_Plan":
        """The plan of a validated config."""
        senders = [e for e in cfg.ecus if e.role == "sender"]
        sends = []
        for e in senders:
            t = e.offset
            while t < cfg.duration:
                sends.append((t, e.name, e.frame))
                t = t + e.period
        sends.sort(key=lambda s: (s[0], s[1]))
        return cls(
            BusTopology(termination=cfg.termination),
            cfg.params.transceiver(),
            cfg.params.timing(cfg.bus_speed),
            next(e.name for e in cfg.ecus if e.role == "vids-host"),
            min((e.name for e in cfg.ecus if e.role == "logger"), default=None),
            {
                e.name: (bus_bits(e.frame), ack_delimiter_index(e.frame), float(e.frame.id), e.frame.data.hex())
                for e in senders
            },
            sends,
            senders[0].period if senders else 1.0,
            {},
        )


class _Pins(NamedTuple):
    """What the gated pin pairs on one side of the attack window give at
    one connectivity; kept per connectivity for the whole run."""

    # the VIDS raw pin currents per gated window pair (the inputs outside)
    # at each driven level
    dominant: tuple
    recessive: tuple
    blocked: bool  # a dominant bit does not read as driven
    driven: bool  # every bit reads as driven
    engaged: tuple  # per window pair (none outside): the idle bus reads dominant
    # per window pair (none outside): its P_H stretches the CANL recovery
    # past an ACK delimiter's sample point (`atk.fra_ack_delimiter_corrupted`)
    fra: tuple


class _Side(NamedTuple):
    """The accumulator verdicts at one side's `_Pins`; only these are read
    afresh after a step moves an accumulator."""

    pins: _Pins  # read at the connectivity now
    # `bank.moving` over both driven levels when every bit reads as
    # driven, else None
    frame: tuple | None
    idle_rests: bool  # a step at the recessive pairs leaves every accumulator as it is
    # so does a step at the dominant pairs: an error flag here is crossed
    # in one step
    dominant_rests: bool

    def rests(self, dominant: bool) -> bool:
        """A step at the pairs of this driven level leaves every accumulator as it is."""
        return self.dominant_rests if dominant else self.idle_rests


@dataclass
class _QueuedTx:
    frame: Frame
    # the send time, then the bus-free time after a failed attempt, or the
    # window end while the frame is parked
    retry_at: float
    attempts: int = 0


class _PinBank:
    """Per-pin device and damage accumulators for the VIDS host.

    `devices` holds the pins that carry a protective device. Pin damage
    follows the devices' own trip law: a pin is damaged once its current
    stays above i_max for damage_time.
    """

    def __init__(self, cfg: ScenarioConfig):
        dev = cfg.irs_config
        pins = () if dev is None else {"both": ("ph", "pl"), "ph": ("ph",), "pl": ("pl",)}[dev.pins]
        self.devices = {pin: dev.build() for pin in pins}
        self.coil_drive = None if dev is None else dev.coil_drive
        dmg = irs.TripTimer(rating=cfg.damage.i_max, opening_time=cfg.damage.damage_time)
        self.damage = {"ph": dmg, "pl": dmg}
        self.trip_times: dict = {}
        self.damaged_at: float | None = None
        self.flips = 0  # each trip, flip, and damage timer that trips or clears counts one

    def moving(self, raws, in_window: bool):
        """The devices that steps at each of these raw pin currents move,
        as (pin, current) pairs, when every damage timer rests at all of
        them and each device rests at every current it sees there or sees
        one current; else None. A step at one set of currents leaves every
        accumulator as it is when this is ()."""
        for i_raw in raws:
            for pin in ("ph", "pl"):
                if not self.damage[pin].at_rest(self.gated_current(pin, i_raw[pin])):
                    return None
        moving = ()
        for pin, dev in self.devices.items():
            currents = {self.device_current(pin, i_raw[pin], in_window) for i_raw in raws}
            if not all(map(dev.at_rest, currents)):
                if len(currents) > 1:
                    return None
                moving += ((pin, *currents),)
        return moving

    def device_current(self, pin: str, i_raw: float, in_window: bool) -> float:
        """The current through the pin's device: the bench drive in the
        attack window when one is set (a thermostat's only), else the pin
        current, as the device passes it."""
        drive = self.coil_drive if in_window and self.coil_drive is not None else i_raw
        return self.devices[pin].passes(drive)

    def connected(self, pin: str) -> bool:
        dev = self.devices.get(pin)
        return dev is None or dev.conducting

    def gated_current(self, pin: str, i_raw: float) -> float:
        dev = self.devices.get(pin)
        return i_raw if dev is None else dev.passes(i_raw)

    @property
    def damaged(self) -> bool:
        return self.damage["ph"].tripped or self.damage["pl"].tripped


class _Bus:
    """The physical layer of one run: whether a frame's bits read as driven.

    CPython 3.11 keeps an instance's attributes in its class's shared
    layout only while there are fewer than 30 of them; past that every
    `self.x` load is slower (`attacked_bus` ran about 6% slower with 32,
    on Python 3.11.7). Of the two layers the bus keeps the most, so a
    value read only on a cold path is derived there, not kept.

    A driven bit runs piece by piece, its sub-bit physics (pulse phases,
    recovery tails, device trips) closed form. Device and damage
    accumulators integrate over piecewise-constant current segments, so a
    fuse can blow in the middle of a bit and the rest of the frame sees
    the recovered bus. The bus composes the library's models: bus solves
    and pulse phase edges from `electrical`, the receiver comparator
    `link.sample_bit`, and the `irs` devices, whose trip law
    (`irs.TripTimer`) is also each host pin's damage accumulator. It asks
    a device the `irs` device questions, and its kind only to name its
    trace record.

    The attack window is one set of fields: its edges, infinite without
    an attack so the window never opens; the attacker's pin pairs in it
    (`attacks.window_pins`: a pulse's high and low phase, else one); and
    its phase clock (a pulse's, else the unbounded `electrical.PulseClock`,
    always in its first phase), whose `phase` picks the pair at a time.
    A bus solve depends only on the driven level and the gated pin modes,
    which carry the attacker's levels, so the plan solves each pair once
    for all its runs (`solved`); each run caps the pin currents with its
    own `source_limit`, which a sweep can move.

    One reading per side of the window decides every shortcut and park.
    Its pin facts (`pin_facts`) gate and solve that side's pin pairs; they
    change only with connectivity, so `facts` keeps them per connectivity
    for the whole run. Its accumulator verdicts (`side`) read their
    currents; `resting` keeps them until a step moves an accumulator
    (every connectivity change is such a step). A step leaves every
    accumulator as it is when each device and damage timer rests at the
    current it sees (`_PinBank.moving`). The reading is used in four
    places:

    - *Quiescent frames* (`quiescent`): a frame's bits, from its SOF or
      any later bit, are crossed without per-bit work when they lie on one
      side of the window and that side's frame verdict passes. So a pulse
      whose masking phase is shorter than the decode hold is steady once
      its accumulators rest, and a coil that heats or cools at one current
      does not stop the frame.
    - *Idle jumps* (`advance_idle`): an idle stretch whose side rests is
      crossed in one step; any other is sliced at every whole second.
      `irs.ThermostatCoil.step` starts its tau/10 step grid afresh at each
      call, so only this slicing keeps the thermostat and over-timer
      numerics fixed.
    - *Resting flags and pieces*: an error flag on one side of the
      window, where every accumulator rests at the dominant pairs, is
      crossed in one step (`error_flag`); a piece that `drive` cuts takes
      no step when its kept side rests at its driven level.
    - *Parks*, from the pin facts alone: a jam, an idle bus that engages
      the comparator at that instant's phase (`jammed`), and a DoS or
      pulse window whose gated pairs do not read a dominant bit as driven
      (`attack_blocking`, by the rule that decides steady windows). A
      forced retransmission is never parked: it succeeds by a
      retransmission inside its window, so parking its frames would move
      those records and its verdict.

    Inside the window the pin facts also keep the FRA verdict per window
    pair (`_Pins.fra`), from the one closed-form predictor the bus still
    calls (`attacks.fra_ack_delimiter_corrupted`). A first attempt reads
    the pair of the clock's phase at its ACK delimiter's sample instant,
    when that lies in the window (`ack_delimiter_fails`).

    The 1 Hz samples are a function of the run's history, built once
    after the run (`record_ticks`): tick k records the idle bus at the
    attacker's pin pair at k seconds, gated by the connectivity after
    every trip or thermostat flip stamped at or before k. Ticks with the
    same records form one run; inside a pulse window each tick picks its
    phase pair.
    """

    def __init__(self, cfg: ScenarioConfig, plan: _Plan | None = None):
        """The bus of a run of cfg, on `plan` when given: cfg is then a
        validated config, or a point of the validated sweep the plan was
        built for."""
        if plan is None:
            validate_config(cfg)
            plan = _Plan.of(cfg)
        self.cfg = cfg
        self.plan = plan
        self.timing = plan.timing
        self.bit_time = plan.timing.bit_time
        self.attack = attack = cfg.attack
        self.vids = plan.vids
        self.bank = _PinBank(cfg)
        self.trace = Trace()
        self.integrated_to = 0.0
        self.solutions: dict = {}  # (dominant, pins) -> (BusSolution, VIDS pin currents)
        # (in_window, P_H connected, P_L connected) -> that side's `_Pins`
        self.facts: dict = {}
        # in_window -> that side's `_Side`, until a step moves an accumulator
        self.resting: dict = {}
        # the attack window, which never opens without an attack, the
        # attacker's pin pairs in it (a pulse's high and low phase, else
        # one) and its phase clock (a pulse's, else one unbounded phase)
        self.t_start = self.t_end = math.inf
        self.window_pins = ((INPUT, INPUT),)
        self.clock = PulseClock()
        if attack is not None:
            self.t_start, self.t_end = attack.t_start, attack.t_end
            self.window_pins = atk.window_pins(attack)
            self.clock = attack.clock
        # a pulse on CANH drags the recovery out past each low phase
        canh_pulse = isinstance(attack, atk.PulseAttack) and attack.line == "canh"
        self.extension = cfg.params.transition_extension if canh_pulse else 0.0
        # the slop `phases_read_driven` adds to a phase, fixed for the run
        longest = max([len(enc[0]) for enc in plan.encoded.values()], default=0) + ERROR_FLAG_BITS
        self.phase_slop = 64 * math.ulp(min(self.t_end, cfg.duration + longest * self.bit_time))
        self.changes: list = []  # (t, pin, connected) of every trip and thermostat flip
        # sample ticks at 0, 1, ..., last_tick s, recorded after the run
        self.last_tick = int(cfg.duration)
        self.samples: dict = {}  # pins -> a tick's sample records at those pins

    # -- attack pin state ---------------------------------------------------

    def pins_at(self, t: float, connected: tuple | None = None) -> tuple:
        """Gated (P_H, P_L) modes of the VIDS node at time t: inside the
        window, the window pair of the clock's phase at t (a pulse's high
        phase 0 or low phase 1; 0 on the unbounded clock), else inputs; this
        equals the gated `atk.pin_override`. `connected` gives each pin's
        connectivity as (P_H, P_L); by default, the devices' now.
        """
        pins = self.window_pins[self.clock.phase(t)] if self.t_start <= t < self.t_end else (INPUT, INPUT)
        return self.gate(pins, connected)

    def gate(self, pins: tuple, connected: tuple | None = None) -> tuple:
        """(P_H, P_L) with each disconnected pin an input; `connected` as in `pins_at`."""
        ph_on, pl_on = connected or (self.bank.connected("ph"), self.bank.connected("pl"))
        return pins[0] if ph_on else INPUT, pins[1] if pl_on else INPUT

    def solved(self, dominant: bool, pins: tuple) -> tuple:
        """(bus solution, VIDS raw pin currents) at the driven level and gated
        pins, kept per run and solved once per plan. An active overcurrent's
        `source_limit` caps each pin current either way; a sweep can move
        it, so the cap is applied per run."""
        hit = self.solutions.get((dominant, pins))
        if hit is None:
            plan = self.plan
            sol = plan.raw.get((dominant, pins))
            if sol is None:
                sol = plan.raw[(dominant, pins)] = solve_bus_detailed(
                    {"bus": dominant}, {self.vids: pins}, plan.topo, plan.params
                )
            pc = sol.pin_currents[self.vids]
            i = {"ph": pc.i_ph, "pl": pc.i_pl}
            attack = self.attack
            if isinstance(attack, atk.ActiveOvercurrent) and attack.source_limit is not None:
                limit = attack.source_limit
                i = {pin: max(-limit, min(limit, v)) for pin, v in i.items()}
            hit = self.solutions[(dominant, pins)] = (sol, i)
        return hit

    # -- cuts -----------------------------------------------------------------

    def cuts(self, a: float, b: float):
        """Yield the cuts after a up to b, each the first window edge or
        phase edge after the cut before it, the last one b.

        A cut inside the window asks the clock for its `next_edge`, which
        is kept when it falls before the next window edge and b; a cut
        outside the window has no phase edge before the window's next
        edge. The unbounded clock has none.
        """
        t_start, t_end = self.t_start, self.t_end
        next_edge = self.clock.next_edge
        while a < b:
            end = b
            if a < t_start < end:
                end = t_start
            if a < t_end < end:
                end = t_end
            if t_start <= a < t_end:
                edge = next_edge(a)
                if edge < end:
                    end = edge
            a = end
            yield a

    # -- sample ticks -------------------------------------------------------------

    def record_ticks(self):
        """Mark the window's edges in the run, and sample the idle bus at
        every tick, a run per stretch of equal pins.

        Tick k reads the attacker's pins at k, gated by the connectivity
        after every trip or flip stamped at or before k. The markers are
        the only rows the trace inserts among those added before them.
        """
        for t, kind in ((self.t_start, "AttackStart"), (self.t_end, "AttackEnd")):
            if t <= self.cfg.duration:
                self.trace.add(t, kind, self.attack.node, "", None, type(self.attack).__name__)
        changes = sorted(self.changes, key=lambda c: c[0])
        on = {"ph": True, "pl": True}
        i, k = 0, 0
        while k <= self.last_tick:
            while i < len(changes) and changes[i][0] <= k:
                _, pin, on[pin] = changes[i]
                i += 1
            # a run stops before the next connectivity change and window edge
            end = self.tick_before(changes[i][0]) if i < len(changes) else self.last_tick
            if k < self.t_start:
                end = min(end, self.tick_before(self.t_start))
            elif k < self.t_end:
                # a pulse's phase pair changes from tick to tick
                end = k if self.clock.period < math.inf else min(end, self.tick_before(self.t_end))
            pins = self.pins_at(float(k), (on["ph"], on["pl"]))
            self.trace.add_ticks(k, end, self.tick_samples(pins))
            k = end + 1

    def tick_before(self, t: float) -> int:
        """The last tick strictly before t; -1 when none (t may be infinite)."""
        if t > self.last_tick:
            return self.last_tick
        return math.ceil(t) - 1 if t > 0.0 else -1

    def tick_samples(self, pins: tuple) -> tuple:
        """A tick's sample records at gated pins: the line voltages and the VIDS pin currents."""
        samples = self.samples.get(pins)
        if samples is None:
            sol, i = self.solved(False, pins)
            samples = self.samples[pins] = (
                ("LineVoltageSample", "", "canh", sol.voltages.v_canh),
                ("LineVoltageSample", "", "canl", sol.voltages.v_canl),
                ("PinCurrentSample", self.vids, "ph", i["ph"]),
                ("PinCurrentSample", self.vids, "pl", i["pl"]),
            )
        return samples

    # -- device/damage integration ---------------------------------------------

    def _emit_trip(self, t: float, pin: str, was, dev):
        kind, detail = {
            irs.FuseState: ("FuseBlown", ""),
            irs.BreakerState: ("BreakerTripped", ""),
            irs.ResettableFuseState: ("FuseBlown", "resettable"),
            irs.ThermostatCoil: ("ThermostatOpen" if dev.open else "ThermostatClosed", ""),
        }[type(dev)]
        self.trace.add(t, kind, self.vids, pin, None, detail)
        self.bank.flips += 1
        if dev.conducting != was.conducting:
            self.changes.append((t, pin, dev.conducting))
        if dev.open and pin not in self.bank.trip_times:
            self.bank.trip_times[pin] = t

    def advance_constant(self, a: float, b: float, i_raw: dict) -> float:
        """Advance accumulators over [a, b) of constant raw pin currents.

        Returns the time actually reached; stops early when a device
        opens or closes so the caller can re-solve the bus. A device or
        damage timer at rest is left as it is; `resting` is cleared only
        when one is not. Timer arithmetic runs on offsets from `a` so trip
        instants stay exact regardless of the absolute timestamp.
        """
        in_window = self.t_start <= a < self.t_end
        bank = self.bank
        span = b - a

        # each device's first open/close change bounds the step
        stop_off = span
        switching = False  # a device opens or closes at stop_off
        stepped = {}  # pin -> (current, state, elapsed)
        for pin, dev in bank.devices.items():
            i = bank.device_current(pin, i_raw[pin], in_window)
            if not dev.at_rest(i):
                after, off = dev.step(i, stop_off)
                stepped[pin] = (i, after, off)
                if after.open != dev.open:
                    stop_off, switching = off, True

        # damage triggers inside the bounded exposure, or at its end; when a
        # device opens or closes at the damage deadline it cuts the current
        # first, leaving the damage timer full but not tripped
        moved = bool(stepped)
        for pin in ("ph", "pl"):
            dmg = bank.damage[pin]
            i = bank.gated_current(pin, i_raw[pin])
            if dmg.at_rest(i):
                continue
            moved = True
            deadline = dmg.time_to_trip(i)
            if switching and deadline == stop_off:
                bank.damage[pin] = replace(dmg, over_timer=dmg.opening_time)
                continue
            bank.damage[pin] = after = dmg.advance(i, stop_off)
            if after.at_rest(i):
                # it tripped or its over-timer cleared: `quiescent` may pass now
                bank.flips += 1
            if deadline <= stop_off and bank.damaged_at is None:
                bank.damaged_at = a + deadline
                self.trace.add(a + deadline, "Damage", self.vids, pin)
        # a step that moves an accumulator ends every kept rest verdict
        if moved:
            self.resting.clear()

        # commit each device at the bound, stepping again one that went past it
        changed = False
        t_stop = b if stop_off >= span else a + stop_off
        for pin, (i, after, off) in stepped.items():
            was = bank.devices[pin]
            if off > stop_off:
                after = was.step(i, stop_off)[0]
            bank.devices[pin] = after
            if after.open != was.open:
                changed = True
                self._emit_trip(t_stop, pin, was, after)
        return t_stop if changed else b

    def advance_idle(self, target: float) -> float:
        """Integrate the idle bus up to target; early-return on changes.

        Walks the stretches between window edges: each ends at the next
        window edge after its start, or at target when that comes first.
        A stretch is crossed in one step when the idle bus rests on its
        side of the window (`side`), else sliced at the next whole second
        (see the class docstring). A slice reads its pins at its start,
        which sits on its side of the window; the idle bus carries no
        current in either pulse phase, so no pulse cuts.
        """
        t_start, t_end = self.t_start, self.t_end
        while self.integrated_to < target:
            a = self.integrated_to
            edge = t_start if a < t_start else t_end if a < t_end else target
            b = min(edge, target)
            if self.side(t_start <= a < t_end).idle_rests:
                self.integrated_to = b
                continue
            b = min(b, float(math.floor(a) + 1))
            _, i = self.solved(False, self.pins_at(a))
            self.integrated_to = self.advance_constant(a, b, i)
            if self.integrated_to < b:
                return self.integrated_to  # connectivity changed; caller re-plans
        return target

    # -- window sides -------------------------------------------------------------

    def pin_facts(self, in_window: bool) -> _Pins:
        """The `_Pins` in or out of the attack window at the devices'
        connectivity now, kept in `facts`; a side kept in `resting` holds
        them already, since every connectivity change drops it.

        Outside the window the pins are inputs, which draw nothing at
        either driven level, so the recessive currents stand for both.
        Inside, each driven level must read as driven by
        `phases_read_driven` at the gated window pairs' v_diffs; a blocked
        dominant level, read first, settles it. Only an `OutputHigh` P_H
        can stretch the recovery (`fra`).
        """
        kept = self.resting.get(in_window)
        if kept is not None:
            return kept.pins
        bank = self.bank
        key = (in_window, bank.connected("ph"), bank.connected("pl"))
        facts = self.facts.get(key)
        if facts is not None:
            return facts
        if not in_window:
            idle = (self.solved(False, (INPUT, INPUT))[1],)
            facts = _Pins(idle, idle, False, True, (), ())
        else:
            pairs = [self.gate(pins, key[1:]) for pins in self.window_pins]
            dom_sols, dominant = zip(*[self.solved(True, pins) for pins in pairs])
            rec_sols, recessive = zip(*[self.solved(False, pins) for pins in pairs])
            blocked = not self.phases_read_driven(True, tuple([sol.voltages.v_diff for sol in dom_sols]))
            v_diffs = tuple([sol.voltages.v_diff for sol in rec_sols])
            corrupted, tau_rc = atk.fra_ack_delimiter_corrupted, self.cfg.params.tau_rc
            facts = _Pins(
                dominant,
                recessive,
                blocked,
                not blocked and self.phases_read_driven(False, v_diffs),
                tuple([v >= DOMINANT_THRESHOLD for v in v_diffs]),
                tuple([isinstance(p_h, OutputHigh) and corrupted(p_h.level, self.timing, tau_rc) for p_h, _ in pairs]),
            )
        self.facts[key] = facts
        return facts

    def side(self, in_window: bool) -> _Side:
        """The `_Side` of the accumulators at `pin_facts(in_window)`, kept
        in `resting`. A frame verdict covers both levels: at () each
        rests, and a device that moves at its one current moves at each.
        """
        kept = self.resting.get(in_window)
        if kept is None:
            pins, moving = self.pin_facts(in_window), self.bank.moving
            frame = moving(pins.dominant + pins.recessive, in_window) if pins.driven else None
            if frame is None:
                rests = moving(pins.recessive, in_window) == (), moving(pins.dominant, in_window) == ()
            else:
                rests = frame == (), frame == ()
            kept = self.resting[in_window] = _Side(pins, frame, *rests)
        return kept

    def side_of(self, a: float, b: float) -> bool | None:
        """The side of the attack window that holds [a, b) (True inside,
        up to strictly before b), or None when a window edge cuts it."""
        in_window = self.t_start < b and a < self.t_end
        if in_window and not (self.t_start <= a and b < self.t_end):
            return None
        return in_window

    def attack_blocking(self, t: float) -> bool:
        """The attack kills every attempt at t: t is in a DoS or pulse window
        whose gated pairs do not read a dominant bit as driven (`pin_facts`)."""
        return self.t_start <= t < self.t_end and isinstance(self.attack, _BLOCKING) and self.pin_facts(True).blocked

    def retry_at(self, t: float) -> float:
        """When a frame whose failed attempt frees the bus at t tries
        again: at t, or at the window end when the attack kills every
        attempt at t (`attack_blocking`), which parks the frame."""
        return self.t_end if self.attack_blocking(t) else t

    def jammed(self, t: float) -> float | None:
        """The window end when the idle bus reads dominant at t's phase (a
        jam), which lets no frame start until then; else None. Only an
        attack raises the idle bus."""
        if self.t_start <= t < self.t_end and self.pin_facts(True).engaged[self.clock.phase(t)]:
            return self.t_end
        return None

    def ack_delimiter_fails(self, t0: float, ack_delim: int) -> bool:
        """A first attempt from t0 fails at its ACK delimiter, bit
        `ack_delim`: the delimiter's sample instant lies in the window, and
        the window pair of the clock's phase there fires (`_Pins.fra`)."""
        t_s = t0 + ack_delim * self.bit_time + self.timing.sample_point * self.bit_time
        fra = self.pin_facts(True).fra if self.t_start <= t_s < self.t_end else ()
        return any(fra) and fra[self.clock.phase(t_s)]

    # -- frame transmission ---------------------------------------------------------

    def quiescent(self, bits: list, ack_delim: int, first_attempt: bool, t0: float, k: int = 0):
        """The outcome of `sample_bits` for the frame from t0, with bits
        k.. reached without per-bit work, or None when they must run bit
        by bit. `sample_bits` asks at bit 0, and after each change of the
        state read here.

        Bits k.. are crossed when no attack window overlaps them, or the
        window holds them (from bit k's start to strictly before the
        frame's end, as in `drive`; `side_of`), and the `side` they lie on
        gives a frame verdict. Its reading holds from either comparator
        state and at any phase, so bit k may follow bits sampled one by
        one. Inside the window the first attempt still reads the FRA
        verdict (`_Pins.fra`) of the pair at its ACK delimiter's sample
        instant, unless bit k is past it, and ends after that bit when it
        fires: the per-bit loop reaches that bit only after reading the
        dominant ACK slot as driven; a side with no pair firing skips it.
        Each moving device then folds `steps` over the pieces of the bits
        crossed, cut as `drive` cuts them; when one would open or close
        in them, nothing is committed and the bits run one by one.
        """
        bt, n_bits = self.bit_time, len(bits)
        tk = t0 + k * bt
        # the end of the last bit, rounded exactly as the per-bit loop does
        t1 = t0 + (n_bits - 1) * bt + bt
        in_window = self.side_of(tk, t1)
        if in_window is None:
            return None
        moving = self.side(in_window).frame
        if moving is None:
            return None
        outcome = None, ""
        if in_window and first_attempt and k <= ack_delim and self.ack_delimiter_fails(t0, ack_delim):
            outcome, n_bits, t1 = (ack_delim, "form_error_ack_delimiter"), ack_delim + 1, t0 + ack_delim * bt + bt
        if moving:
            spans = []
            for j in range(k, n_bits):
                a = t0 + j * bt
                for cut in self.cuts(a, a + bt):
                    spans.append(cut - a)
                    a = cut
            devices = self.bank.devices
            folded = {pin: devices[pin].steps(i, spans) for pin, i in moving}
            if None in folded.values():
                return None
            devices.update(folded)
            self.resting.clear()
        self.integrated_to = max(self.integrated_to, t1)
        return outcome

    def phases_read_driven(self, dominant: bool, levels: tuple) -> bool:
        """`link.reads_driven` for the clock's phase lengths (a pulse's high
        and low phase, else one unbounded phase) at `levels`, a v_diff per
        window pair. A piece ends within a few ulps of its true edge,
        so a phase counts `phase_slop` longer: 64 ulps of the latest
        instant a piece can end in the window, which is the window's end
        or the end of an attempt that starts before the run ends, its
        frame and error flag at most.

        A False verdict, taken as "blocks every bit", assumes a pulse
        phase that drifts against the bits: one locked to the bit grid
        can keep its masking phase off every sample point, and the frame
        is delivered (`tests/test_parking.py` pins such a pulse)."""
        driven = BitDecision.DOMINANT if dominant else BitDecision.RECESSIVE
        phases = tuple(zip(self.clock.lengths, levels))
        return reads_driven(phases, driven, self.timing, self.extension, self.phase_slop)

    def error_flag(self, a: float, b: float):
        """Drive an error flag over [a, b). Nothing samples it, so one on
        one side of the attack window (`side_of`), where every accumulator
        rests at the dominant pairs, is crossed in one step:
        `advance_constant` there changes nothing and reaches b."""
        in_window = self.side_of(a, b)
        if in_window is not None and self.side(in_window).dominant_rests:
            self.integrated_to = max(self.integrated_to, b)
        else:
            self.drive(True, a, b)

    def drive(self, dominant: bool, a: float, b: float) -> list:
        """Drive one level over [a, b), piece by piece.

        Returns the pieces (start, end, v_diff); a piece ends at the next
        cut or where a device changed connectivity. A piece is sampled at
        its midpoint: a cut time itself can fall on either side of a
        pulse edge in floats. A piece takes no step when its side is kept
        in `resting`, rests at its driven level, and holds both its start
        (its step) and midpoint (its pins), which a one-ulp piece can round
        onto a window edge. A side not kept is not read afresh: the step
        that dropped it moved an accumulator that likely still moves.
        """
        t_start, t_end = self.t_start, self.t_end
        resting = self.resting
        pieces, cursor, cuts = [], a, self.cuts(a, b)
        while cursor < b:
            hi = next(cuts)
            mid = 0.5 * (cursor + hi)
            sol, i = self.solved(dominant, self.pins_at(mid))
            in_window = t_start <= cursor < t_end
            one_side = in_window == (t_start <= mid < t_end)
            if one_side and in_window in resting and self.side(in_window).rests(dominant):
                reached = hi
            else:
                reached = self.advance_constant(cursor, hi, i)
            pieces.append((cursor, reached, sol.voltages.v_diff))
            if reached < hi:
                cuts = self.cuts(reached, b)
            cursor = reached
        self.integrated_to = max(self.integrated_to, b)
        return pieces

    def sample_bits(self, bits: list, ack_delim: int, first_attempt: bool, t0: float) -> tuple:
        """What an attempt of `bits` from t0 gives: (error bit index,
        reason), or (None, "") when every bit reads as driven.

        The frame is crossed from its SOF when `quiescent` can; else it is
        driven and sampled bit by bit, from the state and window side read
        there. The rest of the frame goes back to `quiescent` wherever that
        state may have changed: after a bit in which a device opened or
        closed or a damage timer tripped or cleared (`bank.flips` moved),
        and at the first bit that starts on the other side of a window edge.
        Asking at every bit would refold a moving device over the rest of
        the frame at each one.

        The bit before the ACK delimiter is the ACK slot, driven dominant,
        so the FRA check there follows a dominant bit read as driven
        (`ack_delimiter_fails`).
        """
        outcome = self.quiescent(bits, ack_delim, first_attempt, t0)
        if outcome is not None:
            return outcome
        bt = self.bit_time
        t_start, t_end = self.t_start, self.t_end
        bank = self.bank
        comparator = (BitDecision.RECESSIVE, t0 - 1.0)  # idle bus precedes the frame
        # `quiescent` was asked at bit 0 at this state and side
        flips, last_side = bank.flips, (t_start <= t0) + (t_end <= t0)
        for k, bit in enumerate(bits):
            b0 = t0 + k * bt
            here = (t_start <= b0) + (t_end <= b0)  # the window side bit k starts on
            if bank.flips != flips or here != last_side:
                flips, last_side = bank.flips, here
                outcome = self.quiescent(bits, ack_delim, first_attempt, t0, k)
                if outcome is not None:
                    return outcome
            dominant = bit == 0
            pieces = self.drive(dominant, b0, b0 + bt)
            driven = BitDecision.DOMINANT if dominant else BitDecision.RECESSIVE
            sampled, comparator = sample_bit(pieces, driven, self.timing, comparator, self.extension)
            if dominant and sampled is BitDecision.RECESSIVE:
                return k, "bit_error"
            if k == ack_delim and first_attempt and self.ack_delimiter_fails(t0, k):
                return k, "form_error_ack_delimiter"
        return None, ""


class _Scheduler:
    """The data link layer of one run: when each frame goes and when it
    retries (ISO 11898-1), over a `_Bus` that says what its bits give.

    Each step of the main loop finds the next event time and the frames
    ready then in one pass over the senders' queue heads; a send due
    before them moves the next event time to its own. The bus integrates
    idle time up to that time first, and only then does each send due by
    it join its queue: one that heads an empty queue on a free bus is
    ready then and joins the contenders, so an attempt and the sends due
    at its start take one step. `arbitrate` picks among the contenders:
    the lowest id among the frames ready at that instant. The pass keeps
    the contenders' frames in a list of their own, in the contenders'
    order, so the winner's queue entry is the one at the winner's index
    there; senders' ids are distinct, so no other frame equals the
    winner. A step with no contender, such as one that only queues a
    send behind a busy bus, ends there.

    A delivered frame frees the bus after the intermission. A failed
    attempt sends an error frame from the bit after its error bit: the
    bus drives its dominant flag bits, then come the recessive delimiter
    bits and the intermission. The frame retries once the bus is free,
    unless the bus parks it: a jam at its start, or an attack that kills
    every attempt, moves it to the window end, and a device that changes
    connectivity before then wakes it. Error frames and retransmission
    timing are computed here and nowhere else.

    The trace keeps each event as a plain row `(t, kind, ecu, line,
    value, detail)`. Both layers add their rows during the run in the
    trace's order (`canvolt.trace`), so each is appended; only the window
    markers, added after it (`_Bus.record_ticks`), are inserted. The
    summary reads no row: where the scheduler adds a FrameReceived row at
    the receiver (the first logger) or a Retransmission row, it also
    keeps that row's time, and the summary counts, flags its slots and
    decides the attack's success from those times alone.
    """

    def __init__(self, cfg: ScenarioConfig, plan: _Plan | None = None):
        """A run of cfg over its `_Bus`, on `plan` as the bus takes it."""
        self.bus = bus = _Bus(cfg, plan)
        self.cfg = cfg
        self.trace = bus.trace
        self.bit_time = bus.bit_time
        self.sends = bus.plan.sends
        self.encoded = bus.plan.encoded
        self.receiver = bus.plan.receiver
        self.queues: dict = {name: [] for name in self.encoded}
        # what the summary reads, kept as the rows are added: each
        # FrameReceived time at the receiver and each Retransmission time
        self.received, self.retransmitted, self.first_failure = [], [], ""

    def run(self) -> tuple:
        bus, duration = self.bus, self.cfg.duration
        advance_idle, jammed = bus.advance_idle, bus.jammed
        queues, sends = self.queues, self.sends
        send_idx, n_sends, bus_free = 0, len(sends), 0.0
        while True:
            # one pass over the queue heads: the earliest time one is
            # ready, and the heads ready then, each as its (sender, entry)
            # in `contenders` and its frame at the same place in `frames`
            t_next, contenders, frames = duration, [], []
            for name, q in queues.items():
                if q:
                    tx = q[0]
                    t = tx.retry_at if tx.retry_at > bus_free else bus_free
                    if t < t_next:
                        t_next, contenders, frames = t, [(name, tx)], [tx.frame]
                    elif t == t_next:
                        contenders.append((name, tx))
                        frames.append(tx.frame)
            # a send due first bounds the idle step, and no head is ready then
            if send_idx < n_sends and sends[send_idx][0] < t_next:
                t_next, contenders, frames = sends[send_idx][0], [], []

            reached = advance_idle(t_next)
            if reached < t_next:
                # a device changed state: a frame parked on the attack
                # retries now; any other head is due no later than before
                for q in queues.values():
                    if q:
                        q[0].retry_at = min(q[0].retry_at, reached)
                continue
            if t_next >= duration:
                break

            # only now, with idle time integrated to t_next, do the sends
            # due by then join their queues: a device change before t_next
            # would pull a queued frame forward. Each is due at t_next (an
            # earlier one would have bounded it), so one that heads its
            # queue on a free bus is ready then and contends
            while send_idx < n_sends and sends[send_idx][0] <= t_next:
                t, name, frame = sends[send_idx]
                send_idx += 1
                q, tx = queues[name], _QueuedTx(frame, t)
                if not q and bus_free <= t_next:
                    contenders.append((name, tx))
                    frames.append(frame)
                q.append(tx)
            if not contenders:
                continue

            # senders' ids are distinct, so the winner equals its own frame only
            name, tx = contenders[frames.index(arbitrate(frames))]

            # a jammed bus lets no frame start: park until the jam ends
            if (jam_end := jammed(t_next)) is not None:
                tx.retry_at = jam_end
                continue

            delivered, bus_free = self.simulate_attempt(name, tx, t_next)
            if delivered:
                queues[name].pop(0)
            else:
                tx.attempts += 1
                tx.retry_at = bus.retry_at(bus_free)

        bus.record_ticks()
        return self.trace, self.summarize()

    def simulate_attempt(self, ecu: str, tx: _QueuedTx, t0: float) -> tuple:
        """Run one transmission attempt; returns (delivered, t_bus_free).
        The bus gives its error bit and reason (`sample_bits`); its rows
        take their value and detail from `encoded`."""
        bits, ack_delim, value, data = self.encoded[ecu]
        bt = self.bit_time
        first_attempt = tx.attempts == 0

        if first_attempt:
            self.trace.add(t0, "FrameSent", ecu, "", value, data)
        else:
            self.retransmitted.append(t0)
            self.trace.add(t0, "Retransmission", ecu, "", value, str(tx.attempts))

        error_bit, error_reason = self.bus.sample_bits(bits, ack_delim, first_attempt, t0)

        if error_bit is None:
            frame_end = t0 + len(bits) * bt
            if self.receiver is not None:
                self.trace.add(frame_end, "FrameReceived", self.receiver, "", value, data)
                self.received.append(frame_end)
            return True, frame_end + INTERMISSION_BITS * bt

        # error frame: 6 dominant flag bits drive the bus, then 8
        # recessive delimiter bits and the intermission
        self.first_failure = self.first_failure or error_reason
        err_start = t0 + (error_bit + 1) * bt
        self.trace.add(err_start, "ErrorFrame", ecu, "", None, error_reason)
        flag_end = err_start + ERROR_FLAG_BITS * bt
        self.bus.error_flag(err_start, flag_end)
        return False, flag_end + (ERROR_DELIMITER_BITS + INTERMISSION_BITS) * bt

    def summarize(self) -> Summary:
        """The run's summary, from what it kept as it added its rows: the
        FrameReceived times at the receiver (`received`) and the
        Retransmission times (`retransmitted`). It reads no trace row."""
        return Summary(
            messages_sent=len(self.sends),
            messages_received=len(self.received),
            indicator=tuple(_slot_flags(self.received, self.bus.plan.period, self.cfg.duration)),
            retransmissions=len(self.retransmitted),
            attack_success=self.attack_succeeded(),
            device_trips=dict(self.bus.bank.trip_times),
            damaged=self.bus.bank.damaged,
            damage_time=self.bus.bank.damaged_at,
            first_failure_reason=self.first_failure,
        )

    def attack_succeeded(self) -> bool:
        """A DoS or pulse lets no frame sent in its window through, though
        one was sent; a forced retransmission forces one in its window; an
        overcurrent damages a pin. No attack never succeeds."""
        a = self.cfg.attack
        if isinstance(a, _BLOCKING):
            expected = any(a.active(t) for t, _, _ in self.sends)
            return expected and not any(map(a.active, self.received))
        if isinstance(a, atk.ForcedRetransmission):
            return any(map(a.active, self.retransmitted))
        return isinstance(a, (atk.PassiveOvercurrent, atk.ActiveOvercurrent)) and self.bus.bank.damaged


def run_scenario(cfg: ScenarioConfig, *, _plan: _Plan | None = None) -> tuple:
    """Simulate one scenario; returns (Trace, Summary). Without `_plan`
    the config is validated and planned here; `run_sweep` passes the plan
    of the sweep it validated, which holds for each of its points."""
    return _Scheduler(cfg, _plan).run()


def message_indicator(trace: Trace, period: float, duration: float, receiver: str | None = None) -> list:
    """Per-slot delivery flags: 1 when a frame arrived inside the slot,
    at `receiver` when given; the slots of `_slot_flags`."""
    times = [
        t for t, kind, ecu, _, _, _ in trace.event_rows
        if kind == "FrameReceived" and (receiver is None or ecu == receiver)
    ]
    return _slot_flags(times, period, duration)


def _slot_flags(times, period: float, duration: float) -> list:
    """Flags over the slots of `period` that tile `duration`: 1 for each
    slot that holds one of `times`. A run's summary flags its delivery
    times by this rule, and `message_indicator` a trace's."""
    slots = int(round(duration / period))
    flags = [0] * slots
    for t in times:
        k = int(t // period)
        if 0 <= k < slots:
            flags[k] = 1
    return flags


@dataclass(frozen=True)
class SweepPoint:
    value: float
    success: bool
    summary: Summary


def run_sweep(cfg: ScenarioConfig) -> list:
    """Independent deterministic runs over the configured grid, one
    `run_scenario` per point. The config and every point's attack are
    validated before any point runs, and the points share one plan."""
    if cfg.sweep is None:
        raise ConfigError("sweep", "config has no sweep section")
    subs = validate_config(cfg)
    plan = _Plan.of(cfg)
    points = []
    for v, sub in zip(cfg.sweep.values(), subs):
        _, summary = run_scenario(sub, _plan=plan)
        points.append(SweepPoint(value=v, success=summary.attack_success, summary=summary))
    return points
