"""Deterministic scenario engine.

Frames advance event by event. A frame attempt runs bit by bit when an
attack could keep one of its bits from reading as driven, or an
accumulator could trip, flip or run at two currents during it; sub-bit
physics (pulse phases, recovery tails, device trips) stay closed form.
Device and damage accumulators integrate over piecewise-constant current
segments, so a fuse can blow in the middle of a bit and the rest of the
frame sees the recovered bus.

The engine owns the timeline and composes the library's models: bus
solves and pulse phase edges from `electrical`, the receiver comparator
`link.sample_bit`, and the `irs` devices, whose trip law
(`irs.TripTimer`) is also each host pin's damage accumulator. Error
frames and retransmission timing are computed here and nowhere else.

A frame that an attack would kill on every attempt is *parked*: its one
retry time moves to the window end, and a device that changes
connectivity before then wakes it. Parking reads the engine's own
cached solves at the gated pins: an idle bus that engages the
comparator (a jam) parks a frame before it starts, and a failed attempt
inside a DoS or pulse window parks when the gated window pairs do not
read a dominant bit as driven, by the rule that decides steady windows
(`phases_read_driven`). A forced retransmission is never parked: it
succeeds by a retransmission inside its window, so parking its frames
would move those records and its verdict. The one closed-form
predictor the engine still calls is the FRA ACK delimiter check
(`attacks.fra_ack_delimiter_corrupted`).

The attack window is one set of fields: its edges, which are infinite
without an attack so the window never opens; the attacker's pin pairs
in it (`attacks.window_pins`: a pulse's high and low phase, else one);
and its phase clock (the attack's `clock`: a pulse's, else the
unbounded `electrical.PulseClock`, always in its first phase), whose
`phase` picks the pair at a time.

Bus solves depend only on the driven level and the attacker pin modes
(topology and parameters are fixed for a run), so each scenario solves
each pair once (`solved`) and keeps it with the host's pin currents.

The engine asks a protective device the `irs` device questions, and
its kind only to name its trace record. `advance_constant` steps each
device and advances each damage timer that is not at rest; the earliest
open/close change bounds the step, and a device stepped past it is
stepped again to it.

One rest rule decides every shortcut: a step at given pin currents,
inside the attack window or not, leaves every accumulator as it is when
each device and damage timer is at rest at the current it sees
(`_PinBank.moving` finds nothing to move). A damage timer sees the
current its pin's device passes; a device sees
`_PinBank.device_current`: the bench drive in the window when one is
set (a thermostat's only), else its pin current, as it passes it. Each
verdict is kept in `_Sim.resting` until a step moves an accumulator. It
is applied in two places, the first of which widens it to devices that
move at one current:

- *Quiescent frames.* A frame skips the per-bit work from its SOF, or
  from any later bit, when no attack window overlaps the bits left, or
  a window holds them, and `crossing` passes: every bit samples as
  driven, which in a window needs `link.reads_driven` to pass its
  phases at the gated window pairs' v_diffs at each driven level (one
  unbounded phase for a static attack, a pulse's high and low phase);
  every damage timer rests; and each device rests at every pin pair and
  level, or sees one current at all of them (`_PinBank.moving`). So a
  pulse whose masking phase is shorter than the decode hold is steady
  once its accumulators rest, and a coil that heats or cools at one
  current does not stop the frame. Inside the window the first attempt
  still asks the FRA check at its ACK delimiter. Each moving device is
  then folded over the pieces of the bits crossed, cut as `drive` cuts
  them, by `irs` `steps`: the per-bit path's own step arithmetic,
  without its solves, gating or comparator. A device that would open or
  close in them sends those bits one by one, from the state before
  them. An attempt asks at its SOF, and again for the rest of the frame
  after a bit in which a device opened or closed or a damage timer
  tripped, and at its first bit past a window edge: a fuse or damage
  limit that trips early in a frame leaves the rest of it steady.
- *Idle jumps.* `advance_idle` crosses the idle stretch up to the next
  event or window edge in one step when the idle bus rests at each pin
  pair it takes there: the inputs outside the attack window, each
  window pair inside. Otherwise that stretch is sliced at every whole
  second.
  `irs.ThermostatCoil.step` starts its tau/10 step grid afresh at each
  call, so only this slicing keeps the thermostat and over-timer
  numerics fixed.

A driven bit is cut into pieces, and each piece costs constant work:

- *Cut from the cursor.* `cuts` yields each cut from the one before it:
  the first window edge after it or, inside the window, the clock's
  `next_edge` when that comes first, without listing the bit's cuts. A
  trip that ends a piece early restarts it there.
- *Phase-pin lookup.* The attacker's pin pairs are built once per run;
  a piece picks its pair with the clock's `phase`.

The 1 Hz samples are a function of the run's history, built once after
the run (`record_ticks`): tick k records the idle bus at the attacker's
pin pair at k seconds, gated by the connectivity after every trip or
thermostat flip stamped at or before k. Ticks with the same records
form one run `[first, last, samples]`; inside a pulse window each tick
picks its phase pair. Records sort by time, and at equal stamps by kind
(`trace.Trace.add`): every other event, AttackStart, the tick, AttackEnd,
then FrameSent and Retransmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import attacks as atk
from . import irs
# the config names stay importable from the engine
from .config import (  # noqa: F401
    MAX_SWEEP_POINTS, CalibratedParams, ConfigError, DamageParams, EcuSpec, IrsConfig, ScenarioConfig,
    SweepSpec, set_sweep_value, validate_config,
)
from .electrical import (
    INPUT,
    BusTopology,
    OutputHigh,
    PinCurrents,
    PulseClock,
    solve_bus_detailed,
)
from .link import (
    DOMINANT_THRESHOLD,
    ERROR_DELIMITER_BITS,
    ERROR_FLAG_BITS,
    INTERMISSION_BITS,
    BitDecision,
    Frame,
    arbitrate,
    bus_bits,
    ack_delimiter_index,
    reads_driven,
    sample_bit,
)
# the trace names stay importable from the engine
from .trace import TRACE_KINDS, Trace, TraceRecord  # noqa: F401


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


def _limit_pin_currents(sol, limit: float):
    """The solution with every pin current capped at `limit` amps either way."""

    def cap(i: float) -> float:
        return max(-limit, min(limit, i))

    currents = {n: PinCurrents(cap(pc.i_ph), cap(pc.i_pl)) for n, pc in sol.pin_currents.items()}
    return replace(sol, pin_currents=currents)


# --- internal simulation -------------------------------------------------

# the attacks that block frames: each keeps dominant bits from reading,
# and parks a frame it kills
_BLOCKING = (atk.DoS, atk.PulseAttack)


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
        self.flips = 0  # every trip, thermostat flip and damage trip counts one

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


class _Sim:
    """One scenario run.

    CPython 3.11 keeps an instance's attributes in its class's shared
    layout only while there are fewer than 30 of them; past that every
    `self.x` load is slower (`attacked_bus` ran about 6% slower with 32,
    on Python 3.11.7). So a value read only on a cold path is derived
    there, not kept as an attribute.
    """

    def __init__(self, cfg: ScenarioConfig):
        validate_config(cfg)
        self.cfg = cfg
        self.topo = BusTopology(termination=cfg.termination)
        self.params = cfg.params.transceiver()
        self.timing = cfg.params.timing(cfg.bus_speed)
        self.bit_time = self.timing.bit_time
        self.attack = attack = cfg.attack
        self.vids = next(e.name for e in cfg.ecus if e.role == "vids-host")
        self.loggers = sorted(e.name for e in cfg.ecus if e.role == "logger")
        self.bank = _PinBank(cfg)
        self.trace = Trace()
        self.integrated_to = 0.0
        self.retransmissions = 0
        self.first_failure = ""
        self.queues: dict = {e.name: [] for e in cfg.ecus if e.role == "sender"}
        # a sender has one frame: its bus bits and ACK delimiter index
        self.encoded = {
            e.name: (bus_bits(e.frame), ack_delimiter_index(e.frame))
            for e in cfg.ecus
            if e.role == "sender"
        }
        self.solutions: dict = {}  # (dominant, pins) -> (BusSolution, VIDS pin currents)
        # until a step moves an accumulator, per side of the attack window:
        # "inside"/"outside" -> the crossing verdict, and "idle inside"/
        # "idle outside" -> the idle bus's rest verdict
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
        self.sends: list = []
        for e in cfg.ecus:
            if e.role != "sender":
                continue
            t = e.offset
            while t < cfg.duration:
                self.sends.append((t, e.name, e.frame))
                t = t + e.period
        self.sends.sort(key=lambda s: (s[0], s[1]))
        self.changes: list = []  # (t, pin, connected) of every trip and thermostat flip
        # sample ticks at 0, 1, ..., last_tick s, recorded after the run
        self.last_tick = int(cfg.duration)
        self.samples: dict = {}  # pins -> a tick's sample records at those pins
        for t, kind in ((self.t_start, "AttackStart"), (self.t_end, "AttackEnd")):
            if t <= cfg.duration:
                self.trace.add(t, kind, ecu=attack.node, detail=type(attack).__name__)

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

    def vids_currents(self, dominant: bool, t: float) -> tuple:
        """(bus solution, VIDS raw pin currents) at time t, cached on (dominant, pins)."""
        return self.solved(dominant, self.pins_at(t))

    def solved(self, dominant: bool, pins: tuple) -> tuple:
        """(bus solution, VIDS raw pin currents) at the driven level and gated
        pins, solved once per run."""
        hit = self.solutions.get((dominant, pins))
        if hit is None:
            sol = solve_bus_detailed({"bus": dominant}, {self.vids: pins}, self.topo, self.params)
            attack = self.attack
            if isinstance(attack, atk.ActiveOvercurrent) and attack.source_limit is not None:
                sol = _limit_pin_currents(sol, attack.source_limit)
            pc = sol.pin_currents[self.vids]
            hit = self.solutions[(dominant, pins)] = (sol, {"ph": pc.i_ph, "pl": pc.i_pl})
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
        """Sample the idle bus at every tick, a run per stretch of equal pins.

        Tick k reads the attacker's pins at k, gated by the connectivity
        after every trip or flip stamped at or before k.
        """
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
        self.trace.add(t, kind, ecu=self.vids, line=pin, detail=detail)
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
        stepped = {}  # pin -> (current, state, elapsed)
        for pin, dev in bank.devices.items():
            i = bank.device_current(pin, i_raw[pin], in_window)
            if not dev.at_rest(i):
                after, off = dev.step(i, stop_off)
                stepped[pin] = (i, after, off)
                if after.open != dev.open:
                    stop_off = off

        # damage triggers strictly inside the bounded exposure: when a
        # device trips at the damage deadline it cuts the current first,
        # leaving the damage timer full but not tripped
        moved = bool(stepped)
        for pin in ("ph", "pl"):
            dmg = bank.damage[pin]
            i = bank.gated_current(pin, i_raw[pin])
            if dmg.at_rest(i):
                continue
            moved = True
            deadline = dmg.time_to_trip(i)
            if deadline == stop_off:
                bank.damage[pin] = replace(dmg, over_timer=dmg.opening_time)
                continue
            bank.damage[pin] = dmg.advance(i, stop_off)
            if deadline < stop_off:
                bank.flips += 1
                if bank.damaged_at is None:
                    bank.damaged_at = a + deadline
                    self.trace.add(a + deadline, "Damage", ecu=self.vids, line=pin)
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

    def idle_inert(self, a: float, b: float) -> bool:
        """No idle step over [a, b) can change an accumulator: the idle bus,
        gated by the connectivity now, rests at the inputs outside the
        attack window and at every window pair (both pulse phases) inside
        it. Each side's verdict is kept in `resting`."""

        def rests(in_window):
            key = "idle inside" if in_window else "idle outside"
            verdict = self.resting.get(key)
            if verdict is None:
                pairs = self.window_pins if in_window else ((INPUT, INPUT),)
                raws = [self.solved(False, self.gate(pins))[1] for pins in pairs]
                verdict = self.resting[key] = self.bank.moving(raws, in_window) == ()
            return verdict

        if (a < self.t_start or self.t_end < b) and not rests(False):
            return False
        return not (self.t_start < b and a < self.t_end) or rests(True)

    def advance_idle(self, target: float) -> float:
        """Integrate the idle bus up to target; early-return on changes.

        Jumps to target when `idle_inert`, else to the next window edge
        when inert up to it, else slices at the next whole second (see
        the module docstring); the idle bus carries no current in either
        pulse phase, so no pulse cuts.
        """
        while self.integrated_to < target:
            a = self.integrated_to
            if self.idle_inert(a, target):
                self.integrated_to = target
                break
            edge = min([target, *(e for e in (self.t_start, self.t_end) if a < e)])
            if self.idle_inert(a, edge):
                self.integrated_to = edge
                continue
            b = min(edge, float(math.floor(a) + 1))
            _, i = self.vids_currents(False, 0.5 * (a + b))
            self.integrated_to = self.advance_constant(a, b, i)
            if self.integrated_to < b:
                return self.integrated_to  # connectivity changed; caller re-plans
        return target

    # -- bus state ---------------------------------------------------------------

    def engages(self, dominant: bool, t: float) -> bool:
        """The bus at this driven level and the gated pins at t engages the
        receiver comparator."""
        return self.vids_currents(dominant, t)[0].voltages.v_diff >= DOMINANT_THRESHOLD

    def attack_blocking(self, t: float) -> bool:
        """The attack kills every attempt at t: t is in a DoS or pulse window
        whose gated pairs do not read a dominant bit as driven
        (`phases_read_driven`)."""
        if not (isinstance(self.attack, _BLOCKING) and self.t_start <= t < self.t_end):
            return False
        solves = (self.solved(True, self.gate(pins))[0] for pins in self.window_pins)
        return not self.phases_read_driven(True, tuple(sol.voltages.v_diff for sol in solves))

    # -- frame transmission ---------------------------------------------------------

    def quiescent(self, bits: list, ack_delim: int, first_attempt: bool, t0: float, k: int = 0):
        """The outcome of `sample_bits` for the frame from t0, with bits
        k.. reached without per-bit work, or None when they must run bit
        by bit. `sample_bits` asks at bit 0 and after each change of the
        state read here.

        Bits k.. are crossed when no attack window overlaps them, or the
        window holds them (from bit k's start to strictly before the
        frame's end, as in `drive`), and `crossing` finds that every bit
        reads as driven, every damage timer rests and each device rests or
        moves at one current. Its reading holds from either comparator
        state and at any phase, so bit k may follow bits sampled one by
        one. Inside the window the first attempt still asks the FRA check
        at its ACK delimiter, unless bit k is past it, and ends after that
        bit when it fires: the per-bit loop reaches that bit only after
        reading the dominant ACK slot as driven. Each moving device then
        folds `steps` over the pieces of the bits crossed, cut as `drive`
        cuts them; when one would open or close in them, nothing is
        committed and the bits run one by one.
        """
        bt, n_bits = self.bit_time, len(bits)
        tk = t0 + k * bt
        # the end of the last bit, rounded exactly as the per-bit loop does
        t1 = t0 + (n_bits - 1) * bt + bt
        in_window = self.t_start < t1 and tk < self.t_end
        if in_window and not (self.t_start <= tk and t1 < self.t_end):
            return None
        moving = self.crossing(in_window)
        if moving is None:
            return None
        outcome = None, ""
        fra = first_attempt and in_window and k <= ack_delim
        if fra and self.fra_stretch_corrupts(t0 + ack_delim * bt):
            outcome, n_bits = (ack_delim, "form_error_ack_delimiter"), ack_delim + 1
            t1 = t0 + ack_delim * bt + bt
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

    def crossing(self, in_window: bool):
        """`bank.moving` over the pin pairs a frame takes in or out of the
        attack window, when every bit reads as driven; else None. Kept
        until the next full accumulator step.

        Outside the window the pins are inputs, which draw nothing at
        either driven level, so the recessive level stands for both.
        Inside, each driven level must read as driven by
        `phases_read_driven` at the gated window pairs' v_diffs.
        """
        key = "inside" if in_window else "outside"
        if key not in self.resting:
            pairs = self.window_pins if in_window else ((INPUT, INPUT),)
            self.resting[key] = None  # the verdict of each early return
            raws = []
            # the dominant level first: an attack that blocks it fails an
            # attempt at its SOF, before any recessive level is solved
            for dominant in (True, False) if in_window else (False,):
                solves = [self.solved(dominant, self.gate(pins)) for pins in pairs]
                v_diffs = tuple(sol.voltages.v_diff for sol, _ in solves)
                if in_window and not self.phases_read_driven(dominant, v_diffs):
                    return None
                raws += [i for _, i in solves]
            self.resting[key] = self.bank.moving(raws, in_window)
        return self.resting[key]

    def phases_read_driven(self, dominant: bool, levels: tuple) -> bool:
        """`link.reads_driven` for the clock's phase lengths (a pulse's high
        and low phase, else one unbounded phase) at `levels`, a v_diff per
        window pair. A piece ends within a few ulps of its true edge,
        so a phase counts 64 ulps of the latest instant a piece can end in
        the window longer: the window's end, or the end of an attempt that
        starts before the run ends, its frame and error flag at most.

        A False verdict, taken as "blocks every bit", assumes a pulse
        phase that drifts against the bits: one locked to the bit grid
        can keep its masking phase off every sample point, and the frame
        is delivered (`tests/test_parking.py` pins such a pulse)."""
        driven = BitDecision.DOMINANT if dominant else BitDecision.RECESSIVE
        lengths = self.clock.lengths
        longest = max((len(bits) for bits, _ in self.encoded.values()), default=0) + ERROR_FLAG_BITS
        slop = 64 * math.ulp(min(self.t_end, self.cfg.duration + longest * self.bit_time))
        return reads_driven(tuple(zip(lengths, levels)), driven, self.timing, self.extension, slop)

    def simulate_attempt(self, ecu: str, tx: _QueuedTx, t0: float) -> tuple:
        """Run one transmission attempt; returns (delivered, t_bus_free)."""
        f = tx.frame
        bits, ack_delim = self.encoded[ecu]
        bt = self.bit_time

        if tx.attempts == 0:
            self.trace.add(t0, "FrameSent", ecu=ecu, value=float(f.id), detail=f.data.hex())
        else:
            self.retransmissions += 1
            self.trace.add(t0, "Retransmission", ecu=ecu, value=float(f.id), detail=str(tx.attempts))

        error_bit, error_reason = self.sample_bits(bits, ack_delim, tx.attempts == 0, t0)

        if error_bit is None:
            t_end = t0 + len(bits) * bt
            for lg in self.loggers[:1]:
                self.trace.add(t_end, "FrameReceived", ecu=lg, value=float(f.id), detail=f.data.hex())
            return True, t_end + INTERMISSION_BITS * bt

        # error frame: 6 dominant flag bits drive the bus, then 8
        # recessive delimiter bits and the intermission
        if not self.first_failure:
            self.first_failure = error_reason
        err_start = t0 + (error_bit + 1) * bt
        self.trace.add(err_start, "ErrorFrame", ecu=ecu, detail=error_reason)
        flag_end = err_start + ERROR_FLAG_BITS * bt
        self.drive(True, err_start, flag_end)
        t_free = flag_end + (ERROR_DELIMITER_BITS + INTERMISSION_BITS) * bt
        return False, t_free

    def drive(self, dominant: bool, a: float, b: float) -> list:
        """Drive one level over [a, b), piece by piece.

        Returns the pieces (start, end, v_diff); a piece ends at the next
        cut or where a device changed connectivity. A piece is sampled at
        its midpoint: a cut time itself can fall on either side of a
        pulse edge in floats.
        """
        pieces = []
        cursor = a
        cuts = self.cuts(a, b)
        while cursor < b:
            hi = next(cuts)
            sol, i = self.vids_currents(dominant, 0.5 * (cursor + hi))
            reached = self.advance_constant(cursor, hi, i)
            pieces.append((cursor, reached, sol.voltages.v_diff))
            if reached < hi:
                cuts = self.cuts(reached, b)
            cursor = reached
        self.integrated_to = max(self.integrated_to, b)
        return pieces

    def sample_bits(self, bits: list, ack_delim: int, first_attempt: bool, t0: float) -> tuple:
        """Drive and sample the frame bit by bit from t0, handing the rest
        of it to `quiescent` at bit 0 and again wherever the state it reads
        may have changed: after a bit in which a device opened or closed or
        a damage timer tripped (`bank.flips` moved), and at the first bit
        that starts on the other side of a window edge. Asking at every bit
        would refold a moving device over the rest of the frame at each one.

        The bit before the ACK delimiter is the ACK slot, driven dominant,
        so the FRA check there follows a dominant bit read as driven.
        Returns (error bit index, reason), or (None, "") when every bit
        reads as driven.
        """
        bt = self.bit_time
        t_start, t_end = self.t_start, self.t_end
        bank = self.bank
        comparator = (BitDecision.RECESSIVE, t0 - 1.0)  # idle bus precedes the frame
        flips = side = None

        for k, bit in enumerate(bits):
            b0 = t0 + k * bt
            here = (t_start <= b0) + (t_end <= b0)  # the window side bit k starts on
            if bank.flips != flips or here != side:
                flips, side = bank.flips, here
                outcome = self.quiescent(bits, ack_delim, first_attempt, t0, k)
                if outcome is not None:
                    return outcome
            dominant = bit == 0
            pieces = self.drive(dominant, b0, b0 + bt)
            driven = BitDecision.DOMINANT if dominant else BitDecision.RECESSIVE
            sampled, comparator = sample_bit(pieces, driven, self.timing, comparator, self.extension)
            if dominant and sampled is BitDecision.RECESSIVE:
                return k, "bit_error"
            if k == ack_delim and first_attempt and self.fra_stretch_corrupts(b0):
                return k, "form_error_ack_delimiter"
        return None, ""

    def fra_stretch_corrupts(self, b0: float) -> bool:
        """The recessive bit from b0, after a dominant one, still reads
        dominant at its sample point."""
        p_h, _ = self.pins_at(b0 + self.timing.sample_point * self.bit_time)
        if not isinstance(p_h, OutputHigh) or p_h.level < 3.5:
            return False
        return atk.fra_ack_delimiter_corrupted(p_h.level, self.timing, self.cfg.params.tau_rc)

    # -- main loop ---------------------------------------------------------------------

    def run(self) -> tuple:
        cfg = self.cfg
        send_idx = 0
        bus_free = 0.0
        while True:
            ready = {name: max(bus_free, q[0].retry_at) for name, q in self.queues.items() if q}
            t_next = min([cfg.duration, *ready.values()])
            if send_idx < len(self.sends):
                t_next = min(t_next, self.sends[send_idx][0])

            reached = self.advance_idle(t_next)
            if reached < t_next:
                # a device changed state: a frame parked on the attack
                # retries now; any other head is due no later than before
                for q in self.queues.values():
                    if q:
                        q[0].retry_at = min(q[0].retry_at, reached)
                continue
            if t_next >= cfg.duration:
                break

            if send_idx < len(self.sends) and self.sends[send_idx][0] <= t_next:
                t, name, frame = self.sends[send_idx]
                send_idx += 1
                self.queues[name].append(_QueuedTx(frame, t))
                continue

            # no send is due, so t_next is the earliest ready time
            contenders = [(name, self.queues[name][0]) for name, t in ready.items() if t <= t_next]
            winner = arbitrate([tx.frame for _, tx in contenders])
            name, tx = next(c for c in contenders if c[1].frame == winner)

            # an idle bus that engages the comparator lets no frame start;
            # only an attack raises it, so park until the window ends
            if self.engages(False, t_next):
                tx.retry_at = self.t_end
                continue

            delivered, bus_free = self.simulate_attempt(name, tx, t_next)
            if delivered:
                self.queues[name].pop(0)
            else:
                tx.attempts += 1
                tx.retry_at = self.t_end if self.attack_blocking(bus_free) else bus_free

        self.record_ticks()
        return self.trace, self.summarize()

    def summarize(self) -> Summary:
        cfg = self.cfg
        indicator = message_indicator(
            self.trace,
            period=self._indicator_period(),
            duration=cfg.duration,
            receiver=self.loggers[0] if self.loggers else None,
        )
        return Summary(
            messages_sent=len(self.sends),
            messages_received=len(self.trace.of_kind("FrameReceived")),
            indicator=tuple(indicator),
            retransmissions=self.retransmissions,
            attack_success=self.attack_succeeded(),
            device_trips=dict(self.bank.trip_times),
            damaged=self.bank.damaged,
            damage_time=self.bank.damaged_at,
            first_failure_reason=self.first_failure,
        )

    def _indicator_period(self) -> float:
        senders = [e for e in self.cfg.ecus if e.role == "sender"]
        return senders[0].period if senders else 1.0

    def attack_succeeded(self) -> bool:
        """A DoS or pulse lets no frame sent in its window through, though
        one was sent; a forced retransmission forces one in its window; an
        overcurrent damages a pin. No attack never succeeds."""
        a = self.attack
        if isinstance(a, _BLOCKING):
            expected = any(a.active(t) for t, _, _ in self.sends)
            return expected and not any(
                r.kind == "FrameReceived" and a.active(r.t) for r in self.trace.events
            )
        if isinstance(a, atk.ForcedRetransmission):
            return any(r.kind == "Retransmission" and a.active(r.t) for r in self.trace.events)
        return isinstance(a, (atk.PassiveOvercurrent, atk.ActiveOvercurrent)) and self.bank.damaged


def run_scenario(cfg: ScenarioConfig) -> tuple:
    """Simulate one scenario; returns (Trace, Summary)."""
    return _Sim(cfg).run()


def message_indicator(
    trace: Trace,
    period: float = 1.0,
    duration: float | None = None,
    receiver: str | None = None,
) -> list:
    """Per-slot delivery flags: 1 when a frame arrived inside the slot."""
    if duration is None:
        duration = trace.end
    slots = int(round(duration / period))
    flags = [0] * slots
    for r in trace.events:
        if r.kind != "FrameReceived":
            continue
        if receiver is not None and r.ecu != receiver:
            continue
        k = int(r.t // period)
        if 0 <= k < slots:
            flags[k] = 1
    return flags


@dataclass(frozen=True)
class SweepPoint:
    value: float
    success: bool
    summary: Summary


def run_sweep(cfg: ScenarioConfig) -> list:
    """Independent deterministic runs over the configured grid."""
    if cfg.sweep is None:
        raise ConfigError("sweep", "config has no sweep section")
    points = []
    for v in cfg.sweep.values():
        sub = set_sweep_value(cfg, cfg.sweep.path, v)
        _, summary = run_scenario(sub)
        points.append(SweepPoint(value=v, success=summary.attack_success, summary=summary))
    return points
