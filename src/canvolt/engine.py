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
and one phase rule, `phase`, which picks the pair at a time.

Bus solves depend only on the driven level and the attacker pin modes
(topology and parameters are fixed for a run), so each scenario solves
each pair once (`solved`) and keeps it with the host's pin currents.

The engine asks a protective device the `irs` device questions, and
its kind only to name its trace record. `advance_constant` steps each
device not at rest; the earliest open/close change bounds the step, and
a device stepped past it is stepped again to it.

One rest rule decides every shortcut: a step at given pin currents,
inside the attack window or not, leaves every accumulator as it is when
each device and damage timer is at rest at the current it sees. A
damage timer sees the current its pin's device passes; a device sees
`_PinBank.device_current`: the bench drive in the window when one is
set (a thermostat's only), else its pin current, as it passes it.
`_Sim.at_rest` asks the rule and keeps each verdict until the next step
that is taken; `resting_v_diffs` asks it for a set of pin pairs. It is
applied in four places, the first of which widens it to devices that
move at one current:

- *Quiescent frames.* A frame skips the per-bit work when no attack
  window overlaps it, or a window holds it, and `crossing` passes:
  every bit samples as driven, which in a window needs
  `link.reads_driven` to pass its phases at the gated window pairs'
  v_diffs at each driven level (one unbounded phase for a static
  attack, a pulse's high and low phase); every damage timer rests; and
  each device rests at every pin pair and level, or sees one current at
  all of them (`_PinBank.moving`). So a pulse whose masking phase is
  shorter than the decode hold is steady once its accumulators rest,
  and a coil that heats or cools at one current does not stop the
  frame. Inside the window the first attempt still asks the FRA check
  at its ACK delimiter. Each moving device is then folded over the
  frame's pieces, cut as `drive` cuts them, by `irs` `steps`: the
  per-bit path's own step arithmetic, without its solves, gating or
  comparator. A device that would open or close in them sends the frame
  bit by bit, from the state before it.
- *Skipped steps.* `advance_constant` skips a step that rests, be it a
  piece of a driven bit or an idle slice.
- *Resting pulse bits.* A bit inside a pulse window, while both gated
  phase pairs rest at its level, costs only its cuts and the
  comparator: each piece takes the v_diff of its `phase`, with no pin
  lookup, solve lookup or accumulator step.
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
  the first window edge or pulse phase edge after it, found with
  `electrical.pulse_edges`' arithmetic from its period, without listing
  the bit's cuts. A trip that ends a piece early restarts it there.
- *Phase-pin lookup.* The attacker's pin pairs are built once per run;
  a piece picks its pair with `phase`, the phase test of
  `electrical.resolve_pulse`.

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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from . import attacks as atk
from . import irs
from .electrical import (
    INPUT,
    BusTopology,
    OutputHigh,
    PinCurrents,
    TransceiverParams,
    TAU_RC_DEFAULT,
    NOMINAL_TRANSITION,
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
    frame_bit_length,
    reads_driven,
    sample_bit,
)
# the trace names stay importable from the engine
from .trace import TRACE_KINDS, Trace, TraceRecord  # noqa: F401

# a sweep point is a full run; a grid finer than this is a typo, and
# listing it alone would take seconds
MAX_SWEEP_POINTS = 10_001


class ConfigError(ValueError):
    """Invalid scenario configuration; carries the offending field path."""

    def __init__(self, path: str, message: str, line: int | None = None):
        self.path = path
        self.line = line
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class CalibratedParams:
    """Calibrated electrical and timing constants in one place."""

    r_drive_high: float = 26.7
    r_sink_offset: float = 1.4
    r_sink: float = 12.8
    tau_rc: float = TAU_RC_DEFAULT
    nominal_transition: float = NOMINAL_TRANSITION
    sample_point: float = 0.359
    decode_hold: float = 340e-9
    hysteresis: float = 0.15
    transition_extension: float = atk.TRANSITION_EXTENSION_DEFAULT

    def transceiver(self) -> TransceiverParams:
        return TransceiverParams(
            r_drive_high=self.r_drive_high,
            r_sink_offset=self.r_sink_offset,
            r_sink=self.r_sink,
        )

    def timing(self, bus_speed: float = 500_000.0) -> BitTiming:
        return BitTiming(
            bus_speed=bus_speed,
            sample_point=self.sample_point,
            decode_hold=self.decode_hold,
            hysteresis=self.hysteresis,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CalibratedParams":
        known = set(cls().to_dict())
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"params.{sorted(unknown)[0]}", "unknown parameter")
        for key, value in d.items():
            # a JSON true or false is a Python int; it is not a number here
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"params.{key}", f"not a number: {value!r}")
        return cls(**d)


@dataclass(frozen=True)
class EcuSpec:
    """One node: the compromised VIDS host, a sender, or a logger."""

    name: str
    role: str  # 'vids-host' | 'sender' | 'logger'
    period: float | None = None
    frame: Frame | None = None
    offset: float = 0.0


@dataclass(frozen=True)
class IrsConfig:
    """Protective devices wired in series with the monitored pins."""

    device: str  # 'fuse' | 'breaker' | 'resettable_fuse' | 'thermostat'
    pins: str = "both"  # 'both' | 'ph' | 'pl'
    rating: float = 0.010
    opening_time: float = 1e-6
    leakage_current: float = 0.100
    r_coil: float = 1.0
    t_limit: float = 40.0
    t_ambient: float = 25.0
    coil_hysteresis: float = 2.0
    thermal_gain: float = 40.0
    tau_thermal: float = 2.0
    coil_drive: float | None = None  # bench-supply amps forced through the coil in-window

    def build(self):
        if self.device == "fuse":
            return irs.FuseState(rating=self.rating, opening_time=self.opening_time)
        if self.device == "breaker":
            return irs.BreakerState(rating=self.rating, opening_time=self.opening_time)
        if self.device == "resettable_fuse":
            return irs.ResettableFuseState(
                rating=self.rating,
                opening_time=self.opening_time,
                leakage_current=self.leakage_current,
            )
        if self.device == "thermostat":
            return irs.ThermostatCoil(
                r_coil=self.r_coil,
                temp=self.t_ambient,
                t_ambient=self.t_ambient,
                t_limit=self.t_limit,
                hysteresis=self.coil_hysteresis,
                thermal_gain=self.thermal_gain,
                tau_thermal=self.tau_thermal,
            )
        raise ConfigError("irs.device", f"unknown device {self.device!r}")


@dataclass(frozen=True)
class DamageParams:
    i_max: float = 0.040
    damage_time: float = 1e-6


@dataclass(frozen=True)
class SweepSpec:
    path: str  # dotted attack parameter, e.g. 'attack.v_attack_l'
    start: float
    stop: float
    step: float

    def size(self) -> float:
        """The number of grid points; inf when the step is too fine to count them."""
        span = (self.stop - self.start) / self.step + 0.5
        return math.floor(span) + 1 if math.isfinite(span) else math.inf

    def values(self) -> list:
        return [round(self.start + k * self.step, 12) for k in range(self.size())]


@dataclass(frozen=True)
class ScenarioConfig:
    duration: float = 60.0
    bus_speed: float = 500_000.0
    ecus: tuple = ()
    attack: Optional[atk.AttackSpec] = None
    irs_config: Optional[IrsConfig] = None
    damage: DamageParams = field(default_factory=DamageParams)
    sweep: Optional[SweepSpec] = None
    params: CalibratedParams = field(default_factory=CalibratedParams)
    termination: float = 120.0


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


# field name -> its INI key, where the two differ
_INI_KEYS = {"bus_speed": "speed", "t_start": "start", "t_end": "end", "v_attack_l": "v",
             "v_attack_h": "v", "source_limit": "current_limit", "leakage_current": "leakage",
             "coil_hysteresis": "hysteresis"}
_POSITIVE = {"duration", "bus_speed", "termination", "period", "opening_time", "tau_thermal", "r_coil"}
# a negative limit (rating, i_max) would count a pin carrying no current as over it
_NON_NEGATIVE = {
    "offset", "rating", "leakage_current", "i_max", "damage_time", "coil_hysteresis", "thermal_gain"
}


def _check_numbers(section: str, obj, skip: tuple = ()) -> None:
    """Each number field of `obj` but those in `skip` must be finite, and
    positive or non-negative where its name is listed so (NaN is neither);
    an error names `<section>.<key>`."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in skip or not isinstance(value, (int, float)):
            continue
        sign = "positive" if f.name in _POSITIVE else "non-negative" if f.name in _NON_NEGATIVE else ""
        if not math.isfinite(value) or (sign and value < 0.0) or (sign == "positive" and value == 0.0):
            rule = f"{sign} and finite" if sign else "finite"
            raise ConfigError(f"{section}.{_INI_KEYS.get(f.name, f.name)}", f"must be {rule}")


def validate_config(cfg: ScenarioConfig) -> None:
    """Raise a ConfigError, at the `<section>.<key>` at fault, for a config
    that cannot run."""
    _check_numbers("bus", cfg)
    _check_numbers("params", cfg.params)
    _check_numbers("damage", cfg.damage)
    try:
        cfg.params.transceiver()
        cfg.params.timing(cfg.bus_speed)
    except ValueError as exc:
        raise ConfigError("params", str(exc))
    if not cfg.ecus:
        raise ConfigError("ecu", "at least one ECU required")
    names = [e.name for e in cfg.ecus]
    if len(set(names)) != len(names):
        raise ConfigError("ecu", "duplicate ECU names")
    hosts = [e for e in cfg.ecus if e.role == "vids-host"]
    if len(hosts) != 1:
        raise ConfigError("ecu", f"exactly one vids-host required, found {len(hosts)}")
    bit_time = 1.0 / cfg.bus_speed
    tx_times = []  # each sender's frame time
    for e in cfg.ecus:
        if e.role not in ("vids-host", "sender", "logger"):
            raise ConfigError(f"ecu.{e.name}.role", f"unknown role {e.role!r}")
        if e.role == "sender":
            if e.period is None or e.frame is None:
                raise ConfigError(f"ecu.{e.name}", "sender needs period and frame")
            _check_numbers(f"ecu.{e.name}", e)
            tx_times.append(frame_bit_length(e.frame) * bit_time)
            if e.period <= tx_times[-1]:
                raise ConfigError(
                    f"ecu.{e.name}.period",
                    f"period {e.period} not above frame time {tx_times[-1]:.6g}",
                )
    if cfg.attack is not None:
        _validate_attack(cfg.attack, hosts[0].name, tx_times)
    dev = cfg.irs_config
    if dev is not None:
        if dev.pins not in ("both", "ph", "pl"):
            raise ConfigError("irs.pins", f"unknown pin selection {dev.pins!r}")
        _check_numbers("irs", dev)
        if dev.coil_drive is not None and dev.device != "thermostat":
            raise ConfigError("irs.coil_drive", "only a thermostat has a coil to drive")
        # a coil at rest is closed at ambient, so ambient must be under the
        # limit; an open coil recloses only once it cools below the
        # reclose point, so ambient must be under that too
        if dev.device == "thermostat":
            if dev.t_limit <= dev.t_ambient:
                raise ConfigError("irs.t_limit", "must be above t_ambient")
            if dev.t_limit - dev.coil_hysteresis <= dev.t_ambient:
                raise ConfigError("irs.hysteresis", "must be below t_limit - t_ambient")
    sweep = cfg.sweep
    if sweep is not None:
        grid = (sweep.start, sweep.stop, sweep.step)
        if not (all(map(math.isfinite, grid)) and sweep.step > 0 and sweep.stop >= sweep.start):
            raise ConfigError("sweep", "grid must be finite, with positive step and stop >= start")
        if sweep.size() > MAX_SWEEP_POINTS:
            raise ConfigError(
                "sweep.step", f"grid has {sweep.size()} points, more than {MAX_SWEEP_POINTS}"
            )
        # a sweep point differs from the config in its attack only
        for value in sweep.values():
            point = set_sweep_value(cfg, sweep.path, value)
            _validate_attack(point.attack, hosts[0].name, tx_times)


def _validate_attack(attack: atk.AttackSpec, host: str, tx_times: list) -> None:
    if attack.node != host:
        raise ConfigError("attack.node", "attack must originate at the vids-host")
    # the window's edges may be infinite, but a pulse's start anchors its phase
    pulse = isinstance(attack, atk.PulseAttack)
    _check_numbers("attack", attack, skip=("t_end",) if pulse else ("t_start", "t_end"))
    if pulse and tx_times and attack.period >= min(tx_times):
        raise ConfigError(
            "attack.period",
            f"pulse period {attack.period} not below frame time {min(tx_times):.6g}",
        )
    try:
        atk.window_pins(attack)
    except ValueError as exc:
        raise ConfigError("attack", str(exc))


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

    def at_rest(self, i_raw: dict, in_window: bool) -> bool:
        """A step at these raw pin currents, in the attack window or not,
        leaves every accumulator as it is: each device is at rest at the
        current it sees, and each damage timer at its gated current."""
        for pin, dev in self.devices.items():
            if not dev.at_rest(self.device_current(pin, i_raw[pin], in_window)):
                return False
        return all(
            self.damage[pin].at_rest(self.gated_current(pin, i_raw[pin])) for pin in ("ph", "pl")
        )

    def moving(self, raws: list, in_window: bool):
        """The devices that steps at each of these raw pin currents move,
        as (pin, current) pairs, when every damage timer rests at all of
        them and each device rests at every current it sees there or sees
        one current; else None."""
        seen = {pin: set() for pin in self.devices}
        for i_raw in raws:
            for pin in ("ph", "pl"):
                if not self.damage[pin].at_rest(self.gated_current(pin, i_raw[pin])):
                    return None
            for pin, currents in seen.items():
                currents.add(self.device_current(pin, i_raw[pin], in_window))
        moving = []
        for pin, currents in seen.items():
            if not all(map(self.devices[pin].at_rest, currents)):
                if len(currents) > 1:
                    return None
                moving.append((pin, *currents))
        return tuple(moving)

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
            e.name: (bus_bits(e.frame, acked=True), ack_delimiter_index(e.frame))
            for e in cfg.ecus
            if e.role == "sender"
        }
        self.solutions: dict = {}  # (dominant, pins) -> (BusSolution, VIDS pin currents)
        # until the next full step: (i_ph, i_pl, in window) -> the at_rest
        # verdict, and dominant -> the resting_levels verdict
        self.resting: dict = {}
        # the attack window, which never opens without an attack, and the
        # attacker's pin pairs in it: a pulse's high and low phase, else one
        self.t_start = self.t_end = math.inf
        self.window_pins = ((INPUT, INPUT),)
        if attack is not None:
            self.t_start, self.t_end = attack.t_start, attack.t_end
            self.window_pins = atk.window_pins(attack)
        # the phase test's terms: a pulse's, else one unbounded phase
        self.phase_origin, self.period, self.high_time = 0.0, math.inf, math.inf
        pulse = isinstance(attack, atk.PulseAttack)
        if pulse:
            self.phase_origin, self.period = attack.phase_origin, attack.period
            self.high_time = attack.duty * attack.period
        # a pulse on CANH drags the recovery out past each low phase
        self.extension = cfg.params.transition_extension if pulse and attack.line == "canh" else 0.0
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
        """Gated (P_H, P_L) modes of the VIDS node at time t: the window pair
        of its `phase` inside the window, else inputs; this equals the gated
        `atk.pin_override`. `connected` gives each pin's connectivity as
        (P_H, P_L); by default, the devices' now.
        """
        pins = self.window_pins[self.phase(t)] if self.t_start <= t < self.t_end else (INPUT, INPUT)
        return self.gate(pins, connected)

    def phase(self, t: float) -> int:
        """The index in `window_pins` of the pair the attacker applies at t
        in the window: by the phase test of `electrical.resolve_pulse`, a
        pulse's high phase 0 or low phase 1; 0 for a window of one pair,
        whose period is unbounded."""
        period = self.period
        return 0 if (t - self.phase_origin) % period < self.high_time or period == math.inf else 1

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
        pulse phase edge after the cut before it, the last one b.

        The pulse edges are those `electrical.pulse_edges` lists over the
        window's part of [cut, b), with the same float arithmetic, walked
        from the period that holds the previous cut up to the first one;
        a window of one pair (unbounded period) has none.
        """
        t_start, t_end = self.t_start, self.t_end
        origin, period, high_time = self.phase_origin, self.period, self.high_time
        pulsed = period < math.inf
        while a < b:
            end = b
            if a < t_start < end:
                end = t_start
            if a < t_end < end:
                end = t_end
            if pulsed:
                lo = t_start if t_start > a else a
                hi = t_end if t_end < b else b
                t = origin + math.floor((lo - origin) / period) * period
                while t < hi and t < end:
                    edge = t if a < t and lo <= t else t + high_time
                    if a < edge and lo <= edge:
                        if edge < end and edge < hi:
                            end = edge
                        break
                    t += period
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
                end = k if self.period < math.inf else min(end, self.tick_before(self.t_end))
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
        if dev.conducting != was.conducting:
            self.changes.append((t, pin, dev.conducting))
        if dev.open and pin not in self.bank.trip_times:
            self.bank.trip_times[pin] = t

    def advance_constant(self, a: float, b: float, i_raw: dict) -> float:
        """Advance accumulators over [a, b) of constant raw pin currents.

        Returns the time actually reached; stops early when a device
        opens or closes so the caller can re-solve the bus. Timer
        arithmetic runs on offsets from `a` so trip instants stay exact
        regardless of the absolute timestamp.
        """
        in_window = self.t_start <= a < self.t_end
        if self.at_rest(i_raw, in_window):
            return b
        # this step may change an accumulator or the connectivity
        self.resting.clear()
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
        for pin in ("ph", "pl"):
            dmg = bank.damage[pin]
            if dmg.tripped:
                continue
            i = bank.gated_current(pin, i_raw[pin])
            deadline = dmg.time_to_trip(i)
            if deadline == stop_off:
                bank.damage[pin] = replace(dmg, over_timer=dmg.opening_time)
                continue
            bank.damage[pin] = dmg.advance(i, stop_off)
            if deadline < stop_off and bank.damaged_at is None:
                bank.damaged_at = a + deadline
                self.trace.add(a + deadline, "Damage", ecu=self.vids, line=pin)

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

    def at_rest(self, i_raw: dict, in_window: bool) -> bool:
        """`bank.at_rest(i_raw, in_window)`, kept until the next full accumulator step."""
        key = (i_raw["ph"], i_raw["pl"], in_window)
        verdict = self.resting.get(key)
        if verdict is None:
            verdict = self.resting[key] = self.bank.at_rest(i_raw, in_window)
        return verdict

    def resting_v_diffs(self, dominant: bool, pairs: tuple, in_window: bool):
        """The v_diff at each pin pair, gated by the connectivity now, when
        every pair is at rest at this driven level; else None."""
        v_diffs = []
        for pins in pairs:
            sol, i = self.solved(dominant, self.gate(pins))
            if not self.at_rest(i, in_window):
                return None
            v_diffs.append(sol.voltages.v_diff)
        return tuple(v_diffs)

    def idle_inert(self, a: float, b: float) -> bool:
        """No idle step over [a, b) can change an accumulator: the idle bus
        rests at the inputs outside the attack window and at every window
        pair (both pulse phases) inside it."""
        if (a < self.t_start or self.t_end < b) and (
            self.resting_v_diffs(False, ((INPUT, INPUT),), False) is None
        ):
            return False
        return not (self.t_start < b and a < self.t_end) or (
            self.resting_v_diffs(False, self.window_pins, True) is not None
        )

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

    def quiescent(self, bits: list, ack_delim: int, first_attempt: bool, t0: float):
        """The outcome of `sample_bits` for the frame, reached without per-bit
        work, or None when the frame must run bit by bit.

        A frame is crossed when no attack window overlaps it, or the window
        holds it (to strictly before its end, as in `drive`), and
        `crossing` finds that every bit reads as driven, every damage timer
        rests and each device rests or moves at one current. Inside the
        window the first attempt still asks the FRA check at its ACK
        delimiter, and ends after that bit when it fires. Each moving
        device then folds `steps` over the pieces of the bits crossed, cut
        as `drive` cuts them; when one would open or close in them, nothing
        is committed and the frame runs bit by bit.
        """
        bt, n_bits = self.bit_time, len(bits)
        # the end of the last bit, rounded exactly as the per-bit loop does
        t1 = t0 + (n_bits - 1) * bt + bt
        in_window = self.t_start < t1 and t0 < self.t_end
        if in_window and not (self.t_start <= t0 and t1 < self.t_end):
            return None
        moving = self.crossing(in_window)
        if moving is None:
            return None
        outcome = None, ""
        if first_attempt and in_window and self.fra_stretch_corrupts(t0 + ack_delim * bt):
            outcome, n_bits = (ack_delim, "form_error_ack_delimiter"), ack_delim + 1
            t1 = t0 + ack_delim * bt + bt
        if moving:
            spans = []
            for k in range(n_bits):
                a = t0 + k * bt
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
        """`link.reads_driven` for the window's phases (a pulse's high and
        low phase, else one unbounded phase) at `levels`, a v_diff per
        window pair. A piece ends within a few ulps of its true edge,
        so a phase counts 64 ulps of the latest instant a piece can end in
        the window longer: the window's end, or the end of an attempt that
        starts before the run ends, its frame and error flag at most.

        A False verdict, taken as "blocks every bit", assumes a pulse
        phase that drifts against the bits: one locked to the bit grid
        can keep its masking phase off every sample point, and the frame
        is delivered (`tests/test_parking.py` pins such a pulse)."""
        driven = BitDecision.DOMINANT if dominant else BitDecision.RECESSIVE
        period, high = self.period, self.high_time
        lengths = (high, period - high) if period < math.inf else (math.inf,)
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

        outcome = self.quiescent(bits, ack_delim, tx.attempts == 0, t0)
        if outcome is None:
            outcome = self.sample_bits(bits, ack_delim, tx.attempts == 0, t0)
        error_bit, error_reason = outcome

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
        # b stays below the window's end: a sliver's midpoint can round to b;
        # a bit in a window of one pair is one piece, with nothing to skip
        pulsed = self.period < math.inf and self.t_start <= a and b < self.t_end
        levels = self.resting_levels(dominant) if pulsed else None
        if levels is not None:
            # no piece can change an accumulator: cut, and pick each
            # piece's phase pair as `pins_at` does
            phase = self.phase
            for cut in self.cuts(a, b):
                pieces.append((cursor, cut, levels[phase(0.5 * (cursor + cut))]))
                cursor = cut
        else:
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

    def resting_levels(self, dominant: bool):
        """The v_diff of each window pair (a pulse's high and low phase) at
        this driven level when every gated pair is at rest, else None; kept
        until the next full accumulator step."""
        if dominant not in self.resting:
            self.resting[dominant] = self.resting_v_diffs(dominant, self.window_pins, True)
        return self.resting[dominant]

    def sample_bits(self, bits: list, ack_delim: int, first_attempt: bool, t0: float) -> tuple:
        """Drive and sample the frame bit by bit from t0.

        Returns (error bit index, reason), or (None, "") when every bit
        reads as driven.
        """
        bt = self.bit_time
        comparator = (BitDecision.RECESSIVE, t0 - 1.0)  # idle bus precedes the frame
        prev_sampled = BitDecision.RECESSIVE

        for k, bit in enumerate(bits):
            b0 = t0 + k * bt
            b1 = b0 + bt
            dominant = bit == 0
            pieces = self.drive(dominant, b0, b1)
            driven = BitDecision.DOMINANT if dominant else BitDecision.RECESSIVE
            sampled, comparator = sample_bit(pieces, driven, self.timing, comparator, self.extension)
            if dominant and sampled is BitDecision.RECESSIVE:
                return k, "bit_error"
            if (
                k == ack_delim
                and first_attempt
                and prev_sampled is BitDecision.DOMINANT
                and self.fra_stretch_corrupts(b0)
            ):
                return k, "form_error_ack_delimiter"
            prev_sampled = sampled
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


def set_sweep_value(cfg: ScenarioConfig, path: str, value: float) -> ScenarioConfig:
    """Return a config with one dotted attack parameter replaced."""
    scope, _, name = path.partition(".")
    if scope != "attack" or cfg.attack is None:
        raise ConfigError("sweep.path", f"unsupported sweep path {path!r}")
    if name not in cfg.attack.__dataclass_fields__:
        raise ConfigError("sweep.path", f"attack has no parameter {name!r}")
    try:
        attack = replace(cfg.attack, **{name: value})
    except ValueError as exc:
        raise ConfigError("sweep", f"{path} = {value!r}: {exc}") from None
    return replace(cfg, attack=attack, sweep=None)


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
