"""Scenario configs: the dataclasses and `KEYS`, one row per INI key, which
reading, `serialize_config`, the `<section>.<key>` error paths and every
key and number check read. The dataclasses hold every default: a key left
out or empty takes its field's, and a field without one needs its key.
The rules that tie fields together are named functions beside the rows."""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from . import attacks as atk
from . import irs
from .electrical import NOMINAL_TRANSITION, TAU_RC_DEFAULT, BusTopology, TransceiverParams
from .link import ERROR_FLAG_BITS, BitTiming, Frame, frame_bit_length

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

    r_drive_high: float = TransceiverParams.r_drive_high
    r_sink_offset: float = TransceiverParams.r_sink_offset
    r_sink: float = TransceiverParams.r_sink
    tau_rc: float = TAU_RC_DEFAULT
    nominal_transition: float = NOMINAL_TRANSITION
    sample_point: float = BitTiming.sample_point
    decode_hold: float = BitTiming.decode_hold
    hysteresis: float = BitTiming.hysteresis
    transition_extension: float = atk.TRANSITION_EXTENSION_DEFAULT

    def transceiver(self) -> TransceiverParams:
        return TransceiverParams(
            r_drive_high=self.r_drive_high, r_sink_offset=self.r_sink_offset, r_sink=self.r_sink
        )

    def timing(self, bus_speed: float = BitTiming.bus_speed) -> BitTiming:
        return BitTiming(bus_speed, self.sample_point, self.decode_hold, self.hysteresis)

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
    rating: float = irs.TripTimer.rating
    opening_time: float = irs.TripTimer.opening_time
    leakage_current: float = irs.ResettableFuseState.leakage_current
    r_coil: float = irs.ThermostatCoil.r_coil
    t_limit: float = irs.ThermostatCoil.t_limit
    t_ambient: float = irs.ThermostatCoil.t_ambient
    coil_hysteresis: float = irs.ThermostatCoil.hysteresis
    thermal_gain: float = irs.ThermostatCoil.thermal_gain
    tau_thermal: float = irs.ThermostatCoil.tau_thermal
    coil_drive: float | None = None  # bench-supply amps forced through the coil in-window

    def build(self):
        if self.device == "thermostat":
            return irs.ThermostatCoil(
                r_coil=self.r_coil, temp=self.t_ambient, t_ambient=self.t_ambient, t_limit=self.t_limit,
                hysteresis=self.coil_hysteresis, thermal_gain=self.thermal_gain, tau_thermal=self.tau_thermal,
            )
        if self.device == "resettable_fuse":
            return irs.ResettableFuseState(
                rating=self.rating, opening_time=self.opening_time, leakage_current=self.leakage_current
            )
        trip = irs.FuseState if self.device == "fuse" else irs.BreakerState
        return trip(rating=self.rating, opening_time=self.opening_time)


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
    bus_speed: float = BitTiming.bus_speed
    ecus: tuple = ()
    attack: Optional[atk.AttackSpec] = None
    irs_config: Optional[IrsConfig] = None
    damage: DamageParams = field(default_factory=DamageParams)
    sweep: Optional[SweepSpec] = None
    params: CalibratedParams = field(default_factory=CalibratedParams)
    termination: float = BusTopology.termination


# --- the table ----------------------------------------------------------------------


class Codec(NamedTuple):
    parse: Callable  # INI text -> value
    what: str  # what the text must be
    text: Callable = str  # value -> INI text


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}
FLOAT = Codec(float, "a number", repr)
INT = Codec(functools.partial(int, base=0), "an integer", "{:#x}".format)
HEX = Codec(bytes.fromhex, "hex bytes", bytes.hex)
BOOL = Codec(lambda raw: _BOOLS[raw.strip().lower()], "a boolean", lambda v: str(v).lower())
TEXT = Codec(str, "text")

# a number's bound -> whether a value keeps it (NaN keeps none); "any" keeps every value
BOUNDS = {
    "finite": math.isfinite,
    "positive": lambda v: 0.0 < v < math.inf,
    "non-negative": lambda v: 0.0 <= v < math.inf,
}


class Key(NamedTuple):
    section: str
    selectors: tuple | None  # the selector values that take the key; None: every one
    key: str
    field: str  # the field it sets; "frame.id" is a field of the `frame` field
    codec: Codec
    bound: str | tuple  # a number's bound, or the values a text key takes


class Section(NamedTuple):
    part: str | None  # the ScenarioConfig field it sets; None for [bus] and [ecu.<name>]
    selector: str | None  # the key whose value picks the dataclass and the keys
    classes: dict  # selector value -> the dataclass built


_TRIPS, _COIL = ("fuse", "breaker", "resettable_fuse"), ("thermostat",)
SECTIONS = {  # [ecu.<name>] is "ecu"
    "bus": Section(None, None, {None: ScenarioConfig}),
    "ecu": Section(None, "role", dict.fromkeys(("vids-host", "logger", "sender"), EcuSpec)),
    "attack": Section("attack", "type", {
        "dos": atk.DoS, "fra": atk.ForcedRetransmission, "passive_overcurrent": atk.PassiveOvercurrent,
        "active_overcurrent": atk.ActiveOvercurrent, "pulse": atk.PulseAttack,
    }),
    "irs": Section("irs_config", "device", dict.fromkeys(_TRIPS + _COIL, IrsConfig)),
    "damage": Section("damage", None, {None: DamageParams}),
    "sweep": Section("sweep", None, {None: SweepSpec}),
}
_NESTED = {"frame": Frame}  # a dotted field's head -> the dataclass it holds
_SENDER, _PULSE = ("sender",), ("pulse",)
_STATIC = ("dos", "fra", "passive_overcurrent", "active_overcurrent")
KEYS = (
    Key("bus", None, "speed", "bus_speed", FLOAT, "positive"),
    Key("bus", None, "duration", "duration", FLOAT, "positive"),
    Key("bus", None, "termination", "termination", FLOAT, "positive"),
    Key("ecu", _SENDER, "period", "period", FLOAT, "positive"),
    Key("ecu", _SENDER, "offset", "offset", FLOAT, "non-negative"),
    Key("ecu", _SENDER, "id", "frame.id", INT, "any"),
    Key("ecu", _SENDER, "data", "frame.data", HEX, "any"),
    Key("ecu", _SENDER, "rtr", "frame.rtr", BOOL, "any"),
    Key("attack", None, "node", "node", TEXT, "any"),
    # a window's edges may be infinite, but a pulse's start anchors its phase
    Key("attack", _STATIC, "start", "t_start", FLOAT, "any"),
    Key("attack", _PULSE, "start", "t_start", FLOAT, "finite"),
    Key("attack", None, "end", "t_end", FLOAT, "any"),
    Key("attack", ("dos",), "v", "v_attack_l", FLOAT, "finite"),
    Key("attack", ("fra",), "v", "v_attack_h", FLOAT, "finite"),
    Key("attack", ("active_overcurrent", "pulse"), "v_high", "v_high", FLOAT, "finite"),
    # a negative limit would drive every pin current to its magnitude
    Key("attack", ("active_overcurrent",), "current_limit", "source_limit", FLOAT, "non-negative"),
    Key("attack", _PULSE, "line", "line", TEXT, "any"),
    Key("attack", _PULSE, "period", "period", FLOAT, "positive"),
    Key("attack", _PULSE, "duty", "duty", FLOAT, "finite"),
    Key("attack", _PULSE, "v_low", "v_low", FLOAT, "finite"),
    Key("attack", _PULSE, "phase", "phase", FLOAT, "finite"),
    Key("irs", None, "pins", "pins", TEXT, ("both", "ph", "pl")),
    # a negative limit (rating, i_max) would count a pin carrying no current as over it
    Key("irs", _TRIPS, "rating", "rating", FLOAT, "non-negative"),
    Key("irs", _TRIPS, "opening_time", "opening_time", FLOAT, "positive"),
    Key("irs", ("resettable_fuse",), "leakage", "leakage_current", FLOAT, "non-negative"),
    Key("irs", _COIL, "r_coil", "r_coil", FLOAT, "positive"),
    Key("irs", _COIL, "t_limit", "t_limit", FLOAT, "finite"),
    Key("irs", _COIL, "t_ambient", "t_ambient", FLOAT, "finite"),
    Key("irs", _COIL, "hysteresis", "coil_hysteresis", FLOAT, "non-negative"),
    Key("irs", _COIL, "thermal_gain", "thermal_gain", FLOAT, "non-negative"),
    Key("irs", _COIL, "tau_thermal", "tau_thermal", FLOAT, "positive"),
    Key("irs", _COIL, "coil_drive", "coil_drive", FLOAT, "finite"),
    Key("damage", None, "i_max", "i_max", FLOAT, "non-negative"),
    Key("damage", None, "damage_time", "damage_time", FLOAT, "non-negative"),
    Key("sweep", None, "path", "path", TEXT, "any"),
    Key("sweep", None, "start", "start", FLOAT, "finite"),
    Key("sweep", None, "stop", "stop", FLOAT, "finite"),
    Key("sweep", None, "step", "step", FLOAT, "positive"),
)
ROWS = {  # (section, selector value) -> INI key -> its row, in table order
    (name, value): {k.key: k for k in KEYS if k.section == name and value in (k.selectors or (value,))}
    for name, section in SECTIONS.items() for value in section.classes
}


def read_value(path: str, raw: str, codec: Codec):
    try:
        return codec.parse(raw)
    except (ValueError, KeyError):
        raise ConfigError(path, f"not {codec.what}: {raw!r}") from None


def selected(name: str, obj):
    """The selector value `obj` is for: its selector field, or the value whose dataclass it is."""
    section = SECTIONS[name]
    if section.selector in type(obj).__dataclass_fields__:
        return getattr(obj, section.selector)
    return next((v for v, cls in section.classes.items() if cls is type(obj)), None)


def _read(kind: str, sec: dict, path: str, **given):
    """The dataclass a section of this kind builds from its values, on top of `given`."""
    section = SECTIONS[kind]
    value = sec.get(section.selector)
    if value not in section.classes:
        problem = "missing" if value is None else f"unknown {section.selector} {value!r}"
        raise ConfigError(f"{path}.{section.selector}", problem)
    cls, rows = section.classes[value], ROWS[kind, value]
    for key in sec:
        if key not in rows and key != section.selector:
            raise ConfigError(f"{path}.{key}", "unknown key")
    if section.selector in cls.__dataclass_fields__:
        given[section.selector] = value
    nested: dict = {}  # a dotted field's head -> its fields' values
    for row in rows.values():
        head, dot, name = row.field.rpartition(".")
        values, owner = (nested.setdefault(head, {}), _NESTED[head]) if dot else (given, cls)
        f = owner.__dataclass_fields__[name]
        if sec.get(row.key):
            values[name] = read_value(f"{path}.{row.key}", sec[row.key], row.codec)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{row.key}", "missing")
    try:
        given.update({head: _NESTED[head](**values) for head, values in nested.items()})
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def read_config(sections: dict, params: CalibratedParams | None = None) -> ScenarioConfig:
    """The config that an INI file's sections ({header: {key: text}}) give, not yet validated."""
    for header in sections:
        if not (header.startswith("ecu.") or header in SECTIONS and header != "ecu"):
            raise ConfigError(header, "unknown section")
    given = {
        s.part: _read(k, sections[k], k) for k, s in SECTIONS.items() if s.part and k in sections
    }
    ecus = [header for header in sections if header.startswith("ecu.")]
    given["ecus"] = tuple(_read("ecu", sections[header], header, name=header[4:]) for header in ecus)
    if params is not None:
        given["params"] = params
    return _read("bus", sections.get("bus", {}), "bus", **given)


def _write(name: str, header: str, obj) -> list:
    """Section `name`'s INI lines for `obj`; a field that is None is left out."""
    section, value = SECTIONS[name], selected(name, obj)
    lines = [f"[{header}]"] + ([f"{section.selector} = {value}"] if section.selector else [])
    for row in ROWS[name, value].values():
        v = attrgetter(row.field)(obj)
        if v is not None:
            lines.append(f"{row.key} = {row.codec.text(v)}")
    return lines + [""]


def serialize_config(cfg: ScenarioConfig) -> str:
    """Config back to INI text; parse(serialize(cfg)) is equivalent."""
    lines = _write("bus", "bus", cfg)
    for e in cfg.ecus:
        lines += _write("ecu", f"ecu.{e.name}", e)
    for name, section in SECTIONS.items():
        if section.part and getattr(cfg, section.part) is not None:
            lines += _write(name, name, getattr(cfg, section.part))
    return "\n".join(lines)


# --- validation ------------------------------------------------------------------------


def _check_keys(name: str, path: str, obj) -> None:
    """Check `obj`'s selector value and each key's bound; an error names `<path>.<key>`."""
    section, value = SECTIONS[name], selected(name, obj)
    if value not in section.classes:
        raise ConfigError(f"{path}.{section.selector}", f"unknown {section.selector} {value!r}")
    for row in ROWS[name, value].values():
        v = None if row.bound == "any" else attrgetter(row.field)(obj)
        if isinstance(row.bound, tuple) and v not in row.bound:
            raise ConfigError(f"{path}.{row.key}", "must be one of " + ", ".join(row.bound))
        if v is not None and row.bound in BOUNDS and not BOUNDS[row.bound](v):
            rule = row.bound if row.bound == "finite" else f"{row.bound} and finite"
            raise ConfigError(f"{path}.{row.key}", f"must be {rule}")


def one_vids_host(ecus: tuple) -> str:
    hosts = [e.name for e in ecus if e.role == "vids-host"]
    if len(hosts) != 1:
        raise ConfigError("ecu", f"exactly one vids-host required, found {len(hosts)}")
    return hosts[0]


def period_above_frame_time(e: EcuSpec, bit_time: float) -> float:
    """A sender's frame time, which its period must be above."""
    if e.period is None or e.frame is None:
        raise ConfigError(f"ecu.{e.name}", "sender needs period and frame")
    tx_time = frame_bit_length(e.frame) * bit_time
    if e.period <= tx_time:
        raise ConfigError(f"ecu.{e.name}.period", f"period {e.period} not above frame time {tx_time:.6g}")
    return tx_time


def remote_frame_without_data(e: EcuSpec) -> None:
    """A remote frame has no data field (ISO 11898-1)."""
    if e.frame.rtr and e.frame.data:
        raise ConfigError(f"ecu.{e.name}.data", "a remote frame carries no data")


def unique_sender_id(e: EcuSpec, senders: dict) -> None:
    """No two senders share an identifier: ISO 11898-1 requires unique
    data-frame identifiers, and arbitration could not pick between
    them. `senders` maps each identifier seen so far to its sender."""
    first = senders.setdefault(e.frame.id, e.name)
    if first != e.name:
        raise ConfigError(f"ecu.{e.name}.id", f"id {e.frame.id:#x} already taken by ecu.{first}")


def pulse_period_below_frame_time(attack: atk.PulseAttack, tx_times: list) -> None:
    if tx_times and attack.period >= min(tx_times):
        tx_time = min(tx_times)
        raise ConfigError("attack.period", f"pulse period {attack.period} not below frame time {tx_time:.6g}")


def pulse_phase_above_ulp(attack: atk.PulseAttack, run_end: float) -> None:
    """The edge walk stalls where a phase is lost in the float time: check
    at the latest instant a piece can end in the window."""
    latest = min(attack.t_end, run_end)
    if not attack.clock.steps_at(latest):
        lost = f"pulse phase {min(attack.clock.lengths):.3g} s not above the float step"
        raise ConfigError("attack.period", f"{lost} {math.ulp(latest):.3g} s at {latest:.6g} s")


def thermostat_recloses_above_ambient(dev: IrsConfig) -> None:
    """A coil at rest is closed at ambient, so ambient must be under the limit; an
    open coil recloses only once it cools below the reclose point, so under that too."""
    if dev.t_limit <= dev.t_ambient:
        raise ConfigError("irs.t_limit", "must be above t_ambient")
    if dev.t_limit - dev.coil_hysteresis <= dev.t_ambient:
        raise ConfigError("irs.hysteresis", "must be below t_limit - t_ambient")


def validate_config(cfg: ScenarioConfig) -> list:
    """Raise a ConfigError, at the `<section>.<key>` at fault, for a config
    that cannot run; else return each sweep point's config in grid order
    (none without a sweep), each checked as it is built."""
    _check_keys("bus", "bus", cfg)
    for f in fields(cfg.params):
        if not math.isfinite(getattr(cfg.params, f.name)):
            raise ConfigError(f"params.{f.name}", "must be finite")
    _check_keys("damage", "damage", cfg.damage)
    try:
        cfg.params.transceiver()
        cfg.params.timing(cfg.bus_speed)
    except ValueError as exc:
        raise ConfigError("params", str(exc))
    if len({e.name for e in cfg.ecus}) != len(cfg.ecus):
        raise ConfigError("ecu", "duplicate ECU names")
    host = one_vids_host(cfg.ecus)
    bit_time = 1.0 / cfg.bus_speed
    tx_times = []  # each sender's frame time
    senders: dict = {}  # frame id -> its sender's name
    for e in cfg.ecus:
        _check_keys("ecu", f"ecu.{e.name}", e)
        if e.role == "sender":
            tx_times.append(period_above_frame_time(e, bit_time))
            remote_frame_without_data(e)
            unique_sender_id(e, senders)
    # an attempt started before the run ends lasts its frame and error flag at most
    run_end = cfg.duration + max(tx_times, default=0.0) + ERROR_FLAG_BITS * bit_time
    if cfg.attack is not None:
        _validate_attack(cfg.attack, host, tx_times, run_end)
    dev = cfg.irs_config
    if dev is not None:
        _check_keys("irs", "irs", dev)
        if dev.coil_drive is not None and dev.device != "thermostat":
            raise ConfigError("irs.coil_drive", "only a thermostat has a coil to drive")
        if dev.device == "thermostat":
            thermostat_recloses_above_ambient(dev)
    sweep = cfg.sweep
    points = []
    if sweep is not None:
        _check_keys("sweep", "sweep", sweep)
        if sweep.stop < sweep.start:
            raise ConfigError("sweep.stop", "must not be below start")
        if sweep.size() > MAX_SWEEP_POINTS:
            raise ConfigError("sweep.step", f"grid has {sweep.size()} points, more than {MAX_SWEEP_POINTS}")
        # a sweep point differs from the config in its attack only
        for value in sweep.values():
            points.append(set_sweep_value(cfg, sweep.path, value))
            _validate_attack(points[-1].attack, host, tx_times, run_end)
    return points


def _validate_attack(attack: atk.AttackSpec, host: str, tx_times: list, run_end: float) -> None:
    if attack.node != host:
        raise ConfigError("attack.node", "attack must originate at the vids-host")
    _check_keys("attack", "attack", attack)
    if isinstance(attack, atk.PulseAttack):
        pulse_period_below_frame_time(attack, tx_times)
        pulse_phase_above_ulp(attack, run_end)
    try:
        atk.window_pins(attack)
    except ValueError as exc:
        raise ConfigError("attack", str(exc))


def set_sweep_value(cfg: ScenarioConfig, path: str, value: float) -> ScenarioConfig:
    """Return a config with one dotted attack parameter, which its rows read as a number, replaced."""
    scope, _, name = path.partition(".")
    attack = cfg.attack if scope == "attack" else None
    rows = () if attack is None else ROWS.get(("attack", selected("attack", attack)), {}).values()
    if not any(row.field == name and row.codec is FLOAT for row in rows):
        raise ConfigError("sweep.path", f"{path} is not a number parameter of the attack")
    try:
        attack = replace(cfg.attack, **{name: value})
    except ValueError as exc:
        raise ConfigError("sweep", f"{path} = {value!r}: {exc}") from None
    return replace(cfg, attack=attack, sweep=None)
