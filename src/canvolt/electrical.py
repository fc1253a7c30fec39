"""DC model of the CAN bus lines under transceiver drive and attacker pins.

Voltages and currents are plain floats in volts, amps, seconds, ohms.
The bus network is small and piecewise linear, so every solution is
closed form: the solver enumerates diode regions instead of iterating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

# Time constant of the CANL recovery when an attacker holds CANH up,
# fixed so the 1.5 V -> 90% of 5.0 V climb takes 1.16 us.
TAU_RC_DEFAULT = 1.16e-6 / math.log(7.0)

# Recessive recovery of an undisturbed transceiver (70-130 ns class).
NOMINAL_TRANSITION = 100e-9

# From this CANH level up, the attacker, not the transceiver, sets the
# CANL recovery after a dominant bit: CANL climbs from 1.5 V toward it.
STRETCH_LEVEL = 3.5

# Residual saturation drop across the output stage beyond the two
# 0.7 V junction drops; makes the dominant rails land on 3.5/1.5 V.
_SATURATION_RESIDUAL = 0.1


class ConflictingSources(ValueError):
    """Two attacker sources drive the same bus line."""


class InvalidVoltage(ValueError):
    """Voltage argument outside the physically meaningful range."""


@dataclass(frozen=True)
class LineVoltages:
    """Instantaneous CANH/CANL node voltages."""

    v_canh: float
    v_canl: float

    def __post_init__(self):
        if not (math.isfinite(self.v_canh) and math.isfinite(self.v_canl)):
            raise InvalidVoltage("line voltages must be finite")

    @property
    def v_diff(self) -> float:
        return self.v_canh - self.v_canl


class PinMode:
    """Base for the four analog-pin states."""

    __slots__ = ()


@dataclass(frozen=True)
class Input(PinMode):
    """High-impedance measurement mode; modeled as exactly zero draw."""


@dataclass(frozen=True)
class OutputHigh(PinMode):
    level: float

    def __post_init__(self):
        if not 0.0 < self.level <= 5.0:
            raise InvalidVoltage(f"OutputHigh level {self.level!r} outside (0, 5.0]")


@dataclass(frozen=True)
class OutputLow(PinMode):
    """Hard pull to ground."""


@dataclass(frozen=True)
class Pulse(PinMode):
    period: float
    duty: float
    v_high: float
    v_low: float = 0.0

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError(f"pulse period must be positive, got {self.period!r}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"pulse duty {self.duty!r} outside (0, 1); use pulse()")
        if not 0.0 < self.v_high <= 5.0:
            raise InvalidVoltage(f"pulse v_high {self.v_high!r} outside (0, 5.0]")
        if not 0.0 <= self.v_low < self.v_high:
            raise InvalidVoltage("pulse v_low must satisfy 0 <= v_low < v_high")


INPUT = Input()
OUTPUT_LOW = OutputLow()


def pulse(period: float, duty: float, v_high: float, v_low: float = 0.0) -> PinMode:
    """Build a pulse mode, degenerating duty 0/1 to the static modes."""
    if duty == 1.0:
        return OutputHigh(v_high)
    if duty == 0.0:
        return OutputHigh(v_low) if v_low > 0.0 else OUTPUT_LOW
    return Pulse(period, duty, v_high, v_low)


def pulse_levels(mode: Pulse) -> tuple:
    """The static (high phase, low phase) levels a pulse alternates between."""
    low = OutputHigh(mode.v_low) if mode.v_low > 0.0 else OUTPUT_LOW
    return OutputHigh(mode.v_high), low


@dataclass(frozen=True)
class PulseClock:
    """The phase clock of a pulse: high for `high` seconds from `origin`,
    then low to the end of the period, again every `period`.

    The default clock is unbounded: period and high time are infinite, and
    every t, before the origin too, is in the high phase.
    """

    origin: float = 0.0
    period: float = math.inf
    high: float = math.inf

    @property
    def lengths(self) -> tuple:
        """Each phase's length: (high, low), or one unbounded phase."""
        return (self.high, self.period - self.high) if self.period < math.inf else (self.high,)

    def phase(self, t: float) -> int:
        """0 in the high phase at t, 1 in the low phase."""
        period = self.period
        # `-5 % inf` is inf in Python, so the unbounded clock is tested apart
        return 0 if (t - self.origin) % period < self.high or period == math.inf else 1

    def next_edge(self, a: float) -> float:
        """The first phase edge strictly after a, walked from the period
        that holds a; inf on the unbounded clock.

        The walk steps by whole periods, so it ends only where the phases
        outlast the rounding of the times it passes (`steps_at`).
        """
        origin, period, high = self.origin, self.period, self.high
        if period == math.inf:
            return math.inf
        t = origin + math.floor((a - origin) / period) * period
        while True:
            if a < t:
                return t
            if a < t + high:
                return t + high
            t += period

    def steps_at(self, t: float) -> bool:
        """Each phase is longer than one ulp of t, so the edge walk
        moves at every time up to t."""
        return min(self.lengths) > math.ulp(t)


@dataclass(frozen=True)
class TransceiverParams:
    """Output-stage model of a 5 V CAN transceiver.

    r_drive_high is the CANH source impedance seen by a counter-voltage
    on CANL; r_sink_offset/r_sink give the V-I law of the CANL sink when
    its own line is forced above the normal range.
    """

    v_dd: float = 5.0
    v_ref: float = 2.5
    diode_drop: float = 0.7
    r_drive_high: float = 26.7
    r_sink_offset: float = 1.4
    r_sink: float = 12.8

    def __post_init__(self):
        if self.r_drive_high <= 0.0 or self.r_sink <= 0.0:
            raise ValueError("transceiver path resistances must be positive")

    @property
    def v_dominant_canh(self) -> float:
        return self.v_dd - 2.0 * self.diode_drop - _SATURATION_RESIDUAL

    @property
    def v_dominant_canl(self) -> float:
        return 2.0 * self.diode_drop + _SATURATION_RESIDUAL


@dataclass(frozen=True)
class BusTopology:
    """Two-terminator bus; nodes attach by name in each solve."""

    termination: float = 120.0

    def __post_init__(self):
        if self.termination <= 0.0:
            raise ValueError("termination must be positive")

    @property
    def r_load(self) -> float:
        # two equal terminators in parallel
        return (self.termination * self.termination) / (2.0 * self.termination)


@dataclass(frozen=True)
class PinCurrents:
    """Signed analog-pin currents; positive flows into the pin."""

    i_ph: float = 0.0
    i_pl: float = 0.0


@dataclass(frozen=True)
class BusSolution:
    """Full solve result, including branch currents for balance checks."""

    voltages: LineVoltages
    pin_currents: dict
    i_rload: float       # CANH -> CANL through the termination
    i_driver_h: float    # sourced from the CANH pull-up stage
    i_sink_l: float      # absorbed by the CANL pull-down stage


def _gather_clamps(pins: Mapping[str, tuple], which: int) -> tuple:
    """Return (node, mode) of the single non-Input pin on one line."""
    found = None
    for node, pair in pins.items():
        mode = pair[which]
        if isinstance(mode, Pulse):
            raise ValueError("resolve Pulse pins to an instantaneous level first")
        if isinstance(mode, Input):
            continue
        if found is not None:
            raise ConflictingSources(
                f"nodes {found[0]!r} and {node!r} both drive the same line"
            )
        found = (node, mode)
    return found


def _clamp_level(mode: PinMode) -> float:
    return mode.level if isinstance(mode, OutputHigh) else 0.0


def solve_bus(
    drive: Mapping[str, bool],
    pins: Mapping[str, tuple] | None = None,
    topo: BusTopology | None = None,
    params: TransceiverParams | None = None,
) -> tuple[LineVoltages, dict]:
    """Steady-state line voltages and attacker-pin currents.

    drive maps node name to True when that node transmits a dominant
    bit; pins maps node name to its (P_H, P_L) modes. Only one node may
    clamp each line. Raises ConflictingSources otherwise.
    """
    sol = solve_bus_detailed(drive, pins, topo, params)
    return sol.voltages, sol.pin_currents


def solve_bus_detailed(
    drive: Mapping[str, bool],
    pins: Mapping[str, tuple] | None = None,
    topo: BusTopology | None = None,
    params: TransceiverParams | None = None,
) -> BusSolution:
    pins = pins or {}
    topo = topo or BusTopology()
    params = params or TransceiverParams()
    r_load = topo.r_load
    vh_nom = params.v_dominant_canh
    vl_nom = params.v_dominant_canl

    clamp_h = _gather_clamps(pins, 0)
    clamp_l = _gather_clamps(pins, 1)
    dominant = any(drive.values())

    i_driver_h = 0.0
    i_sink_l = 0.0

    if dominant:
        if clamp_h is None and clamp_l is None:
            v_canh, v_canl = vh_nom, vl_nom
        elif clamp_h is None:
            # attacker on CANL only
            v_canl = _clamp_level(clamp_l[1])
            if isinstance(clamp_l[1], OutputLow):
                # hard short: the pull-up stage saturates and holds the rail
                v_canh = vh_nom
            elif v_canl >= vh_nom:
                # diode blocks current back into the driver
                v_canh = v_canl
            else:
                # counter-voltage engages the source impedance
                v_canh = (vh_nom * r_load + v_canl * params.r_drive_high) / (
                    r_load + params.r_drive_high
                )
        elif clamp_l is None:
            # attacker on CANH only
            v_canh = _clamp_level(clamp_h[1])
            # the sink regulates its rail while current arrives through
            # the terminators; below the rail its diode blocks
            v_canl = vl_nom if v_canh >= vl_nom else v_canh
        else:
            v_canh = _clamp_level(clamp_h[1])
            v_canl = _clamp_level(clamp_l[1])
    else:
        # recessive: output stages off, lines follow the reference or
        # whatever clamp is present (terminators carry no bias current)
        if clamp_h is None and clamp_l is None:
            v_canh = v_canl = params.v_ref
        elif clamp_h is None:
            v_canh = v_canl = _clamp_level(clamp_l[1])
        elif clamp_l is None:
            v_canh = v_canl = _clamp_level(clamp_h[1])
        else:
            v_canh = _clamp_level(clamp_h[1])
            v_canl = _clamp_level(clamp_l[1])

    i_rload = (v_canh - v_canl) / r_load

    if dominant:
        if clamp_h is None:
            i_driver_h = max(0.0, i_rload)
        elif v_canh < vh_nom:
            i_driver_h = (vh_nom - v_canh) / params.r_drive_high
        if clamp_l is None:
            i_sink_l = i_rload if v_canl == vl_nom else 0.0
        elif v_canl > params.r_sink_offset:
            i_sink_l = (v_canl - params.r_sink_offset) / params.r_sink

    currents = {}
    for node in pins:
        p_h, p_l = pins[node]
        i_ph = 0.0
        i_pl = 0.0
        # node balance: CANH gains i_driver_h, loses i_rload; CANL gains
        # i_rload, loses i_sink_l; a clamping pin absorbs the residual
        if not isinstance(p_h, Input):
            i_ph = i_driver_h - i_rload
        if not isinstance(p_l, Input):
            i_pl = i_rload - i_sink_l
        currents[node] = PinCurrents(i_ph=i_ph, i_pl=i_pl)

    voltages = LineVoltages(v_canh, v_canl)
    return BusSolution(voltages, currents, i_rload, i_driver_h, i_sink_l)


def recovery_waveform(v_start: float, v_target: float, tau_rc: float) -> Callable[[float], float]:
    """Exponential line-voltage transition v(t) for t >= 0."""
    if tau_rc <= 0.0:
        raise ValueError("tau_rc must be positive")

    def v(t: float) -> float:
        return v_target - (v_target - v_start) * math.exp(-t / tau_rc)

    return v


def time_to_reach(v_start: float, v_target: float, tau_rc: float, level: float) -> float:
    """Invert the recovery waveform; inf when the level is never reached."""
    gap = v_target - v_start
    remaining = v_target - level
    if gap == 0.0:
        return 0.0 if level == v_target else math.inf
    ratio = remaining / gap
    if ratio <= 0.0:
        return math.inf  # level at or beyond the asymptote
    return tau_rc * math.log(1.0 / ratio) if ratio < 1.0 else 0.0


def measure_tau_bit(
    dominant_duration: float,
    v_attack_h: float | None = None,
    tau_rc: float = TAU_RC_DEFAULT,
    nominal_transition: float = NOMINAL_TRANSITION,
) -> float:
    """Bit length time: dominant duration plus the CANL climb to 90%.

    Below `STRETCH_LEVEL` the transceiver's own recessive recovery
    dominates and the nominal transition applies; from there up the
    attacker holds CANH and CANL climbs exponentially from 1.5 V toward it.
    """
    if v_attack_h is None:
        return dominant_duration + nominal_transition
    if v_attack_h <= 0.0:
        raise InvalidVoltage(f"v_attack_h must be positive, got {v_attack_h!r}")
    if v_attack_h < STRETCH_LEVEL:
        return dominant_duration + nominal_transition
    target = 0.9 * max(v_attack_h, 2.5)
    climb = time_to_reach(1.5, v_attack_h, tau_rc, target)
    return dominant_duration + climb
