"""Voltage-based attack specifications, classification, and predictors.

Each attack is a pair of analog-pin overrides active inside a time
window. The threshold predictors sweep the same grids the desk
experiments used and must agree with the full scenario engine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .electrical import (
    INPUT,
    OUTPUT_LOW,
    BusTopology,
    Input,
    OutputHigh,
    OutputLow,
    PinMode,
    Pulse,
    PulseClock,
    TransceiverParams,
    measure_tau_bit,
    pulse_levels,
    recovery_waveform,
    solve_bus,
    STRETCH_LEVEL,
    TAU_RC_DEFAULT,
)
from .link import DOMINANT_THRESHOLD, BitTiming

# Extra blocking contributed by the line transition when the pulse sits
# on CANH; fitted so the minimum period lands at 570 ns.
TRANSITION_EXTENSION_DEFAULT = 55e-9


class AttackClass(enum.Enum):
    NOT_AN_ATTACK = "not_an_attack"
    DOS = "dos"
    PASSIVE_OVERCURRENT = "passive_overcurrent"
    FORCED_RETRANSMISSION = "forced_retransmission"
    ACTIVE_OVERCURRENT = "active_overcurrent"
    DOS_OR_PASSIVE_OVERCURRENT = "dos_or_passive_overcurrent"
    DOS_OR_ACTIVE_OVERCURRENT = "dos_or_active_overcurrent"
    PULSE = "pulse"


@dataclass(frozen=True)
class AttackSpec:
    """One attack with its electrical parameters and active window.

    `clock` picks the pin pair of `window_pins` at a time in the window:
    a pulse's phase clock, else the unbounded one, always in its first
    phase.
    """

    t_start: float = 10.0
    t_end: float = 30.0
    node: str = "A"
    clock = PulseClock()  # a class attribute, not a field

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(f"attack window [{self.t_start}, {self.t_end}) is empty")

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class PassiveOvercurrent(AttackSpec):
    """P_L pulled to ground; the bus supply feeds the pin on dominant bits."""


@dataclass(frozen=True)
class ActiveOvercurrent(AttackSpec):
    """P_H high, P_L low; current crosses the terminators bit-independent."""

    v_high: float = 5.0
    source_limit: Optional[float] = None  # amps the attacking pin can supply


@dataclass(frozen=True)
class DoS(AttackSpec):
    v_attack_l: float = 5.0


@dataclass(frozen=True)
class ForcedRetransmission(AttackSpec):
    v_attack_h: float = 5.0


@dataclass(frozen=True)
class PulseAttack(AttackSpec):
    line: str = "canl"  # 'canh' or 'canl'
    period: float = 100e-6
    duty: float = 0.5
    v_high: float = 5.0
    v_low: float = 0.0
    phase: float = 0.0  # fraction of a period; high phase starts at t_start + phase*period

    def __post_init__(self):
        super().__post_init__()
        if self.line not in ("canh", "canl"):
            raise ValueError(f"pulse line must be 'canh' or 'canl', got {self.line!r}")
        if self.period <= 0.0:
            raise ValueError("pulse period must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"pulse duty {self.duty!r} outside (0, 1)")

    @property
    def phase_origin(self) -> float:
        return self.t_start + self.phase * self.period

    @property
    def clock(self) -> PulseClock:
        return PulseClock(self.phase_origin, self.period, self.duty * self.period)

    def pulse_mode(self) -> Pulse:
        return Pulse(self.period, self.duty, self.v_high, self.v_low)


def classify_pin_combo(p_h: PinMode, p_l: PinMode) -> AttackClass:
    """Attack class of a pin-mode pair; total over all mode shapes."""
    def shape(m: PinMode) -> str:
        if isinstance(m, Input):
            return "input"
        if isinstance(m, OutputHigh):
            return "high"
        if isinstance(m, OutputLow):
            return "low"
        return "pulse"

    table = {
        ("input", "input"): AttackClass.NOT_AN_ATTACK,
        ("input", "high"): AttackClass.DOS,
        ("input", "low"): AttackClass.PASSIVE_OVERCURRENT,
        ("high", "input"): AttackClass.FORCED_RETRANSMISSION,
        ("high", "low"): AttackClass.ACTIVE_OVERCURRENT,
        ("low", "input"): AttackClass.DOS_OR_PASSIVE_OVERCURRENT,
        ("low", "high"): AttackClass.DOS_OR_ACTIVE_OVERCURRENT,
        ("low", "low"): AttackClass.DOS_OR_PASSIVE_OVERCURRENT,
        ("pulse", "input"): AttackClass.PULSE,
        ("input", "pulse"): AttackClass.PULSE,
    }
    key = (shape(p_h), shape(p_l))
    if key in table:
        return table[key]
    # combinations outside the canonical table: any pulse keeps pulse
    # semantics; a raised CANL otherwise reads as a DoS
    if "pulse" in key:
        return AttackClass.PULSE
    return AttackClass.DOS


def pin_override(spec: Optional[AttackSpec], t: float) -> tuple:
    """(P_H, P_L) modes the compromised node applies at time t: inside
    its window, the pair of `window_pins` its clock's phase at t picks."""
    if spec is None or not spec.active(t):
        return (INPUT, INPUT)
    return window_pins(spec)[spec.clock.phase(t)]


def window_pins(spec: AttackSpec) -> tuple:
    """Every (P_H, P_L) pair the attack applies inside its window.

    A pulse gives its (high phase, low phase) pairs, with its level on
    its line's pin; any other attack its one pair. Raises for a level no
    pin can drive.
    """
    if isinstance(spec, PassiveOvercurrent):
        return ((INPUT, OUTPUT_LOW),)
    if isinstance(spec, ActiveOvercurrent):
        return ((OutputHigh(spec.v_high), OUTPUT_LOW),)
    if isinstance(spec, DoS):
        return ((INPUT, OutputHigh(spec.v_attack_l)),)
    if isinstance(spec, ForcedRetransmission):
        return ((OutputHigh(spec.v_attack_h), INPUT),)
    if isinstance(spec, PulseAttack):
        levels = pulse_levels(spec.pulse_mode())
        return tuple((m, INPUT) if spec.line == "canh" else (INPUT, m) for m in levels)
    raise TypeError(f"unknown attack spec {spec!r}")


@dataclass(frozen=True)
class OvercurrentResult:
    amps: float
    exceeds_i_max: bool


def overcurrent_current(
    variant: str,
    params: TransceiverParams | None = None,
    topo: BusTopology | None = None,
    i_max: float = 0.040,
    source_limit: Optional[float] = None,
    v_high: float = 5.0,
) -> OvercurrentResult:
    """Analytic pin current for 'passive' or 'active' overcurrent.

    v_high is the level the active attack drives P_H to.
    """
    params = params or TransceiverParams()
    topo = topo or BusTopology()
    if variant == "passive":
        amps = params.v_dominant_canh / topo.r_load
    elif variant == "active":
        amps = v_high / topo.r_load
    else:
        raise ValueError(f"unknown overcurrent variant {variant!r}")
    if source_limit is not None:
        amps = min(amps, source_limit)
    return OvercurrentResult(amps=amps, exceeds_i_max=amps > i_max)


def dominant_blocked(
    v_attack_l: float,
    params: TransceiverParams | None = None,
    topo: BusTopology | None = None,
) -> bool:
    """True when a raised CANL keeps dominant bits below the read level."""
    voltages, _ = solve_bus(
        {"tx": True}, {"atk": (INPUT, OutputHigh(v_attack_l))}, topo, params
    )
    return voltages.v_diff < DOMINANT_THRESHOLD


def min_dos_voltage(
    params: TransceiverParams | None = None,
    topo: BusTopology | None = None,
    timing: BitTiming | None = None,
) -> float:
    """Smallest CANL voltage that blocks every frame, on the 0.1 V grid."""
    for decivolts in range(1, 51):
        v = decivolts / 10.0
        if dominant_blocked(v, params, topo):
            return v
    return math.inf


def fra_ack_delimiter_corrupted(
    v_attack_h: float,
    timing: BitTiming | None = None,
    tau_rc: float = TAU_RC_DEFAULT,
) -> bool:
    """True when the stretched CANL recovery still reads dominant at the
    sample point of the recessive bit after a dominant bit: CANL climbs
    from its nominal dominant rail toward the attacker's CANH, and the
    v_diff left at the sample point is at least the release level."""
    timing = timing or BitTiming()
    if v_attack_h < STRETCH_LEVEL:
        # the transceiver's own recovery applies; transition is nominal
        return False
    canl = recovery_waveform(TransceiverParams().v_dominant_canl, v_attack_h, tau_rc)
    return v_attack_h - canl(timing.sample_point * timing.bit_time) >= timing.release


def min_fra_voltage(
    params: TransceiverParams | None = None,
    topo: BusTopology | None = None,
    timing: BitTiming | None = None,
    tau_rc: float = TAU_RC_DEFAULT,
) -> float:
    """Smallest CANH voltage that forces a retransmission, 0.5 V grid."""
    for halfvolts in range(5, 11):
        v = halfvolts / 2.0
        if fra_ack_delimiter_corrupted(v, timing, tau_rc):
            return v
    return math.inf


def pulse_blocking_duration(
    line: str,
    period: float,
    duty: float = 0.5,
    transition_extension: float = TRANSITION_EXTENSION_DEFAULT,
) -> float:
    """Length of the phase that masks a dominant bit each pulse cycle.

    On CANL the high phase masks; on CANH the low phase masks and the
    line transition extends it.
    """
    if line == "canl":
        return duty * period
    if line == "canh":
        return (1.0 - duty) * period + transition_extension
    raise ValueError(f"pulse line must be 'canh' or 'canl', got {line!r}")


def pulse_blocks_bits(
    line: str,
    period: float,
    duty: float = 0.5,
    timing: BitTiming | None = None,
    transition_extension: float = TRANSITION_EXTENSION_DEFAULT,
) -> bool:
    """True when the masking phase persists past the controller's hold.

    "Blocks every bit" assumes a pulse phase that drifts against the
    bits, so that the masking phase covers some bit's sample point. A
    pulse locked to the bit grid can miss every sample point and block
    none: a 1000 ns, 50% CANL pulse whose phase origin lies on the 2 us
    grid masks only the first 500 ns of each bit.
    """
    timing = timing or BitTiming()
    return pulse_blocking_duration(line, period, duty, transition_extension) >= timing.decode_hold


def min_pulse_period(
    line: str,
    duty: float = 0.5,
    timing: BitTiming | None = None,
    transition_extension: float = TRANSITION_EXTENSION_DEFAULT,
) -> float:
    """Smallest blocking pulse period, swept 500-700 ns in 10 ns steps.

    Blocking as `pulse_blocks_bits` counts it, for a phase that drifts
    against the bits.
    """
    timing = timing or BitTiming()
    for nanos in range(500, 701, 10):
        period = nanos * 1e-9
        if pulse_blocks_bits(line, period, duty, timing, transition_extension):
            return period
    return math.inf


def tau_bit_table(
    voltages=(2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
    timing: BitTiming | None = None,
    tau_rc: float = TAU_RC_DEFAULT,
) -> dict:
    """Bit length time per attack voltage at the configured bus speed."""
    timing = timing or BitTiming()
    return {v: measure_tau_bit(timing.bit_time, v, tau_rc) for v in voltages}
