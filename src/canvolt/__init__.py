"""Deterministic CAN bus simulator: voltage-based attacks on the bus
lines and the series protective hardware that isolates a compromised
measurement node."""

from .attacks import (
    ActiveOvercurrent,
    AttackClass,
    AttackSpec,
    DoS,
    ForcedRetransmission,
    PassiveOvercurrent,
    PulseAttack,
    classify_pin_combo,
    min_dos_voltage,
    min_fra_voltage,
    min_pulse_period,
    overcurrent_current,
    pin_override,
)
from .electrical import (
    INPUT,
    OUTPUT_LOW,
    BusTopology,
    ConflictingSources,
    Input,
    InvalidVoltage,
    LineVoltages,
    OutputHigh,
    OutputLow,
    PinCurrents,
    PinMode,
    Pulse,
    PulseClock,
    TransceiverParams,
    measure_tau_bit,
    pulse,
    recovery_waveform,
    solve_bus,
)
from .config import (
    CalibratedParams,
    ConfigError,
    DamageParams,
    EcuSpec,
    IrsConfig,
    ScenarioConfig,
    SweepSpec,
)
from .engine import (
    Summary,
    message_indicator,
    run_scenario,
    run_sweep,
)
from .irs import (
    BreakerState,
    FuseState,
    NotTripped,
    ResettableFuseState,
    ThermostatCoil,
    TripTimer,
    resettable_fuse_current,
    thermostat_step,
)
from .link import (
    BitDecision,
    BitTiming,
    CrcError,
    DecodeError,
    FormError,
    Frame,
    IdCollision,
    StuffError,
    arbitrate,
    decode_bitstream,
    encode_frame,
    sample_bit,
)
from .trace import Trace, TraceRecord

__version__ = "0.1.0"
