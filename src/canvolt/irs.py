"""Protective devices placed in series with the monitored analog pins.

Every device is an immutable value advanced by step functions; the
caller owns the timeline and feeds piecewise-constant currents.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class NotTripped(ValueError):
    """Reset requested on a breaker that is not tripped."""


@dataclass(frozen=True)
class FuseState:
    """Threshold-plus-duration trip; blowing is permanent."""

    rating: float = 0.010
    opening_time: float = 1e-6
    over_timer: float = 0.0
    blown: bool = False

    @property
    def open(self) -> bool:
        return self.blown


def fuse_step(state: FuseState, i: float, dt: float) -> FuseState:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.blown:
        return state
    if abs(i) > state.rating:
        timer = state.over_timer + dt
        return replace(state, over_timer=timer, blown=timer >= state.opening_time)
    return replace(state, over_timer=0.0)


@dataclass(frozen=True)
class BreakerState:
    """Same trip law as a fuse, but manually resettable."""

    rating: float = 0.010
    opening_time: float = 1e-6
    over_timer: float = 0.0
    tripped: bool = False

    @property
    def open(self) -> bool:
        return self.tripped


def breaker_step(state: BreakerState, i: float, dt: float) -> BreakerState:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.tripped:
        return state
    if abs(i) > state.rating:
        timer = state.over_timer + dt
        return replace(state, over_timer=timer, tripped=timer >= state.opening_time)
    return replace(state, over_timer=0.0)


def breaker_reset(state: BreakerState) -> BreakerState:
    if not state.tripped:
        raise NotTripped("breaker is closed")
    return replace(state, tripped=False, over_timer=0.0)


@dataclass(frozen=True)
class ResettableFuseState:
    """PTC device: trips like a fuse but keeps passing a leakage current."""

    rating: float = 0.010
    opening_time: float = 1e-6
    leakage_current: float = 0.100
    over_timer: float = 0.0
    tripped: bool = False

    @property
    def open(self) -> bool:
        return self.tripped


def resettable_fuse_step(state: ResettableFuseState, i: float, dt: float) -> ResettableFuseState:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.tripped:
        return state
    if abs(i) > state.rating:
        timer = state.over_timer + dt
        return replace(state, over_timer=timer, tripped=timer >= state.opening_time)
    return replace(state, over_timer=0.0)


def resettable_fuse_current(state: ResettableFuseState, i_source_capability: float) -> float:
    """Series current given what the source could push through a wire."""
    if not state.tripped:
        return i_source_capability
    sign = -1.0 if i_source_capability < 0.0 else 1.0
    return sign * min(abs(i_source_capability), state.leakage_current)


@dataclass(frozen=True)
class ThermostatCoil:
    """Heating coil plus thermostat: a lumped first-order thermal model.

    Opens above t_limit, recloses once cooled below t_limit minus the
    hysteresis. Reusable without replacing hardware.
    """

    r_coil: float = 1.0
    temp: float = 25.0
    t_ambient: float = 25.0
    t_limit: float = 40.0
    hysteresis: float = 2.0
    thermal_gain: float = 40.0  # degC per watt at steady state
    tau_thermal: float = 2.0
    open: bool = False


def thermostat_step(state: ThermostatCoil, i: float, dt: float) -> ThermostatCoil:
    """First-order temperature update followed by the switch logic.

    dt must stay below tau_thermal/10 for the explicit update to hold.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > state.tau_thermal / 10.0:
        raise ValueError(f"dt {dt!r} exceeds tau_thermal/10 stability bound")
    target = state.t_ambient + state.thermal_gain * i * i * state.r_coil
    temp = state.temp + (dt / state.tau_thermal) * (target - state.temp)
    is_open = state.open
    if not is_open and temp > state.t_limit:
        is_open = True
    elif is_open and temp < state.t_limit - state.hysteresis:
        is_open = False
    return replace(state, temp=temp, open=is_open)


def thermostat_advance(state: ThermostatCoil, i: float, duration: float) -> ThermostatCoil:
    """Step the thermal model across an interval of constant current."""
    if duration <= 0.0:
        return state
    max_dt = state.tau_thermal / 10.0
    steps = max(1, int(duration // max_dt) + (1 if duration % max_dt else 0))
    dt = duration / steps
    for _ in range(steps):
        state = thermostat_step(state, i, dt)
    return state


def device_step(device, i: float, dt: float):
    """Dispatch to the matching step function."""
    if isinstance(device, FuseState):
        return fuse_step(device, i, dt)
    if isinstance(device, BreakerState):
        return breaker_step(device, i, dt)
    if isinstance(device, ResettableFuseState):
        return resettable_fuse_step(device, i, dt)
    if isinstance(device, ThermostatCoil):
        return thermostat_advance(device, i, dt)
    raise TypeError(f"unknown protective device {device!r}")
