"""Protective devices placed in series with the monitored analog pins.

Every device is an immutable value; the caller owns the timeline and
feeds piecewise-constant currents. Fuses, breakers and resettable fuses
share one threshold-plus-duration trip law, `TripTimer`, which also
serves as the microcontroller pin's damage accumulator. The thermostat
is a first-order thermal model stepped on a grid of tau_thermal/10.

Every device answers `at_rest(i)`, `conducting` (its pin stays on the
bus), `passes(i)` (the current through it), `step(i, dt)`: its state
after dt of constant current, or at its first open/close change, and
`steps(i, spans)`: `step` folded over consecutive spans of one current,
or None when the device opens or closes in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class NotTripped(ValueError):
    """Reset requested on a breaker that is not tripped."""


class _Switch:
    """A device whose pin is on the bus, and passes its current, while closed."""

    @property
    def conducting(self) -> bool:
        return not self.open

    def passes(self, i: float) -> float:
        return 0.0 if self.open else i

    def steps(self, i: float, spans):
        """The state after `step(i, dt)` for each dt of `spans` in turn, a
        span skipped while at rest, as the engine steps a device piece by
        piece; None when an open/close change falls inside."""
        state = self
        for dt in spans:
            if not state.at_rest(i):
                state = state.step(i, dt)[0]
                if state.open != self.open:
                    return None
        return state


@dataclass(frozen=True)
class TripTimer(_Switch):
    """Trips once |i| has stayed strictly above `rating` for `opening_time`.

    The timer clears whenever the current drops to the rating or below.
    A trip is absorbing.
    """

    rating: float = 0.010
    opening_time: float = 1e-6
    over_timer: float = 0.0
    tripped: bool = False

    @property
    def open(self) -> bool:
        return self.tripped

    def time_to_trip(self, i: float) -> float:
        """Time until the trip at constant current i; inf when it never trips."""
        if self.tripped or abs(i) <= self.rating:
            return math.inf
        left = self.opening_time - self.over_timer
        return left if left > 0.0 else 0.0

    def at_rest(self, i: float) -> bool:
        """`advance(i, dt)` leaves this state unchanged for every dt."""
        return self.tripped or (not self.over_timer and abs(i) <= self.rating)

    def advance(self, i: float, dt: float):
        """The state after dt of constant current i."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.tripped:
            return self
        if abs(i) <= self.rating:
            return replace(self, over_timer=0.0) if self.over_timer else self
        if dt >= self.opening_time - self.over_timer:
            return replace(self, over_timer=self.opening_time, tripped=True)
        return replace(self, over_timer=self.over_timer + dt)

    def step(self, i: float, dt: float) -> tuple:
        """(state, elapsed): the trip at its closed-form time when that
        comes within dt, else the state after dt."""
        t = self.time_to_trip(i)
        if t <= dt:
            return replace(self, over_timer=self.opening_time, tripped=True), t
        return self.advance(i, dt), dt


@dataclass(frozen=True)
class FuseState(TripTimer):
    """Blowing is permanent."""


@dataclass(frozen=True)
class BreakerState(TripTimer):
    """A fuse that can be reset by hand."""

    def reset(self) -> "BreakerState":
        if not self.tripped:
            raise NotTripped("breaker is closed")
        return replace(self, tripped=False, over_timer=0.0)


@dataclass(frozen=True)
class ResettableFuseState(TripTimer):
    """PTC device: trips like a fuse but keeps passing a leakage current."""

    leakage_current: float = 0.100

    @property
    def conducting(self) -> bool:
        return True  # the leakage path keeps the pin on the bus

    def passes(self, i: float) -> float:
        return resettable_fuse_current(self, i)


def resettable_fuse_current(state: ResettableFuseState, i_source_capability: float) -> float:
    """Series current given what the source could push through a wire."""
    if not state.tripped:
        return i_source_capability
    sign = -1.0 if i_source_capability < 0.0 else 1.0
    return sign * min(abs(i_source_capability), state.leakage_current)


@dataclass(frozen=True)
class ThermostatCoil(_Switch):
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

    def at_rest(self, i: float) -> bool:
        """Closed, within 1e-6 degC of ambient and carrying no current: a
        step of any length leaves the coil closed at ambient, so it is skipped."""
        return self._rests(self.temp, self.open, i)

    def _rests(self, temp: float, is_open: bool, i: float) -> bool:
        """`at_rest(i)` for this coil at temp with its switch open or not."""
        return not is_open and not i and abs(temp - self.t_ambient) < 1e-6

    def step(self, i: float, dt: float) -> tuple:
        """(state, elapsed): `thermostat_step` on a tau_thermal/10 grid from
        now, the last step shorter, stopped at the first open/close flip;
        elapsed is capped at dt, which the float sum of the steps can pass."""
        temp, is_open, elapsed = self._heat(i, self.temp, self.open, (dt,))
        return self._at(temp, is_open), min(elapsed, dt)

    def steps(self, i: float, spans):
        """`_Switch.steps` on the coil's floats, with one state at the end."""
        temp, is_open, _ = self._heat(i, self.temp, self.open, spans, settle=True)
        return None if is_open != self.open else self._at(temp, is_open)

    def _heat(self, i: float, temp: float, is_open: bool, spans, settle: bool = False) -> tuple:
        """(temp, open, elapsed) after current i from (temp, open) over each
        dt of `spans` in turn: explicit Euler steps of the first-order model
        on a tau_thermal/10 grid started afresh at each span, the last step
        of a span shorter, each followed by the switch rule. Stops at the
        first open/close flip, elapsed counting from its span's start; with
        `settle`, stops once the coil rests, which under one current lasts.
        """
        tau, limit, reclose = self.tau_thermal, self.t_limit, self.t_limit - self.hysteresis
        max_dt = tau / 10.0
        target = self.t_ambient + self.thermal_gain * i * i * self.r_coil
        was, elapsed = is_open, 0.0
        for dt in spans:
            if settle and self._rests(temp, is_open, i):
                break
            elapsed = 0.0
            while elapsed < dt:
                h = dt - elapsed
                if h > max_dt:
                    h = max_dt
                temp = temp + (h / tau) * (target - temp)
                if not is_open and temp > limit:
                    is_open = True
                elif is_open and temp < reclose:
                    is_open = False
                elapsed += h
                if is_open != was:
                    return temp, is_open, elapsed
        return temp, is_open, elapsed

    def _at(self, temp: float, is_open: bool) -> "ThermostatCoil":
        """This coil at temp with its switch open or not."""
        return ThermostatCoil(
            r_coil=self.r_coil, temp=temp, t_ambient=self.t_ambient, t_limit=self.t_limit,
            hysteresis=self.hysteresis, thermal_gain=self.thermal_gain,
            tau_thermal=self.tau_thermal, open=is_open,
        )


def thermostat_step(state: ThermostatCoil, i: float, dt: float) -> ThermostatCoil:
    """First-order temperature update followed by the switch logic.

    dt must stay below tau_thermal/10 for the explicit update to hold.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > state.tau_thermal / 10.0:
        raise ValueError(f"dt {dt!r} exceeds tau_thermal/10 stability bound")
    return state.step(i, dt)[0]


def device_step(device, i: float, dt: float):
    """Advance any protective device over dt of constant current, through
    every open/close change on the way."""
    while dt > 0.0:
        device, elapsed = device.step(i, dt)
        dt -= elapsed
    return device
