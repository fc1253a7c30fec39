"""Workload generators and seed-independent invariants for the benchmark.

Each generator takes the workload seed and returns the scenario configs
the simulator receives, as ``(name, ini_text)`` pairs. The simulator
sees only the INI text; everything drawn from the seed is written into it.
"""

from __future__ import annotations

import random
from pathlib import Path

DEFAULT_SEED = 0

# First grid point at which each cookbook sweep succeeds: the paper's
# desk thresholds (V for DoS and forced retransmission, s for pulses).
SWEEP_THRESHOLDS = {
    "dos_sweep.ini": 2.2,
    "fra_sweep.ini": 4.5,
    "pulse_canl_sweep.ini": 680e-9,
    "pulse_canh_sweep.ini": 570e-9,
}

BUSY_SENDERS = 8
BUSY_PERIOD = 0.01  # 100 Hz per sender
BUSY_DURATION = 1.0
ATTACKED_DURATION = 0.1
IDLE_PERIOD = 600.0
IDLE_DURATION = 30_000.0
IDLE_WINDOW = 100e-6
# one fixed frame, so every seed carries the same bits; the seed moves
# the schedule and the attack window
IDLE_FRAME = ("0x123", "0123456789abcdef")


def cookbook(root: Path, seed: int) -> list:
    """The repo's desk experiments; fixed, so the seed does not change them."""
    del seed
    return [(p.name, p.read_text()) for p in sorted((root / "configs").glob("*.ini"))]


def _ini(sections: list) -> str:
    lines = []
    for header, keys in sections:
        lines.append(f"[{header}]")
        lines += [f"{k} = {v}" for k, v in keys]
        lines.append("")
    return "\n".join(lines)


def _bus_sections(rng: random.Random, duration: float) -> list:
    """Host, logger and 8 senders of 8-byte frames at 100 Hz (about 21% load).

    Offsets stay below 7 ms of the 10 ms period, so even when every
    sender collides the queue drains before the next period and every
    frame completes before the run ends.
    """
    sections = [
        ("bus", [("speed", "500000"), ("duration", repr(duration))]),
        ("ecu.A", [("role", "vids-host")]),
        ("ecu.B", [("role", "logger")]),
    ]
    ids = rng.sample(range(1, 0x800), BUSY_SENDERS)
    for k, fid in enumerate(ids):
        sections.append((f"ecu.S{k}", [
            ("role", "sender"),
            ("period", repr(BUSY_PERIOD)),
            ("id", f"{fid:#x}"),
            ("data", rng.randbytes(8).hex()),
            ("offset", repr(rng.randrange(7000) * 1e-6)),
        ]))
    return sections


def busy_bus(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    return [("busy_bus", _ini(_bus_sections(rng, BUSY_DURATION)))]


def attacked_bus(root: Path, seed: int) -> list:
    """The busy bus under a 600 ns CANL pulse for the whole run.

    600 ns is below the 680 ns blocking period, so frames still deliver;
    the resettable fuses trip and then leak enough current to damage the pin.
    """
    rng = random.Random(seed)
    sections = _bus_sections(rng, ATTACKED_DURATION)
    sections.append(("attack", [
        ("type", "pulse"), ("node", "A"), ("line", "canl"),
        ("period", "600e-9"), ("duty", "0.5"),
        ("start", "0.0"), ("end", repr(ATTACKED_DURATION)),
    ]))
    sections.append(("irs", [("device", "resettable_fuse"), ("pins", "both")]))
    return [("attacked_bus", _ini(sections))]


def long_idle(root: Path, seed: int) -> list:
    """3 nodes, one frame every 600 s, and a 100 us CANL pulse window late in the run.

    The window opens 1-5 us before one of the last frames starts, so the
    pulse's first 10 us high phase covers that frame's dominant SOF bit
    and the fuse trips inside the window. Send times are accumulated the
    way the engine schedules them.
    """
    rng = random.Random(seed)
    offset = round(rng.uniform(1.0, IDLE_PERIOD - 1.0), 6)
    sends = []
    t = offset
    while t < IDLE_DURATION:
        sends.append(t)
        t = t + IDLE_PERIOD
    t_send = sends[rng.randrange(3 * len(sends) // 4, len(sends) - 1)]
    start = t_send - rng.randrange(1000, 5000) * 1e-9
    sections = [
        ("bus", [("speed", "500000"), ("duration", repr(IDLE_DURATION))]),
        ("ecu.A", [("role", "vids-host")]),
        ("ecu.B", [("role", "logger")]),
        ("ecu.C", [
            ("role", "sender"),
            ("period", repr(IDLE_PERIOD)),
            ("id", IDLE_FRAME[0]),
            ("data", IDLE_FRAME[1]),
            ("offset", repr(offset)),
        ]),
        ("attack", [
            ("type", "pulse"), ("node", "A"), ("line", "canl"),
            ("period", "20e-6"), ("duty", "0.5"),
            ("start", repr(start)), ("end", repr(start + IDLE_WINDOW)),
        ]),
        ("irs", [("device", "fuse"), ("pins", "both")]),
    ]
    return [("long_idle", _ini(sections))]


GENERATORS = {
    "cookbook": cookbook,
    "busy_bus": busy_bus,
    "attacked_bus": attacked_bus,
    "long_idle": long_idle,
}


def goldens_apply(workload: str, seed: int) -> bool:
    """Goldens hold for the fixed cookbook and for the default seed."""
    return workload == "cookbook" or seed == DEFAULT_SEED


# --- invariants that hold whatever the seed ----------------------------------


def _all_delivered(cfg, summary) -> list:
    if summary.messages_received != summary.messages_sent:
        return [f"delivered {summary.messages_received} of {summary.messages_sent} frames"]
    return []


def _attacked_invariants(cfg, summary) -> list:
    failures = _all_delivered(cfg, summary)
    if not summary.damaged:
        failures.append("the leaking resettable fuse did not damage the pin")
    return failures


def _idle_invariants(cfg, summary) -> list:
    a = cfg.attack
    failures = []
    trips = summary.device_trips
    if not trips:
        failures.append("the fuse did not trip")
    for pin, t in sorted(trips.items()):
        if not a.t_start <= t < a.t_end:
            failures.append(f"{pin} fuse tripped at {t!r}, outside [{a.t_start!r}, {a.t_end!r})")
    period = IDLE_PERIOD
    window_slots = set(range(int(a.t_start // period), int(a.t_end // period) + 1))
    missing = [k for k, v in enumerate(summary.indicator) if v != 1 and k not in window_slots]
    if missing:
        failures.append(f"indicator slots {missing} outside the attack window are not 1")
    return failures


INVARIANTS = {
    "busy_bus": _all_delivered,
    "attacked_bus": _attacked_invariants,
    "long_idle": _idle_invariants,
}
