"""The engine's link layer against a reference scheduler.

ISO 11898-1 arbitration: whenever the bus is free, the lowest id among
the frames ready at that instant goes, and each sender sends its frames
in order. Without an attack every attempt is delivered, so the frame
rows of a run follow from the send times, the frames' lengths and this
rule alone. The buses drawn here stress the instants where the loop
could go wrong: sends that collide exactly, and sends that land exactly
on an earlier frame's bus-free instant, where a frame that waited meets
one that was just sent.

The second test runs `_Scheduler` over a stub bus that fails attempts
by a drawn rule, with no physics: an error bit per attempt, some
failures parked until a drawn window end, and a jam interval in which no
frame starts. The reference then also sends error frames and retries, so
the scheduler's error-frame and retransmission timing is checked on its
own, not only through the attacks that reach it.
"""

from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt import engine
from canvolt.config import EcuSpec, ScenarioConfig
from canvolt.engine import run_scenario
from canvolt.link import ERROR_DELIMITER_BITS, ERROR_FLAG_BITS, INTERMISSION_BITS, Frame, bus_bits

DURATION = 8e-3
BIT = 2e-6  # 500 kbit/s, the default bus speed
FRAME_KINDS = ("FrameSent", "Retransmission", "ErrorFrame", "FrameReceived")
REASONS = ("bit_error", "form_error_ack_delimiter")


def bus(senders):
    """A config of senders (id, data, period, offset), a VIDS host and a logger."""
    ecus = [EcuSpec("A", "vids-host"), EcuSpec("B", "logger")]
    for k, (fid, data, period, offset) in enumerate(senders):
        ecus.append(EcuSpec(f"S{k}", "sender", period=period, frame=Frame(fid, data), offset=offset))
    return ScenarioConfig(duration=DURATION, ecus=tuple(ecus))


def bus_free_after(t0: float, frame: Frame) -> float:
    """The bus-free instant after a frame delivered from t0, as the engine computes it."""
    return t0 + len(bus_bits(frame)) * BIT + INTERMISSION_BITS * BIT


def bus_free_after_error(t0: float, error_bit: int) -> float:
    """The bus-free instant after an attempt from t0 fails at `error_bit`:
    the error frame starts the next bit, and its flag, its delimiter and
    the intermission follow. Summed in the order the engine sums them, so
    the floats match."""
    return t0 + (error_bit + 1) * BIT + ERROR_FLAG_BITS * BIT + (ERROR_DELIMITER_BITS + INTERMISSION_BITS) * BIT


class Rule(NamedTuple):
    """How the stub bus treats the run's attempts, counted from 0: attempt
    n takes `outcomes[n % len(outcomes)]`, an (error bit, reason, parks)
    triple. A None error bit delivers it; any other fails it at that bit
    modulo the frame's length, and a failure that parks retries at
    `window_end` when the bus frees before it. An attempt due in
    [jam_start, jam_end) does not start, and waits for jam_end."""

    outcomes: tuple
    window_end: float
    jam_start: float
    jam_end: float

    def outcome(self, n: int, n_bits: int) -> tuple:
        """(error bit or None, reason, parks) of attempt n of a frame of n_bits."""
        error_bit, reason, parks = self.outcomes[n % len(self.outcomes)]
        return (None, "", False) if error_bit is None else (error_bit % n_bits, reason, parks)

    def retry_at(self, t: float, parks: bool) -> float:
        return self.window_end if parks and t < self.window_end else t


DELIVERS = Rule(((None, "", False),), 0.0, 0.0, 0.0)


class StubBus:
    """A `_Bus` stand-in that answers the scheduler's questions by a `Rule`.
    The summary's trips and damage and its indicator period come from the
    real bus it replaces."""

    def __init__(self, real, rule: Rule):
        self.plan, self.bank, self.rule = real.plan, real.bank, rule
        self.attempts = 0
        self.parks = False  # the last attempt's failure parks
        self.flags = []  # each error flag's (start, end)

    def advance_idle(self, t):
        return t

    def jammed(self, t):
        return self.rule.jam_end if self.rule.jam_start <= t < self.rule.jam_end else None

    def sample_bits(self, bits, ack_delim, first_attempt, t0):
        error_bit, reason, self.parks = self.rule.outcome(self.attempts, len(bits))
        self.attempts += 1
        return error_bit, reason

    def error_flag(self, a, b):
        self.flags.append((a, b))

    def retry_at(self, t):
        return self.rule.retry_at(t, self.parks)

    def record_ticks(self):
        pass


def reference_rows(cfg, rule: Rule = DELIVERS) -> list:
    """(t, kind, ecu, value, detail) of each frame row: at the first
    instant a frame is ready on a free bus, the lowest id among those
    ready goes, unless the jam holds it. Each attempt fares as `rule`
    says; a failed one sends an error frame and retries at its bus-free
    instant, or at the window end when it parks."""
    pending = {}  # sender -> [ready time, failed attempts] of each send still to go, in order
    for e in cfg.ecus:
        if e.role == "sender":
            sends, t = [], e.offset
            while t < cfg.duration:
                sends.append([t, 0])
                t = t + e.period
            pending[e] = sends
    rows, bus_free, n = [], 0.0, 0
    while any(pending.values()):
        t0 = max(bus_free, min(sends[0][0] for sends in pending.values() if sends))
        if t0 >= cfg.duration:
            break
        ready = [e for e, sends in pending.items() if sends and sends[0][0] <= t0]
        e = min(ready, key=lambda e: e.frame.id)
        head, value, data = pending[e][0], float(e.frame.id), e.frame.data.hex()
        if rule.jam_start <= t0 < rule.jam_end:
            head[0] = rule.jam_end
            continue
        n_bits = len(bus_bits(e.frame))
        error_bit, reason, parks = rule.outcome(n, n_bits)
        n += 1
        if head[1] == 0:
            rows.append((t0, "FrameSent", e.name, value, data))
        else:
            rows.append((t0, "Retransmission", e.name, value, str(head[1])))
        if error_bit is None:
            t_end = t0 + n_bits * BIT
            rows.append((t_end, "FrameReceived", "B", value, data))
            bus_free = t_end + INTERMISSION_BITS * BIT
            pending[e].pop(0)
        else:
            rows.append((t0 + (error_bit + 1) * BIT, "ErrorFrame", e.name, None, reason))
            bus_free = bus_free_after_error(t0, error_bit)
            head[0], head[1] = rule.retry_at(bus_free, parks), head[1] + 1
    return rows


def frame_rows(trace) -> list:
    return [(t, kind, ecu, value, detail) for t, kind, ecu, _, value, detail in trace.event_rows if kind in FRAME_KINDS]


def engine_rows(cfg) -> list:
    trace, _ = run_scenario(cfg)
    return frame_rows(trace)


@st.composite
def buses(draw):
    """2-6 senders with unique ids. After the first, each sender's offset
    is free, equal to an earlier sender's, or exactly the bus-free
    instant after one of the frames the senders before it deliver."""
    ids = draw(st.lists(st.integers(0, 0x7FF), min_size=2, max_size=6, unique=True))
    senders = []
    for fid in ids:
        data = draw(st.binary(max_size=8))
        period = draw(st.integers(1000, 5000)) * 1e-6
        how = draw(st.sampled_from(("free", "collide", "bus_free"))) if senders else "free"
        if how == "collide":
            offset = draw(st.sampled_from(senders))[3]
        elif how == "bus_free":
            sent = [(t, ecu) for t, kind, ecu, _, _ in reference_rows(bus(senders)) if kind == "FrameSent"]
            t0, ecu = draw(st.sampled_from(sent))
            fid_before, data_before, _, _ = senders[int(ecu[1:])]
            offset = bus_free_after(t0, Frame(fid_before, data_before))
        else:
            offset = draw(st.integers(0, 3000)) * 1e-6
        senders.append((fid, data, period, offset))
    return senders


PAYLOAD = bytes(range(8))


@settings(max_examples=200, deadline=None)
@given(senders=buses())
# two sends collide at 0: the lower id goes first, the other at its bus-free instant
@example(senders=[(0x200, PAYLOAD, 2e-3, 0.0), (0x100, PAYLOAD, 2e-3, 0.0)])
# a send lands on the bus-free instant after S0's frame, where S1's frame
# has waited since 0: the new send's lower id wins
@example(
    senders=[
        (0x100, PAYLOAD, 3e-3, 0.0),
        (0x300, PAYLOAD, 3e-3, 0.0),
        (0x050, b"", 3e-3, bus_free_after(0.0, Frame(0x100, PAYLOAD))),
    ]
)
# the same instant, where the waiting frame's lower id wins
@example(
    senders=[
        (0x100, PAYLOAD, 3e-3, 0.0),
        (0x080, PAYLOAD, 3e-3, 0.0),
        (0x7FF, b"\x01", 3e-3, bus_free_after(0.0, Frame(0x080, PAYLOAD))),
    ]
)
# an overloaded bus: every sender's queue grows over the run
@example(senders=[(k, PAYLOAD, 1e-3, 0.0) for k in range(6)])
def test_frames_go_in_arbitration_order(senders):
    cfg = bus(senders)
    assert engine_rows(cfg) == reference_rows(cfg)


@st.composite
def rules(draw):
    """A `Rule` of 1-8 outcomes, most of them failures, with a window end
    and a jam drawn on the microsecond grid of the send offsets."""
    outcome = st.tuples(st.none() | st.integers(0, 200), st.sampled_from(REASONS), st.booleans())
    outcomes = draw(st.lists(outcome, min_size=1, max_size=8))
    window_end, jam_start = (draw(st.integers(0, 8000)) * 1e-6 for _ in range(2))
    return Rule(tuple(outcomes), window_end, jam_start, jam_start + draw(st.integers(0, 2000)) * 1e-6)


def stub_run(cfg, rule: Rule) -> tuple:
    """The frame rows, summary and error flags of a run over a `StubBus`."""
    scheduler = engine._Scheduler(cfg)
    scheduler.bus = stub = StubBus(scheduler.bus, rule)
    trace, summary = scheduler.run()
    return frame_rows(trace), summary, stub.flags


# S0's first attempt fails at bit 10, and its retry lands exactly on
# S1's first send, where S1's lower id wins
@example(
    senders=[(0x100, PAYLOAD, 3e-3, 0.0), (0x080, b"", 3e-3, bus_free_after_error(0.0, 10))],
    rule=Rule(((10, "bit_error", False), (None, "", False)), 0.0, 0.0, 0.0),
)
# every failure parks until 5 ms, and a jam holds the sends due in 1-2 ms
@example(
    senders=[(0x100, PAYLOAD, 2e-3, 0.0), (0x200, b"\x01", 2e-3, 1e-3)],
    rule=Rule(((None, "", False), (3, "form_error_ack_delimiter", True)), 5e-3, 1e-3, 2e-3),
)
@settings(max_examples=200, deadline=None)
@given(senders=buses(), rule=rules())
def test_failed_attempts_retry_after_their_error_frames(senders, rule):
    cfg = bus(senders)
    rows, summary, flags = stub_run(cfg, rule)
    assert rows == reference_rows(cfg, rule)
    errors = [(t, detail) for t, kind, _, _, detail in rows if kind == "ErrorFrame"]
    assert flags == [(t, t + ERROR_FLAG_BITS * BIT) for t, _ in errors]
    assert summary.retransmissions == sum(kind == "Retransmission" for _, kind, *_ in rows)
    assert summary.messages_received == sum(kind == "FrameReceived" for _, kind, *_ in rows)
    assert summary.first_failure_reason == (errors[0][1] if errors else "")
