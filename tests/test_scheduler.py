"""The engine's main loop against a reference scheduler on attack-free buses.

ISO 11898-1 arbitration: whenever the bus is free, the lowest id among
the frames ready at that instant goes, and each sender sends its frames
in order. Without an attack every attempt is delivered, so the frame
rows of a run follow from the send times, the frames' lengths and this
rule alone. The buses drawn here stress the instants where the loop
could go wrong: sends that collide exactly, and sends that land exactly
on an earlier frame's bus-free instant, where a frame that waited meets
one that was just sent.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt.config import EcuSpec, ScenarioConfig
from canvolt.engine import run_scenario
from canvolt.link import INTERMISSION_BITS, Frame, bus_bits

DURATION = 8e-3
BIT = 2e-6  # 500 kbit/s, the default bus speed
FRAME_KINDS = ("FrameSent", "FrameReceived")


def bus(senders):
    """A config of senders (id, data, period, offset), a VIDS host and a logger."""
    ecus = [EcuSpec("A", "vids-host"), EcuSpec("B", "logger")]
    for k, (fid, data, period, offset) in enumerate(senders):
        ecus.append(EcuSpec(f"S{k}", "sender", period=period, frame=Frame(fid, data), offset=offset))
    return ScenarioConfig(duration=DURATION, ecus=tuple(ecus))


def bus_free_after(t0: float, frame: Frame) -> float:
    """The bus-free instant after a frame delivered from t0, as the engine computes it."""
    return t0 + len(bus_bits(frame)) * BIT + INTERMISSION_BITS * BIT


def reference_rows(cfg) -> list:
    """(t, kind, ecu, value) of each frame row: at the first instant a
    frame is ready on a free bus, the lowest id among those ready goes."""
    pending = {}  # sender -> its send times still to go, in order
    for e in cfg.ecus:
        if e.role == "sender":
            times, t = [], e.offset
            while t < cfg.duration:
                times.append(t)
                t = t + e.period
            pending[e] = times
    rows, bus_free = [], 0.0
    while any(pending.values()):
        t0 = max(bus_free, min(times[0] for times in pending.values() if times))
        if t0 >= cfg.duration:
            break
        ready = [e for e, times in pending.items() if times and times[0] <= t0]
        e = min(ready, key=lambda e: e.frame.id)
        pending[e].pop(0)
        t_end = t0 + len(bus_bits(e.frame)) * BIT
        rows.append((t0, "FrameSent", e.name, float(e.frame.id)))
        rows.append((t_end, "FrameReceived", "B", float(e.frame.id)))
        bus_free = t_end + INTERMISSION_BITS * BIT
    return rows


def engine_rows(cfg) -> list:
    trace, _ = run_scenario(cfg)
    return [(t, kind, ecu, value) for t, kind, ecu, _, value, _ in trace.event_rows if kind in FRAME_KINDS]


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
            sent = [(t, ecu) for t, kind, ecu, _ in reference_rows(bus(senders)) if kind == "FrameSent"]
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
