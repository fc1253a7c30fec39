"""Run summaries against the rows of their traces.

A run keeps what its summary needs as it adds its rows: the
FrameReceived times at its receiver, the first logger, and the
Retransmission times. These tests draw buses under every attack kind,
with no logger, one, or two, also with a window edge moved exactly onto
a delivery or a retransmission, and require each run's `Summary`, and
each sweep point's, to equal the summary read from the trace's rows
(`harness.row_summaries`).
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt.attacks import ForcedRetransmission
from canvolt.config import SweepSpec
from canvolt.engine import run_scenario, run_sweep
from canvolt.link import Frame, ack_delimiter_index, bus_bits
from harness import attack, bus, irs_config, plan, row_summaries, senders

BIT = 2e-6  # 500 kbit/s
DURATION = 3e-3
KINDS = ["none", "dos", "fra", "active", "passive", "pulse_canl", "pulse_canh"]
# (start, end) on the bit grid: from 20 bits before 0 s, 1 to 1,500 bits long
WINDOWS = st.tuples(st.integers(-20, 1500), st.integers(1, 1500)).map(lambda w: (w[0] * BIT, (w[0] + w[1]) * BIT))


def summary_bus(drawn, kind, window, period_us, loggers, device):
    """The drawn senders under an attack of this kind over `window`."""
    return bus(
        plan(drawn), period_us * 1e-6, loggers=loggers, duration=DURATION,
        attack=attack(kind, *window), irs_config=irs_config(device),
    )


def first_row_time(cfg, kind) -> float:
    """The time of the first row of this kind in a run of cfg."""
    trace, _ = run_scenario(cfg)
    return next(t for t, k, *_ in trace.event_rows if k == kind)


def check_summary(cfg):
    """A run of cfg's summary equals the reference's; returns its trace."""
    trace, summary = run_scenario(cfg)
    with row_summaries():
        _, reference = run_scenario(cfg)
    assert summary == reference
    return trace


def snapped(cfg, trace) -> list:
    """cfg with its window's start, and cfg with its end, moved onto the
    first row in `trace`, a run of cfg, of the kind the attack's success
    reads: a Retransmission under a forced retransmission, else a
    FrameReceived. Each move that would empty the window is left out."""
    kind = "Retransmission" if isinstance(cfg.attack, ForcedRetransmission) else "FrameReceived"
    t = next((t for t, k, *_ in trace.event_rows if k == kind), None)
    if t is None:
        return []
    a = cfg.attack
    windows = [(start, end) for start, end in ((t, a.t_end), (a.t_start, t)) if start < end]
    return [replace(cfg, attack=replace(a, t_start=start, t_end=end)) for start, end in windows]


# a DoS over the 8 recessive bits that end a frame sent at 0 s: the frame
# is delivered exactly at the window's end, outside it, and the frame
# sent inside the window waits for the bus until after the window
EDGE_FRAME = Frame(id=0x10, data=b"\x01")
DOS_TO_RECEIVED = dict(
    drawn=[(0x10, b"\x01", 0), (0x20, b"", 100)], kind="dos",
    window=(ack_delimiter_index(EDGE_FRAME) * BIT, len(bus_bits(EDGE_FRAME)) * BIT),
    period_us=1000, loggers=("B",), device="none", step_bits=4,
)
# a DoS from exactly that delivery, which is inside it, over S0's second
# send, which waits for the window's end
DOS_FROM_RECEIVED = dict(DOS_TO_RECEIVED, window=(len(bus_bits(EDGE_FRAME)) * BIT, 1.05e-3))
# a forced retransmission whose window ends exactly at the retransmission
# its first attempt forces, which so falls outside it
FRA_SENDER = [(0x10, b"\x01", 0)]
FRA_RETRY = first_row_time(summary_bus(FRA_SENDER, "fra", (0.0, 1.0), 1000, ("B",), "none"), "Retransmission")
FRA_TO_RETRANSMISSION = dict(DOS_TO_RECEIVED, drawn=FRA_SENDER, kind="fra", window=(0.0, FRA_RETRY))


@settings(max_examples=200, deadline=None)
@given(
    drawn=senders(1500, 0, 3),
    kind=st.sampled_from(KINDS),
    window=WINDOWS,
    period_us=st.sampled_from([500, 700, 1000]),
    loggers=st.sampled_from([(), ("B",), ("C", "B")]),
    device=st.sampled_from(["none", "fuse"]),
    step_bits=st.integers(1, 50),
)
@example(**DOS_TO_RECEIVED)
@example(**FRA_TO_RETRANSMISSION)
@example(**DOS_FROM_RECEIVED)
def test_summaries_match_their_rows(drawn, kind, window, period_us, loggers, device, step_bits):
    """A run's summary equals the one read from its trace's rows, and so
    does each one's with a window edge moved onto a row (`snapped`), and
    each point's of a sweep of its window's end."""
    cfg = summary_bus(drawn, kind, window, period_us, loggers, device)
    trace = check_summary(cfg)
    if kind == "none":
        return
    for moved in snapped(cfg, trace):
        check_summary(moved)
    end, step = window[1], step_bits * BIT
    swept = replace(cfg, sweep=SweepSpec("attack.t_end", end, end + 2 * step, step))
    points = run_sweep(swept)
    with row_summaries():
        references = run_sweep(swept)
    assert [(p.value, p.success, p.summary) for p in points] == [
        (p.value, p.success, p.summary) for p in references
    ]
