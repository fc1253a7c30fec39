"""The records of a run and their order.

A run's trace holds its events as records and its 1 Hz samples as runs
of ticks, so a mostly idle run costs memory per event, not per simulated
second. Records sort by time, and records that share a stamp by kind:

1. every other event (trips, thermostat flips, Damage, FrameReceived,
   ErrorFrame);
2. AttackStart;
3. the tick's samples;
4. AttackEnd;
5. FrameSent and Retransmission.

Records of the same rank keep the order they were added in.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter

TRACE_KINDS = (
    "FrameSent",
    "FrameReceived",
    "ErrorFrame",
    "Retransmission",
    "FuseBlown",
    "BreakerTripped",
    "ThermostatOpen",
    "ThermostatClosed",
    "Damage",
    "AttackStart",
    "AttackEnd",
    "PinCurrentSample",
    "LineVoltageSample",
)
SAMPLE_KINDS = ("LineVoltageSample", "PinCurrentSample")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    t: float
    kind: str
    ecu: str = ""
    line: str = ""
    value: float | None = None
    detail: str = ""


# a record's rank among those at its stamp: 0 for a kind not listed, _TICK for samples
_TICK = 2
_RANKS = {"AttackStart": 1, "AttackEnd": 3, "FrameSent": 4, "Retransmission": 4}
_TIME = itemgetter(0)  # a row's t


def _stamp(row) -> tuple:
    """A row's (t, rank), by which it is placed among the rows."""
    return row[0], _RANKS.get(row[1], 0)


class Trace:
    """A run's records in time order: events, plus sample ticks kept as runs.

    Events and window markers are kept as plain rows `(t, kind, ecu,
    line, value, detail)`, the fields of a `TraceRecord`, in one list
    that is in order after every `add`. Each run `[first, last,
    samples]` stands for the ticks at first..last seconds, each with one
    record per `(kind, ecu, line, value)` in `samples`. `event_rows` and
    `segments` read the rows as they are and do not expand the ticks;
    `events`, `records` and `of_kind` build `TraceRecord`s when asked.
    `records`, which expands and merges both, is kept until the next
    `add` or `add_ticks`.
    """

    def __init__(self):
        self.runs: list = []
        self._rows: list = []
        self._records = None

    def add(self, t, kind, ecu="", line="", value=None, detail=""):
        """A record at t, after every record that sorts at or before it:
        appended when it sorts at or after the last one, as nearly all
        of the engine's rows do, else inserted in its place."""
        row = (t, kind, ecu, line, value, detail)
        rows = self._rows
        if rows and t <= rows[-1][0] and _stamp(row) < _stamp(rows[-1]):
            insort(rows, row, key=_stamp)
        else:
            rows.append(row)
        self._records = None

    def add_ticks(self, first: int, last: int, samples: tuple):
        """Ticks first..last with the records `samples`; extends the last
        run when it ends at first - 1 with these very samples."""
        runs = self.runs
        if runs and runs[-1][2] is samples and runs[-1][1] == first - 1:
            runs[-1][1] = last
        else:
            runs.append([first, last, samples])
        self._records = None

    @property
    def event_rows(self) -> list:
        """Every record but the samples as a plain row, in order; shared,
        so a caller reads it and does not change it."""
        return self._rows

    @property
    def events(self) -> list:
        """Every record but the samples, in order."""
        return [TraceRecord(*row) for row in self.event_rows]

    def segments(self):
        """The records in order, a stretch at a time: each stretch of
        events between ticks as `(rows, None)`, a list of their plain
        rows, and each stretch of ticks between events as `(None, (first,
        last, samples))`."""
        rows = self.event_rows
        i, n = 0, len(rows)
        for first, last, samples in self.runs:
            k = first
            while k <= last:
                # the events before tick k: those before k, then those at k
                # that rank before a tick (none shares a tick's rank)
                j = bisect_left(rows, k, i, key=_TIME)
                while j < n and rows[j][0] == k and _RANKS.get(rows[j][1], 0) < _TICK:
                    j += 1
                if i < j:
                    yield rows[i:j], None
                    i = j
                end = last
                if i < n:
                    # the last tick that sorts before the next event
                    t = rows[i][0]
                    j = math.floor(t)
                    end = min(last, j - 1 if j == t and _RANKS.get(rows[i][1], 0) < _TICK else j)
                yield None, (k, end, samples)
                k = end + 1
        if i < n:
            yield rows[i:], None

    @property
    def records(self) -> list:
        """Every record in order, ticks expanded; built on first access."""
        if self._records is None:
            out = []
            for rows, ticks in self.segments():
                if rows is not None:
                    out += [TraceRecord(*row) for row in rows]
                    continue
                first, last, samples = ticks
                for k in range(first, last + 1):
                    t = float(k)
                    out += [TraceRecord(t, *fields) for fields in samples]
            self._records = out
        return self._records

    def of_kind(self, kind: str) -> list:
        source = self.records if kind in SAMPLE_KINDS else self.events
        return [r for r in source if r.kind == kind]
