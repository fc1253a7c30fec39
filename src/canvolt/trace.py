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
from bisect import bisect_left
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
_STAMP = itemgetter(0, 1)  # an event's (t, rank)


class Trace:
    """A run's records in time order: events, plus sample ticks kept as runs.

    Events and window markers are kept as plain rows `(t, kind, ecu,
    line, value, detail)`, the fields of a `TraceRecord`. Each run
    `[first, last, samples]` stands for the ticks at first..last seconds,
    each with one record per `(kind, ecu, line, value)` in `samples`.
    `add` appends the plain row only; the rows added since the last read
    are ranked and ordered when a reader first asks for them, so a run
    whose rows nobody reads never orders them. `event_rows` and
    `segments` read the rows as they are and do not expand the ticks;
    `events`, `records` and `of_kind` build `TraceRecord`s when asked.
    `event_rows` is kept until the next `add`, and `records`, which
    expands and merges both, until the next `add` or `add_ticks`.
    """

    def __init__(self):
        self.runs: list = []
        self._added: list = []  # rows added since the last ordering, unranked
        self._side: list = []  # (t, rank, row) of the rows ordered so far, in order
        self._rows: list = []  # the rows of `_side`
        self._records = None

    def add(self, t, kind, ecu="", line="", value=None, detail=""):
        """A record at t; ranked by its kind among the records at t when
        the rows are next ordered."""
        self._added.append((t, kind, ecu, line, value, detail))

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
        """Every record but the samples as a plain row, in order; built
        on first access after an `add`, and shared until the next, so a
        caller reads it and does not change it. Each row is ranked once,
        when the first read after its `add` orders it."""
        if self._added:
            side = self._side
            side += [(row[0], _RANKS.get(row[1], 0), row) for row in self._added]
            side.sort(key=_STAMP)  # stable: insertion order on ties
            self._added = []
            self._rows = [row for _, _, row in side]
            self._records = None
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
        side = self._side
        i, n = 0, len(side)
        for first, last, samples in self.runs:
            k = first
            while k <= last:
                # the events before tick k; none shares a rank with a tick
                j = bisect_left(side, (k, _TICK), i)
                if i < j:
                    yield rows[i:j], None
                    i = j
                end = last
                if i < n:
                    # the last tick that sorts before the next event
                    t, rank = side[i][0], side[i][1]
                    j = math.floor(t)
                    end = min(last, j - 1 if j == t and rank < _TICK else j)
                yield None, (k, end, samples)
                k = end + 1
        if i < n:
            yield rows[i:], None

    @property
    def records(self) -> list:
        """Every record in order, ticks expanded; built on first access."""
        if self._records is None or self._added:
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
