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
    `event_rows` and `segments` read the rows as they are and do not
    expand the ticks; `events`, `records` and `of_kind` build
    `TraceRecord`s when asked, and `records` expands and merges both on
    first access.
    """

    def __init__(self):
        self.runs: list = []
        self._side: list = []  # (t, rank, row) of events and markers
        self._ordered = True
        self._records = None

    def add(self, t, kind, ecu="", line="", value=None, detail=""):
        """A record at t, ranked by its kind among the records at t."""
        self._side.append((t, _RANKS.get(kind, 0), (t, kind, ecu, line, value, detail)))
        self._ordered = False
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

    def _side_in_order(self) -> list:
        if not self._ordered:
            self._side.sort(key=_STAMP)  # stable: insertion order on ties
            self._ordered = True
        return self._side

    @property
    def event_rows(self) -> list:
        """Every record but the samples as a plain row, in order."""
        return [row for _, _, row in self._side_in_order()]

    @property
    def events(self) -> list:
        """Every record but the samples, in order."""
        return [TraceRecord(*row) for row in self.event_rows]

    def segments(self):
        """The records in order: each event as `(row, None)`, its plain
        row, each stretch of ticks between events as `(None, (first,
        last, samples))`."""
        side = self._side_in_order()
        i, n = 0, len(side)
        for first, last, samples in self.runs:
            k = first
            while k <= last:
                tick = (k, _TICK)  # no event shares a rank with a tick
                while i < n and side[i] < tick:
                    yield side[i][2], None
                    i += 1
                end = last
                if i < n:
                    # the last tick that sorts before the next event
                    t, rank = side[i][0], side[i][1]
                    j = math.floor(t)
                    end = min(last, j - 1 if j == t and rank < _TICK else j)
                yield None, (k, end, samples)
                k = end + 1
        for _, _, r in side[i:]:
            yield r, None

    @property
    def records(self) -> list:
        """Every record in order, ticks expanded; built on first access."""
        if self._records is None:
            out = []
            for row, ticks in self.segments():
                if row is not None:
                    out.append(TraceRecord(*row))
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
