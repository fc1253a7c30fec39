"""Command-line front end: scenario configs, runs, sweeps, calibration.

A scenario file is the INI sections `config` reads, plus [check]: the
expectations `simulate --check` compares with the run's summary.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import stat
import sys
from dataclasses import fields, replace

from . import attacks as atk
from .config import (
    BOOL, CalibratedParams, Codec, ConfigError, ScenarioConfig, read_config, read_value, set_sweep_value,
    validate_config,
)
from .electrical import STRETCH_LEVEL, measure_tau_bit
from .engine import Summary, Trace, run_scenario, run_sweep

PARAMS_ENV = "CANVOLT_PARAMS"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3

CALIBRATION_TARGETS = (
    "dos_threshold",
    "tau_bit_5v",
    "sink_current",
    "pulse_canl",
    "pulse_canh",
    "fra_threshold",
)
# the grid each predictor sweeps its threshold on; a target between two
# grid points is never what the predictor returns
TARGET_GRIDS = {"dos_threshold": 0.1, "fra_threshold": 0.5, "pulse_canl": 10e-9, "pulse_canh": 10e-9}


class InfeasibleTarget(ValueError):
    """Calibration targets that no parameter value can satisfy."""


class RunFailed(Exception):
    """A simulation or sweep failed for a reason other than its config."""


def _run(fn, cfg: ScenarioConfig):
    """fn(cfg), with any failure but a ConfigError raised as RunFailed."""
    try:
        return fn(cfg)
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 - the engine's own failure
        raise RunFailed(f"{type(exc).__name__}: {exc}") from exc


# --- parsing: the config's sections and [check] ----------------------------

def _slot_range(raw: str) -> tuple:
    """'lo-hi': the first and last indicator slot expected to read 0."""
    lo, _, hi = raw.partition("-")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(raw)
    return lo, hi


_COUNT = Codec(int, "an integer")
_CHECKS = {  # [check] key -> the codec of its expected value
    "indicator_all_one": BOOL,
    "indicator_zeros": Codec(_slot_range, "slots lo-hi"),
    "attack_success": BOOL,
    "damaged": BOOL,
    "min_retransmissions": _COUNT,
    "received": _COUNT,
}


def _expected(key: str, raw: str):
    """The expected value of a [check] key, from its INI text."""
    if key not in _CHECKS:
        raise ConfigError(f"check.{key}", "unknown key")
    return read_value(f"check.{key}", raw, _CHECKS[key])


def parse_config_full(text: str, params: CalibratedParams | None = None) -> tuple:
    """Parse an INI scenario; returns (ScenarioConfig, check expectations).

    The expectations map each [check] key to its INI text, already
    validated; `run_checks` reads them. A sweep runs no checks, so a
    config with both [sweep] and [check] is rejected at `check`.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError("file", str(exc).replace("\n", " "), line=line)

    sections = {name: dict(cp.items(name, raw=True)) for name in cp.sections()}
    if "check" in sections and "sweep" in sections:
        raise ConfigError("check", "a sweep runs no checks; [check] belongs to a config without [sweep]")
    checks = sections.pop("check", {})
    cfg = read_config(sections, params)
    for key, raw in checks.items():
        _expected(key, raw)
    validate_config(cfg)
    return cfg, checks


def parse_config(text: str, params: CalibratedParams | None = None) -> ScenarioConfig:
    return parse_config_full(text, params)[0]


# --- outputs ------------------------------------------------------------------

def _no_truncate(path: str, flags: int) -> int:
    """`open`'s opener for "w", but an existing file is not cut to zero."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class _rewrite:
    """`with _rewrite(path, newline) as fh:` is `open(path, "w",
    newline=newline)` without cutting an existing file to zero first: the
    text is written over the old bytes, and a regular file that held any
    is cut at the position reached on leaving, also when the writer
    raises. On ext4 that costs a fraction of a cut to zero and a rewrite,
    and a new or empty file costs one `fstat` more than "w". A new file
    takes "w"'s mode, and an existing one keeps its inode and mode;
    `os.devnull` and pipes are written as before. A process killed while
    it writes leaves the old file's bytes past the new text."""

    def __init__(self, path: str, newline: str | None = None):
        self.fh = open(path, "w", newline=newline, opener=_no_truncate)
        st = os.fstat(self.fh.fileno())
        self.cut = st.st_size > 0 and stat.S_ISREG(st.st_mode)

    def __enter__(self):
        return self.fh

    def __exit__(self, *exc) -> None:
        with self.fh:
            if self.cut:
                self.fh.truncate()  # flushes first, and cuts at the position reached


TRACE_COLUMNS = ("time_s", "kind", "ecu", "line", "value", "detail")
# bounds the texts of a write: event rows, and ticks outside whole blocks
TEXTS_PER_WRITE = 4096
# Below 10**15, repr(float(k)) == f"{k}.0" (from 10**16 on it has an
# exponent), so ticks k..k+99, for k >= 100 a multiple of 100, are
# str(k // 100) joined over their rows' texts, each led by its tick's last
# two digits and ".0". 1000-tick blocks write slower than 100-tick ones
BLOCK_DIGITS = 2
TICKS_PER_BLOCK = 10**BLOCK_DIGITS
BLOCKS_END = 10**15


def emit_outputs(trace: Trace, summary: Summary, trace_path: str, summary_path: str) -> None:
    """Write the trace CSV and summary JSON.

    Every text a row takes from its fields is formatted once, by a
    writer of the same dialect (so a name that needs quoting is quoted
    alike). The trace is read a stretch at a time (`Trace.segments`). A
    stretch of events costs one `repr` of each row's time, put in front
    of the row's cached text after it (`_RowEnds`). A stretch of ticks
    puts each tick's time in front of each of its rows' texts. When it
    holds a whole block of `TICKS_PER_BLOCK` aligned ticks, its ticks
    from 100 up to `BLOCKS_END` are slices of one table of a block's
    rows: each whole block is written with one join and one write, and
    the ticks before and after them take one join each. Its other ticks
    take one join per tick. The texts outside whole blocks (an event
    row, a tick's rows, or the ticks before or after whole blocks) are
    written at most `TEXTS_PER_WRITE` to a write.
    """
    with _rewrite(trace_path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        ends = _RowEnds(w.dialect)
        # id(samples) -> ("", each row's text after its time): the time
        # joins these into the tick's rows
        suffixes: dict = {}
        # id(samples) -> ["", each row of a block led by its tick's last
        # two digits]: str(k // 100) joins these into ticks k..k+99
        blocks: dict = {}
        out: list = []  # texts not yet written
        for rows, ticks in trace.segments():
            if rows is not None:
                out += [
                    f"{t!r}{ends[kind, ecu, line, value, detail, id(value)]}"
                    for t, kind, ecu, line, value, detail in rows
                ]
                if len(out) >= TEXTS_PER_WRITE:
                    _write(fh, out)
                continue
            first, last, samples = ticks
            parts = suffixes.get(id(samples))
            if parts is None:
                parts = suffixes[id(samples)] = ("", *(
                    ends.text(["", kind, ecu, line, repr(value), ""]) for kind, ecu, line, value in samples
                ))
            if first == last:  # one tick, as between events a second apart
                out.append(repr(float(first)).join(parts))
                continue
            lo = -(-max(first, TICKS_PER_BLOCK) // TICKS_PER_BLOCK)  # first whole block
            hi = min(last + 1, BLOCKS_END) // TICKS_PER_BLOCK  # past the last
            if lo < hi:
                block = blocks.get(id(samples))
                if block is None:
                    block = blocks[id(samples)] = ["", *(
                        f"{d:0{BLOCK_DIGITS}d}.0{row}" for d in range(TICKS_PER_BLOCK) for row in parts[1:]
                    )]
                n = len(samples)  # a tick's entries in the table
                start, stop = max(first, TICKS_PER_BLOCK), min(last + 1, BLOCKS_END)
                _write_ticks(fh, out, parts, first, start)
                if start % TICKS_PER_BLOCK:  # the ticks before the first whole block
                    out.append(str(lo - 1).join(["", *block[1 + start % TICKS_PER_BLOCK * n:]]))
                _write(fh, out)
                for q in range(lo, hi):
                    fh.write(str(q).join(block))
                if stop % TICKS_PER_BLOCK:  # the ticks after the last whole block
                    out.append(str(hi).join(block[:1 + stop % TICKS_PER_BLOCK * n]))
                first = stop
            _write_ticks(fh, out, parts, first, last + 1)
        _write(fh, out)
    with _rewrite(summary_path) as fh:
        fh.write(json.dumps(summary_to_dict(summary), indent=2, sort_keys=True) + "\n")


def _write_ticks(fh, out: list, parts: tuple, start: int, stop: int) -> None:
    """Ticks start..stop-1 onto `out`, each time joined over its rows'
    texts; `out` is written whenever it holds `TEXTS_PER_WRITE` texts."""
    for lo in range(start, stop, TEXTS_PER_WRITE):
        out += [repr(float(k)).join(parts) for k in range(lo, min(lo + TEXTS_PER_WRITE, stop))]
        if len(out) >= TEXTS_PER_WRITE:
            _write(fh, out)


def _write(fh, texts: list) -> None:
    """Write `texts` at most `TEXTS_PER_WRITE` to a write, and clear it."""
    for lo in range(0, len(texts), TEXTS_PER_WRITE):
        fh.write("".join(texts[lo:lo + TEXTS_PER_WRITE]))
    texts.clear()


class _RowEnds(dict):
    """An event row's text after its time, commas and line end included,
    keyed by `(kind, ecu, line, value, detail, id(value))` and built on
    first use. The value's id tells apart values that compare equal but
    print differently (0.0 and -0.0, 1 and 1.0); a trace being written
    holds every value it keys, so no two of them share an id."""

    def __init__(self, dialect):
        super().__init__()
        self.buf = io.StringIO()
        self.writer = csv.writer(self.buf, dialect)

    def text(self, row: list) -> str:
        """`row` as the writer writes it."""
        self.buf.seek(0)
        self.buf.truncate()
        self.writer.writerow(row)
        return self.buf.getvalue()

    def __missing__(self, key) -> str:
        kind, ecu, line, value, detail, _ = key
        end = self[key] = self.text(["", kind, ecu, line, "" if value is None else repr(value), detail])
        return end


def summary_to_dict(summary: Summary) -> dict:
    # not dataclasses.asdict, which deep-copies every indicator slot
    return {f.name: getattr(summary, f.name) for f in fields(summary)}


def write_sweep_csv(points, path: str, cfg: ScenarioConfig) -> None:
    """Sweep table; forced-retransmission sweeps also get the bit length
    at each point's attack voltage."""
    fra = isinstance(cfg.attack, atk.ForcedRetransmission)
    with _rewrite(path, newline="") as fh:
        w = csv.writer(fh)
        header = ["param", "success", "first_failure_reason"]
        if fra:
            header.append("tau_bit_s")
        w.writerow(header)
        for p in points:
            row = [repr(p.value), int(p.success), p.summary.first_failure_reason]
            if fra:
                v = set_sweep_value(cfg, cfg.sweep.path, p.value).attack.v_attack_h
                tau = measure_tau_bit(
                    1.0 / cfg.bus_speed, v, cfg.params.tau_rc, cfg.params.nominal_transition
                )
                row.append(repr(tau))
            w.writerow(row)


# --- calibration -----------------------------------------------------------------

def calibrate(targets: dict, bus_speed: float = 500_000.0) -> CalibratedParams:
    """Solve the closed-form calibration equations for the given targets.

    A target with a grid in `TARGET_GRIDS` must lie on it, to within a
    1e-6 step. The shipped defaults equal calibrate() over all six
    canonical targets.
    """
    for key, x in targets.items():
        if key not in CALIBRATION_TARGETS:
            raise ValueError(f"unknown calibration target {key!r}")
        if key in TARGET_GRIDS:
            steps = x / TARGET_GRIDS[key]
            if not (math.isfinite(steps) and abs(steps - round(steps)) < 1e-6):
                raise InfeasibleTarget(f"{key} {x!r} is off its predictor's {TARGET_GRIDS[key]:g} grid")
    p = CalibratedParams()
    bit_time = 1.0 / bus_speed
    r_load = 60.0

    if "dos_threshold" in targets:
        v = targets["dos_threshold"]
        if not 0.0 < v < 2.6:
            raise InfeasibleTarget(f"dos_threshold {v!r} outside (0, 2.6)")
        # v_diff = r_load (3.5 - v) / (r_load + r) falls to 0.9 V at r_edge;
        # the first 0.1 ohm step above it blocks at v but not 0.1 V below,
        # and rounding the step count to 1e-6 absorbs float noise at an edge
        # that lies on the grid
        r_edge = r_load * ((3.5 - v) / 0.9 - 1.0)
        p = replace(p, r_drive_high=(math.floor(round(10.0 * r_edge, 6)) + 1) / 10.0)

    if "tau_bit_5v" in targets:
        tb = targets["tau_bit_5v"]
        if tb <= bit_time:
            raise InfeasibleTarget(f"tau_bit_5v {tb!r} not above the bit time")
        p = replace(p, tau_rc=(tb - bit_time) / math.log(7.0))

    if "sink_current" in targets:
        i = targets["sink_current"]
        if i <= 0.0:
            raise InfeasibleTarget(f"sink_current {i!r} not positive")
        p = replace(p, r_sink=round((5.0 - p.r_sink_offset) / i, 1))

    if "pulse_canl" in targets:
        period = targets["pulse_canl"]
        if period <= 0.0:
            raise InfeasibleTarget(f"pulse_canl {period!r} not positive")
        p = replace(p, decode_hold=0.5 * period)

    if "pulse_canh" in targets:
        period = targets["pulse_canh"]
        ext = round(p.decode_hold - 0.5 * period, 9)  # nanosecond resolution
        if not 0.0 < ext < p.decode_hold:
            raise InfeasibleTarget(
                f"pulse_canh {period!r} incompatible with decode_hold {p.decode_hold!r}"
            )
        p = replace(p, transition_extension=ext)

    if "fra_threshold" in targets:
        v = targets["fra_threshold"]
        # below it the transceiver's own recovery applies; no pin drives above 5 V
        if not STRETCH_LEVEL <= v <= 5.0:
            raise InfeasibleTarget(f"fra_threshold {v!r} outside [{STRETCH_LEVEL}, 5.0]")
        # the recovery from 1.5 V toward v reads dominant at the sample
        # point until it falls below the release level; take the first
        # 0.001 step after the recovery toward the 0.5 V grid step below
        # v releases, and check that the one toward v has not yet
        release = p.timing(bus_speed).release
        t_s = p.tau_rc * math.log((v - 2.0) / release)
        sp = (math.floor(1000.0 * t_s / bit_time) + 1) / 1000.0
        if sp >= 1.0 or sp * bit_time > p.tau_rc * math.log((v - 1.5) / release):
            raise InfeasibleTarget(f"fra_threshold {v!r} puts the sample point at {sp!r}")
        p = replace(p, sample_point=sp)

    return p


def load_params(path: str) -> CalibratedParams:
    with open(path) as fh:
        return CalibratedParams.from_dict(json.load(fh))


def save_params(params: CalibratedParams, path: str) -> None:
    with _rewrite(path) as fh:
        json.dump(params.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- checks -------------------------------------------------------------------------

def run_checks(checks: dict, summary: Summary) -> list:
    """Compare a run summary against [check] expectations; returns failures.

    `checks` maps [check] keys to their INI text, as `parse_config_full`
    returns them.
    """
    failures = []
    for key, raw in checks.items():
        want = _expected(key, raw)
        if key == "indicator_zeros":
            lo, hi = want
            bad = [k for k, v in enumerate(summary.indicator) if (v == 1) == (lo <= k <= hi)]
            if bad:
                failures.append(f"indicator_zeros: slots {bad} disagree")
        elif key == "min_retransmissions":
            if summary.retransmissions < want:
                failures.append(
                    f"min_retransmissions: expected >= {raw}, got {summary.retransmissions}"
                )
        else:
            got = {
                "indicator_all_one": all(v == 1 for v in summary.indicator),
                "attack_success": summary.attack_success,
                "damaged": summary.damaged,
                "received": summary.messages_received,
            }[key]
            if want != got:
                failures.append(f"{key}: expected {want!r}, got {got!r}")
    return failures


# --- entry point -----------------------------------------------------------------------

def _resolve_params(args) -> CalibratedParams:
    path = getattr(args, "params", None) or os.environ.get(PARAMS_ENV)
    if path:
        return load_params(path)
    return CalibratedParams()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="canvolt",
        description="CAN bus voltage-attack and intrusion-response simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    p_sim.add_argument("config")
    p_sim.add_argument("--trace", default="trace.csv")
    p_sim.add_argument("--summary", default="summary.json")
    p_sim.add_argument("--params")
    p_sim.add_argument("--check", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--params")

    p_cal = sub.add_parser("calibrate", help="solve calibration targets")
    p_cal.add_argument(
        "--targets",
        default=(
            "dos_threshold=2.2,tau_bit_5v=3.16e-6,sink_current=0.281,"
            "pulse_canl=680e-9,pulse_canh=570e-9,fra_threshold=4.5"
        ),
    )
    p_cal.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="check a config without simulating")
    p_val.add_argument("config")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            with open(args.config) as fh:
                parse_config(fh.read())
            print(f"{args.config}: OK")
            return EXIT_OK

        if args.command == "calibrate":
            targets = {}
            for item in args.targets.split(","):
                if not item:
                    continue
                key, _, raw = item.partition("=")
                targets[key.strip()] = float(raw)
            params = calibrate(targets)
            save_params(params, args.out)
            print(f"wrote {args.out}")
            return EXIT_OK

        if args.command == "simulate":
            params = _resolve_params(args)
            with open(args.config) as fh:
                cfg, checks = parse_config_full(fh.read(), params)
            if cfg.sweep is not None:
                raise ConfigError("sweep", "simulate runs one scenario; run a sweep with `canvolt sweep`")
            trace, summary = _run(run_scenario, cfg)
            emit_outputs(trace, summary, args.trace, args.summary)
            print(
                f"sent={summary.messages_sent} received={summary.messages_received} "
                f"retransmissions={summary.retransmissions} "
                f"attack_success={summary.attack_success} damaged={summary.damaged}"
            )
            if args.check:
                failures = run_checks(checks, summary)
                for f in failures:
                    print(f"CHECK FAIL {f}", file=sys.stderr)
                if failures:
                    return EXIT_CHECK
                print(f"checks: {len(checks)} passed")
            return EXIT_OK

        if args.command == "sweep":
            params = _resolve_params(args)
            with open(args.config) as fh:
                cfg, _ = parse_config_full(fh.read(), params)
            points = _run(run_sweep, cfg)
            write_sweep_csv(points, args.out, cfg)
            successes = [p.value for p in points if p.success]
            first = successes[0] if successes else None
            print(f"{len(points)} points, first success at {first}")
            return EXIT_OK
    except RunFailed as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, InfeasibleTarget, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
