"""Command-line front end: scenario configs, runs, sweeps, calibration.

Config files are INI sections ([bus], [ecu.<name>], [attack], [irs],
[damage], [sweep], [check]) so scenario cookbooks stay hand-editable.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import replace

from . import attacks as atk
from .electrical import measure_tau_bit
from .engine import (
    CalibratedParams,
    ConfigError,
    DamageParams,
    EcuSpec,
    IrsConfig,
    ScenarioConfig,
    Summary,
    SweepSpec,
    Trace,
    run_scenario,
    run_sweep,
    validate_config,
)
from .link import Frame

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


# --- config parsing -------------------------------------------------------

_BUS_KEYS = {"speed", "duration", "termination"}
_ECU_KEYS = {"role", "period", "id", "data", "offset", "rtr"}
_ATTACK_KEYS = {
    "type", "node", "start", "end", "v", "line", "period", "duty",
    "v_high", "v_low", "phase", "current_limit",
}
_IRS_KEYS = {
    "device", "pins", "rating", "opening_time", "leakage", "r_coil",
    "t_limit", "t_ambient", "hysteresis", "thermal_gain", "tau_thermal",
    "coil_drive",
}
_DAMAGE_KEYS = {"i_max", "damage_time"}
_SWEEP_KEYS = {"path", "start", "stop", "step"}
_CHECK_KEYS = {
    "indicator_all_one", "indicator_zeros", "attack_success", "damaged",
    "min_retransmissions", "received",
}


def _reject_unknown(section: str, keys, allowed) -> None:
    for k in keys:
        if k not in allowed:
            raise ConfigError(f"{section}.{k}", "unknown key")


def _get_float(sec, section: str, key: str, default=None):
    raw = sec.get(key)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"not a number: {raw!r}")


def _get_bool(sec, section: str, key: str, default=None):
    raw = sec.get(key)
    if raw is None or raw == "":
        return default
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{section}.{key}", f"not a boolean: {raw!r}")


def _parse_attack(sec) -> atk.AttackSpec:
    _reject_unknown("attack", sec.keys(), _ATTACK_KEYS)
    kind = sec.get("type")
    if kind is None:
        raise ConfigError("attack.type", "missing")
    node = sec.get("node", "A")
    t_start = _get_float(sec, "attack", "start", 10.0)
    t_end = _get_float(sec, "attack", "end", 30.0)
    common = dict(t_start=t_start, t_end=t_end, node=node)
    try:
        if kind == "dos":
            return atk.DoS(v_attack_l=_get_float(sec, "attack", "v", 5.0), **common)
        if kind == "fra":
            return atk.ForcedRetransmission(v_attack_h=_get_float(sec, "attack", "v", 5.0), **common)
        if kind == "passive_overcurrent":
            return atk.PassiveOvercurrent(**common)
        if kind == "active_overcurrent":
            return atk.ActiveOvercurrent(
                v_high=_get_float(sec, "attack", "v_high", 5.0),
                source_limit=_get_float(sec, "attack", "current_limit", None),
                **common,
            )
        if kind == "pulse":
            return atk.PulseAttack(
                line=sec.get("line", "canl"),
                period=_get_float(sec, "attack", "period", 100e-6),
                duty=_get_float(sec, "attack", "duty", 0.5),
                v_high=_get_float(sec, "attack", "v_high", 5.0),
                v_low=_get_float(sec, "attack", "v_low", 0.0),
                phase=_get_float(sec, "attack", "phase", 0.0),
                **common,
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("attack", str(exc))
    raise ConfigError("attack.type", f"unknown attack type {kind!r}")


def _parse_irs(sec) -> IrsConfig:
    _reject_unknown("irs", sec.keys(), _IRS_KEYS)
    device = sec.get("device")
    if device is None:
        raise ConfigError("irs.device", "missing")
    return IrsConfig(
        device=device,
        pins=sec.get("pins", "both"),
        rating=_get_float(sec, "irs", "rating", 0.010),
        opening_time=_get_float(sec, "irs", "opening_time", 1e-6),
        leakage_current=_get_float(sec, "irs", "leakage", 0.100),
        r_coil=_get_float(sec, "irs", "r_coil", 1.0),
        t_limit=_get_float(sec, "irs", "t_limit", 40.0),
        t_ambient=_get_float(sec, "irs", "t_ambient", 25.0),
        coil_hysteresis=_get_float(sec, "irs", "hysteresis", 2.0),
        thermal_gain=_get_float(sec, "irs", "thermal_gain", 40.0),
        tau_thermal=_get_float(sec, "irs", "tau_thermal", 2.0),
        coil_drive=_get_float(sec, "irs", "coil_drive", None),
    )


def parse_config_full(text: str, params: CalibratedParams | None = None) -> tuple:
    """Parse an INI scenario; returns (ScenarioConfig, check expectations)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError("file", str(exc).replace("\n", " "), line=line)

    known_sections = {"bus", "attack", "irs", "damage", "sweep", "check"}
    for section in cp.sections():
        if section in known_sections or section.startswith("ecu."):
            continue
        raise ConfigError(section, "unknown section")

    bus = cp["bus"] if cp.has_section("bus") else {}
    if cp.has_section("bus"):
        _reject_unknown("bus", bus.keys(), _BUS_KEYS)
    duration = _get_float(bus, "bus", "duration", 60.0)
    speed = _get_float(bus, "bus", "speed", 500_000.0)
    termination = _get_float(bus, "bus", "termination", 120.0)

    ecus = []
    for section in cp.sections():
        if not section.startswith("ecu."):
            continue
        name = section[4:]
        sec = cp[section]
        _reject_unknown(section, sec.keys(), _ECU_KEYS)
        role = sec.get("role")
        if role is None:
            raise ConfigError(f"{section}.role", "missing")
        frame = None
        period = _get_float(sec, section, "period", None)
        if sec.get("id") is not None:
            try:
                fid = int(sec.get("id"), 0)
            except ValueError:
                raise ConfigError(f"{section}.id", f"not an integer: {sec.get('id')!r}")
            raw = sec.get("data", "")
            try:
                data = bytes.fromhex(raw)
            except ValueError:
                raise ConfigError(f"{section}.data", f"not hex bytes: {raw!r}")
            rtr = _get_bool(sec, section, "rtr", False)
            try:
                frame = Frame(id=fid, data=data, rtr=rtr)
            except ValueError as exc:
                raise ConfigError(f"{section}.id", str(exc))
        ecus.append(
            EcuSpec(
                name=name,
                role=role,
                period=period,
                frame=frame,
                offset=_get_float(sec, section, "offset", 0.0),
            )
        )

    attack = _parse_attack(cp["attack"]) if cp.has_section("attack") else None
    irs_config = _parse_irs(cp["irs"]) if cp.has_section("irs") else None

    damage = DamageParams()
    if cp.has_section("damage"):
        sec = cp["damage"]
        _reject_unknown("damage", sec.keys(), _DAMAGE_KEYS)
        damage = DamageParams(
            i_max=_get_float(sec, "damage", "i_max", 0.040),
            damage_time=_get_float(sec, "damage", "damage_time", 1e-6),
        )

    sweep = None
    if cp.has_section("sweep"):
        sec = cp["sweep"]
        _reject_unknown("sweep", sec.keys(), _SWEEP_KEYS)
        path = sec.get("path")
        if path is None:
            raise ConfigError("sweep.path", "missing")
        sweep = SweepSpec(
            path=path,
            start=_get_float(sec, "sweep", "start", 0.0),
            stop=_get_float(sec, "sweep", "stop", 0.0),
            step=_get_float(sec, "sweep", "step", 1.0),
        )
        if sweep.step <= 0 or sweep.stop < sweep.start:
            raise ConfigError("sweep", "grid must have positive step and stop >= start")

    checks = {}
    if cp.has_section("check"):
        sec = cp["check"]
        _reject_unknown("check", sec.keys(), _CHECK_KEYS)
        checks = dict(sec.items())

    cfg = ScenarioConfig(
        duration=duration,
        bus_speed=speed,
        ecus=tuple(ecus),
        attack=attack,
        irs_config=irs_config,
        damage=damage,
        sweep=sweep,
        params=params or CalibratedParams(),
        termination=termination,
    )
    validate_config(cfg)
    return cfg, checks


def parse_config(text: str, params: CalibratedParams | None = None) -> ScenarioConfig:
    return parse_config_full(text, params)[0]


def serialize_config(cfg: ScenarioConfig) -> str:
    """Config back to INI text; parse(serialize(cfg)) is equivalent."""
    lines = [
        "[bus]",
        f"speed = {cfg.bus_speed!r}",
        f"duration = {cfg.duration!r}",
        f"termination = {cfg.termination!r}",
        "",
    ]
    for e in cfg.ecus:
        lines.append(f"[ecu.{e.name}]")
        lines.append(f"role = {e.role}")
        if e.period is not None:
            lines.append(f"period = {e.period!r}")
        if e.frame is not None:
            lines.append(f"id = {e.frame.id:#x}")
            lines.append(f"data = {e.frame.data.hex()}")
            if e.frame.rtr:
                lines.append("rtr = true")
        if e.offset:
            lines.append(f"offset = {e.offset!r}")
        lines.append("")
    a = cfg.attack
    if a is not None:
        lines.append("[attack]")
        if isinstance(a, atk.DoS):
            lines += [f"type = dos", f"v = {a.v_attack_l!r}"]
        elif isinstance(a, atk.ForcedRetransmission):
            lines += [f"type = fra", f"v = {a.v_attack_h!r}"]
        elif isinstance(a, atk.PassiveOvercurrent):
            lines.append("type = passive_overcurrent")
        elif isinstance(a, atk.ActiveOvercurrent):
            lines.append("type = active_overcurrent")
            lines.append(f"v_high = {a.v_high!r}")
            if a.source_limit is not None:
                lines.append(f"current_limit = {a.source_limit!r}")
        elif isinstance(a, atk.PulseAttack):
            lines += [
                "type = pulse",
                f"line = {a.line}",
                f"period = {a.period!r}",
                f"duty = {a.duty!r}",
                f"v_high = {a.v_high!r}",
                f"v_low = {a.v_low!r}",
                f"phase = {a.phase!r}",
            ]
        lines += [f"node = {a.node}", f"start = {a.t_start!r}", f"end = {a.t_end!r}", ""]
    i = cfg.irs_config
    if i is not None:
        lines += [
            "[irs]",
            f"device = {i.device}",
            f"pins = {i.pins}",
            f"rating = {i.rating!r}",
            f"opening_time = {i.opening_time!r}",
            f"leakage = {i.leakage_current!r}",
            f"r_coil = {i.r_coil!r}",
            f"t_limit = {i.t_limit!r}",
            f"t_ambient = {i.t_ambient!r}",
            f"hysteresis = {i.coil_hysteresis!r}",
            f"thermal_gain = {i.thermal_gain!r}",
            f"tau_thermal = {i.tau_thermal!r}",
        ]
        if i.coil_drive is not None:
            lines.append(f"coil_drive = {i.coil_drive!r}")
        lines.append("")
    lines += [
        "[damage]",
        f"i_max = {cfg.damage.i_max!r}",
        f"damage_time = {cfg.damage.damage_time!r}",
        "",
    ]
    if cfg.sweep is not None:
        lines += [
            "[sweep]",
            f"path = {cfg.sweep.path}",
            f"start = {cfg.sweep.start!r}",
            f"stop = {cfg.sweep.stop!r}",
            f"step = {cfg.sweep.step!r}",
            "",
        ]
    return "\n".join(lines)


# --- outputs ------------------------------------------------------------------

TRACE_COLUMNS = ("time_s", "kind", "ecu", "line", "value", "detail")


def emit_outputs(trace: Trace, summary: Summary, trace_path: str, summary_path: str) -> None:
    """Write the trace CSV and summary JSON."""
    with open(trace_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for r in trace.records:
            w.writerow(
                [
                    repr(r.t),
                    r.kind,
                    r.ecu,
                    r.line,
                    "" if r.value is None else repr(r.value),
                    r.detail,
                ]
            )
    with open(summary_path, "w") as fh:
        json.dump(summary_to_dict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_to_dict(summary: Summary) -> dict:
    return {
        "messages_sent": summary.messages_sent,
        "messages_received": summary.messages_received,
        "indicator": list(summary.indicator),
        "retransmissions": summary.retransmissions,
        "attack_success": summary.attack_success,
        "device_trips": summary.device_trips,
        "damaged": summary.damaged,
        "damage_time": summary.damage_time,
        "first_failure_reason": summary.first_failure_reason,
    }


def write_sweep_csv(points, path: str, cfg: ScenarioConfig) -> None:
    """Sweep table; forced-retransmission sweeps also get the bit length."""
    fra = isinstance(cfg.attack, atk.ForcedRetransmission)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["param", "success", "first_failure_reason"]
        if fra:
            header.append("tau_bit_s")
        w.writerow(header)
        for p in points:
            row = [repr(p.value), int(p.success), p.summary.first_failure_reason]
            if fra:
                tau = measure_tau_bit(
                    1.0 / cfg.bus_speed, p.value, cfg.params.tau_rc, cfg.params.nominal_transition
                )
                row.append(repr(tau))
            w.writerow(row)


# --- calibration -----------------------------------------------------------------

def calibrate(targets: dict, bus_speed: float = 500_000.0) -> CalibratedParams:
    """Solve the closed-form calibration equations for the given targets.

    Grid-placed targets (fra_threshold, pulse periods) round toward the
    value that keeps the swept threshold on its grid point. The shipped
    defaults equal calibrate() over all six canonical targets.
    """
    for key in targets:
        if key not in CALIBRATION_TARGETS:
            raise ValueError(f"unknown calibration target {key!r}")
    p = CalibratedParams()
    bit_time = 1.0 / bus_speed
    r_load = 60.0

    if "dos_threshold" in targets:
        v = targets["dos_threshold"]
        if not 0.0 < v < 2.6:
            raise InfeasibleTarget(f"dos_threshold {v!r} outside (0, 2.6)")
        r = r_load * ((3.5 - v) / 0.9 - 1.0)
        p = replace(p, r_drive_high=round(r, 1))

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
        if v <= 1.5 + 0.9:
            raise InfeasibleTarget(f"fra_threshold {v!r} not above 2.4")
        t_s = p.tau_rc * math.log((v - 1.5) / 0.9)
        sp = math.ceil(1000.0 * t_s / bit_time) / 1000.0
        if not 0.0 < sp < 1.0:
            raise InfeasibleTarget(f"fra_threshold {v!r} puts the sample point at {sp!r}")
        p = replace(p, sample_point=sp)

    return p


def load_params(path: str) -> CalibratedParams:
    with open(path) as fh:
        return CalibratedParams.from_dict(json.load(fh))


def save_params(params: CalibratedParams, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(params.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- checks -------------------------------------------------------------------------

def run_checks(checks: dict, summary: Summary) -> list:
    """Compare a run summary against [check] expectations; returns failures."""
    failures = []

    def expect(name, want, got):
        if want != got:
            failures.append(f"{name}: expected {want!r}, got {got!r}")

    for key, raw in checks.items():
        if key == "indicator_all_one":
            want = raw.strip().lower() in ("true", "yes", "1", "on")
            expect(key, want, all(v == 1 for v in summary.indicator))
        elif key == "indicator_zeros":
            lo, _, hi = raw.partition("-")
            lo, hi = int(lo), int(hi)
            want_zero = set(range(lo, hi + 1))
            bad = [
                k
                for k, v in enumerate(summary.indicator)
                if (v == 1) == (k in want_zero)
            ]
            if bad:
                failures.append(f"indicator_zeros: slots {bad} disagree")
        elif key == "attack_success":
            want = raw.strip().lower() in ("true", "yes", "1", "on")
            expect(key, want, summary.attack_success)
        elif key == "damaged":
            want = raw.strip().lower() in ("true", "yes", "1", "on")
            expect(key, want, summary.damaged)
        elif key == "min_retransmissions":
            if summary.retransmissions < int(raw):
                failures.append(
                    f"min_retransmissions: expected >= {raw}, got {summary.retransmissions}"
                )
        elif key == "received":
            expect(key, int(raw), summary.messages_received)
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
