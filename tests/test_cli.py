"""Config parsing, calibration, and the command-line surface."""

import configparser
import csv
import io
import json
import math
import string
import tempfile
from dataclasses import MISSING
from pathlib import Path

import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from canvolt.cli import (
    InfeasibleTarget,
    calibrate,
    emit_outputs,
    load_params,
    main,
    parse_config,
    run_checks,
    save_params,
    serialize_config,
)
from canvolt import attacks as atk
from canvolt import config, engine
from canvolt.engine import (
    MAX_SWEEP_POINTS,
    CalibratedParams,
    ConfigError,
    EcuSpec,
    ScenarioConfig,
    SweepSpec,
    run_scenario,
    validate_config,
)
from canvolt.link import Frame
from canvolt.trace import SAMPLE_KINDS, Trace

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

BASELINE = """
[bus]
speed = 500000
duration = 5.0

[ecu.A]
role = vids-host

[ecu.B]
role = logger

[ecu.C]
role = sender
period = 1.0
id = 0x01
data = 01
"""


def test_parse_baseline():
    cfg = parse_config(BASELINE)
    assert cfg.duration == 5.0
    assert len(cfg.ecus) == 3
    sender = next(e for e in cfg.ecus if e.role == "sender")
    assert sender.frame.id == 1
    assert sender.frame.data == b"\x01"


def test_parse_rejects_unknown_keys_and_sections():
    with pytest.raises(ConfigError) as err:
        parse_config(BASELINE + "\n[bus2]\nx = 1\n")
    assert "bus2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(BASELINE.replace("period = 1.0", "period = 1.0\ncolor = red"))
    assert "ecu.C.color" in str(err.value)


def test_parse_rejects_bad_duty():
    text = BASELINE + "\n[attack]\ntype = pulse\nnode = A\nduty = 1.5\nperiod = 1e-6\nstart=1.0\nend=3.0\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_parse_rejects_two_vids_hosts():
    text = BASELINE.replace("[ecu.B]\nrole = logger", "[ecu.B]\nrole = vids-host")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "vids-host" in str(err.value)


def test_parse_rejects_non_numeric():
    with pytest.raises(ConfigError) as err:
        parse_config(BASELINE.replace("duration = 5.0", "duration = soon"))
    assert "bus.duration" in str(err.value)


def test_roundtrip_serialize_parse():
    paths = sorted(CONFIGS.glob("*.ini"))
    assert paths
    for path in paths:
        cfg = parse_config(path.read_text())
        assert parse_config(serialize_config(cfg)) == cfg, path.name


def test_cookbook_configs_all_parse():
    for path in sorted(CONFIGS.glob("*.ini")):
        parse_config(path.read_text())


def test_calibrate_defaults_match_shipped_parameters():
    targets = {
        "dos_threshold": 2.2,
        "tau_bit_5v": 3.16e-6,
        "sink_current": 0.281,
        "pulse_canl": 680e-9,
        "pulse_canh": 570e-9,
        "fra_threshold": 4.5,
    }
    assert calibrate(targets) == CalibratedParams()


def test_calibrate_individual_targets():
    assert calibrate({"dos_threshold": 2.2}).r_drive_high == pytest.approx(26.7)
    assert calibrate({"tau_bit_5v": 3.16e-6}).tau_rc == pytest.approx(0.596e-6, rel=1e-3)
    assert calibrate({"sink_current": 0.281}).r_sink == pytest.approx(12.8)
    assert calibrate({"fra_threshold": 4.5}).sample_point == pytest.approx(0.359)
    assert calibrate({"pulse_canl": 680e-9}).decode_hold == pytest.approx(340e-9)
    assert calibrate({"pulse_canl": 680e-9, "pulse_canh": 570e-9}).transition_extension == pytest.approx(55e-9)


def test_calibrate_rejects_conflicts():
    with pytest.raises(InfeasibleTarget):
        calibrate({"dos_threshold": 3.0})
    with pytest.raises(InfeasibleTarget):
        calibrate({"pulse_canl": 600e-9, "pulse_canh": 700e-9})
    with pytest.raises(InfeasibleTarget):
        calibrate({"fra_threshold": 2.0})
    # the predictor never fires below 3.5 V, and no pin drives above 5 V
    for v in (3.0, 3.49, 5.5):
        with pytest.raises(InfeasibleTarget):
            calibrate({"fra_threshold": v})
    for v in (0.0, 2.6):
        with pytest.raises(InfeasibleTarget):
            calibrate({"dos_threshold": v})
    # a slow recovery releases past the bit; a fast one leaves no 0.001
    # sample point between 4.5 and 5.0 V
    for tau_bit in (20e-6, 2.001e-6):
        with pytest.raises(InfeasibleTarget):
            calibrate({"tau_bit_5v": tau_bit, "fra_threshold": 5.0})
    # a target between two points of its predictor's grid never round-trips
    for target, x in (
        ("dos_threshold", 2.15), ("fra_threshold", 4.2), ("fra_threshold", 3.75),
        ("pulse_canl", 685e-9), ("pulse_canh", 575e-9),
    ):
        with pytest.raises(InfeasibleTarget, match="grid"):
            calibrate({target: x})
    with pytest.raises(ValueError):
        calibrate({"bogus": 1.0})


def predicted(params, target):
    """What the closed-form predictor that `target` inverts says at these params."""
    timing = params.timing()
    if target == "dos_threshold":
        return atk.min_dos_voltage(params.transceiver())
    if target == "fra_threshold":
        return atk.min_fra_voltage(timing=timing, tau_rc=params.tau_rc)
    if target == "tau_bit_5v":
        return atk.tau_bit_table((5.0,), timing, params.tau_rc)[5.0]
    line = {"pulse_canl": "canl", "pulse_canh": "canh"}[target]
    return atk.min_pulse_period(line, 0.5, timing, params.transition_extension)


def test_each_predictor_returns_its_calibration_target():
    """predictor(calibrate({target: x})) == x over each predictor's grid:
    every 0.1 V DoS target in (0, 2.6), every 0.5 V FRA target it can
    fire at, every 10 ns pulse period it sweeps (on CANH, those the
    shipped decode hold leaves room for), and a few bit length times."""
    targets = (
        [("dos_threshold", n / 10) for n in range(1, 26)]
        + [("fra_threshold", v) for v in (3.5, 4.0, 4.5, 5.0)]
        + [("pulse_canl", float(f"{n}e-9")) for n in range(500, 701, 10)]
        + [("pulse_canh", float(f"{n}e-9")) for n in range(500, 680, 10)]
        + [("tau_bit_5v", t) for t in (2.1e-6, 2.5e-6, 3.16e-6, 10e-6)]
    )
    misses = []
    for target, x in targets:
        got = predicted(calibrate({target: x}), target)
        if not math.isclose(got, x):
            misses.append((target, x, got))
    assert misses == []


def test_params_file_roundtrip(tmp_path):
    p = CalibratedParams(r_drive_high=30.0)
    path = tmp_path / "params.json"
    save_params(p, str(path))
    assert load_params(str(path)) == p


def test_params_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"r_drive_high": 30.0, "zap": 1}))
    with pytest.raises(ConfigError, match="^params.zap: unknown parameter"):
        load_params(str(path))


@pytest.mark.parametrize("value", ["abc", None, True, [1.0]])
@pytest.mark.parametrize("key", ["sample_point", "tau_rc"])  # BitTiming checks the first only
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_params_value_that_is_not_a_number_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, key, value
):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({key: value}))
    if command == "simulate":
        argv = ["simulate", str(CONFIGS / "fra_fuse.ini"), "--params", str(path),
                "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]
    else:
        monkeypatch.setenv("CANVOLT_PARAMS", str(path))
        argv = ["sweep", str(CONFIGS / "dos_sweep.ini"), "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 1
    assert f"config error: params.{key}: not a number" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "o.csv").exists()


def test_emit_outputs_schema(tmp_path):
    cfg = parse_config(BASELINE)
    trace, summary = run_scenario(cfg)
    trace_path = tmp_path / "trace.csv"
    summary_path = tmp_path / "summary.json"
    emit_outputs(trace, summary, str(trace_path), str(summary_path))
    with open(trace_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "kind", "ecu", "line", "value", "detail"]
    received = [r for r in rows[1:] if r[1] == "FrameReceived"]
    assert len(received) == 5
    blob = json.loads(summary_path.read_text())
    assert blob["messages_received"] == 5
    assert blob["indicator"] == [1, 1, 1, 1, 1]


def test_run_checks_reports_mismatches():
    cfg = parse_config(BASELINE)
    _, summary = run_scenario(cfg)
    assert run_checks({"indicator_all_one": "true", "received": "5"}, summary) == []
    failures = run_checks({"received": "99", "damaged": "true"}, summary)
    assert len(failures) == 2


def test_cli_simulate_and_check(tmp_path):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    rc = main([
        "simulate", str(CONFIGS / "baseline.ini"),
        "--trace", str(trace), "--summary", str(summary), "--check",
    ])
    assert rc == 0
    assert trace.exists() and summary.exists()


def test_cli_check_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(BASELINE + "\n[check]\nreceived = 99\n")
    rc = main([
        "simulate", str(bad),
        "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json"),
        "--check",
    ])
    assert rc == 3


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[bus]\nunknown = 1\n")
    assert main(["validate", str(bad)]) == 1


def test_cli_missing_file_is_runtime_error(tmp_path):
    assert main(["validate", str(tmp_path / "missing.ini")]) == 2


def test_cli_calibrate_writes_default_params(tmp_path):
    out = tmp_path / "params.json"
    assert main(["calibrate", "--out", str(out)]) == 0
    assert load_params(str(out)) == CalibratedParams()


def test_cli_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(CONFIGS / "fra_sweep.ini"), "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "success", "first_failure_reason", "tau_bit_s"]
    flags = {float(r[0]): int(r[1]) for r in rows[1:]}
    assert flags == {2.5: 0, 3.0: 0, 3.5: 0, 4.0: 0, 4.5: 1, 5.0: 1}
    taus = {float(r[0]): float(r[3]) for r in rows[1:]}
    assert taus[5.0] == pytest.approx(3.16e-6, abs=1e-12)


def test_params_env_override(tmp_path, monkeypatch):
    # a deliberately detuned drive impedance moves the blocking threshold
    save_params(CalibratedParams(r_drive_high=0.001), str(tmp_path / "p.json"))
    monkeypatch.setenv("CANVOLT_PARAMS", str(tmp_path / "p.json"))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(CONFIGS / "dos_sweep.ini"), "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    flags = {float(r[0]): int(r[1]) for r in rows[1:]}
    # with an ideal driver the dominant level survives until 2.6 V
    assert flags[2.2] == 0
    assert flags[2.6] == 1


@pytest.mark.parametrize("hysteresis", [-0.5, 0.9])
def test_cli_rejects_hysteresis_outside_the_comparator_range(tmp_path, hysteresis):
    # at -0.5 the release level would sit above the engage level; at 0.9
    # it would sit at 0 V
    params = tmp_path / "p.json"
    save_params(CalibratedParams(hysteresis=hysteresis), str(params))
    rc = main([
        "simulate", str(CONFIGS / "fra_no_irs.ini"), "--params", str(params),
        "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json"),
    ])
    assert rc == 1
    assert not (tmp_path / "t.csv").exists()


def simulate_baseline(tmp_path):
    return main([
        "simulate", str(CONFIGS / "baseline.ini"),
        "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json"),
    ])


def raising(exc):
    def run(cfg):
        raise exc

    return run


@pytest.mark.parametrize(
    "exc", [ValueError("engine failure"), ZeroDivisionError("float division"), KeyError("pin")]
)
def test_cli_engine_failure_is_a_runtime_error(tmp_path, monkeypatch, exc):
    monkeypatch.setattr("canvolt.cli.run_scenario", raising(exc))
    assert simulate_baseline(tmp_path) == 2
    assert not (tmp_path / "t.csv").exists()


def test_cli_config_error_from_the_engine_is_a_config_error(tmp_path, monkeypatch):
    # validate_config raises ConfigError from inside run_scenario
    monkeypatch.setattr("canvolt.cli.run_scenario", raising(ConfigError("ecu", "bad")))
    assert simulate_baseline(tmp_path) == 1


def test_cli_sweep_failure_is_a_runtime_error(tmp_path, monkeypatch):
    monkeypatch.setattr("canvolt.cli.run_sweep", raising(ValueError("engine failure")))
    rc = main(["sweep", str(CONFIGS / "fra_sweep.ini"), "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_cli_sweep_config_error_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr("canvolt.cli.run_sweep", raising(ConfigError("sweep.path", "bad")))
    rc = main(["sweep", str(CONFIGS / "fra_sweep.ini"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1


@pytest.mark.parametrize(
    "targets",
    ["dos_threshold=3.0", "fra_threshold=3.0", "fra_threshold=4.2", "dos_threshold=abc", "unknown=1"],
)
def test_cli_calibrate_errors_are_config_errors(tmp_path, targets):
    assert main(["calibrate", "--targets", targets, "--out", str(tmp_path / "p.json")]) == 1


@pytest.mark.parametrize("attack", [
    "type = pulse\nv_high = 6.0",
    "type = pulse\nv_high = 2.0\nv_low = 3.0",
    "type = dos\nv = 0.0",
])
def test_cli_rejects_attack_levels_no_pin_can_drive(tmp_path, attack):
    # the window lies past the run's end: the level is rejected all the same
    bad = tmp_path / "bad.ini"
    bad.write_text(BASELINE + f"\n[attack]\nstart = 100\nend = 101\n{attack}\n")
    assert main(["validate", str(bad)]) == 1


# The keys each section takes, stated here apart from the parser's tables.
ATTACK_KEYS = {  # [attack] type -> its keys besides type, node, start and end
    "dos": {"v"},
    "fra": {"v"},
    "passive_overcurrent": set(),
    "active_overcurrent": {"v_high", "current_limit"},
    "pulse": {"line", "period", "duty", "v_high", "v_low", "phase"},
}
TRIP_KEYS = {"rating", "opening_time"}
DEVICE_KEYS = {  # [irs] device -> its keys besides device and pins
    "fuse": TRIP_KEYS,
    "breaker": TRIP_KEYS,
    "resettable_fuse": TRIP_KEYS | {"leakage"},
    "thermostat": {
        "r_coil", "t_limit", "t_ambient", "hysteresis", "thermal_gain", "tau_thermal",
        "coil_drive",
    },
}
ROLE_KEYS = {  # [ecu.<name>] role -> its keys besides role
    "vids-host": set(),
    "logger": set(),
    "sender": {"period", "offset", "id", "data", "rtr"},
}
SECTION_KEYS = {
    "bus": {"speed", "duration", "termination"},
    "damage": {"i_max", "damage_time"},
    "sweep": {"path", "start", "stop", "step"},
    "check": {
        "indicator_all_one", "indicator_zeros", "attack_success", "damaged",
        "min_retransmissions", "received",
    },
}
ALL_KEYS = set().union(
    {"type", "node", "start", "end", "device", "pins", "role"},
    *ATTACK_KEYS.values(), *DEVICE_KEYS.values(), *ROLE_KEYS.values(), *SECTION_KEYS.values(),
)
ROLE_SECTION = {"vids-host": "ecu.A", "logger": "ecu.B", "sender": "ecu.C"}
DOS_SWEEP = "[attack]\ntype = dos\nstart = 1\nend = 2\n"


def with_section(header: str, body: str = "") -> str:
    """BASELINE plus one section, or BASELINE when the header is already in it."""
    if f"[{header}]" in BASELINE:
        return BASELINE
    return BASELINE + f"\n[{header}]\n{body}"


CASES = (
    [pytest.param("attack", f"type = {t}\nstart = 100\nend = 101\n",
                  {"type", "node", "start", "end"} | own, id=f"attack-{t}")
     for t, own in ATTACK_KEYS.items()]
    + [pytest.param("irs", f"device = {d}\n", {"device", "pins"} | own, id=f"irs-{d}")
       for d, own in DEVICE_KEYS.items()]
    + [pytest.param(ROLE_SECTION[r], "", {"role"} | own, id=f"ecu-{r}")
       for r, own in ROLE_KEYS.items()]
    + [
        pytest.param("bus", "", SECTION_KEYS["bus"], id="bus"),
        pytest.param("damage", "", SECTION_KEYS["damage"], id="damage"),
        pytest.param("sweep", "path = attack.v_attack_l\nstart = 1\nstop = 2\nstep = 1\n",
                     SECTION_KEYS["sweep"], id="sweep"),
        pytest.param("check", "received = 5\n", SECTION_KEYS["check"], id="check"),
    ]
)


@pytest.mark.parametrize("header,body,own", CASES)
def test_keys_of_another_type_device_or_role_are_rejected(header, body, own):
    text = with_section(header, body)
    if header == "sweep":
        text += "\n" + DOS_SWEEP
    parse_config(text)
    for key in sorted(ALL_KEYS - own):
        bad = text.replace(f"[{header}]\n", f"[{header}]\n{key} = 1\n", 1)
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.path == f"{header}.{key}"


@pytest.mark.parametrize("check", [
    "attack_success = ture", "received = forty", "indicator_zeros = 10..29",
])
def test_check_values_are_validated_before_the_run(tmp_path, check):
    bad = tmp_path / "bad.ini"
    bad.write_text(BASELINE + f"\n[check]\n{check}\n")
    assert main(["validate", str(bad)]) == 1
    rc = main([
        "simulate", str(bad),
        "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json"), "--check",
    ])
    assert rc == 1
    assert not (tmp_path / "t.csv").exists()


def test_run_checks_reads_slot_ranges():
    _, summary = run_scenario(parse_config((CONFIGS / "dos_no_irs.ini").read_text()))
    assert run_checks({"indicator_zeros": "10-29"}, summary) == []
    assert run_checks({"indicator_zeros": "11-29"}, summary) == [
        "indicator_zeros: slots [10] disagree"
    ]
    with pytest.raises(ConfigError):
        run_checks({"indicator_zeros": "29-10"}, summary)


@pytest.mark.parametrize("sweep", [
    pytest.param(
        "[attack]\ntype = dos\nstart = 1\nend = 2\n"
        "[sweep]\npath = attack.nope\nstart = 1\nstop = 2\nstep = 1\n",
        id="unknown-path",
    ),
    pytest.param(
        "[attack]\ntype = pulse\nperiod = 1e-6\nstart = 1\nend = 2\n"
        "[sweep]\npath = attack.duty\nstart = 0.5\nstop = 1.0\nstep = 0.1\n",
        id="duty-reaches-one",
    ),
    pytest.param(
        "[attack]\ntype = dos\nstart = 1\nend = 2\n"
        "[sweep]\npath = attack.v_attack_l\nstart = 4\nstop = 6\nstep = 1\n",
        id="level-no-pin-can-drive",
    ),
    pytest.param(
        "[attack]\ntype = dos\nstart = 1\nend = 2\n"
        "[sweep]\npath = attack.v_attack_l\nstart = 1\nstop = 2\n",
        id="no-step",
    ),
    pytest.param(
        "[attack]\ntype = dos\nstart = 1\nend = 2\n"
        "[sweep]\npath = attack.v_attack_l\nstart = 1\nstop = inf\nstep = 1\n",
        id="infinite-stop",
    ),
])
def test_sweeps_are_validated_at_every_grid_point(tmp_path, sweep):
    bad = tmp_path / "bad.ini"
    bad.write_text(BASELINE + "\n" + sweep)
    assert main(["validate", str(bad)]) == 1
    assert main(["sweep", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    assert not (tmp_path / "o.csv").exists()


def test_a_key_left_empty_takes_its_default():
    cfg = parse_config(BASELINE + "\n[attack]\ntype = fra\nv =\n")
    assert cfg.attack == atk.ForcedRetransmission()


def test_unknown_type_device_and_role_are_rejected():
    for section, body, path in [
        ("attack", "type = zap\n", "attack.type"),
        ("irs", "device = zap\n", "irs.device"),
        ("attack", "node = A\n", "attack.type"),
        ("ecu.D", "id = 0x02\n", "ecu.D.role"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config(BASELINE + f"\n[{section}]\n{body}")
        assert err.value.path == path


def test_a_sender_needs_its_frame_id():
    with pytest.raises(ConfigError) as err:
        parse_config(BASELINE.replace("id = 0x01\n", ""))
    assert err.value.path == "ecu.C.id"


# --- parse(serialize(cfg)) == cfg over configs drawn from the key table ---------

NAMES = st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=4)


def key_values(row, default=MISSING):
    """The values the row's codec writes and its bound keeps, and `default`."""
    if row.codec is config.FLOAT:
        low = 0.0 if row.bound in ("positive", "non-negative") else None
        values = st.floats(low, exclude_min=row.bound == "positive", allow_nan=False,
                           allow_infinity=row.bound == "any")
    elif isinstance(row.bound, tuple):
        values = st.sampled_from(row.bound)
    else:  # a frame's keys: Frame takes an 11-bit id and up to 8 data bytes
        values = {config.INT: st.integers(0, 0x7FF), config.HEX: st.binary(max_size=8),
                  config.BOOL: st.booleans()}[row.codec]
    return values if default is MISSING else st.just(default) | values


@st.composite
def built(draw, kind, value, **given):
    """The dataclass a section of this kind builds for the selector value:
    each field not `given` drawn from its row's `key_values`, its default
    among them."""
    section = config.SECTIONS[kind]
    cls = section.classes[value]
    if section.selector in cls.__dataclass_fields__:
        given[section.selector] = value
    for row in config.ROWS[kind, value].values():
        head = row.field.partition(".")[0]
        if head not in given:
            given[head] = draw(key_values(row, cls.__dataclass_fields__[head].default))
    try:
        return cls(**given)
    except ValueError:  # the dataclass's own rules, such as an empty attack window
        reject()


@st.composite
def senders(draw, name):
    """A sender: it needs a period, and a remote frame has no data field."""
    rows = config.ROWS["ecu", "sender"]
    rtr = draw(key_values(rows["rtr"]))
    frame = Frame(
        id=draw(key_values(rows["id"])), data=b"" if rtr else draw(key_values(rows["data"])), rtr=rtr
    )
    return draw(built("ecu", "sender", name=name, period=draw(key_values(rows["period"])), frame=frame))


@st.composite
def ecus(draw):
    """Exactly one vids-host, and each other node of any role."""
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    others = st.sampled_from(sorted(set(config.SECTIONS["ecu"].classes) - {"vids-host"}))
    roles = draw(st.permutations(
        ["vids-host"] + draw(st.lists(others, min_size=len(names) - 1, max_size=len(names) - 1))
    ))
    return tuple(
        draw(senders(name)) if role == "sender" else draw(built("ecu", role, name=name))
        for name, role in zip(names, roles)
    )


@st.composite
def attacks(draw, host):
    """An attack from the vids-host, its window edges in order; a pulse is on
    CANH or CANL."""
    kind = draw(st.sampled_from(sorted(config.SECTIONS["attack"].classes)))
    rows = config.ROWS["attack", kind]
    t_start, t_end = sorted(
        draw(key_values(rows[key], getattr(atk.AttackSpec, f))) for key, f in (("start", "t_start"), ("end", "t_end"))
    )
    given = {"node": host, "t_start": t_start, "t_end": t_end}
    if kind == "pulse":
        given["line"] = draw(st.sampled_from(["canh", "canl"]))
    return draw(built("attack", kind, **given))


@st.composite
def scenarios(draw):
    cast = draw(ecus())
    host = next(e.name for e in cast if e.role == "vids-host")
    attack = draw(attacks(host)) if draw(st.booleans()) else None
    sweep = None
    if attack is not None and draw(st.booleans()):
        rows = config.ROWS["attack", config.selected("attack", attack)].values()
        numbers = sorted(row.field for row in rows if row.codec is config.FLOAT)
        sweep = draw(built("sweep", None, path="attack." + draw(st.sampled_from(numbers))))
    device = None
    if draw(st.booleans()):
        device = draw(built("irs", draw(st.sampled_from(sorted(config.SECTIONS["irs"].classes)))))
    return draw(built(
        "bus", None, ecus=cast, attack=attack, irs_config=device,
        damage=draw(built("damage", None)), sweep=sweep,
    ))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_parse_of_serialize_is_the_identity(cfg):
    """A drawn config that validates parses back from its INI text to
    itself; one that does not is rejected there for the same reason."""
    text = serialize_config(cfg)
    try:
        validate_config(cfg)
    except ConfigError as exc:
        event("rejected")
        with pytest.raises(ConfigError) as err:
            parse_config(text, cfg.params)
        assert str(err.value) == str(exc)
    else:
        event("valid")
        assert parse_config(text, cfg.params) == cfg


# --- error paths, bounds and the trace writer ------------------------------------


@pytest.mark.parametrize("duration", ["0", "-1.0", "inf"])
def test_validate_reports_a_bad_duration_at_its_key(tmp_path, capsys, duration):
    bad = tmp_path / "bad.ini"
    bad.write_text(BASELINE.replace("duration = 5.0", f"duration = {duration}"))
    assert main(["validate", str(bad)]) == 1
    assert "config error: bus.duration: must be" in capsys.readouterr().err


SECTIONS = {  # the section a case adds to BASELINE
    "": "",
    "pulse": "[attack]\ntype = pulse\nnode = A\nstart = 1.0\nend = 2.0\nperiod = 1e-6\n",
    "fuse": "[irs]\ndevice = fuse\n",
    "thermostat": "[irs]\ndevice = thermostat\n",
    "damage": "[damage]\n",
    "active_overcurrent": "[attack]\ntype = active_overcurrent\nnode = A\nstart = 1.0\nend = 2.0\n",
}


@pytest.mark.parametrize("path, value, section", [
    ("bus.speed", "nan", ""),
    ("bus.speed", "inf", ""),
    ("bus.termination", "nan", ""),
    ("bus.termination", "inf", ""),
    ("ecu.C.period", "nan", ""),
    ("ecu.C.offset", "nan", ""),
    ("ecu.C.offset", "inf", ""),
    ("ecu.C.offset", "-1", ""),
    ("attack.period", "nan", "pulse"),
    ("attack.phase", "nan", "pulse"),
    ("attack.phase", "inf", "pulse"),
    ("attack.start", "-inf", "pulse"),
    ("attack.current_limit", "-1", "active_overcurrent"),
    ("irs.opening_time", "0", "fuse"),
    ("irs.opening_time", "-1", "fuse"),
    ("irs.opening_time", "nan", "fuse"),
    ("irs.rating", "nan", "fuse"),
    ("irs.tau_thermal", "0", "thermostat"),
    ("irs.tau_thermal", "-1", "thermostat"),
    ("irs.tau_thermal", "nan", "thermostat"),
    ("irs.t_limit", "nan", "thermostat"),
    ("irs.t_limit", "25", "thermostat"),  # at the 25 degC ambient, a coil at rest is at its limit
    ("irs.t_limit", "20", "thermostat"),
    # the 40 degC limit less the hysteresis is the reclose point: at or below
    # the 25 degC ambient, an open coil never recloses
    ("irs.hysteresis", "15", "thermostat"),
    ("irs.hysteresis", "20", "thermostat"),
    ("irs.coil_drive", "nan", "thermostat"),
    ("irs.r_coil", "-1", "thermostat"),
    ("irs.hysteresis", "-5", "thermostat"),
    ("damage.i_max", "nan", "damage"),
    ("damage.damage_time", "nan", "damage"),
])
def test_validate_rejects_numbers_out_of_range_at_their_key(tmp_path, capsys, path, value, section):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(BASELINE + "\n" + SECTIONS[section])
    header, key = path.rsplit(".", 1)
    cp[header][key] = value
    bad = tmp_path / "bad.ini"
    with open(bad, "w") as fh:
        cp.write(fh)
    assert main(["validate", str(bad)]) == 1
    assert f"config error: {path}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("text, path, message", [
    pytest.param(
        BASELINE + "\n" + DOS_SWEEP + "[sweep]\npath = attack.node\nstart = 1\nstop = 2\nstep = 1\n",
        "sweep.path", "attack.node is not a number parameter of the attack", id="sweep-over-the-node",
    ),
    pytest.param(
        BASELINE + "\n[attack]\ntype = pulse\nperiod = 1e-6\nstart = 1\nend = 2\n"
        "[sweep]\npath = attack.line\nstart = 0\nstop = 1\nstep = 1\n",
        "sweep.path", "attack.line is not a number parameter of the attack", id="sweep-over-the-pulse-line",
    ),
    pytest.param(
        BASELINE.replace("data = 01", "data = 0102030405060708\nrtr = true"),
        "ecu.C.data", "a remote frame carries no data", id="remote-frame-with-data",
    ),
])
def test_a_config_is_rejected_at_the_key_at_fault(text, path, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


@pytest.mark.parametrize("attack", [
    "type = dos\nstart = -inf\nend = 2.0",
    "type = pulse\nperiod = 1e-6\nstart = 1.0\nend = inf",
])
def test_an_attack_window_may_be_open_ended(tmp_path, attack):
    ok = tmp_path / "ok.ini"
    ok.write_text(BASELINE + f"\n[attack]\nnode = A\n{attack}\n")
    assert main(["validate", str(ok)]) == 0


def test_an_oversized_sweep_grid_is_rejected_before_it_is_listed(tmp_path, capsys, monkeypatch):
    # 490,001 points: listing and validating each would take seconds
    text = (CONFIGS / "dos_sweep.ini").read_text().replace("step = 0.1", "step = 0.00001")
    bad = tmp_path / "fine.ini"
    bad.write_text(text)

    def listed(self):
        raise AssertionError("the grid was listed")

    monkeypatch.setattr(SweepSpec, "values", listed)
    assert main(["validate", str(bad)]) == 1
    assert "config error: sweep.step: grid has 490001 points" in capsys.readouterr().err


def test_the_largest_sweep_grid_is_accepted():
    text = (CONFIGS / "dos_sweep.ini").read_text().replace("step = 0.1", "step = 0.00049")
    assert parse_config(text).sweep.size() == MAX_SWEEP_POINTS


def test_trace_csv_quotes_ecu_names_like_csv_writer(tmp_path):
    host = 'a,"b"'
    cfg = ScenarioConfig(
        duration=4.0,
        ecus=(
            EcuSpec(host, "vids-host"),
            EcuSpec("B", "logger"),
            EcuSpec("C", "sender", period=1.0, frame=Frame(id=1, data=b"\x01"), offset=0.5),
        ),
        attack=atk.DoS(node=host, t_start=1.0, t_end=2.5, v_attack_l=5.0),
    )
    trace, summary = run_scenario(cfg)
    path = tmp_path / "t.csv"
    emit_outputs(trace, summary, str(path), str(tmp_path / "s.json"))

    assert '"a,""b"""' in path.read_text()
    assert path.read_bytes() == _row_by_row_csv(trace)


def _row_by_row_csv(trace) -> bytes:
    """The trace CSV written by one csv.writer row per record."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(("time_s", "kind", "ecu", "line", "value", "detail"))
    for r in trace.records:
        value = "" if r.value is None else repr(r.value)
        w.writerow([repr(r.t), r.kind, r.ecu, r.line, value, r.detail])
    return buf.getvalue().encode()


# a tick's samples: quoted names and values whose repr has an exponent included
_TICK_SAMPLES = st.lists(
    st.tuples(
        st.sampled_from(SAMPLE_KINDS),
        st.sampled_from(["A", 'a,"b"']),
        st.sampled_from(["CANH", "CANL"]),
        st.sampled_from([2.5, 1e-07, -2.5e20, 5e-324]) | st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=3,
).map(tuple)
# (gap before the run, last - first, which samples, events at first + offset + fraction)
_TICK_RUNS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 37]),
        st.sampled_from([0, 1, 98, 99, 100, 101, 199, 250]),
        st.integers(0, 1),
        st.lists(
            st.tuples(
                st.integers(-1, 251),
                st.sampled_from([0.0, 0.5]),
                st.sampled_from(["FuseBlown", "AttackStart", "AttackEnd", "FrameSent"]),
            ),
            max_size=2,
        ),
    ),
    min_size=1,
    max_size=4,
)
_QUOTED = (("PinCurrentSample", 'a,"b"', "CANL", 1e-07), ("LineVoltageSample", "A", "CANH", -2.5e20))


@settings(max_examples=60, deadline=None)
@given(
    start=st.sampled_from([0, 1, 99, 100, 101, 10**15 - 150, 10**17 - 150]),
    samples=st.tuples(_TICK_SAMPLES, _TICK_SAMPLES),
    runs=_TICK_RUNS,
)
# a run from 0 holding a whole block, one from an unaligned tick, one
# across 10**15 and one near 10**17, where repr(float(k)) has an exponent
@example(start=0, samples=(_QUOTED, _QUOTED), runs=[(0, 250, 0, [])])
@example(start=1, samples=(_QUOTED, ()), runs=[(0, 250, 0, [(120, 0.5, "FuseBlown")]), (0, 199, 1, [])])
@example(start=10**15 - 150, samples=(_QUOTED, _QUOTED), runs=[(0, 250, 0, [(150, 0.0, "AttackStart")])])
@example(start=10**17 - 150, samples=(_QUOTED, _QUOTED), runs=[(0, 250, 0, [])])
def test_tick_blocks_match_row_by_row_csv(start, samples, runs):
    trace = Trace()
    first = start
    for gap, length, which, events in runs:
        first += gap
        trace.add_ticks(first, first + length, samples[which])
        for offset, fraction, kind in events:
            trace.add(float(first + offset) + fraction, kind, "B", "CANL", 0.5, "x")
        first += length + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        summary = engine.Summary(0, 0, (), 0, False, {}, False, None, "")
        emit_outputs(trace, summary, str(path), str(Path(tmp) / "s.json"))
        assert path.read_bytes() == _row_by_row_csv(trace)
