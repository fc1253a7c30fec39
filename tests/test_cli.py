"""Config parsing, calibration, and the command-line surface."""

import csv
import json
from pathlib import Path

import pytest

from canvolt.cli import (
    InfeasibleTarget,
    calibrate,
    emit_outputs,
    load_params,
    main,
    parse_config,
    parse_config_full,
    run_checks,
    save_params,
    serialize_config,
)
from canvolt.engine import CalibratedParams, ConfigError, run_scenario

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
    for name in ("dos_fuse.ini", "pulse_canl_sweep.ini", "active_overcurrent_resettable.ini"):
        cfg, _ = parse_config_full((CONFIGS / name).read_text())
        again = parse_config(serialize_config(cfg))
        assert again == cfg


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
    with pytest.raises(ValueError):
        calibrate({"bogus": 1.0})


def test_params_file_roundtrip(tmp_path):
    p = CalibratedParams(r_drive_high=30.0)
    path = tmp_path / "params.json"
    save_params(p, str(path))
    assert load_params(str(path)) == p


def test_params_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"r_drive_high": 30.0, "zap": 1}))
    with pytest.raises(ConfigError):
        load_params(str(path))


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


@pytest.mark.parametrize("targets", ["dos_threshold=3.0", "dos_threshold=abc", "unknown=1"])
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
