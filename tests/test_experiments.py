import json
import os

import numpy as np
import pytest

from aud_lab.cli import main as cli_main
from aud_lab.errors import ParameterError
from aud_lab.experiments import (
    ExperimentConfig,
    build_config,
    decision_stream_id,
    decorrelation_lag,
    derive_point_seed,
    load_config_file,
    manifest_path_for,
    parse_rates,
    run_nu_invariance,
    run_sweep,
    run_validation,
)

SMALL = dict(n_updates=50_000, seed=11)


def non_timing_lines(path):
    return [line for line in open(path) if '"record": "timing"' not in line]


def test_parse_rates_forms():
    assert parse_rates("0.5") == (0.5,)
    assert parse_rates("0.1,0.2,0.5") == (0.1, 0.2, 0.5)
    assert parse_rates("0.1:0.5:0.1") == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5))
    with pytest.raises(ParameterError):
        parse_rates("0.5:0.1:0.1")
    with pytest.raises(ParameterError):
        parse_rates("1:2:3:4")


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
# comment line
mode = sweep_lambda
lambda = 0.2:0.4:0.1   # inline comment
mu = 1.0
nu = 1
updates = 20000
seed = 9
out = result.csv
allow_unstable = false
"""
    )
    values = load_config_file(str(cfg))
    assert values["mode"] == "sweep_lambda"
    assert values["arrival_rates"] == pytest.approx((0.2, 0.3, 0.4))
    assert values["n_updates"] == 20000
    assert values["output_path"] == "result.csv"
    assert values["allow_unstable"] is False


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(ParameterError):
        load_config_file(str(cfg))


def test_overrides_beat_file_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = validate\nseed = 1\nupdates = 5000\n")
    config = build_config(str(cfg), seed=77, n_updates=None)
    assert config.seed == 77
    assert config.n_updates == 5000


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(mode="nonsense")
    with pytest.raises(ParameterError):
        ExperimentConfig(arrival_rates=())
    with pytest.raises(ParameterError):
        ExperimentConfig(arrival_rates=(-0.5,))
    with pytest.raises(ParameterError):
        ExperimentConfig(mode="nu_invariance", decision_rates=(1.0,))
    with pytest.raises(ParameterError):
        ExperimentConfig(confidence=1.2)


def test_derived_seeds_are_distinct():
    seeds = {derive_point_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_point_seed(42, 3) == derive_point_seed(42, 3)


def test_decision_stream_id_keys_by_value():
    assert decision_stream_id(1.0) == decision_stream_id(1.0)
    assert decision_stream_id(1.0) != decision_stream_id(10.0)
    assert decision_stream_id(0.5) not in (0, 1, 2)


def test_decorrelation_lag_grows_with_load():
    assert decorrelation_lag(0.25) < decorrelation_lag(0.5) < decorrelation_lag(0.8)
    with pytest.raises(ParameterError):
        decorrelation_lag(1.0)


def test_sweep_lambda_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    config = ExperimentConfig(
        mode="sweep_lambda",
        arrival_rates=tuple(np.round(np.arange(0.1, 0.95, 0.1), 10)),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        output_path=str(out),
        **SMALL,
    )
    result = run_sweep(config)
    assert len(result.rows) == 9
    analytic_col = [row.analytic_aud for row in result.rows]
    # U shape: interior minimum near half load
    idx = int(np.argmin(analytic_col))
    assert 0 < idx < 8
    assert analytic_col[idx] < analytic_col[0] and analytic_col[idx] < analytic_col[-1]
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "lambda,mu,nu,analytic_aud,empirical_aud,ci_half_width,"
        "n_decisions,n_undefined_decisions,ks_T_pvalue,ks_Y_pvalue,status"
    )
    assert len(lines) == 10
    # empirical tracks analytic within a few percent at this size, and the
    # reported batch-means interval is honest about the residual gap
    for row in result.rows:
        assert row.status == "ok"
        assert abs(row.empirical_aud - row.analytic_aud) / row.analytic_aud < 0.1
        assert abs(row.empirical_aud - row.analytic_aud) <= 2.0 * row.ci_half_width


def test_sweep_mu_strictly_decreasing():
    config = ExperimentConfig(
        mode="sweep_mu",
        arrival_rates=(0.5,),
        service_rates=tuple(np.round(np.arange(0.6, 3.01, 0.2), 10)),
        decision_rates=(1.0,),
        **SMALL,
    )
    result = run_sweep(config)
    analytic_col = [row.analytic_aud for row in result.rows]
    assert all(b < a for a, b in zip(analytic_col, analytic_col[1:]))


def test_sweep_marks_unstable_rows():
    config = ExperimentConfig(
        mode="sweep_lambda",
        arrival_rates=(0.5, 1.0, 1.3),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        n_updates=5000,
        seed=2,
    )
    result = run_sweep(config)
    by_rate = {row.arrival_rate: row for row in result.rows}
    assert by_rate[0.5].status == "ok"
    for lam in (1.0, 1.3):
        row = by_rate[lam]
        assert row.status == "unstable"
        assert row.analytic_aud is None and row.empirical_aud is None
    csv_line = row.as_csv()
    assert csv_line.endswith("unstable")


def test_sweep_unstable_override_simulates():
    config = ExperimentConfig(
        mode="sweep_lambda",
        arrival_rates=(1.3,),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        n_updates=5000,
        seed=2,
        allow_unstable=True,
    )
    row = run_sweep(config).rows[0]
    assert row.status == "unstable-simulated"
    assert row.analytic_aud is None
    assert row.empirical_aud is not None
    assert row.ks_system_time_pvalue is None  # steady-state checks refuse the trace


def test_grid_mode_covers_cross_product():
    config = ExperimentConfig(
        mode="grid_lambda_mu",
        arrival_rates=(0.3, 0.5),
        service_rates=(1.0, 2.0),
        decision_rates=(1.0,),
        n_updates=10_000,
        seed=3,
    )
    result = run_sweep(config)
    assert [(r.arrival_rate, r.service_rate) for r in result.rows] == [
        (0.3, 1.0), (0.3, 2.0), (0.5, 1.0), (0.5, 2.0)
    ]


def test_threads_env_does_not_change_rows(tmp_path):
    config = ExperimentConfig(
        mode="sweep_lambda",
        arrival_rates=(0.2, 0.4, 0.6, 0.8),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        n_updates=20_000,
        seed=5,
    )
    old = os.environ.get("AUD_LAB_THREADS")
    try:
        os.environ["AUD_LAB_THREADS"] = "1"
        serial = run_sweep(config)
        os.environ["AUD_LAB_THREADS"] = "4"
        parallel = run_sweep(config)
    finally:
        if old is None:
            os.environ.pop("AUD_LAB_THREADS", None)
        else:
            os.environ["AUD_LAB_THREADS"] = old
    assert [r.as_csv() for r in serial.rows] == [r.as_csv() for r in parallel.rows]


def test_nu_invariance_paired_design():
    config = ExperimentConfig(
        mode="nu_invariance",
        arrival_rates=(0.5,),
        service_rates=(1.0,),
        decision_rates=(0.5, 2.0),
        n_updates=200_000,
        seed=4,
    )
    result = run_nu_invariance(config)
    assert result.consistent
    assert result.max_pairwise_diff <= result.max_pairwise_allowance
    theory = 3.5
    for est in result.estimates.values():
        assert abs(est.mean - theory) / theory < 0.05


def test_nu_invariance_duplicate_rates_identical():
    config = ExperimentConfig(
        mode="nu_invariance",
        arrival_rates=(0.5,),
        service_rates=(1.0,),
        decision_rates=(1.0, 1.0),
        n_updates=20_000,
        seed=4,
    )
    rows = run_nu_invariance(config).sweep.rows
    assert rows[0].as_csv() == rows[1].as_csv()
    assert run_nu_invariance(config).max_pairwise_diff == 0.0


def test_nu_invariance_tiny_trace_no_crash():
    config = ExperimentConfig(
        mode="nu_invariance",
        arrival_rates=(0.5,),
        service_rates=(1.0,),
        decision_rates=(0.1, 1.0),
        n_updates=100,
        seed=4,
    )
    result = run_nu_invariance(config)
    assert all(row.n_decisions is not None for row in result.sweep.rows)


def test_warmup_is_configurable(tmp_path):
    base = ExperimentConfig(mode="sweep_lambda", arrival_rates=(0.5,),
                            service_rates=(1.0,), decision_rates=(1.0,),
                            n_updates=20_000, seed=5)
    default_row = run_sweep(base).rows[0]
    no_warm_row = run_sweep(
        ExperimentConfig(mode="sweep_lambda", arrival_rates=(0.5,),
                         service_rates=(1.0,), decision_rates=(1.0,),
                         n_updates=20_000, seed=5, warmup_updates=0)
    ).rows[0]
    # dropping the warm-up keeps the transient decisions in the mean
    assert no_warm_row.n_decisions == default_row.n_decisions
    assert no_warm_row.empirical_aud != default_row.empirical_aud
    with pytest.raises(ParameterError):
        ExperimentConfig(n_updates=100, warmup_updates=100)
    cfg = tmp_path / "w.cfg"
    cfg.write_text("warmup = 500\n")
    assert load_config_file(str(cfg))["warmup_updates"] == 500


def test_validation_small_run_marks_low_power():
    report = run_validation(ExperimentConfig(n_updates=1000, seed=6))
    assert report.low_power
    assert any("lag=" in c.detail for c in report.checks if c.name == "ks_system_time")
    summary = report.summary()
    assert "low-power" in summary


def test_validation_power_against_wrong_oracle():
    # doubling the reference rates must break the goodness-of-fit checks
    report = run_validation(ExperimentConfig(n_updates=50_000, seed=6), oracle_rate_scale=2.0)
    failed = {c.name for c in report.checks if not c.passed}
    assert "ks_system_time" in failed and "ks_interdeparture" in failed
    assert not report.passed


def test_validation_default_small_passes():
    report = run_validation(ExperimentConfig(n_updates=100_000, seed=12))
    assert report.passed, report.summary()
    assert not report.low_power


def test_validation_full_default_passes():
    # the stock configuration: half load, 1e6 updates, three decision rates
    report = run_validation(ExperimentConfig())
    assert report.passed, report.summary()
    assert not report.low_power
    assert len(report.checks) == 15


def test_validation_writes_deterministic_outputs(tmp_path):
    out = tmp_path / "v.csv"
    config = ExperimentConfig(n_updates=20_000, seed=8, output_path=str(out))
    manifest = manifest_path_for(str(out))
    run_validation(config)
    first_csv = out.read_bytes()
    first_manifest = non_timing_lines(manifest)
    run_validation(config)
    assert out.read_bytes() == first_csv
    assert non_timing_lines(manifest) == first_manifest
    records = [json.loads(line) for line in open(manifest)]
    assert {r["record"] for r in records} == {"config", "versions", "timing"}


def test_sweep_csv_reruns_byte_identical(tmp_path):
    out = tmp_path / "s.csv"
    config = ExperimentConfig(
        mode="sweep_lambda",
        arrival_rates=(0.3, 0.6),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        n_updates=20_000,
        seed=10,
        output_path=str(out),
    )
    run_sweep(config)
    first = out.read_bytes()
    run_sweep(config)
    assert out.read_bytes() == first


def test_cli_sweep_and_validate(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = cli_main([
        "sweep", "--lambda", "0.3,0.5", "--mu", "1.0", "--nu", "1",
        "--updates", "20000", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert out.exists() and manifest_path_for(str(out)) != str(out)
    lines = out.read_text().splitlines()
    assert len(lines) == 3

    code = cli_main([
        "validate", "--lambda", "0.5", "--mu", "1.0", "--nu", "0.5,1",
        "--updates", "50000", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "ALL CHECKS PASSED" in captured.out


def test_cli_nu_invariance(tmp_path, capsys):
    code = cli_main([
        "nu-invariance", "--lambda", "0.5", "--mu", "1", "--nu", "0.5,1,2",
        "--updates", "50000", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "consistent" in captured.out


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg"
    out = tmp_path / "o.csv"
    cfg.write_text("mode = sweep_mu\nlambda = 0.5\nmu = 0.8:1.2:0.2\nnu = 1\n"
                   "updates = 5000\nseed = 1\n")
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "99"])
    assert code == 0
    manifest = [json.loads(line) for line in open(manifest_path_for(str(out)))]
    config_record = next(r for r in manifest if r["record"] == "config")
    assert config_record["seed"] == 99
    assert config_record["mode"] == "sweep_mu"


def test_cli_error_paths(tmp_path, capsys):
    code = cli_main(["validate", "--lambda", "1.5", "--mu", "1.0", "--updates", "1000"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_bad_rate_exits_2(capsys):
    code = cli_main(["validate", "--lambda", "abc", "--updates", "1000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'abc'" in err and err.count("\n") == 1


def test_cli_non_integer_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("lambda = 0.5\nupdates = 1e6\n")
    code = cli_main(["validate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":2: updates must be an integer" in err


def test_cli_bad_threads_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AUD_LAB_THREADS", "x")
    code = cli_main(["sweep", "--lambda", "0.5", "--updates", "2000",
                     "--out", str(tmp_path / "s.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "AUD_LAB_THREADS" in err


def test_cli_periodic_decisions_flag():
    code = cli_main([
        "validate", "--lambda", "0.5", "--mu", "1.0", "--nu", "1",
        "--updates", "20000", "--seed", "3", "--periodic-decisions",
    ])
    # periodic sampling is exploratory: it still runs end to end
    assert code in (0, 1)
