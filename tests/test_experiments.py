import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import aud_lab
from aud_lab import distributions
from aud_lab.cli import main as cli_main
from aud_lab.decisions import decisions_at, generate_decisions, periodic_decisions
from aud_lab.distributions import SeededStream
from aud_lab.errors import ParameterError
from aud_lab.experiments import (
    ExperimentConfig,
    _aud_estimate,
    _decision_epochs,
    _n_undefined,
    _pairwise_overlap,
    _simulate_point,
    _validation_checks,
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
from aud_lab.queueing import SystemParams, simulate
from aud_lab.stats import EstimateWithCI, batch_means_ci, mean_ci

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


def test_thread_count_does_not_change_block_drawn_outputs(tmp_path, monkeypatch):
    # n = 2e4 fills no full-size block; a small block runs the block path on
    # the trace's draws and on the epochs at every decision rate
    validate = ExperimentConfig(n_updates=20_000, seed=8)
    sweep = ExperimentConfig(mode="sweep_lambda", arrival_rates=(0.3, 0.6),
                             decision_rates=(0.5, 4.0), n_updates=20_000, seed=5)

    def csv_bytes(name):
        out = {}
        for mode, config, run in (("v", validate, run_validation), ("s", sweep, run_sweep)):
            path = tmp_path / f"{mode}-{name}.csv"
            run(replace(config, output_path=str(path)))
            out[mode] = path.read_bytes()
        return out

    monkeypatch.setenv("AUD_LAB_THREADS", "2")
    sequential = csv_bytes("sequential")
    monkeypatch.setattr(distributions, "BLOCK_SIZE", 4096)
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("AUD_LAB_THREADS", threads)
        assert csv_bytes(threads) == sequential
        manifest = tmp_path / f"v-{threads}.manifest.jsonl"
        records = map(json.loads, manifest.read_text().splitlines())
        timing = next(r for r in records if r["record"] == "timing")
        assert timing["workers"] == int(threads)


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
    # dropping the warm-up keeps the transient decisions in the mean, and
    # the decisions ahead of the first departure stay out of it
    assert no_warm_row.n_decisions == default_row.n_decisions
    assert math.isfinite(no_warm_row.empirical_aud)
    assert no_warm_row.empirical_aud != default_row.empirical_aud
    trace = simulate(SystemParams(0.5, 1.0), 20_000, derive_point_seed(5, 0))
    reference = generate_decisions(
        trace, 1.0, trace.last_departure,
        SeededStream(derive_point_seed(5, 0), decision_stream_id(1.0)),
    )
    expected = batch_means_ci(reference.defined_ages)
    assert no_warm_row.empirical_aud == expected.mean
    assert no_warm_row.ci_half_width == expected.half_width
    assert no_warm_row.n_undefined_decisions == reference.n_undefined > 0
    with pytest.raises(ParameterError):
        ExperimentConfig(n_updates=100, warmup_updates=100)
    cfg = tmp_path / "w.cfg"
    cfg.write_text("warmup = 500\n")
    assert load_config_file(str(cfg))["warmup_updates"] == 500


def test_validation_small_run_marks_low_power():
    # 500 system times after the warm-up, thinned at the full lag of 12, leave
    # 42 samples: below the K-S floor, so that check alone is skipped
    report = run_validation(ExperimentConfig(n_updates=1000, seed=6))
    assert report.low_power
    skipped = [c for c in report.checks if c.passed is None]
    assert [c.as_csv() for c in skipped] == [
        "ks_system_time,skipped,nan,nan,nan,K-S needs at least 50 samples; got 42"
    ]
    summary = report.summary()
    assert "low-power" in summary and "(1 skipped: too few samples)" in summary
    assert "SKIP  ks_system_time: observed=nan expected=nan tol=nan" in summary


def test_validation_power_against_wrong_oracle():
    # checking a (0.5, 1) trace against the closed forms at (1, 2) doubles
    # every reference rate, which must break the goodness-of-fit checks
    config = ExperimentConfig(n_updates=50_000, seed=6)
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0, 0.1))
    checks, _ = _validation_checks(replace(point, params=SystemParams(1.0, 2.0, 0.1)))
    failed = {c.name for c in checks if not c.passed}
    assert "ks_system_time" in failed and "ks_interdeparture" in failed


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
    assert {r["record"] for r in records} == {"config", "versions", "timing", "sizes"}
    timing = next(r for r in records if r["record"] == "timing")
    assert set(timing) == {"record", "wall_seconds", "workers"}
    assert timing["workers"] == distributions.worker_limit()
    versions = next(r for r in records if r["record"] == "versions")
    assert versions["aud_lab"] == aud_lab.__version__
    assert set(versions) == {"record", "aud_lab", "python", "numpy"}
    sizes = next(r for r in records if r["record"] == "sizes")
    assert sizes["n_updates"] == 20_000 and sizes["warmup_updates"] == 1000
    assert [d["nu"] for d in sizes["decisions"]] == [0.1, 1.0, 10.0]
    for d in sizes["decisions"]:
        assert d["undefined"] < d["total"] - d["after_warmup"]
        assert d["batch_length"] == d["after_warmup"] // 100
    assert sizes["ks_system_time_lag"] == decorrelation_lag(0.5)
    assert sizes["ks_system_time_samples"] == len(range(0, 19_000, sizes["ks_system_time_lag"]))
    assert sizes["ks_interdeparture_samples"] == 18_999  # n - 1 gaps, less the warm-up


def test_validation_without_warmup_returns_a_report(tmp_path, capsys):
    report = run_validation(ExperimentConfig(n_updates=20_000, seed=8, warmup_updates=0))
    assert len(report.checks) == 15
    assert all(math.isfinite(c.observed) for c in report.checks)
    cfg = tmp_path / "cfg"
    cfg.write_text("warmup = 0\nupdates = 20000\nseed = 8\n")
    assert cli_main(["validate", "--config", str(cfg)]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def reference_estimate(decisions, warm_epoch):
    """The mean-age estimate from the full decision columns of one run."""
    ages = decisions.ages[decisions.defined & (decisions.times > warm_epoch)]
    if len(ages) >= 200:
        return batch_means_ci(ages, 0.99)
    if len(ages) >= 2:
        return mean_ci(ages, 0.99)
    if len(ages) == 1:
        return EstimateWithCI(float(ages[0]), math.inf, 1, 0.99)
    return None


@pytest.mark.parametrize("seed", [42, 1009])
@pytest.mark.parametrize("periodic", [False, True])
def test_batched_aud_estimate_is_bit_identical(seed, periodic):
    trace = simulate(SystemParams(0.5, 1.0), 100_000, seed)
    for nu in (0.1, 1.0, 10.0):
        epochs = _decision_epochs(trace, nu, seed, periodic)
        decisions = decisions_at(trace, epochs)
        assert _n_undefined(trace, epochs) == decisions.n_undefined
        for warm_epoch in (0.0, float(trace.departure_times[999])):
            got = _aud_estimate(trace, epochs, warm_epoch, 0.99)
            assert got == reference_estimate(decisions, warm_epoch)
            assert got.n == 100


def test_aud_estimate_small_branches():
    trace = simulate(SystemParams(0.5, 1.0), 3000, 4)
    d0 = float(trace.departure_times[0])
    epochs = periodic_decisions(trace, 0.02, trace.last_departure).times
    # under 200 estimated decisions: a plain mean CI
    for warm_epoch in (0.0, float(trace.departure_times[1500])):
        got = _aud_estimate(trace, epochs, warm_epoch, 0.99)
        assert got == reference_estimate(decisions_at(trace, epochs), warm_epoch)
        assert 2 <= got.n < 200
    # one decision after the warm-up, behind undefined ones: a single sample
    single = np.array([0.5 * d0, 0.8 * d0, d0])
    got = _aud_estimate(trace, single, 0.0, 0.99)
    assert got == reference_estimate(decisions_at(trace, single), 0.0)
    assert got.n == 1 and got.half_width == math.inf
    # nothing after the warm-up, only undefined decisions, or no epochs at all
    assert _aud_estimate(trace, single, d0, 0.99) is None
    assert _aud_estimate(trace, single[:2], 0.0, 0.99) is None
    assert _aud_estimate(trace, np.empty(0), 0.0, 0.99) is None
    assert _n_undefined(trace, single) == 2 and _n_undefined(trace, np.empty(0)) == 0


def test_pairwise_overlap_keeps_the_first_largest_pair():
    a, b, c = (EstimateWithCI(m, h, 100) for m, h in ((1.0, 0.5), (2.0, 0.25), (0.0, 1.0)))
    assert _pairwise_overlap([a, b, c]) == (2.0, 1.25, False)
    assert _pairwise_overlap([a, c]) == (1.0, 1.5, True)
    assert _pairwise_overlap([a]) == (0.0, 0.0, True)


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


def test_cli_no_decision_for_the_pasta_check_skips_it(tmp_path, capsys):
    # the PASTA check samples nu = 1 on its own; on this short, fast trace
    # no such decision falls after the warm-up
    out = tmp_path / "v.csv"
    code = cli_main(["validate", "--lambda", "1000", "--mu", "2000", "--nu", "1000",
                     "--updates", "210", "--seed", "1", "--out", str(out)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()
    assert ("pasta_time_average,skipped,nan,nan,nan,"
            "no defined decisions at decision rate 1.0") in rows
    # the sizes record still counts the nu = 1 decisions
    with open(manifest_path_for(str(out))) as fh:
        sizes = json.loads(fh.readlines()[-1])
    assert [d["nu"] for d in sizes["decisions"]] == [1000.0, 1.0]
    assert sizes["decisions"][1]["after_warmup"] == sizes["decisions"][1]["batch_length"] == 0


FAST = ["--lambda", "1000", "--mu", "2000", "--nu", "1000", "--seed", "1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags,skipped", [
    (["--updates", "1"], {"aud_mc_vs_theory", "aud_nu_invariance", "ks_system_time",
                          "ks_interdeparture", "interdeparture_mean",
                          "interdeparture_second_moment", "queue_length_distribution",
                          "prob_busy_on_arrival", "cross_moment", "pasta_time_average"}),
    (["--updates", "2"], {"aud_mc_vs_theory", "aud_nu_invariance", "ks_system_time",
                          "ks_interdeparture", "interdeparture_mean",
                          "interdeparture_second_moment", "prob_busy_on_arrival",
                          "cross_moment"}),
    (["--updates", "60"], {"ks_system_time", "ks_interdeparture", "prob_busy_on_arrival"}),
    ([*FAST, "--updates", "200"], {"ks_system_time", "prob_busy_on_arrival",
                                   "pasta_time_average"}),
    ([*FAST, "--updates", "210"], {"ks_system_time", "pasta_time_average"}),
])
def test_cli_short_runs_skip_the_checks_below_their_floor(tmp_path, capsys, flags, skipped):
    out = tmp_path / "v.csv"
    code = cli_main(["validate", *flags, "--out", str(out)])
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {r[0] for r in rows if r[1:5] == ["skipped", "nan", "nan", "nan"]} == skipped
    assert all(r[1] in ("true", "false") for r in rows if r[0] not in skipped)
    # a skipped check neither passes nor fails the run
    assert code == (1 if any(r[1] == "false" for r in rows) else 0)


def test_cli_sweep_with_tied_arrival_epochs(tmp_path):
    # at lambda = 0.1 one arrival gap of this run is below half an ulp of its
    # epoch, so two arrival epochs are equal in float64
    trace = simulate(SystemParams(0.1, 1.0), 1_000_000, derive_point_seed(39, 0))
    assert (np.diff(trace.arrival_times) == 0.0).sum() == 1
    out = tmp_path / "s.csv"
    code = cli_main(["sweep", "--lambda", "0.1:0.9:0.1", "--mu", "1", "--nu", "1",
                     "--updates", "1000000", "--seed", "39", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 9 and all(row.endswith(",ok") for row in rows)


def test_cli_bad_threads_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AUD_LAB_THREADS", "x")
    for verb in ("sweep", "nu-invariance", "validate"):
        out = tmp_path / f"{verb}.csv"
        code = cli_main([verb, "--lambda", "0.5", "--nu", "1,2", "--updates", "2000",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: AUD_LAB_THREADS must be an integer, got 'x'\n"
        # refused before any work: nothing was written
        assert not out.exists()


def test_cli_periodic_decisions_flag():
    code = cli_main([
        "validate", "--lambda", "0.5", "--mu", "1.0", "--nu", "1",
        "--updates", "20000", "--seed", "3", "--periodic-decisions",
    ])
    # periodic sampling is exploratory: it still runs end to end
    assert code in (0, 1)


SCIPY_BLOCKED_RUN = """
import json, sys
attempts = []
sys.addaudithook(lambda event, args: event == "import" and args[0].split(".")[0] == "scipy"
                 and attempts.append(args[0]))
sys.modules["scipy"] = None
from aud_lab.cli import main
codes = [
    main(["validate", "--updates", "20000", "--seed", "8"]),
    main(["sweep", "--lambda", "0.3,0.6", "--nu", "1", "--updates", "5000", "--seed", "8"]),
    main(["nu-invariance", "--nu", "0.5,2", "--updates", "5000", "--seed", "8"]),
]
print(json.dumps({"codes": codes, "attempts": attempts}))
"""


def test_cli_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(aud_lab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUN], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in result["codes"]), result
    assert result["attempts"] == []
