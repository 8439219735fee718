import concurrent.futures
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from decimal import Decimal

import numpy as np
import pytest

import aud_lab
from aud_lab import analytic, distributions, experiments
from aud_lab.cli import main as cli_main
from aud_lab.decisions import decisions_at, poisson_epochs
from aud_lab.distributions import SeededStream
from aud_lab.errors import InsufficientDataError, ParameterError
from aud_lab.experiments import (
    ExperimentConfig,
    _decision_epochs,
    _differences,
    _ks_samples,
    _n_undefined,
    _simulate_point,
    _validation_checks,
    _within,
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
    write_manifest,
)
from aud_lab.queueing import (
    SystemParams,
    arrivals_seeing_busy,
    occupancy_fractions,
    queue_length_process,
    simulate,
)
from aud_lab.stats import EstimateWithCI, mean_ci, ratio_ci, z_value

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
lambda = 0.2:0.4:0.1   # inline comment
mu = 1.0
nu = 1
updates = 20000
seed = 9
out = result.csv
"""
    )
    values = load_config_file(str(cfg))
    assert values["arrival_rates"] == pytest.approx((0.2, 0.3, 0.4))
    assert values["n_updates"] == 20000
    assert values["output_path"] == "result.csv"


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(ParameterError):
        load_config_file(str(cfg))


def test_overrides_beat_file_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nupdates = 5000\n")
    config = build_config(str(cfg), seed=77, n_updates=None)
    assert config.seed == 77
    assert config.n_updates == 5000


@pytest.mark.parametrize("config,mode", [
    (ExperimentConfig(arrival_rates=(0.3, 0.6), service_rates=(1.0, 2.0), decision_rates=(1.0,),
                      n_updates=2000, seed=5, output_path="s.csv"), "sweep"),
    (ExperimentConfig(n_updates=3000, seed=2**64 - 1, confidence=0.95, warmup_updates=10),
     "validate"),
], ids=["sweep", "validate"])
def test_manifest_config_record_rebuilds_the_config(config, mode, tmp_path):
    manifest = tmp_path / "m.jsonl"
    write_manifest(str(manifest), config, mode, 0.0, 1)
    record = json.loads(manifest.read_text().splitlines()[0])
    assert record.pop("record") == "config"
    # the verb's mode, then one config-file line per field: lists joined
    # with commas, null left out
    assert record.pop("mode") == mode
    assert len(record) == len(fields(ExperimentConfig))
    keys = {"n_updates": "updates", "output": "out"}
    cfg = tmp_path / "cfg"
    cfg.write_text("".join(
        f"{keys.get(key, key)} = "
        f"{','.join(map(str, value)) if isinstance(value, list) else value}\n"
        for key, value in record.items() if value is not None))
    assert build_config(str(cfg)) == config


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(arrival_rates=())
    with pytest.raises(ParameterError):
        ExperimentConfig(arrival_rates=(-0.5,))
    with pytest.raises(ParameterError):
        ExperimentConfig(confidence=1.2)


def test_sweep_runs_a_grid_with_the_config_defaults():
    # the shape a verb needs is checked by its runner, not by the config
    rows = run_sweep(ExperimentConfig(arrival_rates=(0.3, 0.6), decision_rates=(1.0,),
                                      n_updates=2000)).rows
    assert [(r.arrival_rate, r.status) for r in rows] == [(0.3, "ok"), (0.6, "ok")]


@pytest.mark.parametrize("run,config,message", [
    (run_validation, ExperimentConfig(arrival_rates=(0.3, 0.6)),
     "validate runs a single (lambda, mu) point"),
    (run_validation, ExperimentConfig(service_rates=(1.0, 2.0)),
     "validate runs a single (lambda, mu) point"),
    (run_nu_invariance, ExperimentConfig(arrival_rates=(0.3, 0.6)),
     "nu_invariance runs a single (lambda, mu) point"),
    (run_nu_invariance, ExperimentConfig(decision_rates=(1.0,)),
     "nu_invariance needs at least two decision rates"),
], ids=["validate-lambda", "validate-mu", "nu-invariance-lambda", "nu-invariance-nu"])
def test_runners_check_their_shape_before_simulating(run, config, message, monkeypatch):
    def no_simulation(*args):
        raise AssertionError("simulated before the shape check")

    monkeypatch.setattr(experiments, "simulate", no_simulation)
    with pytest.raises(ParameterError) as raised:
        run(config)
    assert str(raised.value) == message


def test_each_runner_records_its_own_mode(tmp_path):
    config = ExperimentConfig(decision_rates=(1.0, 2.0), n_updates=2000, seed=3)

    def mode(path):
        with open(manifest_path_for(str(path))) as fh:
            return json.loads(fh.readline())["mode"]

    for run, name in ((run_sweep, "sweep"), (run_nu_invariance, "nu_invariance"),
                      (run_validation, "validate")):
        out = tmp_path / f"{name}.csv"
        run(replace(config, output_path=str(out)))
        assert mode(out) == name
        out = tmp_path / f"cli-{name}.csv"
        code = cli_main([name.replace("_", "-"), "--nu", "1,2", "--updates", "2000",
                         "--seed", "3", "--out", str(out)])
        assert code in (0, 1) and mode(out) == name


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
        arrival_rates=(0.5, 1 - 1e-10, 1.0, 1.3),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        n_updates=5000,
        seed=2,
    )
    result = run_sweep(config)
    by_rate = {row.arrival_rate: row for row in result.rows}
    assert by_rate[0.5].status == "ok"
    for lam in (1 - 1e-10, 1.0, 1.3):
        row = by_rate[lam]
        assert row.status == "unstable"
        assert row.analytic_aud is None and row.empirical_aud is None
    csv_line = row.as_csv()
    assert csv_line.endswith("unstable")


def test_grid_mode_covers_cross_product():
    config = ExperimentConfig(
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


def test_threads_env_does_not_change_rows(tmp_path, monkeypatch):
    # the points take turns at the decision phase, at every thread count
    config = ExperimentConfig(
        arrival_rates=parse_rates("0.1:0.9:0.1"),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        n_updates=20_000,
        seed=5,
    )
    aud = experiments._Point.aud
    count = threading.Lock()
    in_flight = most = 0

    def counted_aud(point, nu):
        nonlocal in_flight, most
        with count:
            in_flight += 1
            most = max(most, in_flight)
        try:
            time.sleep(0.01)  # long enough for phases that may overlap to meet
            return aud(point, nu)
        finally:
            with count:
                in_flight -= 1

    monkeypatch.setattr(experiments._Point, "aud", counted_aud)
    csv = {}
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("AUD_LAB_THREADS", threads)
        out = tmp_path / f"sweep-{threads}.csv"
        run_sweep(replace(config, output_path=str(out)))
        csv[threads] = out.read_bytes()
    assert csv["2"] == csv["1"] and csv["4"] == csv["1"]
    assert most == 1


def test_thread_count_does_not_change_block_drawn_outputs(tmp_path, monkeypatch):
    # n = 2e4 fills no full-size block; a small block runs the block path on
    # the trace's draws and on the epochs at every decision rate
    validate = ExperimentConfig(n_updates=20_000, seed=8)
    sweep = ExperimentConfig(arrival_rates=(0.3, 0.6),
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
        arrival_rates=(0.5,),
        service_rates=(1.0,),
        decision_rates=(0.5, 2.0),
        n_updates=200_000,
        seed=4,
    )
    result = run_nu_invariance(config)
    assert result.consistent is True
    assert result.worst_se_ratio <= result.z == z_value(1.0 - 0.01 / 1)
    theory = 3.5
    for est in result.estimates.values():
        assert abs(est.mean - theory) / theory < 0.05


def test_nu_invariance_duplicate_rates_identical():
    config = ExperimentConfig(
        arrival_rates=(0.5,),
        service_rates=(1.0,),
        decision_rates=(1.0, 1.0),
        n_updates=20_000,
        seed=4,
    )
    result = run_nu_invariance(config)
    rows = result.sweep.rows
    assert rows[0].as_csv() == rows[1].as_csv()
    # one distinct rate leaves no pair to compare
    assert list(result.estimates) == [1.0] and result.consistent is None


def test_nu_invariance_tiny_trace_no_crash():
    config = ExperimentConfig(
        arrival_rates=(0.5,),
        service_rates=(1.0,),
        decision_rates=(0.1, 1.0),
        n_updates=100,
        seed=4,
    )
    result = run_nu_invariance(config)
    assert all(row.n_decisions is not None for row in result.sweep.rows)


def test_warmup_is_configurable(tmp_path):
    base = ExperimentConfig(arrival_rates=(0.5,),
                            service_rates=(1.0,), decision_rates=(1.0,),
                            n_updates=20_000, seed=5)
    default_row = run_sweep(base).rows[0]
    no_warm_row = run_sweep(
        ExperimentConfig(arrival_rates=(0.5,),
                         service_rates=(1.0,), decision_rates=(1.0,),
                         n_updates=20_000, seed=5, warmup_updates=0)
    ).rows[0]
    # dropping the warm-up keeps the transient decisions in the mean, and
    # the decisions ahead of the first departure stay out of it
    assert no_warm_row.n_decisions == default_row.n_decisions
    assert math.isfinite(no_warm_row.empirical_aud)
    assert no_warm_row.empirical_aud != default_row.empirical_aud
    point = _simulate_point(replace(base, warmup_updates=0), 0, SystemParams(0.5, 1.0))
    assert point.warm == 0 and point.edges[0] == point.trace.departure_times[0]
    epochs = poisson_epochs(1.0, point.trace.last_departure,
                            SeededStream(derive_point_seed(5, 0), decision_stream_id(1.0)))
    expected = aud_reference(point, epochs)
    assert no_warm_row.empirical_aud == pytest.approx(expected.mean, rel=1e-9)
    assert no_warm_row.ci_half_width == pytest.approx(expected.half_width, rel=1e-9)
    assert no_warm_row.n_undefined_decisions == decisions_at(point.trace, epochs).n_undefined > 0
    with pytest.raises(ParameterError):
        ExperimentConfig(n_updates=100, warmup_updates=100)
    cfg = tmp_path / "w.cfg"
    cfg.write_text("warmup = 500\n")
    assert load_config_file(str(cfg))["warmup_updates"] == 500


def test_validation_small_run_skips_the_checks_below_their_floors():
    # 500 updates after the warm-up: thinned at the full lag of 12 they leave
    # 42 system times, below the K-S floor; 95 decisions at nu = 0.1 give no
    # mean-age estimate; 499 departure gaps are below the squared-gap floor;
    # and a window of 4 updates (499 over 100 windows) is shorter than that
    # lag, so every other window-means check is skipped too
    report = run_validation(ExperimentConfig(n_updates=1000, seed=6))
    skipped = {c.name: c.as_csv() for c in report.checks if c.passed is None}
    assert skipped.pop("ks_system_time") == (
        "ks_system_time,skipped,nan,nan,nan,K-S needs at least 50 samples; got 42")
    for name in ("aud_mc_vs_theory", "aud_nu_invariance"):
        assert skipped.pop(name) == (f"{name},skipped,nan,nan,nan,95 decisions after the "
                                     "warm-up at decision rate 0.1; an estimate needs 200")
    assert skipped.pop("interdeparture_second_moment") == (
        "interdeparture_second_moment,skipped,nan,nan,nan,"
        "499 departure gaps; the squared-gap mean needs 1085")
    # nu = 1 has an estimate, so the PASTA check reports the window floor
    assert set(skipped) == {"queue_length_distribution", "prob_busy_on_arrival",
                            "cross_moment", "pasta_time_average"}
    assert set(skipped.values()) == {
        f"{name},skipped,nan,nan,nan,a window holds 4 updates; below the decorrelation lag 12"
        for name in skipped}
    summary = report.summary()
    assert summary.endswith("(8 skipped: too few samples)") and "widened" not in summary
    assert "SKIP  ks_system_time: observed=nan expected=nan tol=nan" in summary


def test_validation_power_against_wrong_oracle():
    # checking a (0.5, 1) trace against the closed forms at (1, 2) doubles
    # every reference rate, which must break the goodness-of-fit checks
    config = ExperimentConfig(n_updates=50_000, seed=6)
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
    checks, _ = _validation_checks(replace(point, params=SystemParams(1.0, 2.0)))
    failed = {c.name for c in checks if not c.passed}
    assert "ks_system_time" in failed and "ks_interdeparture" in failed
    # rates 1% off at 1e6 updates: the mean age misses theory by ~6 of its
    # standard errors, which a fixed 1% tolerance on it did not see
    point = _simulate_point(replace(config, n_updates=1_000_000, decision_rates=(0.1, 1.0),
                                    seed=7001), 0, SystemParams(0.5, 1.0))
    checks, _ = _validation_checks(replace(point, params=SystemParams(0.505, 1.01)))
    assert "aud_mc_vs_theory" in {c.name for c in checks if c.passed is False}
    checks, _ = _validation_checks(point)
    assert all(c.passed for c in checks)
    gated = [c for c in checks if not c.name.startswith(("ks_", "shape_"))]
    assert len(gated) == 10 and all(c.observed <= c.tolerance for c in gated)


def test_validation_default_small_passes():
    report = run_validation(ExperimentConfig(n_updates=100_000, seed=12))
    assert report.passed, report.summary()


def test_validation_full_default_passes():
    # the stock configuration: half load, 1e6 updates, three decision rates
    report = run_validation(ExperimentConfig())
    assert report.passed, report.summary()
    assert len(report.checks) == 15
    assert all(type(c.passed) is bool for c in report.checks)
    # 1% split over the 10 statistical checks, then over each check's comparisons
    rows = {c.name: c for c in report.checks}
    assert rows["ks_interdeparture"].expected == pytest.approx(0.001)
    assert rows["cross_moment"].tolerance == pytest.approx(z_value(1 - 0.001))
    assert rows["aud_mc_vs_theory"].tolerance == pytest.approx(z_value(1 - 0.001 / 3))
    assert rows["queue_length_distribution"].tolerance == pytest.approx(z_value(1 - 0.001 / 11))


@pytest.mark.parametrize("flags", [
    # correct runs that fixed tolerances failed: the occupancy level 7 (3.02
    # > 1), the second moment of the gaps (0.021 > 0.02), their K-S test (p =
    # 0.006 < 0.01), the mean age and the cross moment at high load (5.3% and
    # 5.1%), the occupancy level 8 (3.44 > 1), and the second moment on the
    # default configuration
    ["--lambda", "0.1", "--nu", "0.1,1", "--seed", "7009"],
    ["--lambda", "0.1", "--nu", "0.1,1", "--seed", "7002"],
    ["--lambda", "0.1", "--nu", "0.1,1", "--seed", "7007"],
    ["--lambda", "0.95", "--nu", "0.1,1", "--seed", "7000"],
    ["--lambda", "0.3", "--updates", "100000", "--seed", "5007"],
    ["--seed", "309"],
])
def test_validation_passes_correct_runs_across_the_load(flags, capsys):
    assert cli_main(["validate", *flags]) == 0, capsys.readouterr().out


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
    assert set(timing) == {"record", "wall_seconds", "workers", "peak_rss_mb"}
    assert timing["peak_rss_mb"] > 0.0
    assert timing["workers"] == distributions.worker_limit()
    versions = next(r for r in records if r["record"] == "versions")
    assert versions["aud_lab"] == aud_lab.__version__
    assert set(versions) == {"record", "aud_lab", "python", "numpy", "cpu_features"}
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    assert versions["cpu_features"] == sorted(k for k, on in __cpu_features__.items() if on)
    sizes = next(r for r in records if r["record"] == "sizes")
    assert sizes["n_updates"] == 20_000 and sizes["warmup_updates"] == 1000
    assert [d["nu"] for d in sizes["decisions"]] == [0.1, 1.0, 10.0]
    for d in sizes["decisions"]:
        assert d["undefined"] < d["total"] - d["after_warmup"]
        assert 0 < d["min_window_decisions"] <= d["after_warmup"] // 100
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


def window_reference(samples, cuts, confidence: float = 0.99) -> EstimateWithCI:
    """Reference: math.fsum of a whole column in each window [cuts[k], cuts[k + 1]), and the ratio CI."""
    sums = [math.fsum(samples[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    return ratio_ci(sums, np.diff(cuts), confidence)


def aud_reference(point, epochs):
    """The mean-age estimate from the full decision columns: a window takes the decisions in (start, end]."""
    ages = decisions_at(point.trace, epochs).ages
    return window_reference(ages, np.searchsorted(epochs, point.edges, side="right"),
                            point.config.confidence)


def update_cuts(point):
    """Where the windows cut the updates but the last: each goes to the window it departs in."""
    cuts = np.searchsorted(point.trace.departure_times, point.edges, side="right")
    return np.minimum(cuts, point.trace.n - 1)


def assert_close(got, want, rel=1e-9):
    assert (got.n, got.confidence) == (want.n, want.confidence)
    assert got.mean == pytest.approx(want.mean, rel=rel, abs=0.0)
    assert got.half_width == pytest.approx(want.half_width, rel=rel, abs=0.0)


def aud_at(point, epochs, monkeypatch):
    """``point.aud`` with ``epochs`` in place of the decision epochs it draws."""
    monkeypatch.setattr(experiments, "_decision_epochs", lambda trace, nu, seed: epochs)
    return point.aud(1.0)


def test_batch_means_widens_for_correlated_series():
    # an AR(1)-style positively correlated series: naive i.i.d. CI is too
    # narrow, the ratio CI over 100 windows must be materially wider
    rng = np.random.default_rng(5)
    x = np.empty(200_000)
    x[0] = 0.0
    noise = rng.standard_normal(200_000)
    for i in range(1, len(x)):
        x[i] = 0.95 * x[i - 1] + noise[i]
    naive = mean_ci(x)
    cuts = np.sort(rng.integers(0, len(x), 101))  # windows of unequal length
    cuts[[0, -1]] = 0, len(x)
    batched = window_reference(x, cuts)
    assert batched.half_width > 3.0 * naive.half_width
    assert batched.n == 100 and batched.mean == pytest.approx(naive.mean, rel=1e-12)


def test_batch_means_requires_enough_samples():
    # a single update leaves no busy indicator, and its windows no time
    point = _simulate_point(ExperimentConfig(n_updates=1, seed=3), 0, SystemParams(0.5, 1.0))
    assert len(set(point.edges)) == 1
    with pytest.raises(InsufficientDataError, match="no samples"):
        point.update_mean(lambda a, b: float(b - a))
    est, counts = point.aud(1.0)
    assert est is None and counts["after_warmup"] == counts["min_window_decisions"] == 0


@pytest.mark.parametrize("seed", [42, 1009])
@pytest.mark.parametrize("regular", [False, True])
def test_batched_aud_estimate_matches_the_whole_column_reference(seed, regular, monkeypatch):
    # Poisson epochs, or evenly spaced ones at gap 1 / nu
    for warmup in (0, 1000):
        config = ExperimentConfig(n_updates=100_000, seed=seed, warmup_updates=warmup)
        point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
        trace = point.trace
        for nu in (0.1, 1.0, 10.0):
            if regular:
                epochs = np.arange(1, math.floor(trace.last_departure * nu) + 1) / nu
            else:
                epochs = _decision_epochs(trace, nu, point.seed)
            assert _n_undefined(trace, epochs) == decisions_at(trace, epochs).n_undefined
            got, counts = aud_at(point, epochs, monkeypatch)
            assert_close(got, aud_reference(point, epochs))
            cuts = np.searchsorted(epochs, point.edges, side="right")
            assert counts["after_warmup"] == cuts[-1] - cuts[0]
            assert counts["min_window_decisions"] == np.diff(cuts).min() > 0


def test_aud_estimate_small_branches(monkeypatch):
    # an estimate needs 200 decisions in the windows: 199 give none, 200 give
    # the ratio over the 100 windows, most of them empty
    for warmup in (1500, 0):
        config = ExperimentConfig(n_updates=3000, seed=4, warmup_updates=warmup)
        point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
        epochs = _decision_epochs(point.trace, 1.0, point.seed)
        start = int(np.searchsorted(epochs, point.edges[0], side="right"))
        assert aud_at(point, epochs[:start + 199], monkeypatch)[0] is None
        got, counts = aud_at(point, epochs[:start + 200], monkeypatch)
        assert counts["after_warmup"] == 200 and counts["min_window_decisions"] == 0
        assert_close(got, aud_reference(point, epochs[:start + 200]))
        assert got.n == 100 and math.isfinite(got.half_width)
    # without a warm-up: a single decision behind undefined ones, only undefined
    # decisions, or none; one at the first departure is on the first window's open start
    d0 = float(point.trace.departure_times[0])
    assert point.edges[0] == d0
    single = np.array([0.5 * d0, 0.8 * d0, d0])
    for epochs in (single, single[:2], np.empty(0)):
        est, counts = aud_at(point, epochs, monkeypatch)
        assert est is None and counts["after_warmup"] == 0
    assert _n_undefined(point.trace, single) == 2 and _n_undefined(point.trace, np.empty(0)) == 0


def test_batch_means_over_slices_match_the_whole_column():
    # the busy indicator and the cross moment of validate, window by window
    # from slices of the trace, against math.fsum over the whole columns
    for lam, seed, warmup in ((0.5, 21, None), (0.9, 22, None), (0.5, 23, 0)):
        config = ExperimentConfig(n_updates=100_000, seed=seed, warmup_updates=warmup)
        point = _simulate_point(config, 0, SystemParams(lam, 1.0))
        trace, cuts = point.trace, update_cuts(point)
        assert cuts[0] == point.warm + (warmup == 0) and cuts[-1] == trace.n - 1
        busy = arrivals_seeing_busy(trace).astype(float)
        assert_close(point.update_mean(
            lambda a, b: np.count_nonzero(arrivals_seeing_busy(trace, a, b))),
            window_reference(busy, cuts))
        prod = trace.system_times[:-1] * trace.interdeparture_times
        assert_close(point.update_mean(
            lambda a, b: ((trace.departure_times[a + 1:b + 1] - trace.departure_times[a:b])
                          * (trace.departure_times[a:b] - trace.arrival_times[a:b])).sum()),
            window_reference(prod, cuts))


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_by_window_maps_a_few_contiguous_groups_per_thread(threads, monkeypatch):
    monkeypatch.setenv("AUD_LAB_THREADS", threads)
    submitted = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(threading.get_ident())
            return super().submit(*args, **kwargs)

    with CountingPool(int(threads)) as pool:
        monkeypatch.setattr(experiments, "block_pool", lambda: pool)
        for windows in (1, 7, 100, 101):
            edges = np.cumsum(np.random.default_rng(windows).exponential(size=windows + 1))
            stat = lambda a, b: (a, b, threading.get_ident())  # noqa: E731
            got = experiments._by_window(stat, edges)
            assert [(a, b) for a, b, _ in got] == list(zip(edges[:-1], edges[1:]))
            assert len(submitted) == min(windows, experiments.GROUPS_PER_THREAD * int(threads))
            submitted.clear()
        assert experiments._by_window(stat, edges[:1]) == []
        assert not submitted


def test_within_gates_the_worst_se_ratio():
    z99 = z_value(0.99)
    a, b, c = (EstimateWithCI(m, se * z99, 100) for m, se in ((1.0, 0.5), (2.0, 0.25), (0.0, 1.0)))
    # theory 1: |mean - 1| / se = 0, 4, 1; an infinite SE admits any mean
    assert _within([a, b, c], 1.0, 0.01, "d") == (False, 4.0, 0.0, z_value(1.0 - 0.01 / 3), "d")
    assert _within([a, c], [1.0, 0.0], 0.01)[:2] == (True, 0.0)
    assert _within([EstimateWithCI(9.0, math.inf, 1)], 1.0, 0.01)[:2] == (True, 0.0)
    assert _within([EstimateWithCI(0.5, 0.0, 100)], 0.0, 0.01)[:2] == (False, math.inf)
    # pairs (a, b), (a, c), (b, c): |diff| / hypot(se) = 1.79, 0.89, 1.94
    diffs = _differences([a, b, c])
    assert [d.mean for d in diffs] == [-1.0, 1.0, 2.0]
    worst = 2.0 / math.hypot(0.25, 1.0)
    assert _within(diffs, 0.0, 0.01)[:2] == (True, pytest.approx(worst))
    assert _within(diffs, 0.0, 0.3)[0] is False  # z = 1.64 at 0.1 per pair


def test_sweep_csv_reruns_byte_identical(tmp_path):
    out = tmp_path / "s.csv"
    config = ExperimentConfig(
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


def test_sweep_runs_one_point_at_a_time(tmp_path, monkeypatch):
    point_rows, lock = experiments._point_rows, threading.Lock()
    in_flight = most = 0

    def counted(*args):
        nonlocal in_flight, most
        with lock:
            in_flight += 1
            most = max(most, in_flight)
        try:
            time.sleep(0.05)  # time for another point to start, if one could
            return point_rows(*args)
        finally:
            with lock:
                in_flight -= 1

    monkeypatch.setattr(experiments, "_point_rows", counted)
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("AUD_LAB_THREADS", threads)
        out = tmp_path / f"s{threads}.csv"
        run_sweep(ExperimentConfig(arrival_rates=parse_rates("0.1:0.9:0.1"),
                                   decision_rates=(1.0,), n_updates=3000, seed=42,
                                   output_path=str(out)))
        outputs.append(out.read_bytes())
    assert most == 1 and in_flight == 0
    assert outputs[1] == outputs[0] and len(outputs[0].splitlines()) == 10


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


def test_cli_nu_invariance_compares_only_the_rates_with_an_estimate(tmp_path, capsys):
    # decisions at these two rates fall 199 and 200 times after the warm-up:
    # the first row stays blank, and one rate alone leaves nothing to compare
    flags = ["--nu", "0.0945,0.0905", "--updates", "2000", "--seed", "42"]
    config = ExperimentConfig(decision_rates=(0.0945, 0.0905),
                              n_updates=2000, seed=42)
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
    assert [point.aud(nu)[1]["after_warmup"] for nu in config.decision_rates] == [199, 200]
    out = tmp_path / "nu.csv"
    code = cli_main(["nu-invariance", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[-1] == (
        "SKIP  fewer than two decision rates have an estimate")
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert [r[4:6] == ["", ""] for r in rows] == [True, False]
    # no decision at nu = 1e-4 falls on this short trace
    code = cli_main(["nu-invariance", "--nu", "0.0001,1", "--updates", "100", "--out", str(out)])
    assert code == 0 and capsys.readouterr().out.startswith("SKIP")


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg"
    out = tmp_path / "o.csv"
    cfg.write_text("lambda = 0.5\nmu = 0.8:1.2:0.2\nnu = 1\n"
                   "updates = 5000\nseed = 1\n")
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "99"])
    assert code == 0
    manifest = [json.loads(line) for line in open(manifest_path_for(str(out)))]
    config_record = next(r for r in manifest if r["record"] == "config")
    assert config_record["seed"] == 99
    assert config_record["mode"] == "sweep"  # the verb sets the mode


def test_cli_sweep_reads_its_config_file_once(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("lambda = 0.3,0.6\nnu = 1\nupdates = 2000\nseed = 1\n")
    reads = []

    def counting(path):
        reads.append(path)
        return load_config_file(path)

    monkeypatch.setattr(experiments, "load_config_file", counting)
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    assert reads == [str(cfg)] and capsys.readouterr().out == "wrote 2 rows\n"
    # a bad flag is still reported ahead of a bad file
    cfg.write_text("bogus = 1\n")
    assert cli_main(["sweep", "--config", str(cfg), "--lambda", "x"]) == 2
    assert capsys.readouterr().err == "error: rate must be a number, got 'x'\n"
    assert cli_main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'bogus'\n"


def test_cli_error_paths(tmp_path, capsys):
    code = cli_main(["validate", "--lambda", "1.5", "--mu", "1.0", "--updates", "1000"])
    assert code == 2
    assert "error" in capsys.readouterr().err
    # nu-invariance refuses a point without a steady state, as validate does
    for lam in ("0.9999999999", "1.5"):
        argv = ["nu-invariance", "--lambda", lam, "--mu", "1", "--nu", "1,2", "--updates", "1000"]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: utilization {float(lam):.6g} is not safely below 1\n"


def test_cli_bad_rate_exits_2(capsys):
    code = cli_main(["validate", "--lambda", "abc", "--updates", "1000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'abc'" in err and err.count("\n") == 1
    # a malformed number in any flag is read as its config-file key is
    for flag, text, noun in (("--updates", "1e6", "an integer"), ("--seed", "x", "an integer"),
                             ("--confidence", "abc", "a number")):
        assert cli_main(["validate", flag, text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag[2:]} must be {noun}, got {text!r}\n"
    # an empty rate flag is refused, not taken for the default rate
    for flag in ("--lambda", "--mu", "--nu"):
        argv = ["sweep", "--lambda", "0.5", "--mu", "1", "--nu", "1", "--updates", "1000", flag, ""]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "must not be empty" in err


@pytest.mark.parametrize("rates,listed,mu", [
    ("1.5e-12:4.5e-12:1.5e-12", "1.5e-12,3e-12,4.5e-12", "1e-11"),
    ("1e-13:3e-13:1e-13", "1e-13,2e-13,3e-13", "1e-12"),
])
def test_cli_range_of_tiny_rates_runs_the_rates_its_text_names(rates, listed, mu, tmp_path):
    # a range is stepped in decimal on its text, so no rate is rounded away at any scale
    assert parse_rates(rates) == parse_rates(listed)
    csvs = []
    for i, form in enumerate((rates, listed)):
        out = tmp_path / f"s{i}.csv"
        assert cli_main(["sweep", "--lambda", form, "--mu", mu, "--nu", mu, "--updates", "1000",
                         "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1] and len(csvs[0].splitlines()) == 4


def test_cli_seeded_configs_over_the_valid_box_end_in_a_verdict_or_one_error_line(
        tmp_path, capsys):
    # 200 seeded configs: rates log-uniform in [2^-64, 2^64], drawn alone or
    # within 2^3 of a shared scale so that most points are stable, 1 to 4096
    # updates, and confidences near 0 and 1.  Each run prints a verdict or
    # exits 2 with one error line, never a traceback, and a sweep's rates
    # written as ranges give the CSV of the same rates as comma lists.
    rng = random.Random(2026)

    def three_digits(x):
        return Decimal(f"{x:.3g}")

    def rates(scale, k):
        # a step within 2^6 of the start keeps each rate's decimal exact
        start = three_digits((scale or 2.0 ** rng.uniform(-64, 64)) * 2.0 ** rng.uniform(-3, 3))
        step = three_digits(float(start) * 2.0 ** rng.uniform(-6, 0))
        values = [start + i * step for i in range(k)]
        return f"{start}:{values[-1]}:{step}", ",".join(map(str, values))

    def confidence():
        u = rng.uniform(1.0, 17.0)
        return rng.choice(["0.99", repr(1.0 - 10.0**-u), f"{10.0**-u:.3g}"])

    runs = {}
    while sum(runs.values()) < 200:
        verb = rng.choice(["sweep", "sweep", "nu-invariance", "validate"])
        scale = 2.0 ** rng.uniform(-64, 64) if rng.random() < 0.6 else None
        single = verb != "sweep"
        lam, mu = (rates(scale, 1 if single else rng.randint(1, 3)) for _ in range(2))
        nu = rates(scale, rng.randint(1, 3))
        n = int(2.0 ** rng.uniform(0, 12))
        stable = [(a, m) for a in map(float, lam[1].split(","))
                  for m in map(float, mu[1].split(",")) if a < m]
        decisions = max(map(float, nu[1].split(","))) * n / min(
            (min(a, m) for a, m in stable), default=math.inf)
        if 2**20 < decisions <= experiments.MAX_COLUMN:
            continue  # a valid run, but too many decisions for a unit test
        flags = ["--updates", str(n), "--seed", str(rng.randrange(2**64)),
                 "--confidence", confidence()]
        codes, csvs = set(), set()
        for form in (1,) if single else (0, 1):
            out = tmp_path / f"{form}.csv"
            argv = [verb, "--lambda", lam[form], "--mu", mu[form], "--nu", nu[form], *flags,
                    "--out", str(out)]
            shown = " ".join(argv)
            code = cli_main(argv)
            printed, err = capsys.readouterr()
            if code == 2:
                assert printed == "" and err.startswith("error: ") and err.count("\n") == 1, shown
            else:
                # exit 1 is a failed check's verdict, which a correct run may give
                assert err == "" and (code == 0 or code == 1 and single), shown
                csvs.add(out.read_bytes())
            codes.add(code)
        assert len(codes) == 1 and len(csvs) <= 1, shown
        runs[verb, code] = runs.get((verb, code), 0) + 1
    assert all(runs.get((verb, code)) for verb in ("sweep", "nu-invariance", "validate")
               for code in (0, 2)), runs


def test_cli_rates_outside_their_range_exit_2(capsys):
    # each used to end in a traceback, or in a false FAIL on underflowing gaps
    for flags in (["--nu", "1e300", "--updates", "10"],
                  ["--lambda", "1e-300", "--updates", "100"],
                  ["--lambda", "1e300", "--mu", "1e301", "--updates", "100000"],
                  ["--lambda", "1e300", "--mu", "1e301", "--updates", "100"]):
        assert cli_main(["validate", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "must lie in [2^-64, 2^64]" in err
    ExperimentConfig(arrival_rates=(2.0**-64,), service_rates=(2.0**-63,),
                     decision_rates=(2.0**-64,))
    ExperimentConfig(arrival_rates=(2.0**63,), service_rates=(2.0**64,),
                     decision_rates=(2.0**64,))
    # a range with a non-finite part, or of more rates than a column holds, is
    # refused before any rate is built
    for text, reason in (("0.1:inf:0.1", "bad range"), ("nan:1:0.1", "bad range"),
                         ("0.1:0.9:nan", "bad range"), ("-inf:1:0.1", "bad range"),
                         ("0.1:0.9:1e-12", "holds about 8e+11 rates; the cap is 268435456"),
                         ("1e-300:1e300:1e-300", "holds about inf rates")):
        assert cli_main(["sweep", f"--lambda={text}", "--updates", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and reason in err and repr(text) in err
    for rate in (math.nextafter(2.0**-64, 0.0), math.nextafter(2.0**64, math.inf)):
        with pytest.raises(ParameterError):
            ExperimentConfig(decision_rates=(rate,))


def test_cli_confidence_next_to_one_exits_2(capsys):
    # 0.5 * (1 + c) rounds to 1; then a per-comparison level 1 - (1 - c) / (10 m) does
    for confidence in ("0.9999999999999999", "0.9999999999999998", "0.999999999999999"):
        assert cli_main(["validate", "--confidence", confidence, "--updates", "5000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "too close to 1" in err


def test_cli_confidence_next_to_zero_exits_2(capsys):
    # 0.5 * (1 + c) rounds to 0.5, so z = 0 and no standard error can be recovered
    for argv in (["validate", "--confidence", "1e-300", "--updates", "2000"],
                 ["nu-invariance", "--confidence", "1e-300", "--nu", "1,2", "--updates", "2000"],
                 ["sweep", "--confidence", "1e-300", "--updates", "2000"],
                 ["validate", "--confidence", "1.1e-16", "--updates", "2000"]):
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "too close to 0" in err


def test_cli_non_integer_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("lambda = 0.5\nupdates = 1e6\n")
    code = cli_main(["validate", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":2: updates must be an integer" in err


def test_cli_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_bytes(b"seed = 1\n\xff = 2\n")
    assert cli_main(["validate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {cfg}: not UTF-8 text\n"


@pytest.mark.parametrize("line", ["allow_unstable = true", "periodic_decisions = true",
                                  "mode = nonsense", "mode = validate", "n_updates = 3000",
                                  "output = o.csv"])
def test_cli_removed_config_keys_exit_2(tmp_path, capsys, line):
    # the verb is the mode, and each setting has one key
    cfg = tmp_path / "cfg"
    cfg.write_text(f"updates = 2000\n{line}\n")
    for verb in ("sweep", "nu-invariance", "validate"):
        assert cli_main([verb, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and err.endswith(f":2: unknown key {line.split()[0]!r}\n")


def test_cli_config_key_set_twice_exits_2(tmp_path, capsys):
    # the second value used to win silently
    cfg = tmp_path / "cfg"
    cfg.write_text("lambda = 0.5\nlambda = 0.6\nupdates = 2000\n")
    for verb in ("sweep", "nu-invariance", "validate"):
        assert cli_main([verb, "--config", str(cfg), "--nu", "1,2"]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}:2: key 'lambda' set twice\n")
    # a flag still overrides the file
    cfg.write_text("lambda = 0.5\nupdates = 2000\n")
    out = tmp_path / "s.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--lambda", "0.6", "--out", str(out)]) == 0
    assert {row.split(",")[0] for row in out.read_text().splitlines()[1:]} == {"0.6"}


def test_cli_seed_outside_64_bits_exits_2(tmp_path, capsys):
    # a sweep used to mask such a seed to 64 bits, and validate refused it
    # only after simulating
    for seed in ("-1", str(2**64)):
        for verb in ("sweep", "nu-invariance", "validate"):
            out = tmp_path / f"{verb}.csv"
            assert cli_main([verb, "--nu", "1,2", "--updates", "2000", "--seed", seed,
                             "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                f"error: seed must lie in [0, 2^64), got {seed}\n")
            assert not out.exists()
    ExperimentConfig(seed=0)
    ExperimentConfig(seed=2**64 - 1)


def test_cli_no_decision_for_the_pasta_check_skips_it(tmp_path, capsys):
    # the PASTA check samples the median configured rate, here 0.002; on this
    # short, fast trace no such decision falls after the warm-up
    out = tmp_path / "v.csv"
    code = cli_main(["validate", "--lambda", "1000", "--mu", "2000", "--nu", "1000,0.002,0.001",
                     "--updates", "210", "--seed", "1", "--out", str(out)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()
    assert ("pasta_time_average,skipped,nan,nan,nan,"
            "0 decisions after the warm-up at decision rate 0.002; an estimate needs 200") in rows
    # the sizes record counts the configured rates alone, in their order
    with open(manifest_path_for(str(out))) as fh:
        sizes = json.loads(fh.readlines()[-1])
    assert [d["nu"] for d in sizes["decisions"]] == [1000.0, 0.002, 0.001]
    assert sizes["decisions"][1]["after_warmup"] == sizes["decisions"][1]["min_window_decisions"] == 0


# The validate rows that read only the trace or the closed forms.
TRACE_ROWS = ("ks_system_time", "ks_interdeparture", "interdeparture_mean",
              "interdeparture_second_moment", "queue_length_distribution",
              "prob_busy_on_arrival", "mgf_mixture_identity", "cross_moment", "aud_dual_path",
              "shape_lambda_u_curve", "shape_mu_decreasing", "shape_divergence_asymmetry")


def test_validate_rescaled_in_time_keeps_its_trace_rows_and_its_cost(tmp_path):
    # Every rate times a power of two c only relabels time: each epoch scales
    # exactly.  The decision streams are keyed by the rate, so their rows move.
    def run(c):
        out = tmp_path / f"v{c!r}.csv"
        code = cli_main(["validate", "--lambda", repr(0.5 * c), "--mu", repr(1.0 * c),
                         "--nu", ",".join(repr(nu * c) for nu in (0.1, 1.0, 10.0)),
                         "--updates", "100000", "--seed", "7", "--out", str(out)])
        assert code in (0, 1)
        rows = {line.split(",")[0]: line.split(",")[1:5]
                for line in out.read_text().splitlines()[1:]}
        with open(manifest_path_for(str(out))) as fh:
            sizes = json.loads(fh.readlines()[-1])
        return {name: rows[name] for name in TRACE_ROWS}, [d["total"] for d in sizes["decisions"]]

    rows, totals = run(1.0)
    assert len(totals) == 3
    for c in (2.0**20, 2.0**-20):
        scaled_rows, scaled_totals = run(c)
        assert scaled_rows == rows
        assert len(scaled_totals) == 3
        assert all(abs(s - t) <= 0.05 * t for s, t in zip(scaled_totals, totals))


def test_cli_refuses_oversized_runs_and_a_validate_grid(tmp_path, capsys):
    # each used to end in a numpy memory error or, for the grid, to validate
    # its first point alone
    for argv, reason in (
        (["validate", "--updates", "100000000000"], "100000000000 updates exceed the cap"),
        (["sweep", "--lambda", "1e-12", "--mu", "1", "--nu", "1", "--updates", "1000"],
         "decision rate 1 at lambda=1e-12, mu=1 draws about 1e+15 decisions"),
        (["validate", "--lambda", "0.3,0.5", "--mu", "1", "--updates", "5000"],
         "validate runs a single (lambda, mu) point"),
        (["nu-invariance", "--nu", "1", "--updates", "5000"],
         "nu_invariance needs at least two decision rates"),
        # epochs near the horizon lie 16 or more mean service times apart, so a
        # correct simulator failed ks_system_time and cross_moment here
        (["validate", "--lambda", "1e-12", "--mu", "1", "--nu", "1e-12", "--updates", "100000"],
         "100000 updates at lambda=1e-12, mu=1 span about 1e+17 mean service times"),
        (["sweep", "--lambda", "1e-19", "--mu", "1", "--nu", "1e-19", "--updates", "100"],
         "100 updates at lambda=1e-19, mu=1 span about 1e+21 mean service times"),
    ):
        out = tmp_path / "out.csv"
        assert cli_main([*argv, "--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and reason in captured.err
        assert not out.exists() and not os.path.exists(manifest_path_for(str(out)))
    # 2e8 decisions at nu = 10 stay within the cap of 2^28
    assert experiments.MAX_COLUMN == 2**28
    build_config(arrival_rates=(0.01,), n_updates=200_000, seed=3)
    # n * mu / lambda = 1e12 stays within the cap of 2^40
    build_config(arrival_rates=(1e-7,), decision_rates=(1e-7,),
                 n_updates=100_000)


FAST = ["--lambda", "1000", "--mu", "2000", "--nu", "1000", "--seed", "1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags,skipped", [
    (["--updates", "1"], {"aud_mc_vs_theory", "aud_nu_invariance", "ks_system_time",
                          "ks_interdeparture", "interdeparture_mean",
                          "interdeparture_second_moment", "queue_length_distribution",
                          "prob_busy_on_arrival", "cross_moment", "pasta_time_average"}),
    (["--updates", "2"], {"aud_mc_vs_theory", "aud_nu_invariance", "ks_system_time",
                          "ks_interdeparture", "interdeparture_mean",
                          "interdeparture_second_moment", "queue_length_distribution",
                          "prob_busy_on_arrival", "cross_moment", "pasta_time_average"}),
    # a window of under 12 updates is below the decorrelation lag at rho = 0.5
    # and the squared departure gaps are below their floor up to n = 2085
    (["--updates", "60"], {"aud_mc_vs_theory", "aud_nu_invariance", "ks_system_time",
                           "ks_interdeparture", "interdeparture_second_moment",
                           "queue_length_distribution", "prob_busy_on_arrival",
                           "cross_moment", "pasta_time_average"}),
    ([*FAST, "--updates", "200"], {"aud_mc_vs_theory", "ks_system_time",
                                   "interdeparture_second_moment",
                                   "queue_length_distribution", "prob_busy_on_arrival",
                                   "cross_moment", "pasta_time_average"}),
    ([*FAST, "--updates", "210"], {"aud_mc_vs_theory", "ks_system_time",
                                   "interdeparture_second_moment",
                                   "queue_length_distribution", "prob_busy_on_arrival",
                                   "cross_moment", "pasta_time_average"}),
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


@pytest.mark.parametrize("flags,aud_reason,window_reason", [
    # 89 decisions at nu = 0.1 once failed aud_mc_vs_theory on an i.i.d. CI;
    # 99 updates after the warm-up leave none per window
    (["--lambda", "0.1", "--updates", "200", "--seed", "100"],
     "89 decisions after the warm-up at decision rate 0.1; an estimate needs 200",
     "a window holds 0 updates; below the decorrelation lag 1"),
    # short windows at rho = 0.01 once failed prob_busy_on_arrival
    (["--lambda", "0.01", "--updates", "600", "--seed", "102"],
     "a window holds 2 updates; below 5", "a window holds 2 updates; below 5"),
], ids=["rho0.1-n200", "rho0.01-n600"])
def test_cli_short_low_load_runs_pass(tmp_path, capsys, flags, aud_reason, window_reason):
    out = tmp_path / "v.csv"
    assert cli_main(["validate", *flags, "--out", str(out)]) == 0, capsys.readouterr().out
    rows = {r.split(",")[0]: r for r in out.read_text().splitlines()[1:]}
    assert rows["aud_mc_vs_theory"] == f"aud_mc_vs_theory,skipped,nan,nan,nan,{aud_reason}"
    assert rows["prob_busy_on_arrival"] == ("prob_busy_on_arrival,skipped,nan,nan,nan,"
                                            + window_reason)


@pytest.mark.parametrize("updates,row", [
    # 1000 warm-up updates leave n - 1001 departure gaps
    (2085, "interdeparture_second_moment,skipped,nan,nan,nan,"
           "1084 departure gaps; the squared-gap mean needs 1085"),
    (2086, None),
])
def test_squared_gap_check_needs_its_floor(tmp_path, updates, row):
    out = tmp_path / "v.csv"
    cli_main(["validate", "--updates", str(updates), "--seed", "3", "--out", str(out)])
    rows = {r.split(",")[0]: r for r in out.read_text().splitlines()[1:]}
    if row is None:
        assert rows["interdeparture_second_moment"].split(",")[1] in ("true", "false")
    else:
        assert rows["interdeparture_second_moment"] == row


def test_busy_check_needs_busy_and_idle_arrivals_in_every_batch(tmp_path):
    # 189 updates per window at rho = 0.01 expect 1.89 busy arrivals each
    out = tmp_path / "v.csv"
    cli_main(["validate", "--lambda", "0.01", "--updates", "20000", "--seed", "100",
              "--out", str(out)])
    assert ("prob_busy_on_arrival,skipped,nan,nan,nan,1.89 busy or idle arrivals expected per "
            "window; below 5") in out.read_text().splitlines()


def test_sweep_leaves_the_estimate_blank_below_two_decisions_per_batch():
    config = ExperimentConfig(decision_rates=(0.01, 1.0),
                              n_updates=2000, seed=7)
    low, high = run_sweep(config).rows
    assert low.n_decisions > 0 and low.empirical_aud is low.ci_half_width is None
    assert high.empirical_aud > 0.0 and high.ci_half_width > 0.0


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


def ks_samples_reference(point):
    """The K-S samples as views of the full-length derived columns."""
    trace, warm = point.trace, point.warm
    lag = decorrelation_lag(point.params.utilization)
    return (lag, trace.system_times[warm:][::lag][:experiments.KS_MAX_SAMPLES],
            trace.interdeparture_times[warm:][:experiments.KS_MAX_SAMPLES])


@pytest.mark.parametrize("cap", [None, 700])
def test_ks_samples_from_column_slices(cap, monkeypatch):
    if cap:  # the cap binds on both samples
        monkeypatch.setattr(experiments, "KS_MAX_SAMPLES", cap)
    params = SystemParams(0.5, 1.0)
    for n, warmup in ((30_000, None), (30_000, 0), (5000, 4998), (2, 1), (1, None), (1, 0)):
        config = ExperimentConfig(n_updates=n, seed=4, warmup_updates=warmup)
        point = _simulate_point(config, 0, params)
        lag, thinned, gaps = _ks_samples(point)
        ref_lag, ref_thinned, ref_gaps = ks_samples_reference(point)
        assert lag == ref_lag
        assert np.array_equal(thinned, ref_thinned) and np.array_equal(gaps, ref_gaps)
        assert thinned.base is None and gaps.base is None  # no full-length buffer kept
    assert len(gaps) == 0 and len(thinned) == 1  # n - warm = 1: no departure gap


def test_trace_checks_keep_the_arithmetic_of_the_whole_columns():
    config = ExperimentConfig(n_updates=100_000, seed=21)
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
    trace, params = point.trace, point.params
    checks = {c.name: c for c in _validation_checks(point)[0]}
    alpha = (1.0 - config.confidence) / 10

    def row(name, *gate):
        passed, observed, expected, tolerance, detail = _within(*gate)
        assert (checks[name].passed, checks[name].observed, checks[name].tolerance,
                checks[name].detail) == (passed, observed, tolerance, detail)

    # a window of a whole column sums as the window's own column does
    cuts = update_cuts(point)

    def by_window(column):
        sums = [column[a:b].sum() for a, b in zip(cuts[:-1], cuts[1:])]
        return ratio_ci(sums, np.diff(cuts), config.confidence)

    prod = trace.system_times[:-1] * trace.interdeparture_times
    theory = analytic.cross_moment_system_interdeparture(params)
    row("cross_moment", [by_window(prod)], theory, alpha, f"theory={theory:.6g}")
    busy = arrivals_seeing_busy(trace).astype(float)
    assert np.array_equal(busy, trace.interarrival_times[1:] < trace.system_times[:-1])
    row("prob_busy_on_arrival", [by_window(busy)], params.utilization, alpha)
    edges = np.linspace(point.warm_epoch, trace.last_departure, 101)
    assert np.array_equal(edges, point.edges)
    path = queue_length_process(trace)
    per_batch = np.array([occupancy_fractions(path, 6, a, b) for a, b in zip(edges, edges[1:])])
    per_batch = np.column_stack((per_batch, 1.0 - per_batch.sum(axis=1)))
    pi = analytic.stationary_queue_dist(params, 10)
    row("queue_length_distribution",
        [mean_ci(level, config.confidence) for level in per_batch.T],
        np.append(pi[:7], 1 - pi[:7].sum()), alpha, "levels 0-6 and >= 7")


@pytest.mark.parametrize("config", [
    ExperimentConfig(n_updates=100_000, seed=31),
    ExperimentConfig(n_updates=60, seed=1),  # skips the checks below their floors
])
def test_validation_outputs_do_not_depend_on_the_thread_count(config, tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("AUD_LAB_THREADS", threads)
        out = tmp_path / f"v{threads}.csv"
        run_validation(replace(config, output_path=str(out)))
        manifest = manifest_path_for(str(out))
        sizes = [line for line in open(manifest) if '"record": "sizes"' in line]
        outputs.append((out.read_bytes(), sizes))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert len(outputs[0][1]) == 1


def test_validation_runs_its_estimates_and_windows_on_the_calling_thread(monkeypatch):
    # only the block pool's slice tasks leave the calling thread
    monkeypatch.setenv("AUD_LAB_THREADS", "4")
    threads = []

    def on_caller(fn):
        def wrapped(*args, **kwargs):
            threads.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(experiments._Point, "aud", on_caller(experiments._Point.aud))
    monkeypatch.setattr(experiments, "_by_window", on_caller(experiments._by_window))
    report = run_validation(ExperimentConfig(n_updates=20_000, seed=7))
    assert not any(check.passed is None for check in report.checks)
    # the batch means of three decision rates, the busy indicator and the cross
    # moment, then the occupancy and sawtooth windows
    assert sorted(name for name, _ in threads) == ["_by_window"] * 7 + ["aud"] * 3
    assert {ident for _, ident in threads} == {threading.get_ident()}


# Runs ``validate`` in a child and prints the child's peak RSS: as this
# process has no other child, RUSAGE_CHILDREN holds that child's alone.
PEAK_RSS_OF_VALIDATE = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "aud_lab.cli", *sys.argv[1:]], check=True,
               stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

# Allowed rise of the two-thread peak over the one-thread peak.  The checks
# run one after another, so a second thread adds only the block pool's
# in-flight blocks (a Philox counter block, a batch's slice, or an occupancy
# or sawtooth window), about 1% at this size; a merged path of all 2n events beside the
# nu = 10 epochs would add 25-35%.
THREADS_RSS_MARGIN = 0.12


def test_validate_peak_memory_with_two_threads_stays_near_one_thread(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(aud_lab.__file__)))
    peaks = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_OF_VALIDATE, "validate", "--updates", "200000",
             "--seed", "3", "--out", str(tmp_path / f"v{threads}.csv")],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "AUD_LAB_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        peaks[threads] = int(proc.stdout.split()[-1])
    assert peaks["2"] <= (1.0 + THREADS_RSS_MARGIN) * peaks["1"], peaks
