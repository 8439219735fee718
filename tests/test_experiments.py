import argparse
import concurrent.futures
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields, replace
from decimal import Decimal

import numpy as np
import pytest

import aud_lab
from aud_lab import analytic, cli, distributions, experiments
from aud_lab.cli import main as cli_main
from aud_lab.decisions import _age_sum, decisions_at, poisson_epochs
from aud_lab.distributions import SeededStream, exponential_gaps
from aud_lab.errors import InsufficientDataError, ParameterError
from aud_lab.experiments import (
    CHECKS,
    CheckResult,
    ExperimentConfig,
    _differences,
    _simulate_point,
    _validation_checks,
    _within,
    decision_stream_id,
    decorrelation_lag,
    derive_point_seed,
    manifest_path_for,
    parse_rates,
    run_nu_invariance,
    run_sweep,
    run_validation,
)
from aud_lab.queueing import (
    SystemParams,
    UpdateTrace,
    arrivals_seeing_busy,
    default_warmup,
    occupancy,
    simulate,
)
from aud_lab.stats import EstimateWithCI, mean_ci, ratio_ci, z_value

SMALL = dict(n_updates=50_000, seed=11)


def cut_warmup(monkeypatch, updates):
    """Make every point cut ``updates`` as its warm-up (None: ``default_warmup``'s rule)."""
    rule = default_warmup if updates is None else lambda n: updates
    monkeypatch.setattr(experiments, "default_warmup", rule)


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


@pytest.mark.parametrize("config,mode", [
    (ExperimentConfig(arrival_rates=(0.3, 0.6), service_rates=(1.0, 2.0), decision_rates=(1.0,),
                      n_updates=2000, seed=5, output_path="s.csv"), "sweep"),
    (ExperimentConfig(decision_rates=(0.5, 2.0), n_updates=4000, seed=0, output_path="n.csv"),
     "nu_invariance"),
    (ExperimentConfig(n_updates=3000, seed=2**64 - 1, confidence=0.95, output_path="v.csv"),
     "validate"),
], ids=["sweep", "nu-invariance", "validate"])
def test_manifest_config_record_rebuilds_the_config(config, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the configs name relative outputs
    experiments._write_outputs(config, mode, "header", (), time.monotonic(), 1)
    assert (tmp_path / config.output_path).read_text() == "header\n"
    record = json.loads(open(manifest_path_for(config.output_path)).readline())
    assert record.pop("record") == "config"
    # the verb's mode, then one entry per flag: written back as the flags'
    # texts, lists joined with commas and null left out, they give the config
    assert record.pop("mode") == mode
    assert sorted(record) == sorted(experiments._CONFIG_KEYS)
    flags = {key: ",".join(map(str, value)) if isinstance(value, list) else str(value)
             for key, value in record.items() if value is not None}
    assert ExperimentConfig(**cli._overrides(argparse.Namespace(**flags))) == config


def test_one_key_table_sets_every_field_and_names_every_flag(capsys):
    keyed = [field for field, _, _ in experiments._CONFIG_KEYS.values()]
    assert sorted(keyed) == sorted(f.name for f in fields(ExperimentConfig))
    # every key is a flag, with help
    assert all(help_text for _, _, help_text in experiments._CONFIG_KEYS.values())
    flags = [f"--{key}" for key in experiments._CONFIG_KEYS]
    assert flags == ["--lambda", "--mu", "--nu", "--updates", "--seed", "--out",
                     "--confidence"]
    for verb in ("sweep", "nu-invariance", "validate"):
        with pytest.raises(SystemExit):
            cli_main([verb, "--help"])
        shown = re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.MULTILINE)
        assert shown == flags


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
                                      n_updates=2000))
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
    # validate and nu-invariance, the single-point runners, also record the point's sizes
    config = ExperimentConfig(decision_rates=(1.0, 2.0), n_updates=2000, seed=3)

    def mode_and_sizes(path):
        with open(manifest_path_for(str(path))) as fh:
            records = [json.loads(line) for line in fh]
        return records[0]["mode"], sum(r["record"] == "sizes" for r in records)

    for run, name, sizes in ((run_sweep, "sweep", 0), (run_nu_invariance, "nu_invariance", 1),
                             (run_validation, "validate", 1)):
        out = tmp_path / f"{name}.csv"
        run(replace(config, output_path=str(out)))
        assert mode_and_sizes(out) == (name, sizes)
        out = tmp_path / f"cli-{name}.csv"
        code = cli_main([name.replace("_", "-"), "--nu", "1,2", "--updates", "2000",
                         "--seed", "3", "--out", str(out)])
        assert code in (0, 1) and mode_and_sizes(out) == (name, sizes)


def test_nu_invariance_records_the_sizes_validate_records(tmp_path):
    config = ExperimentConfig(decision_rates=(0.1, 1.0, 10.0), n_updates=20_000, seed=8)
    sizes = []
    for run, name in ((run_nu_invariance, "nu"), (run_validation, "validate")):
        out = tmp_path / f"{name}.csv"
        run(replace(config, output_path=str(out)))
        with open(manifest_path_for(str(out)), "rb") as fh:
            sizes.append([line for line in fh if b'"record": "sizes"' in line])
    assert len(sizes[0]) == 1 and sizes[0] == sizes[1]


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
    rows = run_sweep(config)
    assert len(rows) == 9
    analytic_col = [row.analytic_aud for row in rows]
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
    for row in rows:
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
    analytic_col = [row.analytic_aud for row in run_sweep(config)]
    assert all(b < a for a, b in zip(analytic_col, analytic_col[1:]))


def test_sweep_marks_unstable_rows():
    config = ExperimentConfig(
        arrival_rates=(0.5, 1 - 1e-10, 1.0, 1.3),
        service_rates=(1.0,),
        decision_rates=(1.0,),
        n_updates=5000,
        seed=2,
    )
    by_rate = {row.arrival_rate: row for row in run_sweep(config)}
    assert by_rate[0.5].status == "ok"
    for lam in (1 - 1e-10, 1.0, 1.3):
        row = by_rate[lam]
        assert row.status == "unstable"
        assert row.analytic_aud is None and row.empirical_aud is None
    csv_line = row.as_csv()
    assert csv_line.endswith("unstable")


def test_cli_sweep_of_a_guard_band_point_writes_its_unstable_row(tmp_path, capsys):
    # rho = 1 - 1e-10 has no closed form, so it is neither simulated nor held
    # to the decision cap it would exceed (it exited 2 on that cap)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--lambda", "0.9999999999", "--mu", "1", "--nu", "300",
            "--updates", "1000000", "--out", str(out)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1:] == ["0.9999999999,1.0,300.0,,,,,,,,unstable"]


def test_grid_mode_covers_cross_product():
    config = ExperimentConfig(
        arrival_rates=(0.3, 0.5),
        service_rates=(1.0, 2.0),
        decision_rates=(1.0,),
        n_updates=10_000,
        seed=3,
    )
    assert [(r.arrival_rate, r.service_rate) for r in run_sweep(config)] == [
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
    rows = result.rows
    assert rows[0].as_csv() == rows[1].as_csv()
    # one distinct rate leaves no pair to compare
    assert list(result.estimates) == [1.0] and result.consistent is None


def test_sweep_draws_a_repeated_decision_rate_once(tmp_path, monkeypatch):
    calls = []
    aud = experiments._Point.aud
    monkeypatch.setattr(experiments._Point, "aud",
                        lambda self, nu: calls.append(nu) or aud(self, nu))
    out = tmp_path / "s.csv"
    argv = ["sweep", "--lambda", "0.5", "--nu", "1,1", "--updates", "500", "--out", str(out)]
    assert cli_main(argv) == 0
    assert calls == [1.0]
    header, first, second = out.read_text().splitlines()
    assert first == second and first.endswith(",ok")


def test_nu_invariance_tiny_trace_no_crash():
    config = ExperimentConfig(
        arrival_rates=(0.5,),
        service_rates=(1.0,),
        decision_rates=(0.1, 1.0),
        n_updates=100,
        seed=4,
    )
    result = run_nu_invariance(config)
    assert all(row.n_decisions is not None for row in result.rows)


def test_sweep_row_without_a_warmup_averages_from_the_first_departure(monkeypatch):
    base = ExperimentConfig(arrival_rates=(0.5,),
                            service_rates=(1.0,), decision_rates=(1.0,),
                            n_updates=20_000, seed=5)
    default_row = run_sweep(base)[0]
    cut_warmup(monkeypatch, 0)
    no_warm_row = run_sweep(base)[0]
    # dropping the warm-up keeps the transient decisions in the mean, and
    # the decisions ahead of the first departure stay out of it
    assert no_warm_row.n_decisions == default_row.n_decisions
    assert math.isfinite(no_warm_row.empirical_aud)
    assert no_warm_row.empirical_aud != default_row.empirical_aud
    point = _simulate_point(base, 0, SystemParams(0.5, 1.0))
    assert point.warm == 0 and point.edges[0] == point.trace.departure_times[0]
    epochs = poisson_epochs(1.0, point.trace.last_departure,
                            SeededStream(derive_point_seed(5, 0), decision_stream_id(1.0)))
    expected = aud_reference(point, epochs)
    assert no_warm_row.empirical_aud == pytest.approx(expected.mean, rel=1e-9)
    assert no_warm_row.ci_half_width == pytest.approx(expected.half_width, rel=1e-9)
    freshest, _ = decisions_at(point.trace, epochs)
    assert no_warm_row.n_undefined_decisions == (freshest < 0).sum() > 0


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
    config, params = ExperimentConfig(n_updates=50_000, seed=6), SystemParams(0.5, 1.0)
    point = _simulate_point(config, 0, params)
    failed = {c.name for c in _validation_checks(point, SystemParams(1.0, 2.0)) if not c.passed}
    assert "ks_system_time" in failed and "ks_interdeparture" in failed
    # rates 1% off at 1e6 updates: the mean age misses theory by ~6 of its
    # standard errors, which a fixed 1% tolerance on it did not see
    point = _simulate_point(replace(config, n_updates=1_000_000, decision_rates=(0.1, 1.0),
                                    seed=7001), 0, params)
    checks = _validation_checks(point, SystemParams(0.505, 1.01))
    assert "aud_mc_vs_theory" in {c.name for c in checks if c.passed is False}
    checks = _validation_checks(point, params)
    assert all(c.passed for c in checks)
    gated = [c for c in checks if not c.name.startswith(("ks_", "shape_"))]
    assert len(gated) == 10 and all(c.observed <= c.tolerance for c in gated)


def test_validation_default_small_passes():
    report = run_validation(ExperimentConfig(n_updates=100_000, seed=12))
    assert report.passed, report.summary()


def test_validation_full_default_passes(tmp_path):
    # the stock configuration: half load, 1e6 updates, three decision rates
    report = run_validation(ExperimentConfig(output_path=str(tmp_path / "v.csv")))
    # The CSV bytes of ``validate --updates 1000000 --seed 42``, at any thread
    # count.  ROADMAP item 3 found this run byte-identical with numpy's AVX-512
    # dispatch disabled.  A change that declares a byte change updates this
    # hash with it.
    assert hashlib.sha256((tmp_path / "v.csv").read_bytes()).hexdigest() == (
        "91c4b819d771d6cf55de0c4db74c7a413c5c5d768f4337e94308a9a1f0b55a3d")
    assert report.passed, report.summary()
    assert len(report.checks) == 15
    assert all(type(c.passed) is bool for c in report.checks)
    # 1% split over the 10 statistical checks, then over each check's comparisons
    rows = {c.name: c for c in report.checks}
    assert rows["ks_interdeparture"].expected == pytest.approx(0.001)
    assert rows["cross_moment"].tolerance == pytest.approx(z_value(1 - 0.001))
    assert rows["aud_mc_vs_theory"].tolerance == pytest.approx(z_value(1 - 0.001 / 3))
    assert rows["queue_length_distribution"].tolerance == pytest.approx(z_value(1 - 0.001 / 11))


@pytest.mark.parametrize("argv, digest", [
    # the lambda <= 0.4 points draw 2.5e6-1e7 epochs (20-77 blocks), the others fewer
    (["sweep", "--lambda", "0.1:0.9:0.1", "--mu", "1", "--nu", "1", "--updates", "1000000",
      "--seed", "42"], "d007e9114635cf24d7119642a1a7e2725b4371f8dcbde3d0076fff68191896e5"),
    # a window holds about 2.0e6 epochs, 15.3 blocks: the pieces are its blocks,
    # and the block that holds its edge is cut there
    (["validate", "--lambda", "0.01", "--updates", "200000", "--seed", "3"],
     "93f5402dc1b4d07cf33f1cfb1db6129ee7dd09b71dc3e8fa8b70a2dd30e3cb28"),
], ids=["sweep-lambda", "validate-lambda-0.01"])
def test_decision_loop_keeps_the_csv_bytes(tmp_path, argv, digest):
    # The CSV bytes of these runs, at any thread count, as for the default
    # validate run above.  A change that declares a byte change updates this
    # hash with it.
    out = tmp_path / "r.csv"
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    assert set(versions) == {"record", "aud_lab", "source_sha256", "python", "numpy",
                             "cpu_features"}
    # each module's path from the package's parent, NUL, then its bytes, in path order
    package = os.path.dirname(aud_lab.__file__)
    digest = hashlib.sha256()
    for name in sorted(name for name in os.listdir(package) if name.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(f"aud_lab/{name}".encode() + b"\0" + fh.read())
    assert versions["source_sha256"] == digest.hexdigest()
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


def test_validation_of_a_point_without_a_warmup_returns_a_report(monkeypatch, capsys):
    cut_warmup(monkeypatch, 0)
    report = run_validation(ExperimentConfig(n_updates=20_000, seed=8))
    assert len(report.checks) == 15
    assert all(math.isfinite(c.observed) for c in report.checks)
    assert cli_main(["validate", "--updates", "20000", "--seed", "8"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def window_reference(samples, cuts, confidence: float = 0.99) -> EstimateWithCI:
    """Reference: math.fsum of a whole column in each window [cuts[k], cuts[k + 1]), and the ratio CI."""
    sums = [math.fsum(samples[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    return ratio_ci(sums, np.diff(cuts), confidence)


def aud_reference(point, epochs):
    """The mean-age estimate from the full decision columns: a window takes the decisions in (start, end]."""
    _, ages = decisions_at(point.trace, epochs)
    return window_reference(ages, np.searchsorted(epochs, point.edges, side="right"),
                            point.config.confidence)


def update_cuts(point):
    """Where the windows cut the updates but the last: each goes to the window it departs in."""
    cuts = np.searchsorted(point.trace.departure_times, point.edges, side="right")
    return np.minimum(cuts, point.trace.n - 1)


def assert_close(got, want, rel=1e-9):
    assert got.confidence == want.confidence
    assert got.mean == pytest.approx(want.mean, rel=rel, abs=0.0)
    assert got.half_width == pytest.approx(want.half_width, rel=rel, abs=0.0)


def inject(monkeypatch, epochs):
    """Make each block of ``_Point.aud``'s epoch column hold ``epochs`` at its place, then +inf.

    The chain of block tasks runs as it is; only the values a block holds are
    replaced.  Returns the list of the position in ``epochs`` where each
    block starts, filled as the chain runs.
    """
    starts = []

    def block(stream, rate, start, out, carry):
        part = epochs[start:start + len(out)]
        out[:len(part)], out[len(part):] = part, np.inf
        starts.append(start)
        return out

    monkeypatch.setattr(experiments, "_block_epochs", block)
    return starts


def aud_at(point, epochs):
    """``point.aud`` with ``epochs`` in place of the decision epochs it draws."""
    with pytest.MonkeyPatch.context() as patch:
        inject(patch, epochs)
        return point.aud(1.0)


def drawn_epochs(point, nu):
    """The decision epochs ``point.aud(nu)`` draws, as one column."""
    return poisson_epochs(nu, point.trace.last_departure,
                          SeededStream(point.seed, decision_stream_id(nu)))


def column_reference(point, epochs, starts=(), nu=1.0):
    """``point.aud(nu)`` from one whole column of ``epochs``.

    A window's sum adds the ``_age_sum`` of its pieces left to right: the
    window cut at every BLOCK_SIZE-th epoch of the column and at each of
    ``starts``, where a draw continued after falling short of the horizon.
    """
    trace = point.trace
    cuts = np.searchsorted(epochs, point.edges, side="right")
    counts = np.diff(cuts)
    seams = np.array(sorted({*range(0, len(epochs), experiments.BLOCK_SIZE), *starts}))
    sums = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        pieces = [a, *seams[(a < seams) & (seams < b)], b]
        total = 0.0
        for p, q in zip(pieces[:-1], pieces[1:]):
            total += _age_sum(trace, epochs[p:q])
        sums.append(total)
    estimated = int(counts.sum())
    est = ratio_ci(sums, counts, point.config.confidence) if estimated >= 200 else None
    return est, {
        "nu": nu,
        "total": int(np.searchsorted(epochs, trace.last_departure, side="right")),
        "after_warmup": estimated,
        "undefined": int((decisions_at(trace, epochs)[0] < 0).sum()),
        "min_window_decisions": int(counts.min()),
    }


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
    assert batched.mean == pytest.approx(naive.mean, rel=1e-12)


def test_batch_means_requires_enough_samples():
    # a single update leaves no busy indicator, and its windows no time
    point = _simulate_point(ExperimentConfig(n_updates=1, seed=3), 0, SystemParams(0.5, 1.0))
    assert len(set(point.edges)) == 1
    with pytest.raises(InsufficientDataError, match="at least 2 updates"):
        point.windows
    est, counts = point.aud(1.0)
    assert est is None and counts["after_warmup"] == counts["min_window_decisions"] == 0
    # two updates: the warm-up takes the first, and the windows hold no update but the last
    point = _simulate_point(ExperimentConfig(n_updates=2, seed=3), 0, SystemParams(0.5, 1.0))
    windows = point.windows
    assert list(windows.cuts) == [1] * 101 and not windows.counts.any()
    with pytest.raises(InsufficientDataError, match="no samples"):
        ratio_ci(windows.busy, windows.counts)


@pytest.mark.parametrize("seed", [42, 1009])
@pytest.mark.parametrize("regular", [False, True])
def test_batched_aud_estimate_matches_the_whole_column_reference(seed, regular, monkeypatch):
    # Poisson epochs, or evenly spaced ones at gap 1 / nu
    for warmup in (0, 1000):
        cut_warmup(monkeypatch, warmup)
        config = ExperimentConfig(n_updates=100_000, seed=seed)
        point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
        trace = point.trace
        for nu in (0.1, 1.0, 10.0):
            if regular:
                epochs = np.arange(1, math.floor(trace.last_departure * nu) + 1) / nu
            else:
                epochs = drawn_epochs(point, nu)
            with pytest.MonkeyPatch.context() as patch:
                starts = inject(patch, epochs)
                got, counts = point.aud(1.0)
            assert_close(got, aud_reference(point, epochs))
            assert (got, counts) == column_reference(point, epochs, starts)
            cuts = np.searchsorted(epochs, point.edges, side="right")
            assert counts["after_warmup"] == cuts[-1] - cuts[0]
            assert counts["min_window_decisions"] == np.diff(cuts).min() > 0
            assert counts["undefined"] == (decisions_at(trace, epochs)[0] < 0).sum()


def test_aud_estimate_small_branches(monkeypatch):
    # an estimate needs 200 decisions in the windows: 199 give none, 200 give
    # the ratio over the 100 windows, most of them empty
    for warmup in (1500, 0):
        cut_warmup(monkeypatch, warmup)
        config = ExperimentConfig(n_updates=3000, seed=4)
        point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
        epochs = drawn_epochs(point, 1.0)
        start = int(np.searchsorted(epochs, point.edges[0], side="right"))
        assert aud_at(point, epochs[:start + 199])[0] is None
        got, counts = aud_at(point, epochs[:start + 200])
        assert counts["after_warmup"] == 200 and counts["min_window_decisions"] == 0
        assert_close(got, aud_reference(point, epochs[:start + 200]))
        assert math.isfinite(got.half_width)
    # without a warm-up: a single decision behind undefined ones, only undefined
    # decisions, or none; one at the first departure is on the first window's open start
    d0 = float(point.trace.departure_times[0])
    assert point.edges[0] == d0
    single = np.array([0.5 * d0, 0.8 * d0, d0])
    for epochs, undefined in ((single, 2), (single[:2], 2), (np.empty(0), 0)):
        est, counts = aud_at(point, epochs)
        assert est is None and counts["after_warmup"] == 0
        assert counts["total"] == len(epochs) and counts["undefined"] == undefined


def recording_blocks(monkeypatch):
    """Record ``(start, len(out))`` for each block ``_Point.aud`` draws, then draw it."""
    blocks, draw = [], experiments._block_epochs

    def block(stream, rate, start, out, carry):
        blocks.append((start, len(out)))
        return draw(stream, rate, start, out, carry)

    monkeypatch.setattr(experiments, "_block_epochs", block)
    return blocks


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_segmented_decision_epochs_equal_one_whole_column(threads, monkeypatch):
    # at n = 1e5 and nu = 10, 2e6 epochs (15.3 blocks) are 16 blocks of the
    # default size and 62 of 2^15, each a task of the chain
    monkeypatch.setenv("AUD_LAB_THREADS", threads)
    config, params = ExperimentConfig(n_updates=100_000, seed=23), SystemParams(0.5, 1.0)
    blocks = recording_blocks(monkeypatch)
    for size in (distributions.BLOCK_SIZE, 2**15):
        monkeypatch.setattr(experiments, "BLOCK_SIZE", size)
        point = _simulate_point(config, 0, params)
        horizon = point.trace.last_departure
        for nu in (0.1, 1.0, 10.0):
            blocks.clear()
            # the reference: one np.cumsum over the same gaps
            drawn = int(nu * horizon + 10.0 * math.sqrt(nu * horizon) + 16.0)
            column = np.cumsum(exponential_gaps(SeededStream(point.seed, decision_stream_id(nu)),
                                                nu, drawn))
            assert column[-1] > horizon
            got = point.aud(nu)
            assert got == column_reference(point, column[column <= horizon], nu=nu)
            # the chain covers the column once, in blocks at multiples of the size
            assert sorted(blocks) == [
                (a, min(size, drawn - a)) for a in range(0, drawn, size)]
        assert len(blocks) == math.ceil(drawn / size) > 15 * distributions.BLOCK_SIZE / size


def test_decision_buffer_seams_match_the_whole_column(monkeypatch):
    # ~20 evenly spaced epochs and the end edge per window, 50 before the first
    # departure, and none in windows 11-12, 21-22, ..., 91-92.  Over blocks of
    # 4-89 epochs, blocks end exactly on an edge, inside the last window,
    # before the first departure (the undefined decisions span blocks) and
    # just before empty windows; below 21 a window spans blocks.
    cut_warmup(monkeypatch, 0)
    config = ExperimentConfig(n_updates=2000, seed=4)
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
    edges = point.edges
    grid = np.concatenate((np.linspace(0.0, edges[0], 52)[1:-1],
                           np.linspace(0.0, edges[-1], 2001)[1:], edges[1:]))
    window = np.searchsorted(edges, grid, side="left")  # (edges[w - 1], edges[w]]
    epochs = np.sort(grid[(window % 10 != 1) & (window % 10 != 2) | (window < 10)])
    want = column_reference(point, epochs)
    assert want[1]["undefined"] >= 50
    assert np.diff(np.searchsorted(epochs, edges, side="right")).max() > 16
    seen = set()
    for size in range(4, 90):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "BLOCK_SIZE", size)
            inject(patch, epochs)
            got = point.aud(1.0)
            assert got == column_reference(point, epochs), size
        assert got[1] == want[1]
        # the last epoch of each block but the column's last
        ends = epochs[np.arange(size, len(epochs), size) - 1]
        after = np.append(epochs, np.inf)[np.searchsorted(epochs, ends, side="right")]
        skipped = np.searchsorted(edges, after) - np.searchsorted(edges, ends)
        seen |= {case for case, hit in (
            ("on an edge", np.isin(ends, edges).any()),
            ("in the last window", (ends > edges[-2]).any()),
            ("before the first departure", (ends < edges[0]).any()),
            ("before empty windows", (skipped >= 2).any())) if hit}
    assert len(seen) == 4, seen


def within(seconds, fn, *args):
    """``fn(*args)`` on a daemon thread: its result or error; a failure past ``seconds``."""
    outcome = {}

    def run():
        try:
            outcome["result"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - handed back to the caller
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_failing_decision_block_fails_the_chain_instead_of_hanging(threads, monkeypatch):
    # nu = 10 over 4e4 time units draws 4.1e5 epochs in 4 blocks; the third
    # block drawn raises
    monkeypatch.setenv("AUD_LAB_THREADS", threads)
    point = _simulate_point(ExperimentConfig(n_updates=20_000, seed=6), 0, SystemParams(0.5, 1.0))
    want, draw, calls = point.aud(10.0), distributions._draw_block, itertools.count()

    def failing(key, start, out, rate):
        if next(calls) == 2:
            raise RuntimeError("the third block")
        return draw(key, start, out, rate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "_draw_block", failing)
        with pytest.raises(RuntimeError, match="the third block"):
            within(60, point.aud, 10.0)
    # the pool is still free: the same call now runs through
    assert within(60, point.aud, 10.0) == want


@pytest.mark.parametrize("threads", ["1", "3"])
def test_concurrent_callers_share_the_pool(threads, monkeypatch):
    # four callers' chains of about 100 blocks of 2^12 epochs interleave in the
    # pool's FIFO, on one thread and on more threads than cores; each block
    # waits only on the one before it in its own chain, so all finish with
    # the results of sequential calls, a repeated rate's too
    monkeypatch.setenv("AUD_LAB_THREADS", threads)
    monkeypatch.setattr(experiments, "BLOCK_SIZE", 2**12)
    point = _simulate_point(ExperimentConfig(n_updates=20_000, seed=6), 0, SystemParams(0.5, 1.0))
    rates = (10.0, 4.0, 10.0, 1.0)
    want = [point.aud(nu) for nu in rates]
    barrier = threading.Barrier(len(rates))

    def at_once(nu):
        barrier.wait()
        return point.aud(nu)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(rates)) as callers:
            got = list(callers.map(at_once, rates, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("threads", ["1", "2"])
def test_default_blocks_after_small_blocks_match_the_column(threads, monkeypatch):
    # a run with small blocks on a new pool, then one at the default size on
    # the same threads: the second must draw whole default-size blocks
    monkeypatch.setenv("AUD_LAB_THREADS", threads)
    point = _simulate_point(ExperimentConfig(n_updates=20_000, seed=9), 0, SystemParams(0.5, 1.0))
    # a new pool, whose threads have run no block yet; the old one comes back after
    monkeypatch.setattr(distributions, "_pool", None)
    monkeypatch.setattr(distributions, "_pool_workers", 0)
    with pytest.MonkeyPatch.context() as patch:
        for module in (distributions, experiments):
            patch.setattr(module, "BLOCK_SIZE", 64)
        point.aud(1.0)
    horizon = point.trace.last_departure
    column = drawn_epochs(point, 10.0)
    assert len(column) > distributions.BLOCK_SIZE
    assert point.aud(10.0) == column_reference(point, column[column <= horizon], nu=10.0)


def test_sweep_points_reuse_one_pair_of_trace_columns(tmp_path, monkeypatch):
    # every simulated point writes its trace into the same two columns, and
    # the rows are those of points simulated into columns of their own
    config = ExperimentConfig(arrival_rates=(0.3, 0.6, 1.5, 0.9), decision_rates=(1.0, 4.0),
                              n_updates=20_000, seed=5)
    fresh = run_sweep(config)
    columns, simulate = [], experiments.simulate

    def recorded(params, n, seed, out=None):
        columns.append(out)
        return simulate(params, n, seed, out)

    monkeypatch.setattr(experiments, "simulate", recorded)
    assert run_sweep(config) == fresh
    assert len(columns) == 3 and all(c is columns[0] for c in columns)
    assert [len(c) for c in columns[0]] == [20_000, 20_000]


def test_batch_means_over_slices_match_the_whole_column(monkeypatch):
    # the busy indicator and the cross moment of validate, window by window
    # from slices of the trace, against math.fsum over the whole columns
    for lam, seed, warmup in ((0.5, 21, None), (0.9, 22, None), (0.5, 23, 0)):
        cut_warmup(monkeypatch, warmup)
        config = ExperimentConfig(n_updates=100_000, seed=seed)
        point = _simulate_point(config, 0, SystemParams(lam, 1.0))
        trace, cuts, windows = point.trace, update_cuts(point), point.windows
        assert cuts[0] == point.warm + (warmup == 0) and cuts[-1] == trace.n - 1
        assert np.array_equal(windows.cuts, cuts)
        assert np.array_equal(windows.counts, np.diff(cuts))
        busy = arrivals_seeing_busy(trace).astype(float)
        assert_close(ratio_ci(windows.busy, windows.counts), window_reference(busy, cuts))
        prod = trace.system_times[:-1] * trace.interdeparture_times
        assert_close(ratio_ci(windows.products, windows.counts), window_reference(prod, cuts))


def test_within_gates_the_worst_se_ratio():
    z99 = z_value(0.99)
    a, b, c = (EstimateWithCI(m, se * z99) for m, se in ((1.0, 0.5), (2.0, 0.25), (0.0, 1.0)))
    # theory 1: |mean - 1| / se = 0, 4, 1; an infinite SE admits any mean
    assert _within([a, b, c], 1.0, 0.01, "d") == (False, 4.0, 0.0, z_value(1.0 - 0.01 / 3), "d")
    assert _within([a, c], [1.0, 0.0], 0.01)[:2] == (True, 0.0)
    assert _within([EstimateWithCI(9.0, math.inf)], 1.0, 0.01)[:2] == (True, 0.0)
    assert _within([EstimateWithCI(0.5, 0.0)], 0.0, 0.01)[:2] == (False, math.inf)
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
    simulate_point, lock = experiments._simulate_point, threading.Lock()
    in_flight = most = 0

    def counted(*args):
        nonlocal in_flight, most
        with lock:
            in_flight += 1
            most = max(most, in_flight)
        try:
            time.sleep(0.05)  # time for another point to start, if one could
            return simulate_point(*args)
        finally:
            with lock:
                in_flight -= 1

    monkeypatch.setattr(experiments, "_simulate_point", counted)
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
    assert [point.estimates[nu][1]["after_warmup"] for nu in config.decision_rates] == [199, 200]
    out = tmp_path / "nu.csv"
    code = cli_main(["nu-invariance", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[-1] == (
        "SKIP  fewer than two distinct decision rates have an estimate")
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert [r[4:6] == ["", ""] for r in rows] == [True, False]
    # no decision at nu = 1e-4 falls on this short trace
    code = cli_main(["nu-invariance", "--nu", "0.0001,1", "--updates", "100", "--out", str(out)])
    assert code == 0 and capsys.readouterr().out.startswith("SKIP")
    # a repeated rate reads one estimate, so it names no second rate
    code = cli_main(["nu-invariance", "--nu", "1,1", "--updates", "20000", "--out", str(out)])
    assert code == 0 and capsys.readouterr().out.splitlines() == [
        "nu=1: mean age 3.48722 +/- 0.0828937",
        "SKIP  fewer than two distinct decision rates have an estimate"]


def test_cli_error_paths(tmp_path, capsys):
    code = cli_main(["validate", "--lambda", "1.5", "--mu", "1.0", "--updates", "1000"])
    assert code == 2
    assert "error" in capsys.readouterr().err
    # nu-invariance refuses a point without a steady state, as validate does
    for lam in ("0.9999999999", "1.5"):
        argv = ["nu-invariance", "--lambda", lam, "--mu", "1", "--nu", "1,2", "--updates", "1000"]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: utilization {float(lam)!r} is not safely below 1\n"


def test_cli_bad_rate_exits_2(capsys):
    code = cli_main(["validate", "--lambda", "abc", "--updates", "1000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'abc'" in err and err.count("\n") == 1
    # a malformed number in any flag exits 2 with one line naming the setting
    for flag, text, noun in (("--updates", "1e6", "an integer"), ("--seed", "x", "an integer"),
                             ("--confidence", "abc", "a number")):
        assert cli_main(["validate", flag, text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag[2:]} must be {noun}, got {text!r}\n"
    # an empty rate flag is refused, not taken for the default rate
    for flag in ("--lambda", "--mu", "--nu"):
        rates = {"--lambda": "0.5", "--mu": "1", "--nu": "1", flag: ""}  # each flag once
        argv = ["sweep", "--updates", "1000", *itertools.chain.from_iterable(rates.items())]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "must not be empty" in err


def test_cli_non_integer_config_value_exits_2(capsys):
    # an integer setting refuses a float text, even one that names a whole number
    for text in ("1e6", "2000.0", "1.5"):
        assert cli_main(["validate", "--lambda", "0.5", "--updates", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: updates must be an integer, got {text!r}\n"


def test_cli_blank_output_path_exits_2(capsys):
    # a blank path would run and write nothing; it is refused as an empty rate is
    for flags in (["--out", ""], ["--out", " "]):
        assert cli_main(["validate", "--updates", "1000", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: output_path must not be blank, got ''\n"
    with pytest.raises(ParameterError, match="must not be blank"):
        ExperimentConfig(output_path=" ")


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
                         ("0.1:0.9:1e-12", "holds about 8e+11 rates; the cap is 1048576"),
                         ("1e-300:1e300:1e-300", "holds about inf rates")):
        assert cli_main(["sweep", f"--lambda={text}", "--updates", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and reason in err and repr(text) in err
    for rate in (math.nextafter(2.0**-64, 0.0), math.nextafter(2.0**64, math.inf)):
        with pytest.raises(ParameterError):
            ExperimentConfig(decision_rates=(rate,))


def test_grids_over_the_row_cap_are_refused_before_they_are_built():
    assert experiments.MAX_ROWS == 2**20
    # one rate more than the cap, refused on its count
    with pytest.raises(ParameterError, match="holds about 1.05e[+]06 rates; the cap is 1048576"):
        parse_rates("1:1048577:1")
    assert len(parse_rates("1:1048576:1")) == 2**20
    # 1025 * 1024 points of 3 rows each, refused before the per-point loop
    with pytest.raises(ParameterError, match="the grid holds 3148800 rows; the cap is 1048576"):
        ExperimentConfig(arrival_rates=parse_rates("1:1025:1"),
                         service_rates=parse_rates("1:1024:1"))


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


@pytest.mark.parametrize("line", ["allow_unstable = true", "periodic_decisions = true",
                                  "mode = nonsense", "mode = validate", "n_updates = 3000",
                                  "output = o.csv", "warmup = 0", "config = x.cfg"])
def test_cli_removed_config_keys_exit_2(capsys, line):
    # the verb is the mode, each setting has one flag, and no file holds settings
    key, _, value = line.partition(" = ")
    for verb in ("sweep", "nu-invariance", "validate"):
        with pytest.raises(SystemExit) as exc:
            cli_main([verb, "--updates", "2000", f"--{key}", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: --{key} {value}" in err


@pytest.mark.parametrize("flags, error", [
    # the second --lambda replaced the first, so one point ran unasked
    (["--lambda", "0.5", "--lambda", "0.6"],
     "aud-lab {verb}: error: argument --lambda: may be given only once"),
    # --lamb and --conf ran as --lambda and --confidence
    (["--lamb", "0.3", "--conf", "0.9"],
     "aud-lab: error: unrecognized arguments: --lamb 0.3 --conf 0.9"),
], ids=["repeated", "abbreviated"])
@pytest.mark.parametrize("verb", ["sweep", "nu-invariance", "validate"])
def test_cli_repeated_or_abbreviated_flag_exits_2(verb, flags, error, tmp_path, capsys):
    # the manifest's config record is the flags as typed, so each is typed once and in full
    with pytest.raises(SystemExit) as exc:
        cli_main([verb, *flags, "--nu", "1,2", "--updates", "2000",
                  "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: aud-lab ")
    assert [line for line in err.splitlines() if "error:" in line] == [error.format(verb=verb)]
    assert list(tmp_path.iterdir()) == []


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


def test_the_decision_cap_rate_holds_one_block_per_pool_thread(monkeypatch):
    # a run within MAX_COLUMN expects at most MAX_COLUMN / AUD_BATCHES decisions
    # per window over its expected horizon (2.7e6, 20.5 blocks); three such
    # windows of real draws hold at most one block per pool thread at a time,
    # and the bookkeeping of BLOCKS_AHEAD_PER_THREAD blocks per thread.
    monkeypatch.setenv("AUD_LAB_THREADS", "2")
    rate = experiments.MAX_COLUMN / experiments.AUD_BATCHES
    # a hand-built point: three windows of length 1 from its first departure
    trace = UpdateTrace(np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5, 3.5]))
    point = experiments._Point(ExperimentConfig(), 9, trace, 0, 0.0,
                               np.array([0.5, 1.5, 2.5, 3.5]))
    counts, ratio = [], experiments.ratio_ci

    def window_ratio(sums, window_counts, confidence):
        counts.extend(window_counts)
        return ratio(sums, window_counts, confidence)

    monkeypatch.setattr(experiments, "ratio_ci", window_ratio)
    want = point.aud(rate)
    blocks = recording_blocks(monkeypatch)
    counts.clear()
    tracemalloc.start()
    try:
        got = point.aud(rate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want and want[0] is not None
    assert len(counts) == 3 and all(abs(c - rate) < 5.0 * math.sqrt(rate) for c in counts)
    assert len(blocks) >= 60
    assert peak <= distributions.worker_limit() * distributions.BLOCK_SIZE * 8 + 2**18, peak


def test_the_decision_bookkeeping_does_not_grow_with_the_block_count(monkeypatch):
    # 31 and 121 blocks of one hand-built point: each block's queued task,
    # carry future, counts and pieces (about 4 KiB) is let go once the block
    # is added, so the traced peak beyond the blocks' arrays is the same
    monkeypatch.setenv("AUD_LAB_THREADS", "2")
    trace = UpdateTrace(np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5, 3.5]))
    point = experiments._Point(ExperimentConfig(), 9, trace, 0, 0.0,
                               np.array([0.5, 1.5, 2.5, 3.5]))
    point.aud(1.0)  # starts the pool's threads before tracing
    blocks, peaks = recording_blocks(monkeypatch), []
    for per_unit in (30, 120):
        blocks.clear()
        tracemalloc.start()
        try:
            est, _ = point.aud(per_unit * distributions.BLOCK_SIZE / 3.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est is not None and len(blocks) > per_unit
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 2**15, peaks


def test_no_decision_block_outlives_aud(monkeypatch):
    # 4e6 epochs at nu = 40 (31 blocks) on a new pool: the arrays the blocks
    # are drawn into are freed when aud returns, and neither the pool's
    # threads nor the module keep one
    monkeypatch.setenv("AUD_LAB_THREADS", "2")
    config = ExperimentConfig(decision_rates=(40.0,), n_updates=50_000, seed=3)
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
    monkeypatch.setattr(distributions, "_pool", None)
    monkeypatch.setattr(distributions, "_pool_workers", 0)
    arrays, draw = [], experiments._block_epochs

    def block(stream, rate, start, out, carry):
        arrays.append(weakref.ref(out.base))
        return draw(stream, rate, start, out, carry)

    monkeypatch.setattr(experiments, "_block_epochs", block)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        est, _ = point.aud(40.0)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est is not None and len(arrays) > 30
    assert after - before <= 2**16, after - before
    assert all(array() is None for array in arrays)


def test_cli_refuses_oversized_runs_and_a_validate_grid(tmp_path, capsys):
    # each used to end in a numpy memory error or, for the grid, to validate
    # its first point alone
    for argv, reason in (
        (["validate", "--updates", "100000000000"], "100000000000 updates exceed the cap"),
        (["sweep", "--lambda", "1e-12", "--mu", "1", "--nu", "1", "--updates", "1000"],
         "decision rate 1.0 at lambda=1e-12, mu=1.0 draws about 1e+15 decisions"),
        (["validate", "--lambda", "0.3,0.5", "--mu", "1", "--updates", "5000"],
         "validate runs a single (lambda, mu) point"),
        (["nu-invariance", "--nu", "1", "--updates", "5000"],
         "nu_invariance needs at least two decision rates"),
        # epochs near the horizon lie 16 or more mean service times apart, so a
        # correct simulator failed ks_system_time and cross_moment here
        (["validate", "--lambda", "1e-12", "--mu", "1", "--nu", "1e-12", "--updates", "100000"],
         "100000 updates at lambda=1e-12, mu=1.0 span about 1e+17 mean service times"),
        (["sweep", "--lambda", "1e-19", "--mu", "1", "--nu", "1e-19", "--updates", "100"],
         "100 updates at lambda=1e-19, mu=1.0 span about 1e+21 mean service times"),
        # nu * n / lambda = 2^28 passes the cap, but this trace's horizon is 11.3,
        # not the expected 4: the run drew 7.56e8 decisions
        (["validate", "--updates", "2", "--lambda", "0.5", "--nu", "67108864", "--seed", "43"],
         "decision rate 67108864.0 over the simulated horizon 11.270391452682043 draws about "
         "7.56e+08 decisions"),
    ):
        out = tmp_path / "out.csv"
        # a flag is given once: a seed in ``argv`` takes the place of seed 1
        seeded = argv if "--seed" in argv else [*argv, "--seed", "1"]
        assert cli_main([*seeded, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and reason in captured.err
        assert not out.exists() and not os.path.exists(manifest_path_for(str(out)))
    # 2e8 decisions at nu = 10 stay within the cap of 2^28
    assert experiments.MAX_COLUMN == 2**28
    ExperimentConfig(arrival_rates=(0.01,), n_updates=200_000, seed=3)
    # n * mu / lambda = 1e12 stays within the cap of 2^40
    ExperimentConfig(arrival_rates=(1e-7,), decision_rates=(1e-7,), n_updates=100_000)


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
    low, high = run_sweep(config)
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


def ks_samples_reference(point, params):
    """The K-S samples of a point simulated at ``params``, as views of the full-length columns."""
    trace, warm = point.trace, point.warm
    lag = decorrelation_lag(params.utilization)
    return (lag, trace.system_times[warm:][::lag][:experiments.KS_MAX_SAMPLES],
            trace.interdeparture_times[warm:][:experiments.KS_MAX_SAMPLES])


@pytest.mark.parametrize("cap", [None, 700])
def test_ks_samples_from_column_slices(cap, monkeypatch):
    if cap:  # the cap binds on both samples
        monkeypatch.setattr(experiments, "KS_MAX_SAMPLES", cap)
    params = SystemParams(0.5, 1.0)
    for n, warmup in ((30_000, None), (30_000, 0), (5000, 4998), (2, 1), (1, None), (1, 0)):
        cut_warmup(monkeypatch, warmup)
        config = ExperimentConfig(n_updates=n, seed=4)
        point = _simulate_point(config, 0, params)
        ref_lag, ref_thinned, ref_gaps = ks_samples_reference(point, params)
        assert point.lag == ref_lag
        assert np.array_equal(point.thinned, ref_thinned)
        assert np.array_equal(point.gaps, ref_gaps)
        # no full-length buffer kept
        assert point.thinned.base is None and point.gaps.base is None
    assert len(point.gaps) == 0 and len(point.thinned) == 1  # n - warm = 1: no departure gap


def test_trace_checks_keep_the_arithmetic_of_the_whole_columns():
    config = ExperimentConfig(n_updates=100_000, seed=21)
    params = SystemParams(0.5, 1.0)
    point = _simulate_point(config, 0, params)
    trace = point.trace
    checks = {c.name: c for c in _validation_checks(point, params)}
    alpha = (1.0 - config.confidence) / 10

    def row(check, *gate):
        want = _within(*gate)
        assert check(point, params, alpha) == want
        got = checks[check.__name__]
        assert (got.passed, got.observed, got.expected, got.tolerance, got.detail) == want

    # a window of a whole column sums as the window's own column does
    cuts = update_cuts(point)

    def by_window(column):
        sums = [column[a:b].sum() for a, b in zip(cuts[:-1], cuts[1:])]
        return ratio_ci(sums, np.diff(cuts), config.confidence)

    prod = trace.system_times[:-1] * trace.interdeparture_times
    theory = analytic.cross_moment_system_interdeparture(params)
    row(experiments.cross_moment, [by_window(prod)], theory, alpha, f"theory={theory:.6g}")
    busy = arrivals_seeing_busy(trace).astype(float)
    assert np.array_equal(busy, np.diff(trace.arrival_times) < trace.system_times[:-1])
    row(experiments.prob_busy_on_arrival, [by_window(busy)], params.utilization, alpha)
    edges = np.linspace(point.warm_epoch, trace.last_departure, 101)
    assert np.array_equal(edges, point.edges)
    per_batch = np.array([occupancy(trace, 6, a, b) for a, b in zip(edges, edges[1:])])
    per_batch = np.column_stack((per_batch, 1.0 - per_batch.sum(axis=1)))
    pi = analytic.stationary_queue_dist(params, 10)
    row(experiments.queue_length_distribution,
        [mean_ci(level, config.confidence) for level in per_batch.T],
        np.append(pi[:7], 1 - pi[:7].sum()), alpha, "levels 0-6 and >= 7")


def test_each_check_alone_on_a_fresh_point_gives_its_validate_row():
    # a check reads only its point, the rates and alpha, so it gives the same
    # row in any order, run alone on a point simulated afresh
    config = ExperimentConfig(n_updates=20_000, seed=7)
    report = run_validation(config)
    assert [c.name for c in report.checks] == [check.__name__ for check, _ in CHECKS]
    rows = {c.name: c.as_csv() for c in report.checks}
    alpha = (1.0 - config.confidence) / sum(not exact for _, exact in CHECKS)
    params = SystemParams(0.5, 1.0)
    for check, _ in reversed(CHECKS):
        passed, *rest = check(_simulate_point(config, 0, params), params, alpha)
        assert CheckResult(check.__name__, bool(passed), *rest).as_csv() == rows[check.__name__]


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


def test_checks_read_the_trace_only_through_the_window_table():
    # once the table is built, a trace of zeros of the same length leaves every row as it was
    config, params = ExperimentConfig(n_updates=20_000, seed=7), SystemParams(0.5, 1.0)
    point = _simulate_point(config, 0, params)
    rows = [c.as_csv() for c in _validation_checks(point, params)]
    assert "windows" in vars(point) and "skipped" not in "".join(rows)
    zeros = np.zeros(point.trace.n)
    object.__setattr__(point, "trace", UpdateTrace(zeros, zeros))
    assert [c.as_csv() for c in _validation_checks(point, params)] == rows


def test_one_point_is_judged_at_other_rates_without_a_copy(monkeypatch):
    # the rates are an argument of every judge: one point judged at its own
    # rates and at 1% off builds its window table once (a copy of the point
    # per oracle built it again), draws no decision and keeps every field
    config, params = ExperimentConfig(n_updates=20_000, seed=7), SystemParams(0.5, 1.0)
    point = _simulate_point(config, 0, params)
    measured = {f.name: getattr(point, f.name) for f in fields(point)}
    calls = []

    def counted(*args):
        calls.append(args)
        return occupancy(*args)

    monkeypatch.setattr(experiments, "occupancy", counted)
    blocks = recording_blocks(monkeypatch)
    own = [c.as_csv() for c in _validation_checks(point, params)]
    wrong = [c.as_csv() for c in _validation_checks(point, SystemParams(0.505, 1.01))]
    assert len(calls) == experiments.AUD_BATCHES and blocks == []
    assert all(getattr(point, name) is value for name, value in measured.items())
    assert own == [c.as_csv() for c in run_validation(config).checks] != wrong


def test_every_check_survives_the_ties_of_a_long_run(monkeypatch):
    # Late in a long run a gap below half a double's step rounds away: an idle
    # update departs at its own arrival epoch, and arrivals or departures tie.
    params = SystemParams(0.5, 1.0)
    trace = simulate(params, 20_000, 5)
    arr, dep = trace.arrival_times.copy(), trace.departure_times.copy()
    idle = np.flatnonzero(arr[1:] > dep[:-1]) + 1  # arrive to an empty system
    busy = np.flatnonzero(arr[1:] < dep[:-1]) + 1  # arrive before the one ahead departs
    i = idle[idle > 5000][0]
    dep[i] = arr[i]
    arr[8001] = arr[8000]
    b = busy[busy > 11_000][0]
    dep[b] = dep[b - 1]
    tied = UpdateTrace(arr, dep)
    # an idle update departs at its own arrival epoch: departures first, the merge shows level -1
    assert tied.departure_times[i] == tied.arrival_times[i] > tied.departure_times[i - 1]
    assert (np.diff(arr) == 0).sum() == 1 and (np.diff(dep) == 0).sum() == 1
    monkeypatch.setattr(experiments, "simulate", lambda *args: tied)
    config = ExperimentConfig(n_updates=20_000, seed=5)
    point = _simulate_point(config, 0, params)
    alpha = (1.0 - config.confidence) / sum(not exact for _, exact in CHECKS)
    for check, _ in CHECKS:
        try:
            passed, *numbers = check(point, params, alpha)
        except InsufficientDataError:
            continue
        assert isinstance(passed, (bool, np.bool_)) and len(numbers) in (3, 4)
    assert all(c.passed for c in _validation_checks(point, params))


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
    monkeypatch.setattr(experiments, "occupancy", on_caller(experiments.occupancy))
    report = run_validation(ExperimentConfig(n_updates=20_000, seed=7))
    assert not any(check.passed is None for check in report.checks)
    # the batch means of three decision rates, each a chain of block tasks,
    # then the occupancy levels of each window, in a plain loop as the busy
    # indicator, cross moment and sawtooth windows are
    assert sorted(name for name, _ in threads) == ["aud"] * 3 + ["occupancy"] * 100
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
# in-flight work (a Philox counter block or a block of decision epochs): none
# measurable at this size, where the 4e6 nu = 10 epochs pass through one 1 MiB
# array per pool thread.  A merged path of all 2n events would add 25-35%.
THREADS_RSS_MARGIN = 0.12


def peak_rss_kib(tmp_path, *argv, threads="2"):
    """Peak RSS in KiB of ``aud-lab validate argv`` in a child process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aud_lab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF_VALIDATE, "validate", *argv,
         "--out", str(tmp_path / "v.csv")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src, "AUD_LAB_THREADS": threads},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def test_validate_peak_memory_with_two_threads_stays_near_one_thread(tmp_path):
    peaks = {threads: peak_rss_kib(tmp_path, "--updates", "200000", "--seed", "3",
                                   threads=threads) for threads in ("1", "2")}
    assert peaks["2"] <= (1.0 + THREADS_RSS_MARGIN) * peaks["1"], peaks


def test_validate_peak_memory_with_four_threads_stays_near_one_thread(tmp_path):
    # At 1e6 updates one thread peaks in the checks, after its decisions, at
    # about 57 MiB.  Four threads peak while a rate is drawn: their three more
    # 1 MiB decision arrays lift the peak by about 1.5 MiB.  The other 0.5 MiB
    # allowed is less than the occupancy windows' temporaries kept in the pool
    # threads' own malloc arenas when the windows ran on the pool (+4.1 MB).
    peaks = {threads: peak_rss_kib(tmp_path, "--updates", "1000000", threads=threads)
             for threads in ("1", "4")}
    assert peaks["4"] <= peaks["1"] + 2048, peaks


def test_validate_peak_memory_does_not_grow_with_the_decision_count(tmp_path):
    # At lambda = 0.01 the nu = 10 epochs would fill a 160 MB column, at 0.5 a
    # 3.2 MB one; the trace is the same size.  The two pool threads' decision
    # blocks (1 MiB each) and an eighth of them for temporaries bound the
    # difference.
    peaks = {lam: peak_rss_kib(tmp_path, "--lambda", lam, "--updates", "20000", "--seed", "3")
             for lam in ("0.5", "0.01")}
    assert peaks["0.01"] <= peaks["0.5"] + 2 * distributions.BLOCK_SIZE * 8 * 9 // 8 // 1024, peaks


def test_decision_epochs_hold_one_block_per_pool_thread(monkeypatch):
    # 4e6 epochs at nu = 40 (31 blocks) pass through one block-sized array
    # per pool thread; each task's temporaries (its window pieces and their
    # searches of about 1600 departures) fit in the slack, where a column of
    # the epochs would add 32 MB
    monkeypatch.setenv("AUD_LAB_THREADS", "2")
    config = ExperimentConfig(decision_rates=(40.0,), n_updates=50_000, seed=3)
    point = _simulate_point(config, 0, SystemParams(0.5, 1.0))
    tracemalloc.start()
    try:
        est, counts = point.aud(40.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est is not None and counts["total"] > 30 * distributions.BLOCK_SIZE
    assert peak <= distributions.worker_limit() * distributions.BLOCK_SIZE * 8 + 2**18, peak


def test_validation_checks_hold_no_column_beyond_the_trace(monkeypatch):
    # The trace (16 bytes per update) is built before tracing starts.  At nu =
    # 0.01 the decision epochs are few, so measuring the point and running its
    # checks peaks at their slices and K-S samples: about 3.1 bytes per update.
    # A system-time column for the sawtooth would add 8.
    n = 2_000_000
    config = ExperimentConfig(decision_rates=(0.01,), n_updates=n, seed=3)
    params = SystemParams(0.5, 1.0)
    trace = simulate(params, n, derive_point_seed(3, 0))
    monkeypatch.setattr(experiments, "simulate", lambda *args: trace)
    tracemalloc.start()
    try:
        _validation_checks(_simulate_point(config, 0, params), params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * n, peak / n
