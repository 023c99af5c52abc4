"""Tests of the benchmark itself: the row checker, the determinism contract it
relies on, the tracer, and agreement with BENCHMARK.json.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import jamsim.channel
import jamsim.estimation
import jamsim.montecarlo
import oracle
import run
from tracer import Tracer

SMALL = run.Workload("fig3", 20, 1)


def _ideal_rows(checker):
    """Rows that sit exactly on the oracle (conventional) or inside the bounds."""
    rows = []
    for (axis, value, scheme), (cfg, mean, ceiling) in checker.expected.items():
        if scheme == "conventional":
            rate, n_used = mean, 1.0
        else:
            rate, n_used = ceiling / 2, 1.5
        rows.append(oracle.Row(axis, value, scheme, rate, 0.01, n_used,
                               checker.n_trials, checker.seed))
    return rows


@pytest.fixture(scope="module")
def cli():
    return run.load_jamsim()


@pytest.fixture(scope="module")
def fig2_checker():
    return oracle.RowChecker("fig2", 200, 7)


def test_checker_accepts_rows_on_the_oracle(fig2_checker):
    rows = _ideal_rows(fig2_checker)
    assert len(rows) == 60
    assert fig2_checker.check(rows) == []


def test_checker_flags_a_row_five_stderr_off(fig2_checker):
    rows = _ideal_rows(fig2_checker)
    i = next(i for i, r in enumerate(rows) if r.scheme == "conventional")
    rows[i] = dataclasses.replace(rows[i], mean_rate=rows[i].mean_rate + 5 * rows[i].stderr)
    failures = fig2_checker.check(rows)
    assert len(failures) == 1 and "quadrature oracle" in failures[0]


@pytest.mark.parametrize("scheme", ["conventional", "alg1", "alg2"])
def test_checker_flags_a_nan_row(fig2_checker, scheme):
    rows = _ideal_rows(fig2_checker)
    i = next(i for i, r in enumerate(rows) if r.scheme == scheme)
    rows[i] = dataclasses.replace(rows[i], mean_rate=math.nan)
    assert len(fig2_checker.check(rows)) == 1


def test_checker_flags_bounds_and_missing_rows(fig2_checker):
    rows = _ideal_rows(fig2_checker)
    alg = [i for i, r in enumerate(rows) if r.scheme != "conventional"]
    rows[alg[0]] = dataclasses.replace(rows[alg[0]], mean_n_used=2.5)
    rows[alg[1]] = dataclasses.replace(rows[alg[1]], mean_rate=-0.1)
    del rows[-1]
    assert len(fig2_checker.check(rows)) == 3


def test_quadrature_oracle_matches_a_finer_rule():
    from jamsim.config import SystemConfig
    from jamsim.rates import rate_from_overlap

    cfg = SystemConfig(M=50, T=200, tau=4, P=10.0, Q=10.0)
    # Simpson's rule for E[rate(t / tau)], t ~ Exp(1), on [0, 60] with step 0.01
    t = np.linspace(0.0, 60.0, 6001)
    g = np.array([rate_from_overlap(cfg, v / cfg.tau, 1).rate for v in t]) * np.exp(-t)
    fine = (t[1] - t[0]) / 3 * (g[0] + g[-1] + 4 * g[1:-1:2].sum() + 2 * g[2:-1:2].sum())
    assert oracle.conventional_oracle(cfg) == pytest.approx(fine, abs=1e-6)


def test_small_run_passes_the_checker(cli, tmp_path):
    p = run.run_pass(cli, run.preset_argv(SMALL, 7, tmp_path / "rows.csv"))
    assert p.error is None
    assert oracle.RowChecker("fig3", SMALL.trials, 7).check(p.rows) == []
    assert len(p.row_s) == len(p.rows) == 27
    assert len(p.slice_s) == 28 and all(h > 0 for h in p.slice_s)
    assert 0 < p.trials_per_s(True) and 0 < run.time_to_se_s([p], True)


def test_timings_scale_to_the_reference_host_speed():
    row = oracle.Row("M", 10.0, "conventional", 1.0, 0.02, 1.0, 100, 1)
    p = run.Pass(3.0, [row, row], [1.0, 2.0], slice_s=[2 * run.REF_SLICE_S] * 3)
    # on a host at half the reference speed every timing halves
    assert p.row_seconds(True) == [0.5, 1.0]
    assert p.trials_per_s(False) == pytest.approx(200 / 3.0)
    assert p.trials_per_s(True) == pytest.approx(200 / 1.5)
    assert run.time_to_se_s([p], False) == pytest.approx(3.0 * (0.02 / run.TARGET_STDERR) ** 2)
    assert run.time_to_se_s([p], True) == pytest.approx(1.5 * (0.02 / run.TARGET_STDERR) ** 2)
    p.slice_s = [run.REF_SLICE_S, 3 * run.REF_SLICE_S, run.REF_SLICE_S]
    assert p.row_seconds(True) == [0.5, 1.0]


def test_time_to_se_pools_the_variance_over_seeds():
    def one_row_pass(seed, stderr, row_s):
        row = oracle.Row("M", 10.0, "conventional", 1.0, stderr, 1.0, 100, seed)
        return run.Pass(row_s, [row], [row_s])

    passes = [one_row_pass(1, 0.01, 1.0), one_row_pass(2, 0.03, 2.0),
              one_row_pass(1, 0.01, 6.0)]
    # median row time 2 s; stderr^2 averaged over seeds 1 and 2, not over passes
    assert run.time_to_se_s(passes, False) == pytest.approx(2.0 * (1 + 9) / 2)


def test_setup_probe_prints_set_up_and_slice_seconds(tmp_path):
    argv = run.preset_argv(run.WORKLOADS["fig2"], 1, tmp_path / "rows.csv")
    ((setup_s, slice_s),) = run.setup_samples(argv, 1)
    assert 0 < setup_s < 60 and 0 < slice_s < 1


def test_two_workers_give_the_serial_rows(cli, tmp_path):
    serial = run.run_pass(cli, run.preset_argv(SMALL, 3, tmp_path / "serial.csv"))
    pooled = run.run_pass(cli, run.preset_argv(dataclasses.replace(SMALL, threads=2), 3,
                                               tmp_path / "pooled.csv"))
    assert serial.error is None and pooled.error is None
    assert pooled.rows == serial.rows


def test_traced_rows_equal_untraced_rows(cli, tmp_path):
    originals = {name: getattr(jamsim.estimation, name) for name in ("crandn", "run_training")}
    plain = run.run_pass(cli, run.preset_argv(SMALL, 5, tmp_path / "plain.csv"))
    tracer = Tracer()
    traced = run.run_pass(cli, run.preset_argv(SMALL, 5, tmp_path / "traced.csv"), tracer)
    assert plain.error is None and traced.error is None
    assert traced.rows == plain.rows
    for name, fn in originals.items():
        assert getattr(jamsim.estimation, name) is fn
    assert jamsim.channel.crandn is originals["crandn"]
    assert jamsim.montecarlo.ProcessPoolExecutor.__name__ == "ProcessPoolExecutor"

    metrics = run.layer_metrics(tracer)
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead_frac"}
    assert metrics["sweep.average_rate.calls"] == 27
    assert metrics["montecarlo.simulate_one_trial.calls"] == 27 * SMALL.trials
    assert metrics["rng.substream.calls"] > metrics["montecarlo.simulate_one_trial.calls"]
    assert metrics["montecarlo.pool_starts"] == 0
    assert 0 < metrics["channel.crandn.self_s"] < traced.wall_s
    assert set(tracer.rows) == set(range(27))


def test_tracer_sees_only_the_parent_of_a_pool(cli, tmp_path):
    tracer = Tracer()
    pooled = dataclasses.replace(SMALL, threads=2)
    p = run.run_pass(cli, run.preset_argv(pooled, 5, tmp_path / "pooled.csv"), tracer)
    assert p.error is None
    metrics = run.layer_metrics(tracer)
    assert metrics["montecarlo.pool_starts"] == 27
    assert metrics["montecarlo.run_trials.calls"] == 27
    assert metrics["montecarlo.simulate_one_trial.calls"] == 0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fig2", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
