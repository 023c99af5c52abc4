import math

import numpy as np
import pytest

import jamsim.montecarlo
from jamsim import (JammerSpec, SystemConfig, average_rate, mmse_coefficients,
                    rate_from_overlap, run_trials, simulate_one_trial,
                    substream, verify_moments)
from jamsim.channel import crandn
from jamsim.config import snr_db_to_power


def _cfg(**kw):
    base = dict(M=50, T=200, tau=10, P=1.0, Q=1.0, epsilon=0.1, n_max=2, master_seed=0)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_everything():
    cfg = _cfg(master_seed=123)
    jam = JammerSpec()
    for scheme in ("conventional", "alg1", "alg2"):
        a = run_trials(cfg, scheme, jam, 300)
        b = run_trials(cfg, scheme, jam, 300)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.n_used, b.n_used)


def test_single_trial_matches_batch_position():
    # trial k run alone is bit-identical to trial k inside a batch
    cfg = _cfg(master_seed=9)
    jam = JammerSpec()
    batch = run_trials(cfg, "alg1", jam, 50)
    for k in (0, 7, 49):
        solo = simulate_one_trial(cfg, "alg1", jam, k)
        assert solo.rate == batch.rates[k]
        assert solo.n_used == batch.n_used[k]


def test_worker_count_does_not_change_values():
    cfg = _cfg(M=16, tau=4, master_seed=31)
    jam = JammerSpec()
    serial = run_trials(cfg, "alg1", jam, 240, n_workers=1)
    parallel = run_trials(cfg, "alg1", jam, 240, n_workers=2)
    assert np.array_equal(serial.rates, parallel.rates)
    assert np.array_equal(serial.n_used, parallel.n_used)


def test_pool_size_is_capped_by_cpus_and_chunks(monkeypatch):
    # a recording stand-in for the pool: it runs chunks in-process, so no
    # worker process starts whatever the requested count
    pool_sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def map(self, fn, chunks):
            return map(fn, chunks)

        def shutdown(self):
            pass

    monkeypatch.setattr(jamsim.montecarlo, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jamsim.montecarlo.os, "cpu_count", lambda: 8)
    cfg = _cfg(M=8, tau=4, master_seed=31)
    jam = JammerSpec()
    serial = run_trials(cfg, "alg1", jam, 40)
    huge = run_trials(cfg, "alg1", jam, 40, n_workers=10**6)
    few_chunks = run_trials(cfg, "alg1", jam, 3, n_workers=6)
    assert pool_sizes == [8, 3]
    assert np.array_equal(huge.rates, serial.rates)
    assert np.array_equal(few_chunks.rates, serial.rates[:3])
    monkeypatch.setattr(jamsim.montecarlo.os, "cpu_count", lambda: 1)
    assert np.array_equal(run_trials(cfg, "alg1", jam, 40, n_workers=4).rates, serial.rates)
    assert pool_sizes == [8, 3]     # one CPU runs serially
    for bad in (0, -2):
        with pytest.raises(ValueError, match="worker count"):
            run_trials(cfg, "alg1", jam, 10, n_workers=bad)


def test_schemes_share_first_round_draws():
    # paired comparisons rely on equal trial indices seeing the same
    # round-one sequences
    cfg = _cfg(master_seed=77)
    jam = JammerSpec()
    conv = run_trials(cfg, "conventional", jam, 100)
    alg2 = run_trials(cfg, "alg2", jam, 100)
    single = alg2.n_used == 1
    assert single.any()
    assert np.array_equal(conv.overlap_sq[single], alg2.overlap_sq[single])


# ---------------------------------------------------------------------------
# degenerate scenarios with closed-form answers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["conventional", "alg1", "alg2"])
def test_absent_jammer_rate_is_deterministic(scheme):
    cfg = _cfg(M=4096, tau=4, master_seed=5)
    jam = JammerSpec(kind="absent")
    summary = average_rate(cfg, scheme, jam, 200)
    silent = cfg.with_powers(cfg.p_t, cfg.p_d, cfg.q_t, 0.0)
    expected = rate_from_overlap(silent, 0.0, 1).rate
    assert summary.mean_rate == expected
    assert summary.stderr == 0.0
    assert summary.n_used_hist == {1: 200}


def test_data_phase_flag_controls_jammer_power_in_rate():
    cfg = _cfg(master_seed=6)
    on = average_rate(cfg, "conventional", JammerSpec(data_phase_active=True), 100)
    off = average_rate(cfg, "conventional", JammerSpec(data_phase_active=False), 100)
    assert off.mean_rate > on.mean_rate


def test_conventional_mean_reproducible_at_scale():
    cfg = _cfg(tau=20, master_seed=404)
    jam = JammerSpec()
    one = average_rate(cfg, "conventional", jam, 50000)
    two = average_rate(cfg, "conventional", jam, 50000)
    assert one.mean_rate == two.mean_rate


# ---------------------------------------------------------------------------
# protocol benefit
# ---------------------------------------------------------------------------

def test_alg1_beats_conventional_at_small_training_payload():
    power = snr_db_to_power(10.0)
    cfg = _cfg(P=power, Q=power, master_seed=11)
    jam = JammerSpec()
    conv = run_trials(cfg, "conventional", jam, 10000)
    alg1 = run_trials(cfg, "alg1", jam, 10000)
    diff = alg1.rates - conv.rates
    stderr = diff.std(ddof=1) / math.sqrt(len(diff))
    assert diff.mean() > 3 * stderr


def test_estimated_overlap_accounting_runs():
    cfg = _cfg(rate_accounting="estimated_overlap", master_seed=8)
    jam = JammerSpec()
    for scheme in ("conventional", "alg1", "alg2"):
        summary = average_rate(cfg, scheme, jam, 100)
        assert np.isfinite(summary.mean_rate)
    oracle = average_rate(_cfg(master_seed=8), "conventional", jam, 100)
    blind = average_rate(cfg, "conventional", jam, 100)
    assert oracle.mean_rate != blind.mean_rate


# ---------------------------------------------------------------------------
# invalid combinations
# ---------------------------------------------------------------------------

def test_invalid_scheme_and_jammer_combinations():
    cfg = _cfg()
    with pytest.raises(ValueError):
        average_rate(cfg, "alg1", JammerSpec(kind="codeword"), 10)
    with pytest.raises(ValueError):
        average_rate(cfg, "alg1", JammerSpec(), 10, first_pilot=0)
    with pytest.raises(ValueError):
        average_rate(cfg, "waterfilling", JammerSpec(), 10)
    with pytest.raises(ValueError):
        average_rate(cfg, "conventional", JammerSpec(), 0)
    with pytest.raises(ValueError):
        JammerSpec(kind="psychic")
    with pytest.raises(ValueError):
        average_rate(cfg, "alg2", JammerSpec(kind="codeword", codeword_index=99), 10)


# ---------------------------------------------------------------------------
# effective-noise moment oracle
# ---------------------------------------------------------------------------

def test_moment_oracle_close_at_moderate_trials():
    cfg = SystemConfig(M=20, T=50, tau=8, master_seed=0)
    for overlap in (0.0, 0.5, 1.0):
        rep = verify_moments(cfg, overlap, 20000)
        assert rep.max_moment_rel_error() < 0.05
        assert rep.sinr_rel_error() < 0.05


def test_moment_oracle_sinr_across_random_parameter_draws():
    # assembled empirical SINR tracks the closed form over assorted system
    # parameters, not just the defaults
    draws = [
        dict(M=12, tau=4, beta_u=0.7, beta_j=2.0, P=0.5, Q=2.0, overlap=0.1),
        dict(M=32, tau=6, beta_u=1.5, beta_j=0.4, P=2.0, Q=1.0, overlap=0.65),
        dict(M=8, tau=16, beta_u=1.0, beta_j=1.0, P=4.0, Q=0.3, overlap=0.9),
        dict(M=24, tau=3, beta_u=0.2, beta_j=0.9, P=1.2, Q=3.0, overlap=0.0),
        dict(M=48, tau=10, beta_u=3.0, beta_j=1.1, P=0.8, Q=0.8, overlap=0.33),
    ]
    for i, d in enumerate(draws):
        overlap = d.pop("overlap")
        cfg = SystemConfig(T=200, n_max=2, master_seed=500 + i, **d)
        rep = verify_moments(cfg, overlap, 100000)
        assert rep.sinr_rel_error() < 0.05, (d, overlap)


def test_moment_oracle_silent_jammer_moment_is_exactly_zero():
    cfg = SystemConfig(M=16, T=50, tau=4, master_seed=1, power_policy="explicit",
                       powers=(1.0, 1.0, 0.0, 0.0), P=1.0, Q=1.0)
    rep = verify_moments(cfg, 0.0, 2000)
    assert rep.e2_th == 0.0
    assert rep.e2_emp == 0.0
    assert rep.max_moment_rel_error() < 0.10


def test_moment_e1_does_not_depend_on_jammer():
    # matched gamma_u with and without a training jammer: the self-noise
    # moment agrees within twice its combined standard error
    jammed = SystemConfig(M=20, T=50, tau=8, master_seed=21)
    silent = SystemConfig(M=20, T=50, tau=8, master_seed=22,
                          power_policy="explicit", powers=(0.2, 1.0, 0.0, 0.0))
    assert mmse_coefficients(jammed, 0.5)[1] == pytest.approx(
        mmse_coefficients(silent, 0.0)[1], rel=1e-12)
    rep_j = verify_moments(jammed, 0.5, 10000)
    rep_s = verify_moments(silent, 0.0, 10000)
    assert rep_j.e1_th == pytest.approx(rep_s.e1_th, rel=1e-12)
    bound = 2 * math.hypot(rep_j.e1_se, rep_s.e1_se)
    assert abs(rep_j.e1_emp - rep_s.e1_emp) < bound


def test_moment_fourth_power_identity():
    # E{||g_hat||^4} equals M (M+1) gamma_u^2 for the Gaussian estimate
    cfg = SystemConfig(M=20, T=50, tau=8, master_seed=33)
    overlap = 0.5
    c_u, gamma = mmse_coefficients(cfg, overlap)
    rng = substream(cfg.master_seed, 999)
    n = 100000
    amp = math.sqrt(overlap)
    total = 0.0
    chunk = 20000
    for _ in range(n // chunk):
        g_u = crandn(rng, chunk, cfg.M)
        g_j = crandn(rng, chunk, cfg.M)
        noise = crandn(rng, chunk, cfg.M)
        y = math.sqrt(cfg.tau * cfg.p_t) * g_u + math.sqrt(cfg.tau * cfg.q_t) * amp * g_j + noise
        total += float(np.sum(np.sum(np.abs(c_u * y) ** 2, axis=1) ** 2))
    ratio = (total / n) / (cfg.M * (cfg.M + 1) * gamma ** 2)
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_moment_oracle_validation():
    cfg = SystemConfig(M=8, T=50, tau=8)
    with pytest.raises(ValueError):
        verify_moments(cfg, 1.5, 10)
    with pytest.raises(ValueError):
        verify_moments(cfg, 0.5, 0)
    with pytest.raises(ValueError):
        verify_moments(SystemConfig(M=8, T=50, tau=1), 0.5, 10)
