import dataclasses
import itertools
import math

import numpy as np
import pytest

import jamsim.montecarlo
from jamsim import (JammerSpec, SystemConfig, average_rate, draw_overlap_amplitude,
                    gen_channel_factor, run_algorithm1, run_algorithm2, run_trials,
                    simulate_one_trial, substream, verify_moments)
from jamsim.channel import crandn, make_codebook
from jamsim.config import snr_db_to_power
from jamsim.estimation import mmse_coefficients, run_training
from jamsim.montecarlo import _control_variates, control_variate_mean
from jamsim.oracle import MOMENT_Z, Moment, conventional_rates, stop_probability
from jamsim.rates import rate_from_overlap
from jamsim.rng import TAG_CHANNEL, TAG_PROTOCOL


def _cfg(**kw):
    base = dict(M=50, T=200, tau=10, P=1.0, Q=1.0, epsilon=0.1, n_max=2, master_seed=0)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_everything():
    cfg = _cfg(master_seed=123)
    for scheme in ("conventional", "alg1", "alg2"):
        a = run_trials(cfg, scheme, 300)
        b = run_trials(cfg, scheme, 300)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.n_used, b.n_used)


def test_single_trial_matches_batch_position():
    # trial k run alone is bit-identical to trial k inside a batch
    cfg = _cfg(master_seed=9)
    batch = run_trials(cfg, "alg1", 50)
    for k in (0, 7, 49):
        rate, n_used, overlap, overlap_one, met, round_two = simulate_one_trial(cfg, "alg1", k)
        assert rate == batch.rates[k]
        assert n_used == batch.n_used[k]
        assert overlap == batch.overlap_sq[k]
        assert overlap_one == batch.round_one_overlap_sq[k]
        assert met == batch.round_one_met[k]
        assert round_two == batch.round_two_sq[k]


@pytest.mark.parametrize("scheme", ["conventional", "alg1", "alg2"])
def test_single_trial_rejects_a_bool_index(scheme):
    # True would otherwise key the stream of trial 1
    with pytest.raises(ValueError, match="stream key words"):
        simulate_one_trial(_cfg(), scheme, True)


def test_worker_count_does_not_change_values():
    # 3 workers are capped at the machine's CPUs, and every count at 1 trial
    cfg = _cfg(M=16, tau=4, master_seed=31)
    for n_trials in (1, 7, 240):
        serial = run_trials(cfg, "alg1", n_trials, n_workers=1)
        assert serial.n_used.dtype == np.int64 and serial.round_one_met.dtype == bool
        for n_workers in (2, 3):
            parallel = run_trials(cfg, "alg1", n_trials, n_workers=n_workers)
            for field in dataclasses.fields(serial):
                a, b = getattr(serial, field.name), getattr(parallel, field.name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n_trials, n_workers)


def test_pool_size_is_capped_by_cpus_and_trials(monkeypatch):
    # a recording stand-in for ProcessPoolExecutor: it runs the trials
    # in-process, so no worker process starts whatever the requested count
    pool_sizes, chunk_sizes = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, indices, chunksize=1):
            chunk_sizes.append(chunksize)
            return map(fn, indices)

    monkeypatch.setattr(jamsim.montecarlo, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(jamsim.montecarlo.os, "cpu_count", lambda: 8)
    cfg = _cfg(M=8, tau=4, master_seed=31)
    serial = run_trials(cfg, "alg1", 40)
    huge = run_trials(cfg, "alg1", 40, n_workers=10**6)
    few_trials = run_trials(cfg, "alg1", 3, n_workers=6)
    assert pool_sizes == [8, 3]
    assert chunk_sizes == [2, 1]    # four chunks per worker, rounded up
    assert np.array_equal(huge.rates, serial.rates)
    assert np.array_equal(few_trials.rates, serial.rates[:3])
    assert np.array_equal(run_trials(cfg, "alg1", 1, n_workers=6).rates, serial.rates[:1])
    assert pool_sizes == [8, 3]     # one trial runs serially
    monkeypatch.setattr(jamsim.montecarlo.os, "cpu_count", lambda: 1)
    assert np.array_equal(run_trials(cfg, "alg1", 40, n_workers=4).rates, serial.rates)
    assert pool_sizes == [8, 3]     # one CPU runs serially
    for bad in (0, -2):
        with pytest.raises(ValueError, match="worker count"):
            run_trials(cfg, "alg1", 10, n_workers=bad)


@pytest.mark.parametrize("run", [run_trials, average_rate])
@pytest.mark.parametrize("n_trials,n_workers,message", [
    (2.5, 1, "n_trials must be an integer"),
    (10.0, 1, "n_trials must be an integer"),
    (True, 1, "n_trials must be an integer"),
    (10, 1.5, "worker count must be an integer"),
    (10, 2.0, "worker count must be an integer"),
    (10, True, "worker count must be an integer"),
])
def test_counts_must_be_integers(run, n_trials, n_workers, message):
    with pytest.raises(ValueError, match=message):
        run(_cfg(), "alg1", n_trials, n_workers=n_workers)


# recorded mean_rate of 200 trials per (config, scheme). A change that alters
# the seed->value mapping on purpose updates these values and says so in
# CHANGES.md; rel=1e-9 leaves room for another BLAS's rounding only.
_PINNED_BASE = dict(M=16, T=60, tau=6, P=10.0, Q=10.0, epsilon=0.1, n_max=2, master_seed=7)
_PINNED_MEANS = {
    ("true_overlap", "conventional"): 1.9949233306551102,
    ("true_overlap", "alg1"): 2.003970180035102,
    ("true_overlap", "alg2"): 2.226857745351075,
    ("explicit_powers", "conventional"): 1.6566718756712964,
    ("explicit_powers", "alg1"): 1.685985029798639,
    ("explicit_powers", "alg2"): 1.8583481803340454,
    # the other jammer kinds, under every scheme each kind allows
    ("sphere", "conventional"): 1.9647316397508165,
    ("sphere", "alg1"): 1.9585605555165693,
    ("sphere", "alg2"): 2.217024090998565,
    ("absent", "conventional"): 3.54250806732143,
    ("absent", "alg1"): 3.4145841648903787,
    ("absent", "alg2"): 3.4145841648903787,
    ("codeword", "conventional"): 2.434193421384537,
    ("codeword", "alg2"): 2.6420172674194204,
    ("codeword_first_pilot", "conventional"): 0.7564779407837855,
    ("codeword_first_pilot", "alg2"): 2.4606115309023515,
    # a jammer that spares the data phase: the rates see q_d = 0
    ("data_phase_off", "conventional"): 3.373668366040593,
    ("data_phase_off", "alg1"): 3.2042369388834055,
    ("data_phase_off", "alg2"): 3.255892100804738,
}
# (config overrides, jammer) per mode of _PINNED_MEANS
_PINNED_CASES = {
    "true_overlap": ({}, JammerSpec()),
    "explicit_powers": ({"P": 1.0, "Q": 1.0, "powers": (1.2, 0.95, 2.0, 0.7)}, JammerSpec()),
    "sphere": ({}, JammerSpec(kind="sphere")),
    "absent": ({}, JammerSpec(kind="absent")),
    "codeword": ({}, JammerSpec(kind="codeword", codeword_index=2)),
    "codeword_first_pilot": ({"first_pilot": 2}, JammerSpec(kind="codeword", codeword_index=2)),
    "data_phase_off": ({}, JammerSpec(data_phase_active=False)),
}


@pytest.mark.parametrize("mode,scheme", sorted(_PINNED_MEANS))
def test_seed_to_value_mapping_is_pinned(mode, scheme):
    overrides, jammer = _PINNED_CASES[mode]
    cfg = SystemConfig(**{**_PINNED_BASE, **overrides}, jammer=jammer)
    mean = run_trials(cfg, scheme, 200).rates.mean()
    assert mean == pytest.approx(_PINNED_MEANS[mode, scheme], rel=1e-9)


def test_schemes_share_first_round_draws():
    # paired comparisons rely on equal trial indices seeing the same
    # round-one sequences
    cfg = _cfg(master_seed=77)
    conv = run_trials(cfg, "conventional", 100)
    for scheme in ("alg1", "alg2"):
        data = run_trials(cfg, scheme, 100)
        single = data.n_used == 1
        assert single.any() and not single.all()
        assert np.array_equal(conv.overlap_sq[single], data.overlap_sq[single])
        # each alg trial carries round one's overlap, and so its paired
        # conventional rate, bit for bit
        assert np.array_equal(data.round_one_overlap_sq, conv.overlap_sq)
        assert np.array_equal(conventional_rates(cfg, data.round_one_overlap_sq), conv.rates)
    assert np.array_equal(conv.round_one_overlap_sq, conv.overlap_sq)
    assert not conv.round_one_met.any()


def test_alg2_round_one_is_the_conventional_round():
    # alg2's first round is the conventional round: the same true overlap at
    # equal trial indices, and a blind estimate drawn exactly as a single
    # training round draws it; a trial that stops at the threshold has the
    # conventional rate
    cfg = _cfg(master_seed=21)
    jam = cfg.jammer
    n = 200
    conv = run_trials(cfg, "conventional", n)
    alg2 = run_trials(cfg, "alg2", n)
    stops = []
    for i in range(n):
        r = gen_channel_factor(substream(cfg.master_seed, i, TAG_CHANNEL), cfg.M, cfg.beta_u,
                               cfg.beta_j)
        rng = substream(cfg.master_seed, i, TAG_PROTOCOL)
        k = int(rng.integers(cfg.tau))
        trace = run_algorithm2(cfg, r, k, draw_overlap_amplitude(rng, jam, k, cfg.tau), rng)
        rng = substream(cfg.master_seed, i, TAG_PROTOCOL)
        k = int(rng.integers(cfg.tau))
        training = run_training(cfg, r, draw_overlap_amplitude(rng, jam, k, cfg.tau), rng)
        assert trace.rounds[0].overlap_true == conv.overlap_sq[i]
        assert trace.rounds[0].overlap_est == training
        stops.append(trace.stop_reason == "threshold_met")
    stops = np.array(stops)
    assert stops.any() and not stops.all()
    assert np.array_equal(alg2.round_one_met, stops)
    assert np.array_equal(alg2.rates[stops], conv.rates[stops])
    assert np.all(alg2.n_used[stops] == 1)


def test_alg2_at_n_max_one_is_the_conventional_scheme():
    # one transmission allowed: alg2 stops after round one even when its
    # estimate is far above the threshold, so it has the conventional rates
    cfg = _cfg(n_max=1, P=10.0, Q=10.0)
    conv = run_trials(cfg, "conventional", 500)
    alg2 = run_trials(cfg, "alg2", 500)
    assert np.all(alg2.n_used == 1)
    assert np.array_equal(alg2.rates, conv.rates)


def test_alg1_is_rated_at_the_round_its_receiver_picks():
    # hand replay of the engine: round one (pilot index, then its overlap
    # amplitude) from the protocol stream, the channels from the channel
    # stream, then the protocol; the rate is taken
    # at the true overlap of the round chosen by blind estimates, which at
    # M=50 is not always the round with the smallest true overlap
    cfg = _cfg(master_seed=13)
    not_min = 0
    for i in range(200):
        rng = substream(cfg.master_seed, i, TAG_PROTOCOL)
        k = int(rng.integers(cfg.tau))
        amp = draw_overlap_amplitude(rng, cfg.jammer, k, cfg.tau)
        r = gen_channel_factor(substream(cfg.master_seed, i, TAG_CHANNEL), cfg.M, cfg.beta_u,
                               cfg.beta_j)
        trace = run_algorithm1(cfg, r, k, amp, rng)
        overlap = trace.rounds[trace.chosen_round].overlap_true
        expected = rate_from_overlap(cfg, overlap, trace.n_used).rate
        first = trace.rounds[0]
        met = cfg.overlap_below_threshold(first.overlap_est)
        second = trace.rounds[1].overlap_true if trace.n_used > 1 else 0.0
        assert simulate_one_trial(cfg, "alg1", i) == (expected, trace.n_used, overlap,
                                                      first.overlap_true, met, second)
        not_min += overlap > min(r.overlap_true for r in trace.rounds)
    assert not_min > 0


@pytest.mark.parametrize("scheme", ["conventional", "alg1", "alg2"])
def test_engine_rates_through_rate_from_overlap(scheme):
    # the engine's rate is rate_from_overlap's, bit for bit, on every scheme,
    # and an overflowing config raises there rather than leaving a row
    cfg = _cfg(master_seed=31)
    for i in range(50):
        rate, n_used, overlap, *_ = simulate_one_trial(cfg, scheme, i)
        assert rate == rate_from_overlap(cfg, overlap, n_used).rate
    with pytest.raises(ValueError, match="overflow the SINR"):
        simulate_one_trial(_cfg(P=1e160, Q=1e160), scheme, 0)
    with pytest.raises(ValueError, match="overflow the SINR"):
        run_trials(_cfg(P=1e160, Q=1e160), scheme, 3)


# ---------------------------------------------------------------------------
# degenerate scenarios with closed-form answers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["conventional", "alg1", "alg2"])
def test_absent_jammer_rate_is_deterministic(scheme):
    cfg = _cfg(M=4096, tau=4, master_seed=5)
    summary = average_rate(dataclasses.replace(cfg, jammer=JammerSpec(kind="absent")), scheme, 200)
    silent = dataclasses.replace(cfg, powers=(cfg.p_t, cfg.p_d, cfg.q_t, 0.0))
    expected = rate_from_overlap(silent, 0.0, 1).rate
    assert summary.mean_rate == expected
    assert summary.stderr == 0.0
    assert summary.n_used_hist == {1: 200}


def test_data_phase_flag_controls_jammer_power_in_rate():
    on = average_rate(_cfg(master_seed=6), "conventional", 100)
    off = average_rate(_cfg(master_seed=6, jammer=JammerSpec(data_phase_active=False)),
                       "conventional", 100)
    assert off.mean_rate > on.mean_rate


@pytest.mark.parametrize("jammer", [JammerSpec(kind="absent"),
                                    JammerSpec(data_phase_active=False),
                                    JammerSpec(kind="sphere", data_phase_active=False)],
                         ids=["absent", "gaussian-data-phase-off", "sphere-data-phase-off"])
def test_a_jammer_off_the_data_phase_puts_no_power_there(jammer):
    # q_d reads 0 whatever the powers, and every scheme's rates are those of
    # explicit q_d = 0 powers under a jammer that hits the data phase, bit
    # for bit
    cfg = SystemConfig(**_PINNED_BASE, jammer=jammer)
    assert cfg.q_d == 0.0 and cfg.q_t == cfg.Q
    assert dataclasses.replace(cfg, powers=(10.0, 10.0, 10.0, 10.0)).q_d == 0.0
    explicit = dataclasses.replace(cfg, powers=(cfg.p_t, cfg.p_d, cfg.q_t, 0.0),
                                   jammer=dataclasses.replace(jammer, data_phase_active=True))
    assert explicit.q_d == 0.0
    for scheme in ("conventional", "alg1", "alg2"):
        assert np.array_equal(run_trials(cfg, scheme, 200).rates,
                              run_trials(explicit, scheme, 200).rates)


def test_conventional_mean_reproducible_at_scale():
    cfg = _cfg(tau=20, master_seed=404)
    one = average_rate(cfg, "conventional", 50000)
    two = average_rate(cfg, "conventional", 50000)
    assert one.mean_rate == two.mean_rate


# ---------------------------------------------------------------------------
# protocol benefit
# ---------------------------------------------------------------------------

def test_alg1_beats_conventional_at_small_training_payload():
    power = snr_db_to_power(10.0)
    cfg = _cfg(P=power, Q=power, master_seed=11)
    conv = run_trials(cfg, "conventional", 10000)
    alg1 = run_trials(cfg, "alg1", 10000)
    diff = alg1.rates - conv.rates
    stderr = diff.std(ddof=1) / math.sqrt(len(diff))
    assert diff.mean() > 3 * stderr


def test_alg2_eigen_search_escapes_codeword_jammer():
    # the jammer sits on the codeword the user opens with; the eigenvector
    # pilot all but nulls it, so alg2 keeps scaling where conventional saturates
    power = snr_db_to_power(5.0)
    cfg = _cfg(M=400, P=power, Q=power, first_pilot=0, opt_mode="eigen",
               jammer=JammerSpec(kind="codeword", codeword_index=0))
    alg2 = run_trials(cfg, "alg2", 300)
    conv = run_trials(cfg, "conventional", 300)
    assert np.all(alg2.n_used == 2)
    assert alg2.overlap_sq.max() < 0.01
    assert alg2.rates.mean() > conv.rates.mean() + 5


def test_trials_never_build_the_codebook():
    # alg2 searches in codebook coordinates, where pilot k is e_k, so no
    # trial forms a jamming sequence or the DFT codebook
    make_codebook.cache_clear()
    jammers = (JammerSpec(), JammerSpec(kind="codeword", codeword_index=1))
    for tau, mode, jam in itertools.product((6, 20), ("codebook", "eigen"), jammers):
        cfg = _cfg(M=16, T=60, tau=tau, P=10.0, Q=10.0, opt_mode=mode, jammer=jam)
        assert run_trials(cfg, "alg2", 50).n_used.max() == 2
    info = make_codebook.cache_info()
    assert info.hits == info.misses == 0, info


# ---------------------------------------------------------------------------
# control-variate rows
# ---------------------------------------------------------------------------

# one run per case: (scheme, config overrides, blocks, trials per block).
# alg1 at tau = 10 and 0 dB. alg2 at tau = 90 and 10 dB, where round one's
# stop decision is close to a coin flip at M = 50 and its two outcomes'
# prelogs (0.55 and 0.1) differ most. alg2 at fig2's tau = 4 and 10 dB and
# its 400 trials, where the round-two column carries most of the gain.
# alg1 and alg2 at fig3's largest point (M = 500, tau = 20, 5 dB) and its
# 200 trials, where the stop probability column carries most of the gain
_FIG3_POWER = snr_db_to_power(5.0)
_CV_RUNS = {
    "alg1": ("alg1", dict(master_seed=17), 100, 200),
    "alg2": ("alg2", dict(tau=90, P=10.0, Q=10.0, master_seed=17), 50, 200),
    "alg2-tau4": ("alg2", dict(tau=4, P=10.0, Q=10.0, master_seed=17), 50, 400),
    "alg1-fig3": ("alg1", dict(M=500, tau=20, P=_FIG3_POWER, Q=_FIG3_POWER, master_seed=17),
                  100, 200),
    "alg2-fig3": ("alg2", dict(M=500, tau=20, P=_FIG3_POWER, Q=_FIG3_POWER, master_seed=17),
                  100, 200),
}
# the alg rows' mean stderr against the plain one, measured with the five
# columns: alg1 0.46, alg2 at tau = 90 0.0005, at tau = 4 0.39, alg1 at
# fig3's M = 500 0.18, alg2 there 0.096. On round one's earlier draws (two
# normals, and a Gamma draw for the sphere) the first four columns alone
# gave 0.52, 0.0030, 0.42, 0.32 and 0.57
_CV_GAIN = {"alg1": 0.55, "alg2": 0.002, "alg2-tau4": 0.5, "alg1-fig3": 0.25,
            "alg2-fig3": 0.15}
# cases whose rows are too sharp for the pooled plain mean to be a
# reference: mean z of the rows against the pooled control-variate mean,
# the O(1/n) bias of the fitted coefficients. At tau = 90 and 200 trials,
# about 1e-5 bits: measured -0.32 here and -0.36 to -0.52 (50 blocks at
# seeds 3, 5 and 7). At tau = 4 and 400 trials: -0.17 here, -0.08 to -0.18
# (50 blocks at seeds 3, 5 and 7). At fig3's M = 500, 100 blocks: alg1
# -0.22 here and -0.17 to -0.30, alg2 -0.09 here and -0.09 to -0.15
# (seeds 3, 5 and 7)
_CV_BIAS_Z = {"alg2": 0.8, "alg2-tau4": 0.3, "alg1-fig3": 0.5, "alg2-fig3": 0.4}


@pytest.mark.parametrize("case", sorted(_CV_RUNS))
def test_control_variate_rows_are_calibrated_and_unbiased(case):
    # disjoint blocks of trial indices of one run are independent rows, as
    # rows of as many master seeds would be. z of each row has sd near 1
    # when the stderr is right. The control variates move a row off its
    # plain mean by a shift of mean 0 but for the O(1/n) bias of the fitted
    # coefficients
    scheme, overrides, blocks, size = _CV_RUNS[case]
    cfg = _cfg(**overrides)
    data = run_trials(cfg, scheme, blocks * size)
    columns, known = _control_variates(cfg, scheme, data)
    ys = data.rates.reshape(blocks, size)
    rows = np.array([control_variate_mean(y, c, known)
                     for y, c in zip(ys, columns.reshape(blocks, size, -1))])
    means, stderrs = rows.T
    plain = ys.mean(axis=1)
    plain_stderr = float(np.mean(ys.std(axis=1, ddof=1))) / math.sqrt(size)
    assert np.mean(stderrs) < _CV_GAIN[case] * plain_stderr
    assert means.std() < plain.std()
    shift = means - plain
    shift_se = shift.std(ddof=1) / math.sqrt(blocks)
    assert abs(shift.mean()) <= 3 * shift_se, (shift.mean(), shift_se)
    if case not in _CV_BIAS_Z:
        # the shift is a small part of a row's noise, so its mean bounds the
        # bias to about 0.3 plain stderr, and the pooled plain mean is a
        # reference far sharper than a row
        assert shift_se < 0.1 * plain_stderr
        z = (means - data.rates.mean()) / stderrs
    else:
        # at tau = 90 the columns explain nearly all of a row, so the shift
        # is the plain mean's own noise and the pooled plain mean lies about
        # 30 row stderrs off; at fig3's M = 500 it lies about half a row
        # stderr off. z is taken against the pooled control-variate mean
        pooled, _ = control_variate_mean(data.rates, columns, known)
        z = (means - pooled) / stderrs
        assert abs(z.mean()) <= _CV_BIAS_Z[case], z.mean()
    assert 0.7 <= z.std(ddof=1) <= 1.4, z.std(ddof=1)
    # a near-zero stderr would show as one huge z that a z sd can hide
    assert np.abs(z).max() <= 6.0, np.abs(z).max()
    # a row of average_rate is this estimator over the run's first block
    row = average_rate(cfg, scheme, size)
    assert (row.mean_rate, row.stderr) == tuple(rows[0])


def _regression_by_hand(y, columns, means):
    """Intercept of y on [1, columns - means] and its HC3 standard error."""
    z = np.column_stack([np.ones(len(y)), np.reshape(columns, (len(y), -1)) - means])
    inv = np.linalg.inv(z.T @ z)
    coef = inv @ z.T @ y
    resid = y - z @ coef
    leverage = np.einsum("ij,jk,ik->i", z, inv, z)
    return coef[0], math.sqrt(np.sum(((inv @ z.T)[0] * resid / (1 - leverage)) ** 2))


@pytest.mark.parametrize("scheme,jam,first_pilot", [
    ("alg1", JammerSpec(kind="absent"), None),
    ("alg2", JammerSpec(kind="absent"), None),
    ("alg2", JammerSpec(kind="codeword", codeword_index=1), 1),
])
def test_constant_control_variate_gives_the_plain_mean(scheme, jam, first_pilot):
    # every trial has the same round-one overlap, so the conventional rate x
    # and the stop probability p are constant: x is dropped, and d x is a
    # multiple of d = S - p, so the row regresses on d alone. Round one
    # fixes round two's draw, so the round-two column is 0 throughout. At
    # epsilon = 1 every round one stops, d is 0 too, and the row is the
    # plain mean with the plain stderr
    n = 120
    cfg = _cfg(M=16, tau=4, first_pilot=first_pilot, master_seed=8, jammer=jam)
    data = run_trials(cfg, scheme, n)
    columns, _ = _control_variates(cfg, scheme, data)
    assert columns[:, 0].min() == columns[:, 0].max()
    assert not columns[:, 3].any()
    d = columns[:, 1]
    assert d.min() < d.max()
    row = average_rate(cfg, scheme, n)
    assert (row.mean_rate, row.stderr) == pytest.approx(
        _regression_by_hand(data.rates, d, 0.0), rel=1e-9)
    cfg = dataclasses.replace(cfg, epsilon=1.0)
    data = run_trials(cfg, scheme, n)
    row = average_rate(cfg, scheme, n)
    assert row.mean_rate == float(data.rates.mean())
    assert row.stderr == float(data.rates.std(ddof=1) / math.sqrt(n))


def test_absent_jammer_alg1_row_is_exact():
    # the rate is one value when round one stops and another when it does
    # not, a linear function of S, so the columns explain every trial: the
    # row is the exact mean p r1 + (1 - p) r2 with a zero stderr
    cfg = _cfg(M=16, tau=4, master_seed=8, jammer=JammerSpec(kind="absent"))
    p = float(stop_probability(cfg, 0.0))
    exact = (p * rate_from_overlap(cfg, 0.0, 1).rate
             + (1 - p) * rate_from_overlap(cfg, 0.0, 2).rate)
    row = average_rate(cfg, "alg1", 120)
    assert row.mean_rate == pytest.approx(exact, rel=1e-12)
    assert row.stderr < 1e-12


def test_control_variate_mean_falls_back_and_regresses():
    y = np.array([1.0, 2.0, 4.0, 7.0, 3.0])
    x = np.array([0.0, 1.0, 1.0, 3.0, 2.0])
    n = len(y)
    plain = (float(y.mean()), float(y.std(ddof=1) / math.sqrt(n)))
    assert control_variate_mean(y) == plain
    # constant columns are dropped; with none left the row is the plain mean
    assert control_variate_mean(y, np.full((n, 2), 2.5), (9.0, 1.0)) == plain
    # too few samples for the columns that vary: 2 columns need 4
    assert control_variate_mean(y[:3], np.column_stack([x, x ** 2])[:3], (9.0, 1.0)) == \
        (float(y[:3].mean()), float(y[:3].std(ddof=1) / math.sqrt(3)))
    assert control_variate_mean(y[:2], x[:2], 9.0) == (1.5, 0.5)
    assert control_variate_mean(y[:1], x[:1], 9.0) == (1.0, 0.0)
    # one sample alone fixes the coefficient (leverage 1)
    assert control_variate_mean(y, np.array([0.0, 0.0, 0.0, 0.0, 1.0]), 0.5) == plain
    # one column: the mean is mean(y) - b (mean(x) - 1.5), b the slope
    xc, yc = x - x.mean(), y - y.mean()
    one = _regression_by_hand(y, x, 1.5)
    assert one[0] == pytest.approx(y.mean() - (xc @ yc / (xc @ xc)) * (x.mean() - 1.5))
    assert control_variate_mean(y, x, 1.5) == pytest.approx(one, rel=1e-12)
    # a constant column beside it changes nothing, nor does a column that
    # repeats x scaled; the mean of the repeat must agree
    assert control_variate_mean(y, np.column_stack([x, np.ones(n)]), (1.5, 7.0)) == \
        pytest.approx(one, rel=1e-12)
    assert control_variate_mean(y, np.column_stack([x, -3 * x]), (1.5, -4.5)) == \
        pytest.approx(one, rel=1e-12)
    # two columns; no residual at all gives a zero stderr
    cols, known = np.column_stack([x, x ** 2]), np.array([1.5, 3.0])
    assert control_variate_mean(y, cols, known) == \
        pytest.approx(_regression_by_hand(y, cols, known), rel=1e-10)
    exact = 2.0 + cols @ [1.0, -0.5]
    assert control_variate_mean(exact, cols, known) == \
        pytest.approx((2.0 + 1.5 - 0.5 * 3.0, 0.0), abs=1e-12)


# ---------------------------------------------------------------------------
# invalid combinations
# ---------------------------------------------------------------------------

def test_invalid_scheme_and_jammer_combinations():
    cfg = _cfg()
    with pytest.raises(ValueError):
        average_rate(_cfg(jammer=JammerSpec(kind="codeword")), "alg1", 10)
    with pytest.raises(ValueError):
        average_rate(_cfg(first_pilot=0), "alg1", 10)
    with pytest.raises(ValueError):
        average_rate(cfg, "waterfilling", 10)
    with pytest.raises(ValueError):
        average_rate(cfg, "conventional", 0)
    with pytest.raises(ValueError):
        JammerSpec(kind="psychic")
    with pytest.raises(ValueError):
        _cfg(jammer=JammerSpec(kind="codeword", codeword_index=99))


# ---------------------------------------------------------------------------
# effective-noise moment oracle
# ---------------------------------------------------------------------------

def _rel_errors(moments):
    return {name: abs(m.emp - m.th) / abs(m.th) for name, m in moments.items() if m.th}


def _max_abs_z(moments):
    return max(abs(m.z) for m in moments.values())


def test_moment_oracle_close_at_moderate_trials():
    cfg = SystemConfig(M=20, T=50, tau=8, master_seed=0)
    for overlap in (0.0, 0.5, 1.0):
        moments = verify_moments(cfg, overlap, 20000)
        assert list(moments) == ["e1", "e2", "e3", "signal", "sinr"]
        errors = _rel_errors(moments)
        assert max(errors[k] for k in ("e1", "e2", "e3", "signal")) < 0.05
        assert errors["sinr"] < 0.05
        assert _max_abs_z(moments) <= MOMENT_Z


def test_moment_oracle_sinr_across_random_parameter_draws():
    # assembled empirical SINR tracks the closed form over assorted system
    # parameters, not just the defaults; M = 1, 2, 3 draw the M x 4 block
    # itself instead of Bartlett's factor
    draws = [
        dict(M=12, tau=4, beta_u=0.7, beta_j=2.0, P=0.5, Q=2.0, overlap=0.1),
        dict(M=32, tau=6, beta_u=1.5, beta_j=0.4, P=2.0, Q=1.0, overlap=0.65),
        dict(M=8, tau=16, beta_u=1.0, beta_j=1.0, P=4.0, Q=0.3, overlap=0.9),
        dict(M=24, tau=3, beta_u=0.2, beta_j=0.9, P=1.2, Q=3.0, overlap=0.0),
        dict(M=48, tau=10, beta_u=3.0, beta_j=1.1, P=0.8, Q=0.8, overlap=0.33),
        dict(M=1, tau=4, beta_u=1.3, beta_j=0.7, P=2.0, Q=1.5, overlap=0.3),
        dict(M=2, tau=8, beta_u=1.0, beta_j=1.0, P=1.0, Q=1.0, overlap=1.0),
        dict(M=3, tau=5, beta_u=0.6, beta_j=1.8, P=3.0, Q=0.5, overlap=0.5),
    ]
    for i, d in enumerate(draws):
        overlap = d.pop("overlap")
        cfg = SystemConfig(T=200, n_max=2, master_seed=500 + i, **d)
        moments = verify_moments(cfg, overlap, 100000)
        assert _rel_errors(moments)["sinr"] < 0.05, (d, overlap)
        assert _max_abs_z(moments) <= MOMENT_Z, (d, overlap, moments)


def test_moment_oracle_stderrs_are_calibrated():
    # over independent seeds each quantity's z spreads like N(0, 1): a
    # stderr (delta-method or direct) off by a factor of 2 either way shows;
    # M = 2 guards the small-array draws, where the moments are most skewed
    for m in (20, 2):
        zs = np.array([[q.z for q in verify_moments(_cfg(M=m, tau=8, master_seed=seed),
                                                    0.5, 2000).values()]
                       for seed in range(100)])
        spread = zs.std(axis=0, ddof=1)
        assert np.all((0.7 <= spread) & (spread <= 1.4)), (m, spread)


def test_moment_oracle_silent_jammer_moment_is_exactly_zero():
    cfg = SystemConfig(M=16, T=50, tau=4, master_seed=1, powers=(1.0, 1.0, 0.0, 0.0),
                       P=1.0, Q=1.0)
    moments = verify_moments(cfg, 0.0, 2000)
    e2 = moments["e2"]
    assert e2.th == e2.emp == e2.se == e2.z == 0.0 and e2.ok
    assert max(_rel_errors(moments).values()) < 0.10
    assert all(m.ok for m in moments.values())
    # a zero standard error passes only an exact match
    assert not Moment(emp=1e-300, th=0.0, se=0.0).ok


def test_moment_e1_does_not_depend_on_jammer():
    # matched gamma_u with and without a training jammer: the self-noise
    # moment agrees within twice its combined standard error
    jammed = SystemConfig(M=20, T=50, tau=8, master_seed=21)
    silent = SystemConfig(M=20, T=50, tau=8, master_seed=22,
                          powers=(0.2, 1.0, 0.0, 0.0))
    assert mmse_coefficients(jammed, 0.5)[1] == pytest.approx(
        mmse_coefficients(silent, 0.0)[1], rel=1e-12)
    e1_j = verify_moments(jammed, 0.5, 10000)["e1"]
    e1_s = verify_moments(silent, 0.0, 10000)["e1"]
    assert e1_j.th == pytest.approx(e1_s.th, rel=1e-12)
    assert abs(e1_j.emp - e1_s.emp) < 2 * math.hypot(e1_j.se, e1_s.se)


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
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="n_trials"):
            verify_moments(cfg, 0.5, bad)
    with pytest.raises(ValueError):
        verify_moments(SystemConfig(M=8, T=50, tau=1), 0.5, 10)
