"""The exact round-one stop law (jamsim.oracle.stop_probability, stop_share)
against quadrature and the trial engine.

Given its squared overlap ov, round one's de-spread observation is
y_t ~ CN(0, sigma^2 I_M) with sigma^2 = tau p_t beta_u + tau q_t beta_j ov + 1,
so ||y_t||^2 = sigma^2 Gamma(M) exactly, at any M. The blind estimate meets
the threshold epsilon < 1 exactly when ||y_t||^2 <= x*, with
x* = M (tau p_t beta_u + 1 + tau q_t beta_j epsilon), so round one stops with
probability P(M, x* / sigma^2(ov)) given ov, P the regularized lower
incomplete gamma function, and stop_share is its mean over ov. alg1 at
n_max = 2 spends one transmission exactly when round one stops; alg2 also
stops when its search predicts no gain, so its single-transmission share is
at least that value. Given ov, the stop indicator S has mean P, so S - P and
(S - P) times the conventional rate, a function of ov, have mean 0: two of
the control variates average_rate adds on the alg rows. The third of mean
0, (1 - S) times a rate at round two's draw less its exact mean, is checked
here too: round two's draw is independent of round one. So is a fourth, P
itself, of mean stop_share. alg1 stops at round one with probability P
given ov and is then rated at the conventional rate x(ov), so its rate on
the trials that spend one transmission has mean E[P x]
(alg1_stop_side_mean). alg1's round-two column is (1 - S)(h - H(ov)), with h
the two-round rate at the smaller of its rounds' squared overlaps and H its
mean over round two's fresh draw given ov (better_round_mean), checked here
against a Simpson rule and the engine.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from jamsim import (JammerSpec, SystemConfig, draw_overlap_amplitude, gen_channel_factor,
                    run_trials, substream)
from jamsim.config import snr_db_to_power
from jamsim.estimation import run_training
from jamsim.montecarlo import _control_variates, control_variate_mean, trial_strata
from jamsim.oracle import (alg1_mean_n_used, alg1_stop_side_mean, better_round_mean,
                           conventional_mean, round_one_mean, stop_probability, stop_share)
from jamsim.rates import rates_at
from jamsim.rng import TAG_CHANNEL, TAG_PROTOCOL

Z_BOUND = 4.0
N_TRIALS = 4000
ANTENNAS = (1, 2, 3, 10, 50, 200)


def _cfg(m, **kw):
    base = dict(M=m, T=100, tau=8, P=10.0, Q=10.0, epsilon=0.1, n_max=2, master_seed=61)
    base.update(kw)
    return SystemConfig(**base)


def _z(share, p, n):
    return (share - p) / math.sqrt(p * (1.0 - p) / n)


def _gamma_cdf_by_trapezoid(m, x):
    """P(m, x) by a fine trapezoid rule of the Gamma(m) density from m - 12 sqrt(m) on."""
    lo = max(0.0, m - 12.0 * math.sqrt(m))
    if x <= lo:
        return 0.0
    t = np.linspace(lo, x, 200001)
    density = np.exp((m - 1) * np.log(np.maximum(t, 1e-300)) - t - math.lgamma(m))
    return float(np.sum((density[1:] + density[:-1]) / 2) * (t[1] - t[0]))


def _zero_mean_columns(cfg, scheme, data):
    """S - P, (S - P) x and the round-two column per trial, x the conventional rate of round one.

    Also checks the fifth column, P itself, against its known mean stop_share.
    """
    columns, means = _control_variates(cfg, scheme, data)
    assert means[1:4] == (0.0, 0.0, 0.0)
    share = stop_share(cfg)
    assert means[4] == share
    p = columns[:, 4]
    if p.min() == p.max():
        # absent jammer: every trial has round one's overlap 0
        assert p[0] == share
    else:
        stderr = p.std(ddof=1) / math.sqrt(len(p))
        assert abs(p.mean() - share) <= Z_BOUND * stderr, (p.mean(), share, stderr)
    return columns[:, 1], columns[:, 2], columns[:, 3]


def _assert_mean_zero(column):
    stderr = column.std(ddof=1) / math.sqrt(len(column))
    assert stderr > 0.0
    assert abs(column.mean()) <= Z_BOUND * stderr, (column.mean(), stderr)


def test_poisson_sum_matches_the_gamma_integral():
    # stop_probability sums Poisson tails for P(M, x* / sigma^2); against a
    # fine trapezoid rule of the gamma density, from below the bulk of
    # Gamma(M) to above it, and at epsilon >= 1, where the clamped estimate
    # always meets the threshold, exactly 1
    overlaps = np.array([0.0, 0.05, 0.1, 0.15, 0.3, 1.0])
    for m in (1, 2, 10, 200, 5000):
        for epsilon in (0.0, 0.1, 1.0):
            cfg = _cfg(m, epsilon=epsilon)
            p = stop_probability(cfg, overlaps)
            if epsilon >= 1.0:
                assert np.all(p == 1.0)
                continue
            pilot, jamming = cfg.tau * cfg.p_t, cfg.tau * cfg.q_t
            x = m * (pilot + 1.0 + jamming * epsilon) / (pilot + jamming * overlaps + 1.0)
            expected = [_gamma_cdf_by_trapezoid(m, xi) for xi in x]
            assert p == pytest.approx(expected, rel=0, abs=1e-8), (m, epsilon)
            if m <= 2:
                closed = 1 - np.exp(-x) * (1 + x if m == 2 else 1)
                assert p == pytest.approx(closed, rel=0, abs=1e-14)
    # a scalar overlap gives the value it gets inside an array
    cfg = _cfg(50)
    assert stop_probability(cfg, 0.1) == pytest.approx(stop_probability(cfg, overlaps)[2],
                                                       rel=1e-15)


def test_lower_gamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    from jamsim.oracle import _lower_gamma_regularized
    for m in (1, 2, 3, 10, 50, 200, 500, 5000):
        x = np.concatenate([np.linspace(0.0, 3 * m + 50, 2001),
                            m + math.sqrt(m) * np.linspace(-10, 10, 401)])
        x = x[x >= 0]
        assert _lower_gamma_regularized(m, x) == pytest.approx(special.gammainc(m, x),
                                                               rel=0, abs=1e-11)


def test_stop_probability_needs_no_m_wide_temporary():
    # 50000 trials at M = 500, the preset's default size: an n x M array of
    # terms would take 200 MB; the sums take 16 steps at a time, so their
    # temporaries hold a few times 16 arrays of n
    n = 50000
    overlaps = np.random.default_rng(3).exponential(0.1, n)
    cfg = _cfg(500)
    tracemalloc.start()
    try:
        p = stop_probability(cfg, overlaps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * n * 8, peak
    assert np.all((p > 0) & (p < 1))


def test_stop_probability_needs_a_jammer_pilot_power():
    cfg = SystemConfig(M=10, T=100, tau=8, P=10.0, Q=10.0, powers=(10.0, 10.0, 0.0, 10.0))
    with pytest.raises(ValueError, match="q_t > 0"):
        stop_probability(cfg, 0.1)


@pytest.mark.parametrize("kind", ["gaussian", "sphere", "codeword"])
def test_overlap_quadrature_matches_its_moments(kind):
    # round_one_mean integrates 1, ov and ov^2 exactly: Exp(1/tau),
    # Beta(1, tau - 1) and the point masses
    cfg = _cfg(10, jammer=JammerSpec(kind=kind))
    tau = cfg.tau
    mean, second = {
        "gaussian": (1 / tau, 2 / tau ** 2),
        "sphere": (1 / tau, 2 / (tau * (tau + 1))),
        "codeword": (1 / tau, 1 / tau),
    }[kind]
    moments = [round_one_mean(cfg, g)
               for g in (np.ones_like, lambda ov: ov, lambda ov: ov ** 2)]
    assert moments == pytest.approx([1.0, mean, second], rel=0, abs=1e-12)


@pytest.mark.parametrize("m", ANTENNAS)
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_alg1_spends_one_round_as_often_as_round_one_stops(kind, m):
    cfg = _cfg(m, jammer=JammerSpec(kind=kind))
    p = stop_share(cfg)
    assert 0.05 < p < 0.95
    data = run_trials(cfg, "alg1", N_TRIALS)
    single = data.n_used == 1
    assert np.array_equal(single, data.round_one_met)
    assert abs(_z(float(np.mean(single)), p, N_TRIALS)) <= Z_BOUND, (np.mean(single), p)
    # the mean count is 2 - p, and n_used - 1 is a coin of chance 1 - p
    mean_n_used = alg1_mean_n_used(cfg)
    assert mean_n_used == 2.0 - p
    assert abs(_z(float(data.n_used.mean()) - 1.0, mean_n_used - 1.0, N_TRIALS)) <= Z_BOUND
    for column in _zero_mean_columns(cfg, "alg1", data):
        _assert_mean_zero(column)


@pytest.mark.parametrize("m", ANTENNAS)
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_alg1_stop_side_matches_the_engine(kind, m):
    # E[rate 1{n_used = 1}], the stratified mean of the engine's trials,
    # in units of its stderr
    cfg = _cfg(m, jammer=JammerSpec(kind=kind))
    data = run_trials(cfg, "alg1", N_TRIALS)
    mean, stderr = control_variate_mean(data.rates * (data.n_used == 1),
                                        trial_strata(np.arange(N_TRIALS)))
    exact = alg1_stop_side_mean(cfg)
    assert 0.0 < exact < conventional_mean(cfg)
    assert abs(mean - exact) <= Z_BOUND * stderr, (mean, exact, stderr)


def test_alg1_stop_side_at_one_transmission_is_the_conventional_mean():
    cfg = _cfg(50, n_max=1)
    assert alg1_stop_side_mean(cfg) == conventional_mean(cfg)
    with pytest.raises(ValueError):
        alg1_stop_side_mean(_cfg(50, jammer=JammerSpec(kind="codeword")))


def _better_round_by_simpson(cfg, o1):
    """E[rate(min(o1, o2), 2)] by Simpson's rule in o2 itself, o2 of round one's law.

    rate(o1, 2) P(o2 >= o1) plus the integral of rate(v, 2) times o2's
    density on [0, o1]: tau e^(-tau v) for gaussian, (tau - 1)(1 - v)^(tau - 2)
    for sphere. Geometric panels from 1e-13 (or o1 / 2) on resolve the rate's
    turn near 0 at large M.
    """
    tau = cfg.tau
    if cfg.jammer.kind == "gaussian":
        survival = math.exp(-tau * o1)

        def density(v):
            return tau * np.exp(-tau * v)
    else:
        survival = (1.0 - o1) ** (tau - 1)

        def density(v):
            return (tau - 1) * (1.0 - v) ** (tau - 2)
    total = survival * float(rates_at(cfg, o1, 2))
    if o1 > 0.0:
        edges = [0.0, *np.geomspace(min(1e-13, o1 / 2), o1, 60)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            v = np.linspace(lo, hi, 201)
            g = density(v) * rates_at(cfg, v, 2)
            total += (v[1] - v[0]) / 3 * (g[0] + g[-1] + 4 * g[1:-1:2].sum()
                                          + 2 * g[2:-1:2].sum())
    return total


@pytest.mark.parametrize("m", (10, 50, 500, 5000))
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_better_round_mean_matches_a_simpson_rule(kind, m):
    cfg = _cfg(m, jammer=JammerSpec(kind=kind))
    o1 = np.array([0.0, 1e-9, 1e-5, 1e-3, 0.01, 0.05, 0.125, 0.3, 0.6, 0.9, 0.999, 1.0])
    expected = [_better_round_by_simpson(cfg, v) for v in o1.tolist()]
    assert better_round_mean(cfg, o1) == pytest.approx(expected, rel=0, abs=1e-9)


def test_better_round_mean_at_the_ends():
    # o1 = 0 leaves nothing to improve on; from its law's top on (sphere's 1)
    # round two is always as good, and H is rate(o2, 2)'s mean; a sphere at
    # tau = 1 draws o2 = 1 surely
    cfg = _cfg(50, jammer=JammerSpec(kind="sphere"))
    at_zero, at_one = better_round_mean(cfg, np.array([0.0, 1.0]))
    assert at_zero == rates_at(cfg, 0.0, 2)
    assert at_one == pytest.approx(round_one_mean(cfg, lambda v: rates_at(cfg, v, 2)),
                                   rel=1e-13)
    one = _cfg(50, tau=1, jammer=JammerSpec(kind="sphere"))
    assert better_round_mean(one, np.array([0.3, 1.0])).tolist() == \
        rates_at(one, np.array([0.3, 1.0]), 2).tolist()
    with pytest.raises(ValueError, match="no fresh round two"):
        better_round_mean(_cfg(50, jammer=JammerSpec(kind="absent")), np.array([0.0]))


def test_better_round_mean_reuses_one_legendre_rule(monkeypatch):
    # the rule on the part-panel below t1 is the one _exp_rule is built
    # from, computed once per process, not once per alg1 row
    cfg = _cfg(50, jammer=JammerSpec(kind="gaussian"))
    o1 = np.array([1e-3, 0.05, 0.3])
    expected = better_round_mean(cfg, o1)
    calls = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda *args: calls.append(args))
    assert better_round_mean(cfg, o1).tolist() == expected.tolist()
    assert better_round_mean(dataclasses.replace(cfg, M=60), o1).shape == o1.shape
    assert calls == []


# fig2's tau = 4 at 10 dB and fig3's M = 500 at 5 dB, 20000 trials each:
# the runs of test_montecarlo.py's calibration cases alg1-tau4 and alg1-fig3
_FIG3_POWER = snr_db_to_power(5.0)
_BETTER_ROUND_RUNS = {50: dict(tau=4, P=10.0, Q=10.0),
                      500: dict(tau=20, P=_FIG3_POWER, Q=_FIG3_POWER)}


@pytest.mark.parametrize("m", sorted(_BETTER_ROUND_RUNS))
def test_alg1_better_round_column_has_mean_zero(m, trials):
    # round two is a fresh draw independent of round one, so the engine's
    # (1 - S)(h - H) averages to 0 (mean z over seeds 3, 5, 7, 8, 9 and 11
    # at M = 50: -1.76 to +0.74); here its stderr is 0.0039 bits at M = 50
    # and 0.0029 at M = 500, and z reads +2.20 and +1.14
    cfg = SystemConfig(M=m, T=200, epsilon=0.1, n_max=2, master_seed=17,
                       **_BETTER_ROUND_RUNS[m])
    data = trials(cfg, "alg1", 5 * N_TRIALS)
    column = _control_variates(cfg, "alg1", data)[0][:, 3]
    assert np.array_equal(column != 0.0, ~data.round_one_met)
    _assert_mean_zero(column)


def test_alg1_stops_after_round_one_when_epsilon_is_one():
    cfg = _cfg(50, epsilon=1.0)
    assert stop_share(cfg) == pytest.approx(1.0, rel=0, abs=1e-12)
    data = run_trials(cfg, "alg1", 200)
    assert data.round_one_met.all() and np.all(data.n_used == 1)


def test_alg1_mean_n_used_needs_at_most_two_rounds():
    assert alg1_mean_n_used(_cfg(50, n_max=1)) == 1.0
    with pytest.raises(ValueError, match="n_max <= 2"):
        alg1_mean_n_used(_cfg(50, T=200, n_max=3))


@pytest.mark.parametrize("m", ANTENNAS)
def test_codeword_round_one_meets_the_threshold_at_the_exact_rate(m):
    # alg1 cannot face a codeword jammer; round one's blind estimate is
    # replayed from the engine's draws: the pilot index and its amplitude
    # from the protocol stream, then the training round itself
    cfg = _cfg(m, jammer=JammerSpec(kind="codeword"))
    p = stop_share(cfg)
    estimates = []
    for i in range(N_TRIALS):
        r = gen_channel_factor(substream(cfg.master_seed, i, TAG_CHANNEL), m, cfg.beta_u,
                               cfg.beta_j)
        rng = substream(cfg.master_seed, i, TAG_PROTOCOL)
        k = int(rng.integers(cfg.tau))
        estimates.append(run_training(cfg, r, draw_overlap_amplitude(rng, cfg.jammer, k, cfg.tau),
                                      rng))
    share = float(np.mean(np.array(estimates) <= cfg.epsilon))
    assert abs(_z(share, p, N_TRIALS)) <= Z_BOUND, (share, p)


@pytest.mark.parametrize("m", ANTENNAS)
@pytest.mark.parametrize("kind", ["gaussian", "sphere", "codeword", "absent"])
def test_alg2_spends_one_round_at_least_as_often_as_round_one_stops(kind, m):
    # round one meets the threshold at the exact share; alg2 also stops when
    # its search predicts no gain, so its single-transmission share is
    # bounded on one side only
    n = N_TRIALS // 4
    cfg = _cfg(m, jammer=JammerSpec(kind=kind))
    p = stop_share(cfg)
    data = run_trials(cfg, "alg2", n)
    met = float(np.mean(data.round_one_met))
    assert abs(_z(met, p, n)) <= Z_BOUND, (met, p)
    single = float(np.mean(data.n_used == 1))
    assert _z(single, p, n) >= -Z_BOUND, (single, p)
    assert np.all(data.n_used[data.round_one_met] == 1)
    d, dx, round_two = _zero_mean_columns(cfg, "alg2", data)
    _assert_mean_zero(d)
    _assert_mean_zero(dx)
    if kind in ("gaussian", "sphere"):
        _assert_mean_zero(round_two)
    else:
        # round one fixes round two's draw, and the column is 0
        assert not round_two.any()
