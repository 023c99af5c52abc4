"""Exact finite-M oracle for the round-one stop share of the protocols.

Given its squared overlap ov, round one's de-spread observation is
y_t ~ CN(0, sigma^2 I_M) with sigma^2 = tau p_t beta_u + tau q_t beta_j ov + 1,
so ||y_t||^2 = sigma^2 Gamma(M) exactly, at any M. The blind estimate meets
the threshold epsilon < 1 exactly when ||y_t||^2 <= x*, with
x* = M (tau p_t beta_u + 1 + tau q_t beta_j epsilon), so round one stops with
probability E_ov[P(M, x* / sigma^2(ov))], P the regularized lower
incomplete gamma function. alg1 at n_max = 2 spends one transmission exactly
when round one stops; alg2 also stops when its search predicts no gain, so
its single-transmission share is at least that value.
"""

import math

import numpy as np
import pytest

from jamsim import (JammerSpec, SystemConfig, draw_overlap_amplitude, gen_channel_factor,
                    run_trials, substream)
from jamsim.estimation import run_training
from jamsim.oracle import round_one_mean
from jamsim.rng import TAG_CHANNEL, TAG_PROTOCOL

Z_BOUND = 4.0
N_TRIALS = 4000
ANTENNAS = (1, 2, 3, 10, 50, 200)


def _lower_gamma_regularized(m: int, x: np.ndarray) -> np.ndarray:
    """P(m, x) for integer m >= 1: one minus the Poisson sum e^-x sum_{k<m} x^k / k!.

    Each Poisson term is formed in logs, so the sum neither overflows nor
    underflows at m = 200.
    """
    x = np.asarray(x, dtype=float)[..., None]
    k = np.arange(m)
    lgammas = np.array([math.lgamma(i + 1) for i in k])
    terms = np.exp(k * np.log(x) - x - lgammas)
    return 1.0 - terms.sum(axis=-1)


def stop_share(cfg: SystemConfig, jammer: JammerSpec) -> float:
    """Probability that round one's blind estimate meets the threshold."""
    pilot = cfg.tau * cfg.p_t * cfg.beta_u
    jamming = cfg.tau * cfg.q_t * cfg.beta_j
    x_star = cfg.M * (pilot + 1.0 + jamming * cfg.epsilon)
    return round_one_mean(cfg, jammer, lambda ov: _lower_gamma_regularized(
        cfg.M, x_star / (pilot + jamming * ov + 1.0)))


def _cfg(m, **kw):
    return SystemConfig(M=m, T=100, tau=8, P=10.0, Q=10.0, epsilon=0.1, n_max=2,
                        master_seed=61, **kw)


def _z(share, p, n):
    return (share - p) / math.sqrt(p * (1.0 - p) / n)


def test_poisson_sum_matches_the_gamma_integral():
    # P(m, x) against a fine trapezoid rule of the gamma density, across the
    # bulk of Gamma(m), and its exact closed forms at m = 1 and m = 2
    x = np.array([0.3, 1.0, 2.5])
    assert np.allclose(_lower_gamma_regularized(1, x), 1 - np.exp(-x), rtol=0, atol=1e-15)
    assert np.allclose(_lower_gamma_regularized(2, x), 1 - np.exp(-x) * (1 + x),
                       rtol=0, atol=1e-15)
    for m in (10, 200):
        for x in (m - 2 * math.sqrt(m), m, m + 2 * math.sqrt(m)):
            t = np.linspace(0.0, x, 200001)
            density = np.exp((m - 1) * np.log(np.maximum(t, 1e-300)) - t - math.lgamma(m))
            integral = float(np.sum((density[1:] + density[:-1]) / 2) * (t[1] - t[0]))
            assert _lower_gamma_regularized(m, x) == pytest.approx(integral, abs=1e-8)


@pytest.mark.parametrize("kind", ["gaussian", "sphere", "codeword"])
def test_overlap_quadrature_matches_its_moments(kind):
    # round_one_mean integrates 1, ov and ov^2 exactly: Exp(1/tau),
    # Beta(1, tau - 1) and the point masses
    cfg = _cfg(10)
    tau = cfg.tau
    mean, second = {
        "gaussian": (1 / tau, 2 / tau ** 2),
        "sphere": (1 / tau, 2 / (tau * (tau + 1))),
        "codeword": (1 / tau, 1 / tau),
    }[kind]
    moments = [round_one_mean(cfg, JammerSpec(kind=kind), g)
               for g in (lambda ov: 1.0, lambda ov: ov, lambda ov: ov ** 2)]
    assert moments == pytest.approx([1.0, mean, second], rel=0, abs=1e-12)


@pytest.mark.parametrize("m", ANTENNAS)
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_alg1_spends_one_round_as_often_as_round_one_stops(kind, m):
    cfg = _cfg(m)
    jammer = JammerSpec(kind=kind)
    p = stop_share(cfg, jammer)
    assert 0.05 < p < 0.95
    share = float(np.mean(run_trials(cfg, "alg1", jammer, N_TRIALS).n_used == 1))
    assert abs(_z(share, p, N_TRIALS)) <= Z_BOUND, (share, p)


@pytest.mark.parametrize("m", ANTENNAS)
def test_codeword_round_one_meets_the_threshold_at_the_exact_rate(m):
    # alg1 cannot face a codeword jammer; round one's blind estimate is
    # replayed from the engine's draws: the pilot index and its amplitude
    # from the protocol stream, then the training round itself
    cfg = _cfg(m)
    jammer = JammerSpec(kind="codeword")
    p = stop_share(cfg, jammer)
    estimates = []
    for i in range(N_TRIALS):
        r = gen_channel_factor(substream(cfg.master_seed, i, TAG_CHANNEL), m, cfg.beta_u,
                               cfg.beta_j)
        rng = substream(cfg.master_seed, i, TAG_PROTOCOL)
        k = int(rng.integers(cfg.tau))
        estimates.append(run_training(cfg, r, draw_overlap_amplitude(rng, jammer, k, cfg.tau),
                                      rng))
    share = float(np.mean(np.array(estimates) <= cfg.epsilon))
    assert abs(_z(share, p, N_TRIALS)) <= Z_BOUND, (share, p)


@pytest.mark.parametrize("m", ANTENNAS)
@pytest.mark.parametrize("kind", ["gaussian", "sphere", "codeword"])
def test_alg2_spends_one_round_at_least_as_often_as_round_one_stops(kind, m):
    # one-sided: alg2 also stops when its search predicts no gain
    n = N_TRIALS // 4
    cfg = _cfg(m)
    jammer = JammerSpec(kind=kind)
    p = stop_share(cfg, jammer)
    single = float(np.mean(run_trials(cfg, "alg2", jammer, n).n_used == 1))
    assert _z(single, p, n) >= -Z_BOUND, (single, p)
