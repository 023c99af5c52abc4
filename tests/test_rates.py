import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim import SystemConfig
from jamsim.estimation import mmse_coefficients
from jamsim.rates import effective_sinr, rate_from_overlap, rate_random_jamming, rates_at
from jamsim.sweep import PRESET_NAMES, derive_config, preset_specs


def _cfg(**kw):
    base = dict(M=50, T=200, tau=10, P=1.0, Q=1.0, n_max=2)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# effective SINR
# ---------------------------------------------------------------------------

def test_sinr_without_overlap():
    cfg = _cfg()
    _, gamma = mmse_coefficients(cfg, 0.0)
    assert gamma == pytest.approx(10 / 11)
    assert effective_sinr(cfg, 0.0) == pytest.approx(500 / 33, rel=1e-12)


def test_sinr_with_full_overlap():
    cfg = _cfg()
    _, gamma = mmse_coefficients(cfg, 1.0)
    assert gamma == pytest.approx(10 / 21)
    assert effective_sinr(cfg, 1.0) == pytest.approx(500 / 563, rel=1e-12)


def test_sinr_jam_free_grows_with_antennas():
    previous = 0.0
    for m in (10, 100, 1000):
        cfg = _cfg(M=m, Q=0.0)
        _, gamma = mmse_coefficients(cfg, 0.0)
        rho = effective_sinr(cfg, 0.0)
        expected = m * cfg.p_d * gamma / (cfg.p_d * cfg.beta_u + 1.0)
        assert rho == pytest.approx(expected, rel=1e-12)
        assert rho > previous
        previous = rho


def test_sinr_rejects_bad_inputs():
    cfg = _cfg(P=0.0)
    with pytest.raises(ValueError):
        effective_sinr(cfg, 0.0)
    cfg = _cfg()
    for overlap in (-0.2, math.nan, math.inf, np.array([0.1, -math.inf])):
        with pytest.raises(ValueError, match="overlap_sq must be finite and nonnegative"):
            effective_sinr(cfg, overlap)


def test_sinr_overflow_raises():
    # q_d*q_t overflows from P = Q ~ 1e155; below that the saturated rate stands
    with pytest.raises(ValueError, match="overflow the SINR"):
        rate_from_overlap(SystemConfig(P=1e160, Q=1e160), 0.1)
    report = rate_from_overlap(SystemConfig(P=1e150, Q=1e150), 0.1)
    assert report.rate == pytest.approx(2.840449018569273, rel=1e-12)


def _preset_configs():
    return [derive_config(spec.base, spec.axis, value)
            for name in PRESET_NAMES
            for spec in preset_specs(name, n_trials=1, master_seed=0, n_workers=1)
            for value in spec.values]


def _closed_form_rate(cfg, ov, n_used):
    """The achievable rate at one squared overlap, written out in plain floats.

    prelog log2(1 + M p_d gamma / (p_d beta_u + q_d beta_j
    + M (q_d q_t / p_t) (beta_j / beta_u)^2 ov gamma + 1)), with
    gamma = tau p_t beta_u^2 / (tau p_t beta_u + tau q_t beta_j ov + 1),
    each product grouped as rates.py groups it, so the two round alike.
    """
    root = math.sqrt(cfg.tau * cfg.p_t)
    gamma = (root * cfg.beta_u / (cfg.tau * cfg.p_t * cfg.beta_u
                                  + cfg.tau * cfg.q_t * cfg.beta_j * ov + 1.0) * root * cfg.beta_u)
    contamination = cfg.M * (cfg.q_d * cfg.q_t / cfg.p_t) * (cfg.beta_j / cfg.beta_u) ** 2
    den = cfg.p_d * cfg.beta_u + cfg.q_d * cfg.beta_j + contamination * ov * gamma + 1.0
    return (1.0 - n_used * cfg.tau / cfg.T) * math.log2(1.0 + cfg.M * cfg.p_d * gamma / den)


def test_rates_at_is_the_closed_form_bit_for_bit():
    # on every point of both presets, at the ends 0 and 1, at a draw of
    # round one's law and at uniform overlaps, for every transmission count.
    # The reference takes math.log2; np.log2 differs from it in the last bit
    # on some of these inputs, so rates_at must take it too
    rng = np.random.default_rng(11)
    configs = _preset_configs()
    assert len(configs) == 29
    for cfg in configs:
        overlaps = np.concatenate([[0.0, 1.0, 5e-324, 1e-300], rng.exponential(1 / cfg.tau, 300),
                                   rng.random(300)])
        for n_used in range(1, cfg.n_max + 1):
            expected = [_closed_form_rate(cfg, ov, n_used) for ov in overlaps.tolist()]
            assert rates_at(cfg, overlaps, n_used).tolist() == expected, (cfg, n_used)
        # an array of counts, one per overlap, as the trial engine rates a row
        counts = rng.integers(1, cfg.n_max + 1, len(overlaps))
        expected = [_closed_form_rate(cfg, ov, n) for ov, n in zip(overlaps.tolist(),
                                                                    counts.tolist())]
        assert rates_at(cfg, overlaps, counts).tolist() == expected, cfg
    # any shape, a scalar included
    cfg = configs[0]
    grid = rng.random((3, 4))
    assert rates_at(cfg, grid).shape == (3, 4)
    assert rates_at(cfg, grid)[2, 1] == _closed_form_rate(cfg, float(grid[2, 1]), 1)
    assert rates_at(cfg, 0.25, 2) == _closed_form_rate(cfg, 0.25, 2)


def test_rates_at_raises_on_bad_input():
    # a bad overlap names overlap_sq, not the powers; the powers are named
    # only when the SINR really overflows
    for bad in (-0.2, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="overlap_sq must be finite and nonnegative"):
            rates_at(_cfg(), np.array([0.1, bad]))
        with pytest.raises(ValueError, match="overlap_sq must be finite and nonnegative"):
            rate_from_overlap(_cfg(), bad)
    with pytest.raises(ValueError, match="overflow the SINR"):
        rates_at(SystemConfig(P=1e160, Q=1e160), np.array([0.0, 0.1]))
    with pytest.raises(ValueError, match="exceed T"):
        rates_at(_cfg(), np.array([0.1]), 20)


@settings(max_examples=60, deadline=None)
@given(ov=st.floats(0.0, 1.0), bump=st.floats(0.01, 1.0),
       p=st.floats(0.1, 10.0), q=st.floats(0.1, 10.0))
def test_sinr_monotone_in_overlap_and_jammer_power(ov, bump, p, q):
    # rho never improves when the overlap or either jammer power grows
    def cfg_with(q_t, q_d):
        return SystemConfig(M=32, T=200, tau=10, P=p, Q=max(q_t, q_d),
                            powers=(p, p, q_t, q_d))

    cfg = cfg_with(q, q)
    rho = effective_sinr(cfg, ov)
    assert effective_sinr(cfg, min(ov + bump, 1.0)) <= rho + 1e-12
    assert effective_sinr(cfg_with(q + bump, q), ov) <= rho + 1e-12
    assert effective_sinr(cfg_with(q, q + bump), ov) <= rho + 1e-12


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_rate_zero_sinr():
    # no data power leaves an SINR of 0 and a rate of exactly 0
    assert rates_at(_cfg(powers=(1.0, 0.0, 1.0, 1.0)), 0.3) == 0.0


def test_rate_single_transmission_value():
    # SINR 500/33 at overlap 0 (test_sinr_without_overlap)
    cfg = _cfg()
    rho = 500 / 33
    assert rates_at(cfg, 0.0, 1) == pytest.approx(0.95 * math.log2(1 + rho), rel=1e-12)
    assert rates_at(cfg, 0.0, 1) == pytest.approx(3.8129, abs=5e-4)


def test_rate_second_transmission_only_changes_prelog():
    cfg = _cfg()
    rho = effective_sinr(cfg, 0.42)
    assert rates_at(cfg, 0.42, 2) == pytest.approx(0.90 * math.log2(1 + rho), rel=1e-12)
    assert rates_at(cfg, 0.42, 2) / rates_at(cfg, 0.42, 1) == pytest.approx(0.90 / 0.95,
                                                                            rel=1e-12)


def test_rate_rejects_training_overrun():
    cfg = _cfg(tau=60, T=200, n_max=2)
    for n_used in (4, np.array([1, 4])):
        with pytest.raises(ValueError, match="exceed T"):
            cfg.prelog(n_used)
        with pytest.raises(ValueError, match="exceed T"):
            rates_at(cfg, 0.5, n_used)


def test_rate_report_invariant():
    cfg = _cfg()
    report = rate_from_overlap(cfg, 0.3, 2)
    assert report.rate == pytest.approx(report.prelog * math.log2(1 + report.rho), rel=1e-12)
    assert report.prelog == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# large-array limit
# ---------------------------------------------------------------------------

def test_rate_saturates_to_limit():
    # bounded in M and within 0.05 bits of the exact limit at M = 1e6 for a
    # small overlap. As M grows the SINR tends to
    # L = p_t p_d beta_u^2 / (q_t q_d beta_j^2 overlap^2), so the rate
    # saturates at prelog*log2(1 + L)
    overlap = 0.01
    cfg = _cfg()
    limit_sinr = (cfg.p_t * cfg.p_d * cfg.beta_u ** 2
                  / (cfg.q_t * cfg.q_d * cfg.beta_j ** 2 * overlap))
    limit = cfg.prelog(1) * math.log2(1 + limit_sinr)
    r_mid = rate_from_overlap(_cfg(M=10**5), overlap, 1).rate
    r_big = rate_from_overlap(_cfg(M=10**6), overlap, 1).rate
    r_huge = rate_from_overlap(_cfg(M=10**7), overlap, 1).rate
    assert abs(r_big - limit) < 0.05
    assert r_mid < r_big < r_huge < limit + 0.05
    assert r_huge - r_big < 0.002   # saturation: growth has stalled


@pytest.mark.parametrize("powers,overlap", [
    ((1.0, 1.0, 0.0, 1.0), 0.7),    # jammer silent during training
    ((1.0, 1.0, 1.0, 1.0), 0.0),    # jamming orthogonal to the pilot
])
def test_rate_doubling_without_contamination(powers, overlap):
    # with a clean training phase, doubling M adds one bit times the prelog
    def at(m):
        cfg = SystemConfig(M=m, T=200, tau=10, P=1.0, Q=1.0,
                           powers=powers)
        return rate_from_overlap(cfg, overlap, 1).rate

    prelog = _cfg().prelog(1)
    for m in (10**3, 10**4, 10**5):
        assert at(2 * m) - at(m) == pytest.approx(prelog, abs=0.01)


# ---------------------------------------------------------------------------
# retransmission rates
# ---------------------------------------------------------------------------

def test_random_jamming_single_round_reduces_to_base_formulas():
    cfg = _cfg()
    report = rate_random_jamming(cfg, [0.5])
    base = rate_from_overlap(cfg, 0.5, 1)
    assert report.rate == base.rate
    assert report.n_used == 1


def test_random_jamming_uses_min_overlap_and_full_prelog():
    cfg = _cfg()
    report = rate_random_jamming(cfg, [0.5, 0.1])
    assert report.overlap_sq_used == 0.1
    assert report.n_used == 2
    assert report.prelog == pytest.approx(0.9)


def test_random_jamming_wasted_retransmission_costs_rate():
    # first transmission was already the best: the min rule keeps its
    # overlap but the extra training still shrinks the prelog
    cfg = _cfg()
    wasted = rate_random_jamming(cfg, [0.02, 0.5])
    single = rate_from_overlap(cfg, 0.02, 1)
    assert wasted.overlap_sq_used == 0.02
    assert wasted.rate < single.rate


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
def test_random_jamming_alpha_dominated_by_first(overlaps):
    # the min rule never sees more pilot contamination (alpha) than the
    # first round, so its SINR is never below the first round's
    cfg = _cfg()
    listed = rate_random_jamming(cfg, overlaps)
    first = rate_from_overlap(cfg, overlaps[0], len(overlaps))
    assert listed.rho >= first.rho - 1e-12


def test_random_jamming_validation():
    cfg = _cfg()
    with pytest.raises(ValueError):
        rate_random_jamming(cfg, [])
    with pytest.raises(ValueError):
        rate_random_jamming(cfg, [0.1, 0.2, 0.3])   # n_max is 2
    with pytest.raises(ValueError):
        rate_random_jamming(cfg, [0.1], n_used=2)

