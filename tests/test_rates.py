import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim import (SystemConfig, asymptotic_rate_limit, effective_sinr,
                    mmse_coefficients, rate, rate_from_overlap,
                    rate_random_jamming)


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
    assert effective_sinr(cfg, gamma, 0.0) == pytest.approx(500 / 33, rel=1e-12)


def test_sinr_with_full_overlap():
    cfg = _cfg()
    _, gamma = mmse_coefficients(cfg, 1.0)
    assert gamma == pytest.approx(10 / 21)
    assert effective_sinr(cfg, gamma, 1.0) == pytest.approx(500 / 563, rel=1e-12)


def test_sinr_jam_free_grows_with_antennas():
    previous = 0.0
    for m in (10, 100, 1000):
        cfg = _cfg(M=m, Q=0.0)
        _, gamma = mmse_coefficients(cfg, 0.0)
        rho = effective_sinr(cfg, gamma, 0.0)
        expected = m * cfg.p_d * gamma / (cfg.p_d * cfg.beta_u + 1.0)
        assert rho == pytest.approx(expected, rel=1e-12)
        assert rho > previous
        previous = rho


def test_sinr_rejects_bad_inputs():
    cfg = _cfg(P=0.0)
    with pytest.raises(ValueError):
        effective_sinr(cfg, 0.5, 0.0)
    cfg = _cfg()
    with pytest.raises(ValueError):
        effective_sinr(cfg, -0.1, 0.0)
    with pytest.raises(ValueError):
        effective_sinr(cfg, 0.5, -0.2)


@settings(max_examples=60, deadline=None)
@given(ov=st.floats(0.0, 1.0), bump=st.floats(0.01, 1.0),
       p=st.floats(0.1, 10.0), q=st.floats(0.1, 10.0))
def test_sinr_monotone_in_overlap_and_jammer_power(ov, bump, p, q):
    # rho never improves when the overlap or either jammer power grows
    def cfg_with(q_t, q_d):
        return SystemConfig(M=32, T=200, tau=10, P=p, Q=max(q_t, q_d),
                            power_policy="explicit", powers=(p, p, q_t, q_d))

    def rho_at(config, overlap):
        _, gamma = mmse_coefficients(config, overlap)
        return effective_sinr(config, gamma, overlap)

    cfg = cfg_with(q, q)
    assert rho_at(cfg, min(ov + bump, 1.0)) <= rho_at(cfg, ov) + 1e-12
    assert rho_at(cfg_with(q + bump, q), ov) <= rho_at(cfg, ov) + 1e-12
    assert rho_at(cfg_with(q, q + bump), ov) <= rho_at(cfg, ov) + 1e-12


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_rate_zero_sinr():
    assert rate(_cfg(), 0.0) == 0.0


def test_rate_single_transmission_value():
    cfg = _cfg()
    rho = 500 / 33
    assert rate(cfg, rho, 1) == pytest.approx(0.95 * math.log2(1 + rho), rel=1e-12)
    assert rate(cfg, rho, 1) == pytest.approx(3.8129, abs=5e-4)


def test_rate_second_transmission_only_changes_prelog():
    cfg = _cfg()
    rho = 4.2
    assert rate(cfg, rho, 2) == pytest.approx(0.90 * math.log2(1 + rho), rel=1e-12)


def test_rate_rejects_training_overrun():
    cfg = _cfg(tau=60, T=200, n_max=2)
    with pytest.raises(ValueError):
        rate(cfg, 1.0, 4)
    with pytest.raises(ValueError):
        rate(cfg, -1.0, 1)


def test_rate_report_invariant():
    cfg = _cfg()
    report = rate_from_overlap(cfg, 0.3, 2)
    assert report.rate == pytest.approx(report.prelog * math.log2(1 + report.rho), rel=1e-12)
    assert report.prelog == pytest.approx(0.9)
    assert report.alpha >= 0.0


# ---------------------------------------------------------------------------
# large-array limit
# ---------------------------------------------------------------------------

def test_limit_unbounded_without_contamination():
    assert asymptotic_rate_limit(_cfg(), 0.0) == math.inf
    assert asymptotic_rate_limit(_cfg(Q=0.0), 0.5) == math.inf


def test_limit_zero_at_balanced_powers():
    assert asymptotic_rate_limit(_cfg(), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_limit_balanced_ratio_value():
    cfg = _cfg(P=2.0, Q=1.0, power_policy="explicit", powers=(2.0, 2.0, 1.0, 1.0))
    # power ratio 4, equal fading, full overlap: 0.95 * log2(4)
    assert asymptotic_rate_limit(cfg, 1.0) == pytest.approx(1.9, rel=1e-12)


def test_limit_can_be_negative():
    cfg = _cfg(P=1.0, Q=4.0)
    assert asymptotic_rate_limit(cfg, 1.0) < 0.0


def test_rate_saturates_to_limit():
    # bounded in M and within 0.05 bits of the limit at M = 1e6 for a small
    # overlap, where the limit has large SINR
    overlap = 0.01
    limit = asymptotic_rate_limit(_cfg(), overlap)
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
                           power_policy="explicit", powers=powers)
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
    cfg = _cfg()
    listed = rate_random_jamming(cfg, overlaps)
    first = rate_from_overlap(cfg, overlaps[0], len(overlaps))
    assert listed.alpha <= first.alpha + 1e-12


def test_random_jamming_validation():
    cfg = _cfg()
    with pytest.raises(ValueError):
        rate_random_jamming(cfg, [])
    with pytest.raises(ValueError):
        rate_random_jamming(cfg, [0.1, 0.2, 0.3])   # n_max is 2
    with pytest.raises(ValueError):
        rate_random_jamming(cfg, [0.1], n_used=2)

