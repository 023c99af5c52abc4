import math

import pytest

from jamsim import SystemConfig, snr_db_to_power


def test_uniform_policy_saturates_budgets():
    cfg = SystemConfig(M=4, T=100, tau=5, P=3.0, Q=0.5)
    assert cfg.p_t == cfg.p_d == 3.0
    assert cfg.q_t == cfg.q_d == 0.5
    # tau*p_t + (T-tau)*p_d == T*P with equality
    assert cfg.tau * cfg.p_t + (cfg.T - cfg.tau) * cfg.p_d == pytest.approx(cfg.T * cfg.P)


def test_explicit_policy_budget_enforced():
    cfg = SystemConfig(M=4, T=100, tau=5, P=1.0, Q=1.0,
                       power_policy="explicit", powers=(2.0, 0.9, 1.0, 1.0))
    assert cfg.p_t == 2.0 and cfg.p_d == 0.9
    with pytest.raises(ValueError, match="user power budget"):
        SystemConfig(M=4, T=100, tau=5, P=1.0, power_policy="explicit",
                     powers=(2.0, 1.1, 1.0, 1.0))
    with pytest.raises(ValueError, match="jammer power budget"):
        SystemConfig(M=4, T=100, tau=5, Q=0.1, power_policy="explicit",
                     powers=(1.0, 1.0, 1.0, 1.0))


@pytest.mark.parametrize("kwargs", [
    dict(M=0),
    dict(tau=200, T=200),
    dict(tau=0),
    dict(n_max=0),
    dict(n_max=2, tau=100, T=200),      # n_max*tau == T
    dict(beta_u=0.0),
    dict(beta_j=-1.0),
    dict(epsilon=-0.1),
    dict(P=-1.0),
    dict(power_policy="banana"),
    dict(power_policy="uniform", powers=(1, 1, 1, 1)),
    dict(power_policy="explicit"),
    dict(threshold_on="cubed"),
    dict(rate_accounting="psychic"),
    dict(master_seed=-1),
    dict(master_seed=2**64),
    dict(P=math.nan),
    dict(Q=math.inf),
    dict(beta_u=math.nan),
    dict(beta_j=math.inf),
    dict(epsilon=math.nan),
    dict(power_policy="explicit", powers=(1.0, math.nan, 0.0, 0.0)),
    dict(M=50.5),
    dict(T=200.0),
    dict(tau=10.5),
    dict(n_max=2.0),
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_threshold_modes():
    squared = SystemConfig(epsilon=0.1, threshold_on="squared")
    amplitude = SystemConfig(epsilon=0.1, threshold_on="amplitude")
    # overlap_sq = 0.04 means amplitude 0.2
    assert squared.overlap_below_threshold(0.04)
    assert not amplitude.overlap_below_threshold(0.04)
    assert amplitude.overlap_below_threshold(0.0064)    # amplitude 0.08
    assert not squared.overlap_below_threshold(0.2)


def test_prelog():
    cfg = SystemConfig(T=200, tau=10)
    assert cfg.prelog(1) == pytest.approx(0.95)
    assert cfg.prelog(2) == pytest.approx(0.90)
    with pytest.raises(ValueError):
        cfg.prelog(20)


def test_snr_conversion():
    assert snr_db_to_power(10.0) == pytest.approx(10.0)
    assert snr_db_to_power(0.0) == 1.0
    assert snr_db_to_power(5.0) == pytest.approx(10 ** 0.5)


def test_with_powers_revalidates():
    cfg = SystemConfig(M=4, T=100, tau=5, P=1.0, Q=1.0)
    silenced = cfg.with_powers(cfg.p_t, cfg.p_d, cfg.q_t, 0.0)
    assert silenced.q_d == 0.0 and silenced.q_t == 1.0
    assert math.isclose(silenced.p_d, cfg.p_d)
    with pytest.raises(ValueError):
        cfg.with_powers(30.0, 1.0, 1.0, 1.0)
