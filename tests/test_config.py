import dataclasses
import math

import numpy as np
import pytest

from jamsim import JammerSpec, SystemConfig, snr_db_to_power


def test_uniform_policy_saturates_budgets():
    cfg = SystemConfig(M=4, T=100, tau=5, P=3.0, Q=0.5)
    assert cfg.p_t == cfg.p_d == 3.0
    assert cfg.q_t == cfg.q_d == 0.5
    # tau*p_t + (T-tau)*p_d == T*P with equality
    assert cfg.tau * cfg.p_t + (cfg.T - cfg.tau) * cfg.p_d == pytest.approx(cfg.T * cfg.P)


def test_explicit_policy_budget_enforced():
    cfg = SystemConfig(M=4, T=100, tau=5, P=1.0, Q=1.0,
                       powers=(2.0, 0.9, 1.0, 1.0))
    assert cfg.p_t == 2.0 and cfg.p_d == 0.9
    with pytest.raises(ValueError, match="user power budget"):
        SystemConfig(M=4, T=100, tau=5, P=1.0, powers=(2.0, 1.1, 1.0, 1.0))
    with pytest.raises(ValueError, match="jammer power budget"):
        SystemConfig(M=4, T=100, tau=5, Q=0.1, powers=(1.0, 1.0, 1.0, 1.0))


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
    dict(master_seed=1.5),
    dict(master_seed=-1),
    dict(master_seed=2**64),
    dict(P=math.nan),
    dict(Q=math.inf),
    dict(beta_u=math.nan),
    dict(beta_j=math.inf),
    dict(epsilon=math.nan),
    dict(powers=(1.0, math.nan, 0.0, 0.0)),
    dict(powers=(1.0, math.inf, 0.0, 0.0)),
    dict(powers=(1.0, -0.5, 0.0, 0.0)),
    dict(powers=(1.0, 1.0, 0.0)),
    dict(powers=(1.0, 1.0, 0.0, 0.0, 0.0)),
    dict(M=50.5),
    dict(T=200.0),
    dict(tau=10.5),
    dict(n_max=2.0),
    dict(M=True),                         # a bool is not an integer
    dict(n_max=True),
    dict(master_seed=True),
    dict(powers=[1.0, 1.0, 0.0, 0.0]),    # a list is not hashable
    dict(first_pilot=10),                 # == tau
    dict(first_pilot=-1),
    dict(first_pilot=1.5),
    dict(first_pilot=True),
    dict(opt_mode="psychic"),
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_threshold_modes():
    # epsilon bounds the squared overlap; an amplitude threshold e is epsilon = e**2
    squared = SystemConfig(epsilon=0.1)
    assert squared.overlap_below_threshold(0.04)
    assert not squared.overlap_below_threshold(0.2)


def test_prelog():
    cfg = SystemConfig(T=200, tau=10)
    assert cfg.prelog(1) == pytest.approx(0.95)
    assert cfg.prelog(2) == pytest.approx(0.90)
    # an array of counts gives one prelog per count, as each count alone does
    assert (cfg.prelog(np.array([1, 2, 1])).tolist()
            == [cfg.prelog(1), cfg.prelog(2), cfg.prelog(1)])
    with pytest.raises(ValueError):
        cfg.prelog(20)


def test_snr_conversion():
    assert snr_db_to_power(10.0) == pytest.approx(10.0)
    assert snr_db_to_power(0.0) == 1.0
    assert snr_db_to_power(5.0) == pytest.approx(10 ** 0.5)


def test_replaced_powers_revalidate():
    cfg = SystemConfig(M=4, T=100, tau=5, P=1.0, Q=1.0)
    silenced = dataclasses.replace(cfg, powers=(cfg.p_t, cfg.p_d, cfg.q_t, 0.0))
    assert silenced.q_d == 0.0 and silenced.q_t == 1.0
    assert math.isclose(silenced.p_d, cfg.p_d)
    with pytest.raises(ValueError, match="user power budget"):
        dataclasses.replace(cfg, powers=(30.0, 1.0, 1.0, 1.0))


def test_jammer_is_checked_with_the_config():
    # a codeword jammer's index must name one of the tau pilots, here and
    # after any replace that shrinks tau
    codeword = JammerSpec(kind="codeword", codeword_index=4)
    assert SystemConfig(tau=5, jammer=codeword).jammer.pilot(5) == 4
    with pytest.raises(ValueError, match="codeword_index 4 out of range for tau=4"):
        SystemConfig(tau=4, jammer=codeword)
    with pytest.raises(ValueError, match="codeword_index 4 out of range"):
        dataclasses.replace(SystemConfig(tau=5, jammer=codeword), tau=3)
    with pytest.raises(ValueError, match="must be a JammerSpec"):
        SystemConfig(jammer="gaussian")
    assert SystemConfig().jammer == JammerSpec()


def _bits(values):
    return [float(v).hex() for v in values]


_TERM_CONFIGS = [
    SystemConfig(M=7, T=90, tau=6, beta_u=0.7, beta_j=1.3, P=3.1, Q=2.2),
    SystemConfig(M=7, T=90, tau=6, P=1.0, Q=1.0, powers=(1.2, 0.95, 2.0, 0.7)),
    SystemConfig(M=50, T=200, tau=4, P=10.0, Q=10.0, jammer=JammerSpec(data_phase_active=False)),
]


@pytest.mark.parametrize("cfg", _TERM_CONFIGS)
def test_held_terms_are_the_expressions_they_stand_for(cfg):
    # bit for bit, and computed once: a second read returns the same tuple
    assert _bits(cfg.training_amplitudes) == _bits(
        (math.sqrt(cfg.tau * cfg.p_t), math.sqrt(cfg.tau * cfg.q_t)))
    assert _bits(cfg.mmse_terms) == _bits(
        (cfg.tau * cfg.p_t * cfg.beta_u, cfg.tau * cfg.q_t * cfg.beta_j,
         math.sqrt(cfg.tau * cfg.p_t), cfg.beta_u))
    assert _bits(cfg.sinr_terms) == _bits(
        (cfg.M * (cfg.q_d * cfg.q_t / cfg.p_t) * (cfg.beta_j / cfg.beta_u) ** 2,
         cfg.p_d * cfg.beta_u + cfg.q_d * cfg.beta_j, cfg.M * cfg.p_d))
    scale = cfg.tau * cfg.q_t * cfg.beta_j
    assert _bits(cfg.gram_terms) == _bits(
        (scale * cfg.M, cfg.p_t * cfg.beta_u / (cfg.q_t * cfg.beta_j), 1.0 / scale))
    for name in ("training_amplitudes", "mmse_terms", "sinr_terms", "gram_terms"):
        assert getattr(cfg, name) is getattr(cfg, name)


def test_sinr_terms_need_training_power():
    with pytest.raises(ValueError, match="undefined for p_t = 0"):
        SystemConfig(P=0.0).sinr_terms


def _terms(cfg):
    return cfg.training_amplitudes, cfg.mmse_terms, cfg.sinr_terms, cfg.gram_terms


@pytest.mark.parametrize("field,value", [
    ("M", 9), ("tau", 5), ("beta_u", 0.5), ("beta_j", 2.0), ("P", 4.0), ("Q", 1.5),
    ("powers", (1.2, 0.95, 2.0, 0.7)), ("jammer", JammerSpec(data_phase_active=False)),
])
def test_replace_gives_fresh_terms(field, value):
    # the terms are computed on the original first; a replaced config holds
    # those of its own fields, as one built from scratch does
    cfg = SystemConfig(M=8, T=60, tau=4, P=2.0, Q=3.0)
    before = _terms(cfg)
    replaced = dataclasses.replace(cfg, **{field: value})
    built = SystemConfig(**{**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
                            field: value})
    assert _terms(replaced) == _terms(built) != before
    assert _terms(cfg) == before
