"""The exact conventional mean (jamsim.oracle.conventional_mean) against an
independent Simpson rule and against the trial engine."""

import math

import numpy as np
import pytest

from jamsim import JammerSpec, SystemConfig, run_trials
from jamsim.oracle import conventional_mean
from jamsim.rates import rate_from_overlap

Z_BOUND = 4.0


def _cfg(**kw):
    base = dict(M=50, T=200, tau=10, P=10.0, Q=10.0, epsilon=0.1, n_max=2, master_seed=3)
    base.update(kw)
    return SystemConfig(**base)


def _silent(cfg):
    return cfg.with_powers(cfg.p_t, cfg.p_d, cfg.q_t, 0.0)


def _simpson_mean(cfg, jammer):
    """E[rate(X, 1)] by Simpson's rule in X itself, on geometric panels of its support.

    X ~ Exp(mean 1/tau) for gaussian, density tau e^(-tau x) on [0, 70/tau];
    X ~ Beta(1, tau - 1) for sphere, density (tau - 1)(1 - x)^(tau - 2) on [0, 1].
    The panels start at 1e-13 so that the rate's turn near 0 at large M is
    resolved.
    """
    rc = cfg if jammer.data_phase_active else _silent(cfg)
    tau = cfg.tau
    if jammer.kind == "gaussian":
        top = 70.0 / tau

        def density(x):
            return tau * math.exp(-tau * x)
    else:
        top = 1.0

        def density(x):
            return (tau - 1) * (1.0 - x) ** (tau - 2)
    edges = [0.0, *np.geomspace(1e-13, top, 40)]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = np.linspace(lo, hi, 101)
        g = np.array([density(v) * rate_from_overlap(rc, v, 1).rate for v in x])
        total += (x[1] - x[0]) / 3 * (g[0] + g[-1] + 4 * g[1:-1:2].sum() + 2 * g[2:-1:2].sum())
    return total


_CONTINUOUS = {
    "gaussian": (_cfg(), JammerSpec()),
    "sphere": (_cfg(), JammerSpec(kind="sphere")),
    "gaussian-data-phase-off": (_cfg(), JammerSpec(data_phase_active=False)),
    "gaussian-explicit-powers": (_cfg(P=1.0, Q=1.0, powers=(1.2, 0.95, 2.0, 0.7)),
                                 JammerSpec()),
    "sphere-tau-2": (_cfg(tau=2), JammerSpec(kind="sphere")),
    "gaussian-large-m": (_cfg(M=5000, tau=2), JammerSpec()),
    "sphere-large-m-first-pilot": (_cfg(M=5000, tau=4, first_pilot=1),
                                   JammerSpec(kind="sphere")),
}


@pytest.mark.parametrize("case", sorted(_CONTINUOUS))
def test_conventional_mean_matches_a_simpson_rule(case):
    cfg, jammer = _CONTINUOUS[case]
    assert conventional_mean(cfg, jammer) == pytest.approx(_simpson_mean(cfg, jammer),
                                                           abs=1e-7)


def test_conventional_mean_of_the_point_laws():
    cfg = _cfg(tau=4)
    at_zero, at_one = (rate_from_overlap(cfg, x, 1).rate for x in (0.0, 1.0))
    assert conventional_mean(cfg, JammerSpec(kind="absent")) == \
        rate_from_overlap(_silent(cfg), 0.0, 1).rate
    codeword = JammerSpec(kind="codeword", codeword_index=2)
    assert conventional_mean(cfg, codeword) == pytest.approx(
        at_one / 4 + 3 * at_zero / 4, rel=1e-15)
    assert conventional_mean(_cfg(tau=4, first_pilot=2), codeword) == at_one
    assert conventional_mean(_cfg(tau=4, first_pilot=0), codeword) == at_zero
    off = JammerSpec(kind="codeword", codeword_index=2, data_phase_active=False)
    assert conventional_mean(_cfg(tau=4, first_pilot=2), off) == \
        rate_from_overlap(_silent(cfg), 1.0, 1).rate
    one = _cfg(tau=1)
    assert conventional_mean(one, JammerSpec(kind="sphere")) == \
        rate_from_overlap(one, 1.0, 1).rate
    with pytest.raises(ValueError, match="out of range"):
        conventional_mean(cfg, JammerSpec(kind="codeword", codeword_index=4))


# each random law once, with the variants on top of it; 10^5 trials on two
# workers. The point laws (absent, codeword with first_pilot) give one rate on
# every trial, so a few hundred trials test them as well as 10^5 would.
_ENGINE_CASES = {
    "gaussian-explicit-powers": (_cfg(P=1.0, Q=1.0, powers=(1.2, 0.95, 2.0, 0.7)),
                                 JammerSpec(), 10**5),
    "sphere-data-phase-off": (_cfg(tau=4), JammerSpec(kind="sphere", data_phase_active=False),
                              10**5),
    "codeword": (_cfg(tau=4), JammerSpec(kind="codeword", codeword_index=1), 10**5),
    "absent": (_cfg(), JammerSpec(kind="absent"), 300),
    "codeword-first-pilot": (_cfg(tau=4, first_pilot=1),
                             JammerSpec(kind="codeword", codeword_index=1), 300),
}


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_conventional_mean_matches_the_engine(case):
    cfg, jammer, n = _ENGINE_CASES[case]
    rates = run_trials(cfg, "conventional", jammer, n, n_workers=2).rates
    exact = conventional_mean(cfg, jammer)
    if rates.min() == rates.max():
        assert rates[0] == exact
        return
    stderr = rates.std(ddof=1) / math.sqrt(n)
    assert abs(rates.mean() - exact) <= Z_BOUND * stderr, (rates.mean(), exact, stderr)
