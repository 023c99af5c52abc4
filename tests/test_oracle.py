"""The exact conventional mean (jamsim.oracle.conventional_mean) against an
independent Simpson rule and against the trial engine, and alg2's round-two
law (other_min_mean, retransmit_rates, retransmit_mean) against its
moments and against brute-force draws of the jamming sequence."""

import dataclasses
import math

import numpy as np
import pytest

from jamsim import (JammerSpec, SystemConfig, average_rate, draw_overlap_amplitude, run_trials,
                    substream)
from jamsim.channel import complete_amplitudes
from jamsim.oracle import (conventional_mean, other_min_mean, retransmit_mean, retransmit_rates,
                           stop_share)
from jamsim.rates import rate_from_overlap

Z_BOUND = 4.0


def _cfg(**kw):
    base = dict(M=50, T=200, tau=10, P=10.0, Q=10.0, epsilon=0.1, n_max=2, master_seed=3)
    base.update(kw)
    return SystemConfig(**base)


def _silent(cfg):
    """cfg with explicit powers of q_d = 0, under a jammer that hits the data phase."""
    return dataclasses.replace(cfg, powers=(cfg.p_t, cfg.p_d, cfg.q_t, 0.0),
                               jammer=dataclasses.replace(cfg.jammer, data_phase_active=True))


def _simpson_mean(cfg):
    """E[rate(X, 1)] by Simpson's rule in X itself, on geometric panels of its support.

    X ~ Exp(mean 1/tau) for gaussian, density tau e^(-tau x) on [0, 70/tau];
    X ~ Beta(1, tau - 1) for sphere, density (tau - 1)(1 - x)^(tau - 2) on [0, 1].
    The panels start at 1e-13 so that the rate's turn near 0 at large M is
    resolved.
    """
    rc = cfg if cfg.jammer.data_phase_active else _silent(cfg)
    tau = cfg.tau
    if cfg.jammer.kind == "gaussian":
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


_SPHERE = JammerSpec(kind="sphere")
_CONTINUOUS = {
    "gaussian": _cfg(),
    "sphere": _cfg(jammer=_SPHERE),
    "gaussian-data-phase-off": _cfg(jammer=JammerSpec(data_phase_active=False)),
    "gaussian-explicit-powers": _cfg(P=1.0, Q=1.0, powers=(1.2, 0.95, 2.0, 0.7)),
    "sphere-tau-2": _cfg(tau=2, jammer=_SPHERE),
    "gaussian-large-m": _cfg(M=5000, tau=2),
    "sphere-large-m-first-pilot": _cfg(M=5000, tau=4, first_pilot=1, jammer=_SPHERE),
}


@pytest.mark.parametrize("case", sorted(_CONTINUOUS))
def test_conventional_mean_matches_a_simpson_rule(case):
    cfg = _CONTINUOUS[case]
    assert conventional_mean(cfg) == pytest.approx(_simpson_mean(cfg), abs=1e-7)


def test_conventional_mean_of_the_point_laws():
    cfg = _cfg(tau=4)
    at_zero, at_one = (rate_from_overlap(cfg, x, 1).rate for x in (0.0, 1.0))
    assert conventional_mean(_cfg(tau=4, jammer=JammerSpec(kind="absent"))) == \
        rate_from_overlap(_silent(cfg), 0.0, 1).rate
    codeword = JammerSpec(kind="codeword", codeword_index=2)
    assert conventional_mean(_cfg(tau=4, jammer=codeword)) == pytest.approx(
        at_one / 4 + 3 * at_zero / 4, rel=1e-15)
    assert conventional_mean(_cfg(tau=4, first_pilot=2, jammer=codeword)) == at_one
    assert conventional_mean(_cfg(tau=4, first_pilot=0, jammer=codeword)) == at_zero
    off = JammerSpec(kind="codeword", codeword_index=2, data_phase_active=False)
    assert conventional_mean(_cfg(tau=4, first_pilot=2, jammer=off)) == \
        rate_from_overlap(_silent(cfg), 1.0, 1).rate
    one = _cfg(tau=1, jammer=_SPHERE)
    assert conventional_mean(one) == rate_from_overlap(one, 1.0, 1).rate
    with pytest.raises(ValueError, match="out of range"):
        _cfg(tau=4, jammer=JammerSpec(kind="codeword", codeword_index=4))


# each random law once, with the variants on top of it; 10^5 trials on two
# workers. The point laws (absent, codeword with first_pilot) give one rate on
# every trial, so a few hundred trials test them as well as 10^5 would.
_CODEWORD_1 = JammerSpec(kind="codeword", codeword_index=1)
_ENGINE_CASES = {
    "gaussian-explicit-powers": (_cfg(P=1.0, Q=1.0, powers=(1.2, 0.95, 2.0, 0.7)), 10**5),
    "sphere-data-phase-off": (
        _cfg(tau=4, jammer=JammerSpec(kind="sphere", data_phase_active=False)), 10**5),
    "codeword": (_cfg(tau=4, jammer=_CODEWORD_1), 10**5),
    "absent": (_cfg(jammer=JammerSpec(kind="absent")), 300),
    "codeword-first-pilot": (_cfg(tau=4, first_pilot=1, jammer=_CODEWORD_1), 300),
}


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_conventional_mean_matches_the_engine(case):
    cfg, n = _ENGINE_CASES[case]
    rates = run_trials(cfg, "conventional", n, n_workers=2).rates
    exact = conventional_mean(cfg)
    if rates.min() == rates.max():
        assert rates[0] == exact
        return
    stderr = rates.std(ddof=1) / math.sqrt(n)
    assert abs(rates.mean() - exact) <= Z_BOUND * stderr, (rates.mean(), exact, stderr)
    if cfg.jammer.is_random:
        # the reported row: with equal strata its mean is the plain mean,
        # and its stratified stderr is about a quarter of the plain one
        # (0.24 and 0.26 measured here)
        row = average_rate(cfg, "conventional", n, n_workers=2)
        assert row.mean_rate == rates.mean()
        assert 0.0 < row.stderr < 0.35 * stderr, (row.stderr, stderr)
        assert abs(row.mean_rate - exact) <= Z_BOUND * row.stderr, (row, exact)


# ---------------------------------------------------------------------------
# alg2's round-two law
# ---------------------------------------------------------------------------

def _other_min_moments(kind, tau):
    """E[v] and E[v^2]: v ~ Exp(mean mu), mu = 1/(tau (tau - 1)), for gaussian;
    v = W / (tau - 1), W ~ Beta(1, tau - 2), for sphere (W = 1 at tau = 2)."""
    if kind == "gaussian":
        mu = 1 / (tau * (tau - 1))
        return mu, 2 * mu ** 2
    if tau == 2:
        return 1.0, 1.0
    return 1 / (tau - 1) ** 2, 2 / ((tau - 1) ** 3 * tau)


@pytest.mark.parametrize("tau", [2, 3, 4, 20, 90])
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_other_min_quadrature_matches_its_moments(kind, tau):
    cfg = _cfg(tau=tau, jammer=JammerSpec(kind=kind))
    moments = [other_min_mean(cfg, g)
               for g in (np.ones_like, lambda v: v, lambda v: v ** 2)]
    assert moments == pytest.approx([1.0, *_other_min_moments(kind, tau)], rel=1e-12, abs=0)


@pytest.mark.parametrize("tau", [2, 4, 20])
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_other_min_law_matches_brute_force_draws(kind, tau):
    # the engine's draws: round one's amplitude a with a random pilot k,
    # then the other coordinates given a; v is their smallest squared
    # modulus, over 1 - |a|^2 for sphere. Its mean, its square's and the
    # retransmit rate's match the exact law, and v is independent of round
    # one: v (|a|^2 - 1/tau) has mean 0
    n = 20000
    cfg = _cfg(tau=tau, jammer=JammerSpec(kind=kind))
    jam = cfg.jammer
    rng = substream(71, tau)
    m, overlap_one = np.empty(n), np.empty(n)
    for i in range(n):
        k = int(rng.integers(tau))
        amp = draw_overlap_amplitude(rng, jam, k, tau)
        amps = complete_amplitudes(rng, jam, k, amp, tau)
        m[i] = min(abs(a) ** 2 for j, a in enumerate(amps) if j != k)
        overlap_one[i] = abs(amp) ** 2
    v = m if kind == "gaussian" else m / (1.0 - overlap_one)
    mean, second = _other_min_moments(kind, tau)
    samples = {
        "v": (v, mean),
        "v^2": (v ** 2, second),
        "rate": (retransmit_rates(cfg, m, overlap_one), retransmit_mean(cfg)),
        "v (|a|^2 - 1/tau)": (v * (overlap_one - 1 / tau), 0.0),
    }
    for name, (x, exact) in samples.items():
        stderr = x.std(ddof=1) / math.sqrt(n)
        if stderr < 1e-12:
            # sphere at tau = 2: v is 1 up to rounding, and the rate constant
            assert kind == "sphere" and tau == 2, name
            assert x == pytest.approx(exact, abs=1e-12), name
            continue
        assert abs(x.mean() - exact) <= Z_BOUND * stderr, (name, x.mean(), exact, stderr)


# (conventional_mean, stop_share, retransmit_mean) under _cfg(tau=tau),
# recorded. The quadrature is deterministic, so they are pinned bit for bit:
# a change to the rule or to how its nodes are mapped shows here first.
_PINNED_EXACT = {
    ("gaussian", 2): (1.9650261393571509, 0.21857415179605777, 1.9451773904747554),
    ("gaussian", 3): (2.276102326573737, 0.2915886205989665, 2.776067018749136),
    ("gaussian", 20): (3.335055548466816, 0.6466396635302237, 3.6331215196592614),
    ("sphere", 2): (1.7291220292988247, 0.1423381854180814, 1.4402832100001708),
    ("sphere", 3): (2.132602477263389, 0.24198210745350476, 2.6003477834425395),
    ("sphere", 20): (3.3270713864377535, 0.6462050914608162, 3.632944226468683),
}


@pytest.mark.parametrize("kind,tau", sorted(_PINNED_EXACT))
def test_exact_means_are_pinned(kind, tau):
    cfg = _cfg(tau=tau, jammer=JammerSpec(kind=kind))
    assert (conventional_mean(cfg), stop_share(cfg), retransmit_mean(cfg)) == \
        _PINNED_EXACT[kind, tau]


def test_other_min_needs_random_other_coordinates():
    for cfg in (_cfg(jammer=JammerSpec(kind="absent")),
                _cfg(jammer=JammerSpec(kind="codeword")),
                _cfg(tau=1),
                _cfg(tau=1, jammer=_SPHERE)):
        with pytest.raises(ValueError, match="no random other coordinates"):
            retransmit_mean(cfg)
