"""Exactness of the reduced training-round sampler.

The trial engine draws each round's overlap amplitude alone
(draw_overlap_amplitude), the channel factor R (gen_channel_factor), then
||y_t||^2 (receive_despread) in O(1), and for alg2 the rest of the
jamming sequence given its amplitude (complete_amplitudes) and a factor of
the block gram given that draw (receive_block_factor) in O(tau^3). The
reference is the full path: draw_jammer_sequence and overlap_amplitude for
the sequence, gen_channel, receive_pilot_block and despread for the
M x tau block. Each statistic is compared between the two by a two-sample z
in units of its Monte Carlo standard error.
"""

import math

import numpy as np
import pytest

from jamsim import (JammerSpec, SystemConfig, draw_overlap_amplitude, gen_channel_factor,
                    run_algorithm1, run_algorithm2, run_trials, substream)
from jamsim.channel import (complete_amplitudes, crandn, draw_jammer_sequence, gen_channel,
                            jamming_overlap_sq, make_codebook, overlap_amplitude)
from jamsim.estimation import (despread, despread_power, estimate_jammer_gram,
                               estimate_overlap_sq, receive_block_factor, receive_despread,
                               receive_pilot_block, wishart_factor)
from jamsim.montecarlo import STRATA
from jamsim.protocols import select_retransmission_pilot
from jamsim.rates import rate_from_overlap
from jamsim.rng import TAG_CHANNEL, TAG_PROTOCOL

Z_BOUND = 4.0
N_BATCHES = 20


def _z(a, b):
    """Two-sample z of the means of two independent sample sets."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return (a.mean() - b.mean()) / se


def _batches(x, stat):
    """stat of each of N_BATCHES equal batches, the samples of a batch-means z."""
    return [stat(part) for part in np.array_split(np.asarray(x), N_BATCHES)]


def _var(x):
    return np.var(x, ddof=1)


def _corr(pair):
    return np.corrcoef(pair[:, 0], pair[:, 1])[0, 1]


def _sequences(tau):
    # round one sends codeword 1 against a jammer with squared overlap 0.3
    # and a complex phase; round two another codeword against a random jammer
    cb = make_codebook(tau)
    s_j = math.sqrt(0.3) * cb[1] + math.sqrt(0.7) * np.exp(0.7j) * cb[0]
    s_j2 = draw_jammer_sequence(substream(3, tau), JammerSpec(kind="sphere"), tau)
    return cb[1], s_j, cb[tau - 1], s_j2


def _cfg(m, tau):
    return SystemConfig(M=m, T=200, tau=tau, beta_u=1.3, beta_j=0.7, P=2.0, Q=1.5)


# ---------------------------------------------------------------------------
# overlap amplitudes: drawn alone, against those of a drawn sequence
# ---------------------------------------------------------------------------

AMPLITUDE_CASES = [(kind, tau) for kind in ("gaussian", "sphere") for tau in (1, 2, 4, 20)]


def _z_or_equal(a, b):
    """_z, or 0 when both samples are constant and equal up to rounding
    (|a|^2 = 1 of the sphere at tau = 1)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.std() < 1e-12 and b.std() < 1e-12:
        return 0.0 if abs(a.mean() - b.mean()) <= 1e-12 else math.inf
    return _z(a, b)


@pytest.mark.parametrize("kind,tau", AMPLITUDE_CASES)
def test_overlap_amplitude_matches_a_drawn_sequence(kind, tau):
    # a = s_j^T c_k* drawn alone against the same amplitude of a whole drawn
    # sequence, every pilot k in turn: the mean of a, the first two moments
    # of |a|^2, and the share of |a|^2 below each quartile of its exact law,
    # so that a wrong law with the right moments shows too. The quartiles are
    # the closed-form inverse CDFs, -ln(1 - p) / tau of CN(0, 1/tau)'s
    # squared modulus and 1 - (1 - p)^(1/(tau - 1)) of Beta(1, tau - 1); the
    # sphere's point mass at tau = 1 has none to split
    jammer = JammerSpec(kind=kind)
    cb = make_codebook(tau)
    pilots = np.arange(12000) % tau
    rng = substream(21, tau)
    alone = np.array([draw_overlap_amplitude(rng, jammer, k, tau) for k in pilots])
    rng = substream(22, tau)
    whole = np.array([overlap_amplitude(draw_jammer_sequence(rng, jammer, tau), cb[k])
                      for k in pilots])
    stats = {"Re a": np.real, "Im a": np.imag,
             "|a|^2": lambda a: np.abs(a) ** 2, "|a|^4": lambda a: np.abs(a) ** 4}
    if kind == "gaussian" or tau > 1:
        for p in (0.25, 0.5, 0.75):
            q = -math.log1p(-p) / tau if kind == "gaussian" else 1.0 - (1.0 - p) ** (1 / (tau - 1))
            stats[f"P(|a|^2 < q{p})"] = lambda a, q=q: np.abs(a) ** 2 < q
    zs = {name: _z_or_equal(stat(alone), stat(whole)) for name, stat in stats.items()}
    assert max(map(abs, zs.values())) <= Z_BOUND, zs


@pytest.mark.parametrize("kind,tau", AMPLITUDE_CASES)
def test_completed_amplitudes_rebuild_a_sequence(kind, tau):
    # alg2 draws the other amplitudes given a and rebuilds s_j = C^T a_hat:
    # the rebuilt sequence has amplitude a with pilot k, the sphere's has
    # unit norm, every amplitude has E|a_l|^2 = 1/tau, and every entry of the
    # sequence has the law of a drawn sequence's entry
    jammer = JammerSpec(kind=kind)
    cb = make_codebook(tau)
    n = 6000
    rng = substream(23, tau)
    amps = np.empty((n, tau), dtype=complex)
    for i in range(n):
        k = i % tau
        a = draw_overlap_amplitude(rng, jammer, k, tau)
        amps[i] = complete_amplitudes(rng, jammer, k, a, tau)
        assert amps[i, k] == a
        assert abs(overlap_amplitude(cb.T @ amps[i], cb[k]) - a) <= 1e-12
    if kind == "sphere":
        assert np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0)) <= 1e-12
    power = np.abs(amps) ** 2
    if tau > 1:
        z_amps = (power.mean(axis=0) - 1 / tau) / (power.std(axis=0, ddof=1) / math.sqrt(n))
        assert np.max(np.abs(z_amps)) <= Z_BOUND, z_amps
    rng = substream(24, tau)
    drawn = np.array([draw_jammer_sequence(rng, jammer, tau) for _ in range(n)])
    rebuilt = amps @ cb      # row i is (C^T a_hat_i)^T
    zs = [_z_or_equal(np.abs(rebuilt[:, l]) ** 2, np.abs(drawn[:, l]) ** 2) for l in range(tau)]
    assert max(map(abs, zs)) <= Z_BOUND, zs


@pytest.mark.parametrize("tau", [1, 2, 4, 20])
def test_fixed_jammer_amplitudes_are_exact(tau):
    # absent and codeword jammers draw nothing: their amplitude with every
    # pilot and their completed amplitudes are those of their sequence
    cb = make_codebook(tau)
    rng = substream(25, tau)
    jammers = [JammerSpec(kind="absent")] + [JammerSpec(kind="codeword", codeword_index=j)
                                             for j in sorted({0, tau // 2, tau - 1})]
    for jammer in jammers:
        s_j = draw_jammer_sequence(rng, jammer, tau)
        for k in range(tau):
            a = draw_overlap_amplitude(rng, jammer, k, tau)
            assert abs(a - overlap_amplitude(s_j, cb[k])) <= 1e-12
            assert np.max(np.abs(cb.T @ complete_amplitudes(rng, jammer, k, a, tau) - s_j),
                          initial=0.0) <= 1e-12
    with pytest.raises(ValueError, match="out of range"):
        draw_overlap_amplitude(rng, JammerSpec(kind="codeword", codeword_index=tau), 0, tau)
    # a pilot index outside [0, tau) is refused by every kind, not wrapped around
    for jammer in jammers + [JammerSpec(kind="gaussian"), JammerSpec(kind="sphere")]:
        for k in (-1, tau):
            with pytest.raises(ValueError, match="pilot index"):
                draw_overlap_amplitude(rng, jammer, k, tau)
            with pytest.raises(ValueError, match="pilot index"):
                complete_amplitudes(rng, jammer, k, 0j, tau)


# (M, tau): M above and below tau, and M = 1, 2, 3, where the span of the
# channels and the noise residual shrink
CASES = [(12, 4), (6, 8), (1, 4), (2, 4), (3, 4)]


def _despread_powers(cfg, n, seed, reduced):
    """||y_t||^2 of two rounds sharing the channels, for n trials: (n, 2)."""
    s_u, s_j, s_u2, s_j2 = _sequences(cfg.tau)
    rng = substream(seed, 0)
    out = np.empty((n, 2))
    for i in range(n):
        if reduced:
            r = gen_channel_factor(rng, cfg.M, cfg.beta_u, cfg.beta_j)
            for k, (pilot, jam) in enumerate(((s_u, s_j), (s_u2, s_j2))):
                amp = overlap_amplitude(jam, pilot)
                out[i, k] = despread_power(*receive_despread(cfg, r, amp, rng))
        else:
            g_u = gen_channel(rng, cfg.M, cfg.beta_u)
            g_j = gen_channel(rng, cfg.M, cfg.beta_j)
            for k, (pilot, jam) in enumerate(((s_u, s_j), (s_u2, s_j2))):
                y = despread(receive_pilot_block(cfg, g_u, g_j, pilot, jam, rng), pilot)
                out[i, k] = np.vdot(y, y).real
    return out


@pytest.mark.parametrize("m,tau", CASES)
def test_despread_power_matches_the_full_block(m, tau):
    cfg = _cfg(m, tau)
    n = 8000
    reduced = _despread_powers(cfg, n, 1, True)
    full = _despread_powers(cfg, n, 2, False)
    zs = {
        "mean round 1": _z(reduced[:, 0], full[:, 0]),
        "mean round 2": _z(reduced[:, 1], full[:, 1]),
        "variance round 1": _z(_batches(reduced[:, 0], _var), _batches(full[:, 0], _var)),
        "variance round 2": _z(_batches(reduced[:, 1], _var), _batches(full[:, 1], _var)),
        "cross-round correlation": _z(_batches(reduced, _corr), _batches(full, _corr)),
    }
    assert max(map(abs, zs.values())) <= Z_BOUND, zs


def _grams(cfg, n, seed, reduced):
    """(||y_t||^2, block gram) of round one for n trials: (n,), (n, tau, tau)."""
    s_u, s_j, _, _ = _sequences(cfg.tau)
    cb = make_codebook(cfg.tau)
    rng = substream(seed, 0)
    powers = np.empty(n)
    grams = np.empty((n, cfg.tau, cfg.tau), dtype=complex)
    for i in range(n):
        if reduced:
            r = gen_channel_factor(rng, cfg.M, cfg.beta_u, cfg.beta_j)
            y_q, resid = receive_despread(cfg, r, overlap_amplitude(s_j, s_u), rng)
            powers[i] = despread_power(y_q, resid)
            # drawn in codebook coordinates (s_u is pilot 1); @ cb takes it to sequences
            factor = receive_block_factor(cfg, r, 1, cb.conj() @ s_j, y_q, resid, rng) @ cb
            grams[i] = factor.conj().T @ factor
            # the gram is drawn given ||y_t||^2 and reproduces it; the form
            # s_u^T G s_u* is read as ||A s_u*||^2, since summing G's O(1)
            # entries down to a small ||y_t||^2 loses digits to rounding
            despread_again = factor @ np.conj(s_u)
            quad = np.vdot(despread_again, despread_again).real
            assert abs(quad - powers[i]) <= 1e-12 * powers[i]
        else:
            g_u = gen_channel(rng, cfg.M, cfg.beta_u)
            g_j = gen_channel(rng, cfg.M, cfg.beta_j)
            block = receive_pilot_block(cfg, g_u, g_j, s_u, s_j, rng)
            y = despread(block, s_u)
            powers[i] = np.vdot(y, y).real
            grams[i] = block.conj().T @ block
    return powers, grams


def _wishart_grams(cfg, n, seed, reduced):
    """(G_00, G) of n grams G = X^H X of M x 4 Gaussians, as verify_moments draws them.

    Reduced: one batched wishart_factor call, Bartlett's factor once M >= 4.
    """
    rng = substream(seed, 0)
    x = wishart_factor(rng, cfg.M, 4, (n,)) if reduced else crandn(rng, n, cfg.M, 4)
    grams = x.conj().swapaxes(-1, -2) @ x
    return grams[:, 0, 0].real, grams


# M = 1, 2, 3, 4, where the span of the channels and the noise residuals
# shrink, and both sides of M - 3 = tau, where the Wishart part switches
# between the direct draw and Bartlett's factor; then the moment oracle's
# batched 4-column factor on both sides of M = 4
GRAM_CASES = ([pytest.param(m, tau, _grams, id=f"{m}-{tau}") for m, tau in
               [(1, 4), (2, 4), (3, 4), (4, 4), (6, 4), (7, 4), (12, 4), (6, 8)]]
              + [pytest.param(m, 4, _wishart_grams, id=f"wishart-{m}") for m in (1, 2, 3, 20)])


@pytest.mark.parametrize("m,tau,draw", GRAM_CASES)
def test_block_gram_matches_the_full_block(m, tau, draw):
    # the joint law of (||y_t||^2, gram): every entry's mean and mean square,
    # over all draws and over the draws whose ||y_t||^2 exceeds the median,
    # as alg2's draws past the threshold do
    cfg = _cfg(m, tau)
    n = 6000
    reduced = draw(cfg, n, 3, True)
    full = draw(cfg, n, 4, False)
    cut = np.median(np.concatenate((reduced[0], full[0])))
    zs = {"||y_t||^2": _z(reduced[0], full[0])}
    for label, (red, ref) in {
        "all": (reduced[1], full[1]),
        "above median": (reduced[1][reduced[0] > cut], full[1][full[0] > cut]),
    }.items():
        for i in range(tau):
            for j in range(tau):
                zs[label, f"Re G[{i},{j}]"] = _z(red[:, i, j].real, ref[:, i, j].real)
                if i != j:
                    zs[label, f"Im G[{i},{j}]"] = _z(red[:, i, j].imag, ref[:, i, j].imag)
                zs[label, f"|G[{i},{j}]|^2"] = _z(np.abs(red[:, i, j]) ** 2,
                                                 np.abs(ref[:, i, j]) ** 2)
    worst = max(zs, key=lambda key: abs(zs[key]))
    assert abs(zs[worst]) <= Z_BOUND, (worst, zs[worst])


def test_small_arrays_shrink_the_channel_factor():
    rng = substream(8, 0)
    assert gen_channel_factor(rng, 1, 1.0, 1.0).shape == (1, 2)
    r = gen_channel_factor(rng, 2, 1.0, 1.0)
    assert r.shape == (2, 2) and r[1, 0] == 0 and r[0, 0].real > 0 and r[1, 1].real > 0
    with pytest.raises(ValueError):
        gen_channel_factor(rng, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gen_channel_factor(rng, 4, 1.0, 0.0)
    # with M = 1 the block has rank one: its gram factor is a single row
    cfg = _cfg(1, 4)
    s_u, s_j, _, _ = _sequences(4)
    r = gen_channel_factor(rng, 1, 1.0, 1.0)
    y_q, resid = receive_despread(cfg, r, overlap_amplitude(s_j, s_u), rng)
    assert resid == 0
    amps = make_codebook(4).conj() @ s_j
    assert receive_block_factor(cfg, r, 1, amps, y_q, resid, rng).shape == (1, 4)


# ---------------------------------------------------------------------------
# engine level: both protocols against a brute-force engine
# ---------------------------------------------------------------------------

def _reference_trial(cfg, scheme, rng):
    """One trial of alg1 or alg2 on the full M x tau blocks.

    Returns (rate, n_used, overlap_est): the rate at the true overlap of the
    round the receiver decodes with, and that round's blind estimate.
    """
    codebook = make_codebook(cfg.tau)
    k = int(rng.integers(cfg.tau))
    s_j = draw_jammer_sequence(rng, cfg.jammer, cfg.tau)
    g_u = gen_channel(rng, cfg.M, cfg.beta_u)
    g_j = gen_channel(rng, cfg.M, cfg.beta_j)

    def play_round(pilot, jam):
        """(block, (true overlap, blind estimate)) of one training round."""
        block = receive_pilot_block(cfg, g_u, g_j, pilot, jam, rng)
        y = despread(block, pilot)
        return block, (jamming_overlap_sq(jam, pilot),
                       estimate_overlap_sq(np.vdot(y, y).real, cfg))

    if scheme == "alg1":
        rounds = []
        for n in range(cfg.n_max):
            if n:
                k = int(rng.integers(cfg.tau))
                s_j = draw_jammer_sequence(rng, cfg.jammer, cfg.tau)
            rounds.append(play_round(codebook[k], s_j)[1])
            if cfg.overlap_below_threshold(rounds[-1][1]):
                break
        true, est = min(rounds, key=lambda rnd: rnd[1])
        return rate_from_overlap(cfg, true, len(rounds)).rate, len(rounds), est
    block, (true, est) = play_round(codebook[k], s_j)
    if not cfg.overlap_below_threshold(est):
        # block C^H is the block in codebook coordinates, where the pilot is e_k
        vecs, lam = estimate_jammer_gram(block @ codebook.conj().T, k, cfg)
        w, predicted = select_retransmission_pilot(vecs, lam, cfg.opt_mode)
        if predicted < est:
            true, est = play_round(w @ codebook, s_j)[1]
            return rate_from_overlap(cfg, true, 2).rate, 2, est
    return rate_from_overlap(cfg, true, 1).rate, 1, est


def _chosen_estimate(cfg, scheme, index):
    """Blind estimate of the round the engine's trial decodes with, from a replayed trace."""
    rng = substream(cfg.master_seed, index, TAG_PROTOCOL)
    k = int(rng.integers(cfg.tau))
    amp = draw_overlap_amplitude(rng, cfg.jammer, k, cfg.tau, (index % STRATA, STRATA))
    r = gen_channel_factor(substream(cfg.master_seed, index, TAG_CHANNEL), cfg.M, cfg.beta_u,
                           cfg.beta_j)
    protocol = run_algorithm1 if scheme == "alg1" else run_algorithm2
    trace = protocol(cfg, r, k, amp, rng)
    return trace.rounds[trace.chosen_round].overlap_est


@pytest.mark.parametrize("scheme,m,kind,opt_mode", [
    pytest.param(scheme, m, kind, mode, id=f"{scheme}-{m}"
                 + ("" if kind == "gaussian" else f"-{kind}")
                 + ("" if mode == "codebook" else f"-{mode}"))
    for scheme, m, kind, mode in [
        ("alg1", 24, "gaussian", "codebook"), ("alg2", 24, "gaussian", "codebook"),
        ("alg2", 6, "gaussian", "codebook"), ("alg2", 24, "sphere", "codebook"),
        ("alg2", 24, "gaussian", "eigen"), ("alg2", 24, "codeword", "codebook")]])
def test_engine_matches_a_brute_force_engine(scheme, m, kind, opt_mode):
    # the rate at the chosen round's true overlap reads the choice, and the
    # chosen round's blind estimate, replayed from the engine's traces,
    # reads every de-spread draw; M = 24 takes alg2's Bartlett branch, M = 6
    # its direct one; the sphere jammer takes alg2's other completion of the
    # amplitudes, the codeword jammer (on codeword 2) its fixed one, and
    # eigen mode the retransmitted amplitude off the codebook
    cfg = SystemConfig(M=m, T=60, tau=6, P=10.0, Q=10.0, epsilon=0.1, n_max=2,
                       master_seed=17, opt_mode=opt_mode,
                       jammer=JammerSpec(kind=kind, codeword_index=2))
    n = 4000
    engine = run_trials(cfg, scheme, n)
    estimates = [_chosen_estimate(cfg, scheme, i) for i in range(n)]
    rng = substream(18, 0)
    rates, n_used, ref_estimates = np.array(
        [_reference_trial(cfg, scheme, rng) for _ in range(n)]).T
    zs = {"rate": _z(engine.rates, rates), "n_used": _z(engine.n_used, n_used),
          "overlap_est": _z(estimates, ref_estimates)}
    assert 1.1 < n_used.mean() < 1.9
    assert max(map(abs, zs.values())) <= Z_BOUND, zs
