import itertools

import numpy as np
import pytest

from jamsim import (JammerSpec, SystemConfig, estimate_overlap_sq,
                    gen_channel, gram_quad_form, jamming_overlap_sq,
                    make_codebook, run_algorithm1, run_algorithm2,
                    select_retransmission_pilot, substream)
from jamsim.channel import crandn


def _cfg(**kw):
    base = dict(M=64, T=200, tau=8, P=1.0, Q=1.0, epsilon=0.1, n_max=2)
    base.update(kw)
    return SystemConfig(**base)


def _channels(cfg, seed):
    rng = substream(seed, 0)
    return gen_channel(rng, cfg.M, cfg.beta_u), gen_channel(rng, cfg.M, cfg.beta_j)


# ---------------------------------------------------------------------------
# random-jamming protocol
# ---------------------------------------------------------------------------

def test_alg1_absent_jammer_stops_first_round():
    cfg = _cfg(M=4096, tau=4)
    g_u, g_j = _channels(cfg, 1)
    trace = run_algorithm1(cfg, g_u, g_j, JammerSpec(kind="absent"), substream(1, 1))
    assert trace.n_used == 1
    assert trace.stop_reason == "threshold_met"
    assert trace.rounds[0].overlap_true == 0.0
    assert trace.rounds[0].overlap_est < 0.05


def test_alg1_threshold_one_never_retransmits():
    cfg = _cfg(epsilon=1.0)
    g_u, g_j = _channels(cfg, 2)
    for k in range(5):
        trace = run_algorithm1(cfg, g_u, g_j, JammerSpec(), substream(2, k))
        assert trace.n_used == 1
        assert trace.stop_reason == "threshold_met"


def test_alg1_zero_threshold_forces_full_budget_and_matches_hand_steps():
    # epsilon = 0 never triggers the stop rule (estimates stay positive with
    # an active jammer at this array size), so every run spends n_max rounds;
    # the trace is then checked against a manual replay of the same stream
    cfg = _cfg(M=10000, tau=8, epsilon=0.0)
    g_u, g_j = _channels(cfg, 3)
    jam = JammerSpec()
    trace = run_algorithm1(cfg, g_u, g_j, jam, substream(3, 1))
    assert trace.n_used == cfg.n_max == 2
    assert trace.stop_reason == "n_max_reached"

    replay = substream(3, 1)
    cb = make_codebook(cfg.tau)
    expected_rounds = []
    for _ in range(2):
        k = int(replay.integers(cfg.tau))
        s_j = crandn(replay, cfg.tau) / np.sqrt(cfg.tau)
        noise = crandn(replay, cfg.M, cfg.tau)
        block = (np.sqrt(cfg.tau * cfg.p_t) * np.outer(g_u, cb[k])
                 + np.sqrt(cfg.tau * cfg.q_t) * np.outer(g_j, s_j) + noise)
        y = block @ np.conj(cb[k])
        expected_rounds.append((k, jamming_overlap_sq(s_j, cb[k]),
                                estimate_overlap_sq(y, cfg)))
    for rec, (k, ov, est) in zip(trace.rounds, expected_rounds):
        assert rec.pilot_index == k
        assert rec.overlap_true == pytest.approx(ov, rel=1e-12)
        assert rec.overlap_est == pytest.approx(est, rel=1e-12)
    ests = [r[2] for r in expected_rounds]
    assert trace.chosen_round == int(np.argmin(ests))


def test_alg1_round_one_success_means_single_round():
    cfg = _cfg(M=2048, tau=4)
    jam = JammerSpec()
    for k in range(20):
        g_u, g_j = _channels(cfg, 100 + k)
        trace = run_algorithm1(cfg, g_u, g_j, jam, substream(100 + k, 1))
        assert 1 <= trace.n_used <= cfg.n_max
        assert len(trace.rounds) == trace.n_used
        if trace.rounds[0].overlap_est <= cfg.epsilon:
            assert trace.n_used == 1


def test_alg1_rejects_deterministic_jammer():
    cfg = _cfg()
    g_u, g_j = _channels(cfg, 4)
    with pytest.raises(ValueError):
        run_algorithm1(cfg, g_u, g_j, JammerSpec(kind="codeword"), substream(4, 1))


# ---------------------------------------------------------------------------
# deterministic-jamming protocol
# ---------------------------------------------------------------------------

def test_alg2_escapes_codeword_jammer_exactly(zero_noise):
    # jammer sits on the very codeword the user sends first; the adapted
    # pilot is any other codeword, orthogonal by construction
    cfg = _cfg(M=1024, tau=4)
    g_u, g_j = _channels(cfg, 5)
    trace = run_algorithm2(cfg, g_u, g_j, make_codebook(4)[1], zero_noise, first_pilot=1)
    assert trace.n_used == 2
    assert trace.rounds[0].overlap_true == pytest.approx(1.0)
    assert trace.rounds[1].overlap_true < 1e-24   # orthogonal codeword
    assert trace.rounds[1].pilot_index != 1
    assert trace.chosen_round == 1
    assert trace.opt_pilot is not None


def test_alg2_orthogonal_jammer_stops_immediately():
    cfg = _cfg(M=2048, tau=4)
    g_u, g_j = _channels(cfg, 6)
    trace = run_algorithm2(cfg, g_u, g_j, make_codebook(4)[2], substream(6, 1), first_pilot=0)
    assert trace.n_used == 1
    assert trace.stop_reason == "threshold_met"
    assert trace.opt_pilot is None


def test_alg2_absent_jammer_concentrates_on_one_round():
    cfg = _cfg(M=2048, tau=4)
    silent = np.zeros(cfg.tau, dtype=complex)
    n_used = []
    for k in range(30):
        g_u, g_j = _channels(cfg, 300 + k)
        trace = run_algorithm2(cfg, g_u, g_j, silent, substream(300 + k, 1))
        n_used.append(trace.n_used)
    assert all(n == 1 for n in n_used)


def test_alg2_rejects_bad_args():
    cfg = _cfg()
    g_u, g_j = _channels(cfg, 7)
    s_j = make_codebook(cfg.tau)[0]
    with pytest.raises(ValueError):
        run_algorithm2(cfg, g_u, g_j, s_j, substream(7, 1), opt_mode="psychic")
    with pytest.raises(ValueError):
        run_algorithm2(cfg, g_u, g_j, s_j, substream(7, 1), first_pilot=99)
    with pytest.raises(ValueError):
        run_algorithm2(cfg, g_u, g_j, s_j[:-1], substream(7, 1))
    tight = SystemConfig(M=8, T=200, tau=120, n_max=1)
    g_u2, g_j2 = _channels(tight, 8)
    with pytest.raises(ValueError):
        run_algorithm2(tight, g_u2, g_j2, make_codebook(120)[0], substream(8, 1))


# ---------------------------------------------------------------------------
# pilot selection against an exact jammer gram
# ---------------------------------------------------------------------------

def _exact_gram(s_j):
    return np.outer(np.conj(s_j), s_j)


def test_codebook_selection_matches_brute_force():
    cb = make_codebook(8)
    rng = substream(9, 0)
    s_j = crandn(rng, 8)
    gram = _exact_gram(s_j)
    idx, pilot, predicted = select_retransmission_pilot(gram, cb, "codebook")
    best_idx, best_val = None, np.inf
    for i in range(8):
        val = np.real(cb[i] @ gram @ np.conj(cb[i]))
        if val < best_val:
            best_idx, best_val = i, val
    assert idx == best_idx
    assert predicted == pytest.approx(best_val, abs=1e-12)
    assert np.array_equal(pilot, cb[idx])


def test_eigen_selection_nulls_rank_one_gram():
    cb = make_codebook(4)
    s_j = 0.5 * cb[0] + np.sqrt(0.75) * cb[3]
    gram = _exact_gram(s_j)
    _, pilot, predicted = select_retransmission_pilot(gram, cb, "eigen")
    assert predicted < 1e-12
    assert gram_quad_form(gram, pilot) < 1e-12
    assert np.linalg.norm(pilot) == pytest.approx(1.0)
    # the quadratic form equals the true squared overlap with the jammer
    assert jamming_overlap_sq(s_j, pilot) < 1e-12


def test_noise_free_selection_never_worse_than_first_pilot():
    # exhaustive over codeword-mixture jammers and all first pilots: the
    # minimizer of the exact quadratic form cannot beat the first pilot's
    # overlap by going negative, and never exceeds it
    cfg_eps = 0.1
    for tau in (2, 4, 8):
        cb = make_codebook(tau)
        cfg = _cfg(M=16, tau=tau, epsilon=cfg_eps)
        pairs = itertools.combinations(range(tau), 2)
        for a, b in pairs:
            for weight in (0.0, 0.25, 0.5, 0.75, 1.0):
                for phase in (1.0, np.exp(2j * np.pi / 3)):
                    s_j = np.sqrt(weight) * cb[a] + np.sqrt(1 - weight) * phase * cb[b]
                    gram = _exact_gram(s_j)
                    for first in range(tau):
                        first_overlap = jamming_overlap_sq(s_j, cb[first])
                        if cfg.overlap_below_threshold(first_overlap):
                            continue    # no retransmission, nothing to check
                        idx, pilot, predicted = select_retransmission_pilot(gram, cb)
                        final = (jamming_overlap_sq(s_j, pilot)
                                 if predicted < first_overlap else first_overlap)
                        assert final <= first_overlap + 1e-12


def test_trace_round_bookkeeping():
    cfg = _cfg(M=256, tau=4)
    g_u, g_j = _channels(cfg, 11)
    jam = JammerSpec()
    trace = run_algorithm1(cfg, g_u, g_j, jam, substream(11, 1))
    assert len(trace.rounds) == trace.n_used
    assert 0 <= trace.chosen_round < trace.n_used
    for rec in trace.rounds:
        assert 0 <= rec.pilot_index < cfg.tau
        assert rec.overlap_true >= 0.0
        assert 0.0 <= rec.overlap_est <= 1.0
