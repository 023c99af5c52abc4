import copy
import dataclasses
import itertools

import numpy as np
import pytest

from jamsim import (JammerSpec, SystemConfig, average_rate, draw_overlap_amplitude,
                    gen_channel_factor, run_algorithm1, run_algorithm2, substream)
from jamsim.channel import complete_amplitudes, crandn, jamming_overlap_sq, make_codebook
from jamsim.estimation import estimate_overlap_sq, receive_despread
from jamsim.oracle import alg1_mean_n_used
from jamsim.protocols import select_retransmission_pilot


def _cfg(**kw):
    base = dict(M=64, T=200, tau=8, P=1.0, Q=1.0, epsilon=0.1, n_max=2)
    base.update(kw)
    return SystemConfig(**base)


def _channels(cfg, seed):
    return gen_channel_factor(substream(seed, 0), cfg.M, cfg.beta_u, cfg.beta_j)


def _alg1(cfg, r, rng):
    # round one drawn as the trial engine draws it: pilot index, then its
    # overlap amplitude with the jamming sequence
    k = int(rng.integers(cfg.tau))
    return run_algorithm1(cfg, r, k, draw_overlap_amplitude(rng, cfg.jammer, k, cfg.tau), rng)


# ---------------------------------------------------------------------------
# random-jamming protocol
# ---------------------------------------------------------------------------

def test_alg1_absent_jammer_stops_first_round():
    cfg = _cfg(M=4096, tau=4, jammer=JammerSpec(kind="absent"))
    r = _channels(cfg, 1)
    trace = _alg1(cfg, r, substream(1, 1))
    assert trace.n_used == 1
    assert trace.stop_reason == "threshold_met"
    assert trace.rounds[0].overlap_true == 0.0
    assert trace.rounds[0].overlap_est < 0.05


def test_alg1_threshold_one_never_retransmits():
    cfg = _cfg(epsilon=1.0)
    r = _channels(cfg, 2)
    for k in range(5):
        trace = _alg1(cfg, r, substream(2, k))
        assert trace.n_used == 1
        assert trace.stop_reason == "threshold_met"


def test_alg1_zero_threshold_forces_full_budget_and_matches_hand_steps():
    # epsilon = 0 never triggers the stop rule (estimates stay positive with
    # an active jammer at this array size), so every run spends n_max rounds;
    # the trace is then checked against a manual replay of the same stream:
    # a ~ CN(0, 1/tau) by inverse CDF, |a|^2 = -ln(1 - u) / tau at phase
    # 2 pi phi for uniforms (u, phi), then
    # ||y_t||^2 = |R11 c1 + R12 c2 + z1|^2 + |R22 c2 + z2|^2 + Gamma(M - 2)
    cfg = _cfg(M=10000, tau=8, epsilon=0.0)
    r = _channels(cfg, 3)
    trace = _alg1(cfg, r, substream(3, 1))
    assert trace.n_used == cfg.n_max == 2
    assert trace.stop_reason == "n_max_reached"

    replay = substream(3, 1)
    expected_rounds = []
    for _ in range(2):
        replay.integers(cfg.tau)        # the round's pilot index
        u, phi = replay.random(2)
        amp = np.sqrt(-np.log1p(-u) / cfg.tau) * np.exp(2j * np.pi * phi)
        z = crandn(replay, 2)
        c1 = np.sqrt(cfg.tau * cfg.p_t)
        c2 = np.sqrt(cfg.tau * cfg.q_t) * amp
        y_norm_sq = (abs(r[0, 0] * c1 + r[0, 1] * c2 + z[0]) ** 2
                     + abs(r[1, 1] * c2 + z[1]) ** 2 + replay.gamma(cfg.M - 2))
        expected_rounds.append((abs(amp) ** 2, estimate_overlap_sq(y_norm_sq, cfg)))
    for rec, (ov, est) in zip(trace.rounds, expected_rounds):
        assert rec.overlap_true == pytest.approx(ov, rel=1e-12)
        assert rec.overlap_est == pytest.approx(est, rel=1e-12)
    ests = [r[1] for r in expected_rounds]
    assert trace.chosen_round == int(np.argmin(ests))


def test_alg1_round_one_success_means_single_round():
    cfg = _cfg(M=2048, tau=4)
    for k in range(20):
        r = _channels(cfg, 100 + k)
        trace = _alg1(cfg, r, substream(100 + k, 1))
        assert 1 <= trace.n_used <= cfg.n_max
        assert len(trace.rounds) == trace.n_used
        if trace.rounds[0].overlap_est <= cfg.epsilon:
            assert trace.n_used == 1


def test_alg1_rejects_deterministic_jammer():
    # nor does it take a first pilot, which it would draw over
    cfg = _cfg()
    r = _channels(cfg, 4)
    with pytest.raises(ValueError, match="codeword"):
        run_algorithm1(_cfg(jammer=JammerSpec(kind="codeword")), r, 0, 1 + 0j, substream(4, 1))
    with pytest.raises(ValueError, match="first_pilot"):
        run_algorithm1(_cfg(first_pilot=0), r, 0, 0.3 + 0j, substream(4, 1))


_ALG1_ENTRY_POINTS = {
    "average_rate": lambda cfg: average_rate(cfg, "alg1", 10),
    "run_algorithm1": lambda cfg: run_algorithm1(cfg, _channels(cfg, 4), 0, 1 + 0j,
                                                 substream(4, 1)),
    "alg1_mean_n_used": alg1_mean_n_used,
}


@pytest.mark.parametrize("entry", sorted(_ALG1_ENTRY_POINTS))
def test_alg1_codeword_rule_has_one_message(entry):
    cfg = _cfg(jammer=JammerSpec(kind="codeword"))
    with pytest.raises(ValueError) as err:
        _ALG1_ENTRY_POINTS[entry](cfg)
    assert str(err.value) == "alg1 assumes random jamming; a codeword jammer is deterministic"


def test_alg1_rejects_bad_pilot_index():
    cfg = _cfg()
    r = _channels(cfg, 4)
    for k in (-1, cfg.tau):
        with pytest.raises(ValueError, match="pilot index"):
            run_algorithm1(cfg, r, k, 0.3 + 0j, substream(4, 1))


# ---------------------------------------------------------------------------
# deterministic-jamming protocol
# ---------------------------------------------------------------------------

def test_alg2_escapes_codeword_jammer_exactly(zero_noise):
    # jammer sits on the very codeword the user sends first; the adapted
    # pilot is any other codeword, orthogonal by construction
    cfg = _cfg(M=1024, tau=4, jammer=JammerSpec(kind="codeword", codeword_index=1))
    r = _channels(cfg, 5)
    trace = run_algorithm2(cfg, r, 1, 1 + 0j, zero_noise)
    assert trace.n_used == 2
    assert trace.rounds[0].overlap_true == pytest.approx(1.0)
    assert trace.rounds[1].overlap_true < 1e-24   # orthogonal codeword
    assert trace.chosen_round == 1
    # the other coordinates of a codeword on pilot 1 are all 0
    assert trace.round_two_sq == 0.0


def test_alg2_orthogonal_jammer_stops_immediately():
    cfg = _cfg(M=2048, tau=4, jammer=JammerSpec(kind="codeword", codeword_index=2))
    r = _channels(cfg, 6)
    trace = run_algorithm2(cfg, r, 0, 0j, substream(6, 1))
    assert trace.n_used == 1
    assert trace.stop_reason == "threshold_met"
    assert len(trace.rounds) == trace.n_used


def test_alg2_absent_jammer_concentrates_on_one_round():
    cfg = _cfg(M=2048, tau=4, jammer=JammerSpec(kind="absent"))
    n_used = []
    for k in range(30):
        r = _channels(cfg, 300 + k)
        rng = substream(300 + k, 1)
        trace = run_algorithm2(cfg, r, int(rng.integers(cfg.tau)), 0j, rng)
        n_used.append(trace.n_used)
    assert all(n == 1 for n in n_used)


def test_alg2_rejects_bad_args():
    cfg = _cfg()
    r = _channels(cfg, 7)
    with pytest.raises(ValueError):
        _cfg(opt_mode="psychic")
    for k in (-1, 99):
        with pytest.raises(ValueError, match="pilot index"):
            run_algorithm2(cfg, r, k, 0.3 + 0j, substream(7, 1))
    # amplitudes no sequence of the jammer has: codeword 1 is orthogonal to
    # pilot 0, and a unit-norm sequence has no amplitude of modulus 2
    with pytest.raises(ValueError, match="cannot come from a codeword jammer"):
        off_pilot = JammerSpec(kind="codeword", codeword_index=1)
        run_algorithm2(dataclasses.replace(cfg, jammer=off_pilot), r, 0, 1 + 0j, substream(7, 1))
    with pytest.raises(ValueError, match="modulus <= 1"):
        run_algorithm2(dataclasses.replace(cfg, jammer=JammerSpec(kind="sphere")), r, 0, 2 + 0j,
                       substream(7, 1))
    # 2*tau >= T is fine when n_max = 1 forbids the retransmission
    tight = SystemConfig(M=8, T=200, tau=120, n_max=1)
    r2 = _channels(tight, 8)
    assert run_algorithm2(tight, r2, 0, 1 + 0j, substream(8, 1)).n_used == 1


@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_alg2_trace_carries_the_smallest_other_overlap(kind):
    # round_two_sq is the smallest squared modulus of the coordinates that
    # complete_amplitudes draws, read from a replay of the trace's draws; a
    # trace that stops at round one drew none and carries 0
    cfg = _cfg(M=16, tau=8, P=10.0, Q=10.0, jammer=JammerSpec(kind=kind))
    jam = cfg.jammer
    drew = 0
    for seed in range(40):
        r = _channels(cfg, seed)
        rng = substream(seed, 1)
        k = int(rng.integers(cfg.tau))
        amp = draw_overlap_amplitude(rng, jam, k, cfg.tau)
        replay = copy.deepcopy(rng)
        trace = run_algorithm2(cfg, r, k, amp, rng)
        if trace.stop_reason == "threshold_met":
            assert trace.round_two_sq == 0.0
            continue
        receive_despread(cfg, r, amp, replay)
        amps = complete_amplitudes(replay, jam, k, amp, cfg.tau)
        others = [abs(a) ** 2 for i, a in enumerate(amps) if i != k]
        assert trace.round_two_sq == pytest.approx(min(others), rel=1e-12)
        drew += 1
    assert 0 < drew < 40


# ---------------------------------------------------------------------------
# pilot selection against an exact jammer gram
# ---------------------------------------------------------------------------

def _exact_gram(s_j):
    return np.outer(np.conj(s_j), s_j)


def _pairs(gram):
    # the search's input: eigenvectors and clipped eigenvalues, ascending
    eigvals, eigvecs = np.linalg.eigh(gram)
    return eigvecs, np.maximum(eigvals, 0.0)


def test_codebook_selection_matches_brute_force():
    cb = make_codebook(8)
    rng = substream(9, 0)
    s_j = crandn(rng, 8)
    gram = _exact_gram(s_j)
    vecs, lam = _pairs(gram)
    w, predicted = select_retransmission_pilot(cb @ vecs, lam, "codebook")
    (idx,) = np.flatnonzero(w)
    best_idx, best_val = None, np.inf
    for i in range(8):
        val = np.real(cb[i] @ gram @ np.conj(cb[i]))
        if val < best_val:
            best_idx, best_val = i, val
    assert idx == best_idx
    assert predicted == pytest.approx(best_val, abs=1e-12)
    assert np.array_equal(w @ cb, cb[idx])


@pytest.mark.parametrize("tau", [1, 4, 20, 90])
def test_codebook_quadratic_forms_match_einsum(tau):
    # the search reads the quadratic forms from the eigenpairs; they equal
    # the tau^3 einsum forms on the gram rebuilt from those pairs, whether
    # the pairs span the whole space or only part of it
    cb = make_codebook(tau)
    rng = substream(12, tau)
    for rank in (tau, (tau + 1) // 2):
        for _ in range(5):
            vecs, _ = np.linalg.qr(crandn(rng, tau, rank))
            lam = np.sort(rng.exponential(size=rank))
            lam[: rank // 3] = 0.0      # clipped eigenvalues
            gram = (vecs * lam) @ vecs.conj().T
            quad = np.einsum("ij,jk,ik->i", cb, gram, cb.conj()).real
            w, predicted = select_retransmission_pilot(cb @ vecs, lam, "codebook")
            (idx,) = np.flatnonzero(w)
            assert idx == int(np.argmin(quad))
            assert predicted == pytest.approx(quad[idx], abs=1e-12)
            assert np.array_equal(w @ cb, cb[idx])
    # exact ties break to the lowest index: every codeword has the same
    # modulus on the first axis
    axis = np.eye(tau)[:, :1]
    for vecs, lam in ((axis, np.ones(1)), (np.eye(tau), np.zeros(tau))):
        w, _ = select_retransmission_pilot(cb @ vecs, lam, "codebook")
        assert np.flatnonzero(w).tolist() == [0]


def test_eigen_selection_nulls_rank_one_gram():
    cb = make_codebook(4)
    s_j = 0.5 * cb[0] + np.sqrt(0.75) * cb[3]
    vecs, lam = _pairs(_exact_gram(s_j))
    w, predicted = select_retransmission_pilot(cb @ vecs, lam, "eigen")
    pilot = w @ cb
    assert predicted < 1e-12
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
                    vecs, lam = _pairs(_exact_gram(s_j))
                    for first in range(tau):
                        first_overlap = jamming_overlap_sq(s_j, cb[first])
                        if cfg.overlap_below_threshold(first_overlap):
                            continue    # no retransmission, nothing to check
                        w, predicted = select_retransmission_pilot(cb @ vecs, lam)
                        final = (jamming_overlap_sq(s_j, w @ cb)
                                 if predicted < first_overlap else first_overlap)
                        assert final <= first_overlap + 1e-12


def test_trace_round_bookkeeping():
    # alg1's round_two_sq is its second round's squared overlap, and 0 on a
    # trace that stops after round one
    cfg = _cfg(M=256, tau=4)
    n_used = set()
    for seed in range(11, 31):
        trace = _alg1(cfg, _channels(cfg, seed), substream(seed, 1))
        assert len(trace.rounds) == trace.n_used
        assert 0 <= trace.chosen_round < trace.n_used
        for rec in trace.rounds:
            assert rec.overlap_true >= 0.0
            assert 0.0 <= rec.overlap_est <= 1.0
        second = trace.rounds[1].overlap_true if trace.n_used > 1 else 0.0
        assert trace.round_two_sq == second
        n_used.add(trace.n_used)
    assert n_used == {1, 2}
