import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim import SystemConfig, gen_channel_factor, substream
from jamsim.channel import crandn, gen_channel, make_codebook, overlap_amplitude
from jamsim.estimation import (despread, despread_power, estimate_jammer_gram,
                               estimate_overlap_sq, mmse_coefficients, mmse_estimate,
                               receive_block_factor, receive_despread, receive_pilot_block,
                               run_training)
from jamsim.protocols import select_retransmission_pilot


def _cfg(**kw):
    base = dict(M=4, T=50, tau=2, n_max=2)
    base.update(kw)
    return SystemConfig(**base)


# ---------------------------------------------------------------------------
# received pilot block
# ---------------------------------------------------------------------------

def test_block_zero_when_powerless_and_noiseless(zero_noise):
    cfg = _cfg(P=0.0, Q=0.0)
    g_u = np.ones(4, dtype=complex)
    g_j = np.ones(4, dtype=complex)
    s = make_codebook(2)[0]
    block = receive_pilot_block(cfg, g_u, g_j, s, s, zero_noise)
    assert np.array_equal(block, np.zeros((4, 2)))


def test_block_rank_one_without_jamming(zero_noise):
    cfg = _cfg(P=2.0, powers=(2.0, 2.0, 0.0, 0.0), Q=0.0)
    rng = substream(3, 0)
    g_u = gen_channel(rng, 4, 1.0)
    g_j = gen_channel(rng, 4, 1.0)
    s_u = make_codebook(2)[1]
    block = receive_pilot_block(cfg, g_u, g_j, s_u, np.zeros(2), zero_noise)
    expected = np.sqrt(cfg.tau * 2.0) * np.outer(g_u, s_u)
    assert np.allclose(block, expected, atol=1e-15)
    assert np.linalg.matrix_rank(block) == 1


def test_block_matches_brute_force_recomputation():
    # regenerate the identical noise from a twin substream and rebuild the
    # block entry by entry
    cfg = _cfg(M=2, tau=2, T=50, P=1.3, Q=0.7)
    rng = substream(99, 0)
    g_u = gen_channel(rng, 2, 1.0)
    g_j = gen_channel(rng, 2, 2.0)
    cb = make_codebook(2)
    s_u, s_j = cb[0], cb[1]
    block = receive_pilot_block(cfg, g_u, g_j, s_u, s_j, substream(99, 7))
    noise = crandn(substream(99, 7), 2, 2)
    expected = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for k in range(2):
            expected[i, k] = (np.sqrt(cfg.tau * cfg.p_t) * g_u[i] * s_u[k]
                              + np.sqrt(cfg.tau * cfg.q_t) * g_j[i] * s_j[k]
                              + noise[i, k])
    assert np.allclose(block, expected, atol=1e-15)


def test_block_dimension_mismatch():
    cfg = _cfg()
    rng = substream(0, 0)
    with pytest.raises(ValueError):
        receive_pilot_block(cfg, np.ones(3), np.ones(4), np.ones(2), np.ones(2), rng)
    with pytest.raises(ValueError):
        receive_pilot_block(cfg, np.ones(4), np.ones(4), np.ones(3), np.ones(2), rng)


# ---------------------------------------------------------------------------
# de-spreading
# ---------------------------------------------------------------------------

def test_despread_identity_block():
    e1 = np.zeros(3, dtype=complex)
    e1[0] = 1.0
    y = despread(np.eye(3, dtype=complex), e1)
    assert np.array_equal(y, e1)


def test_despread_orthogonal_jammer_vanishes(zero_noise):
    cfg = _cfg(M=4, tau=2, P=1.0, Q=5.0)
    rng = substream(21, 0)
    g_u = gen_channel(rng, 4, 1.0)
    g_j = gen_channel(rng, 4, 1.0)
    cb = make_codebook(2)
    block = receive_pilot_block(cfg, g_u, g_j, cb[0], cb[1], zero_noise)
    y = despread(block, cb[0])
    assert np.allclose(y, np.sqrt(cfg.tau * cfg.p_t) * g_u, atol=1e-12)


def test_despread_matches_naive_loops():
    rng = substream(22, 0)
    block = crandn(rng, 3, 3)
    s = crandn(rng, 3)
    naive = np.zeros(3, dtype=complex)
    for i in range(3):
        for k in range(3):
            naive[i] += block[i, k] * np.conj(s[k])
    assert np.allclose(despread(block, s), naive, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(-3, 3), st.floats(-3, 3))
def test_despread_is_linear(seed, a_re, b_im):
    rng = substream(seed, 0)
    x = crandn(rng, 4, 3)
    y = crandn(rng, 4, 3)
    s = crandn(rng, 3)
    a, b = complex(a_re, 1.0), complex(0.5, b_im)
    lhs = despread(a * x + b * y, s)
    rhs = a * despread(x, s) + b * despread(y, s)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_despread_dimension_mismatch():
    with pytest.raises(ValueError):
        despread(np.eye(3, dtype=complex), np.ones(4))


# ---------------------------------------------------------------------------
# MMSE estimation
# ---------------------------------------------------------------------------

def test_gamma_without_jamming():
    cfg = _cfg(M=4, tau=10, T=50, P=1.0, Q=0.0)
    _, gamma = mmse_coefficients(cfg, 0.0)
    assert gamma == pytest.approx(10 / 11, rel=1e-12)


def test_gamma_with_full_overlap():
    cfg = _cfg(M=4, tau=10, T=50, P=1.0, Q=1.0)
    _, gamma = mmse_coefficients(cfg, 1.0)
    assert gamma == pytest.approx(10 / 21, rel=1e-12)


def test_gamma_perfect_estimation_limit():
    cfg = _cfg(M=4, tau=10, T=50, P=1e12, Q=0.0, beta_u=1.0)
    _, gamma = mmse_coefficients(cfg, 0.0)
    assert gamma == pytest.approx(1.0, abs=1e-9)


def test_mmse_estimate_scales_observation():
    cfg = _cfg(M=4, tau=10, T=50)
    y = np.arange(4, dtype=complex)
    c_u, g_hat, gamma = mmse_estimate(y, cfg, 0.25)
    assert np.allclose(g_hat, c_u * y)
    assert 0 <= gamma <= cfg.beta_u
    with pytest.raises(ValueError):
        mmse_estimate(y, cfg, -0.1)


def test_mmse_statistics_match_gamma():
    # over many trials: per-entry variance of g_hat is gamma_u, the error
    # variance is beta_u - gamma_u, and the two are uncorrelated
    cfg = _cfg(M=8, tau=4, T=50, P=1.0, Q=1.0, beta_u=2.0, beta_j=1.5)
    overlap = 0.3
    c_u, gamma = mmse_coefficients(cfg, overlap)
    rng = substream(314, 0)
    n = 100000
    amp = np.sqrt(overlap)    # fixed sequences with the prescribed overlap
    g_u = np.sqrt(cfg.beta_u) * crandn(rng, n, cfg.M)
    g_j = np.sqrt(cfg.beta_j) * crandn(rng, n, cfg.M)
    noise = crandn(rng, n, cfg.M)
    y = (np.sqrt(cfg.tau * cfg.p_t) * g_u
         + np.sqrt(cfg.tau * cfg.q_t) * amp * g_j + noise)
    g_hat = c_u * y
    err = g_u - g_hat
    var_hat = np.mean(np.abs(g_hat) ** 2)
    var_err = np.mean(np.abs(err) ** 2)
    assert var_hat == pytest.approx(gamma, rel=0.02)
    assert var_err == pytest.approx(cfg.beta_u - gamma, rel=0.02)
    cross = np.mean(g_hat * np.conj(err))
    assert abs(cross) < 0.01 * cfg.beta_u


# ---------------------------------------------------------------------------
# blind overlap estimation
# ---------------------------------------------------------------------------

def _norm_sq(y):
    return float(np.vdot(y, y).real)


def test_overlap_estimate_inverts_exactly():
    cfg = _cfg(M=4, tau=10, T=50, P=1.0, Q=1.0)
    target = cfg.tau * cfg.p_t * cfg.beta_u + cfg.tau * cfg.q_t * 0.3 * cfg.beta_j + 1.0
    assert estimate_overlap_sq(cfg.M * target, cfg) == pytest.approx(0.3, rel=1e-12)


def test_overlap_estimate_clamps():
    cfg = _cfg(M=4, tau=10, T=50, P=1.0, Q=1.0)
    floor = cfg.tau * cfg.p_t * cfg.beta_u + 1.0
    assert estimate_overlap_sq(cfg.M * floor * 0.9, cfg) == 0.0
    ceil = floor + cfg.tau * cfg.q_t * cfg.beta_j * 1.5
    assert estimate_overlap_sq(cfg.M * ceil, cfg) == 1.0


def test_overlap_estimate_needs_jammer_power():
    cfg = _cfg(Q=0.0)
    with pytest.raises(ValueError):
        estimate_overlap_sq(4.0, cfg)


def test_estimators_reject_malformed_statistics():
    # ||y_t||^2 must be a nonnegative number, the gram factor must have tau
    # columns, the pilot index lie in [0, tau), and the jammer some training power
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_overlap_sq(bad, _cfg())
    for bad in (np.zeros((4, 3), dtype=complex), np.zeros(2, dtype=complex)):
        with pytest.raises(ValueError, match="tau=2 columns"):
            estimate_jammer_gram(bad, 0, _cfg())
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=r"pilot index must lie in \[0, tau=2\)"):
            estimate_jammer_gram(np.zeros((4, 2), dtype=complex), bad, _cfg())
    with pytest.raises(ValueError, match="q_t > 0"):
        estimate_jammer_gram(np.zeros((4, 2), dtype=complex), 0, _cfg(Q=0.0))


def test_overlap_estimate_converges_with_antennas():
    # rmse shrinks as the array grows; jam-free data converges to zero. With
    # no jammer ||y_t||^2 = 5 X, X ~ Gamma(M), so the clamped estimate is
    # (5/4) max(X/M - 1, 0) and its mean is (5/(4M)) M^M e^-M / Gamma(M)
    overlap = 0.25
    errors = {}
    zero_means = {}
    zero_stderrs = {}
    for m in (100, 2500):
        cfg = _cfg(M=m, tau=4, T=50, P=1.0, Q=1.0)
        cb = make_codebook(4)
        s_u = cb[0]
        s_j = np.sqrt(overlap) * cb[0] + np.sqrt(1 - overlap) * cb[1]
        rng = substream(55, m)
        sq = []
        zs = []
        for _ in range(300):
            g_u = gen_channel(rng, m, 1.0)
            g_j = gen_channel(rng, m, 1.0)
            block = receive_pilot_block(cfg, g_u, g_j, s_u, s_j, rng)
            sq.append((estimate_overlap_sq(_norm_sq(despread(block, s_u)), cfg) - overlap) ** 2)
            silent = receive_pilot_block(cfg, g_u, g_j, s_u, np.zeros(4), rng)
            zs.append(estimate_overlap_sq(_norm_sq(despread(silent, s_u)), cfg))
        errors[m] = np.sqrt(np.mean(sq))
        zero_means[m] = np.mean(zs)
        zero_stderrs[m] = np.std(zs, ddof=1) / np.sqrt(len(zs))
    assert errors[2500] < errors[100]
    assert zero_means[2500] < zero_means[100]
    for m in (100, 2500):
        exact = 5 / (4 * m) * math.exp(m * math.log(m) - m - math.lgamma(m))
        assert abs(zero_means[m] - exact) <= 4 * zero_stderrs[m], (m, zero_means[m], exact)


# ---------------------------------------------------------------------------
# blind jammer gram estimation
# ---------------------------------------------------------------------------

def _rebuild(pairs):
    vecs, lam = pairs
    return (vecs * lam) @ vecs.conj().T


def _in_sequences(pairs, cb):
    """An estimate in codebook coordinates, rebuilt in sequence coordinates."""
    return cb.conj().T @ _rebuild(pairs) @ cb


def _gram_estimate(factor, k, cb, cfg):
    """The estimate from a gram factor in sequence coordinates, with pilot cb[k].

    factor @ C^H takes the factor to codebook coordinates, where the pilot is e_k.
    """
    return _in_sequences(estimate_jammer_gram(factor @ cb.conj().T, k, cfg), cb)


def test_gram_estimate_inverts_limit_exactly():
    cfg = _cfg(M=6, tau=3, T=50, P=1.2, Q=0.8)
    cb = make_codebook(3)
    s_u = cb[0]
    s_j = 0.6 * cb[1] + 0.8j * cb[2]
    target = np.outer(np.conj(s_j), s_j)
    limit = (cfg.tau * cfg.p_t * cfg.beta_u * np.outer(np.conj(s_u), s_u)
             + cfg.tau * cfg.q_t * cfg.beta_j * target + np.eye(3))
    # gram / M at its limit, passed as a factor of the gram
    est = _gram_estimate(np.linalg.cholesky(cfg.M * limit).conj().T, 0, cb, cfg)
    assert np.allclose(est, target, atol=1e-10)


def test_gram_estimate_rank_one_basis_case():
    cfg = _cfg(M=4, tau=2, T=50, P=1.0, Q=1.0)
    cb = make_codebook(2)
    s_u = cb[0]
    s_j = np.array([1.0, 0.0], dtype=complex)
    limit = (cfg.tau * cfg.p_t * np.outer(np.conj(s_u), s_u)
             + cfg.tau * cfg.q_t * np.outer(np.conj(s_j), s_j) + np.eye(2))
    est = _gram_estimate(np.linalg.cholesky(cfg.M * limit).conj().T, 0, cb, cfg)
    assert np.allclose(est, [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)


def test_gram_estimate_hermitian_psd_on_noisy_data():
    cfg = _cfg(M=64, tau=4, T=50, P=1.0, Q=1.0)
    rng = substream(66, 0)
    cb = make_codebook(4)
    g_u = gen_channel(rng, 64, 1.0)
    g_j = gen_channel(rng, 64, 1.0)
    s_j = crandn(rng, 4) / 2.0
    block = receive_pilot_block(cfg, g_u, g_j, cb[1], s_j, rng)
    vecs, lam = estimate_jammer_gram(block @ cb.conj().T, 1, cfg)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))) < 1e-12
    assert np.all(lam >= 0) and np.all(np.diff(lam) >= 0)
    assert np.all(lam[1:] > 0)      # clipped pairs are dropped, the smallest kept
    est = _rebuild((vecs, lam))
    assert np.max(np.abs(est - est.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(est).min() >= -1e-12


def test_gram_estimate_error_shrinks_with_antennas():
    cb = make_codebook(4)
    s_u = cb[0]
    s_j = np.sqrt(0.5) * cb[0] + np.sqrt(0.5) * cb[2]
    target = np.outer(np.conj(s_j), s_j)
    medians = {}
    for m in (100, 10000):
        cfg = _cfg(M=m, tau=4, T=50, P=1.0, Q=1.0)
        rng = substream(77, m)
        errs = []
        for _ in range(40):
            g_u = gen_channel(rng, m, 1.0)
            g_j = gen_channel(rng, m, 1.0)
            block = receive_pilot_block(cfg, g_u, g_j, s_u, s_j, rng)
            est = _gram_estimate(block, 0, cb, cfg)
            errs.append(np.linalg.norm(est - target))
        medians[m] = np.median(errs)
    assert medians[10000] < medians[100]


def _full_projection(factor, s_u, cfg):
    # the estimate by definition: clip the eigenvalues of the whole tau x tau
    # raw gram
    scale = cfg.tau * cfg.q_t * cfg.beta_j
    raw = (factor.conj().T @ factor / (scale * cfg.M)
           - cfg.p_t * cfg.beta_u / (cfg.q_t * cfg.beta_j) * np.outer(np.conj(s_u), s_u)
           - np.eye(cfg.tau) / scale)
    eigvals, eigvecs = np.linalg.eigh((raw + raw.conj().T) / 2)
    return eigvecs, np.maximum(eigvals, 0.0)


def _round_one_factors(m, tau, trials):
    """(cfg, k, factor) of alg2's round one for a few pilot/jammer pairs.

    The factor is drawn in codebook coordinates; @ cb takes it to sequences,
    where the pilot is cb[k].
    """
    cfg = _cfg(M=m, tau=tau, T=4 * tau, P=2.0, Q=3.0)
    cb = make_codebook(tau)
    rng = substream(91, m)
    for trial in range(trials):
        k = trial % tau
        s_u = cb[k]
        if trial % 2:
            s_j = 0.6 * s_u + 0.8 * cb[(trial + 3) % tau]
        else:
            s_j = crandn(rng, tau) / np.sqrt(tau)
        r = gen_channel_factor(rng, m, cfg.beta_u, cfg.beta_j)
        y_q, resid = receive_despread(cfg, r, overlap_amplitude(s_j, s_u), rng)
        yield cfg, k, receive_block_factor(cfg, r, k, cb.conj() @ s_j, y_q, resid, rng)


@pytest.mark.parametrize("m,tau", [(50, 90), (10, 20), (2, 4)])
def test_gram_estimate_on_the_factor_span_is_exact(m, tau):
    # with m + 1 < tau the estimator eigen-decomposes only on
    # span(range(A^H), e_k); the rebuilt estimate must match the full
    # projection of the same raw gram, taken in sequence coordinates, and
    # both searches must read it right
    cb = make_codebook(tau)
    for cfg, k, factor in _round_one_factors(m, tau, 5):
        assert len(factor) + 1 < tau
        vecs, lam = estimate_jammer_gram(factor, k, cfg)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1]))) < 1e-12
        ref = _rebuild(_full_projection(factor @ cb, cb[k], cfg))
        norm = np.linalg.norm(ref)
        assert norm > 0
        assert np.linalg.norm(_in_sequences((vecs, lam), cb) - ref) <= 1e-12 * norm
        quad = np.einsum("ij,jk,ik->i", cb, ref, cb.conj()).real
        w, predicted = select_retransmission_pilot(vecs, lam, "codebook")
        (idx,) = np.flatnonzero(w)
        assert idx == int(np.argmin(quad))
        assert predicted == pytest.approx(quad[idx], rel=1e-12, abs=1e-12 * norm)
        # the span's complement is a null space of the estimate
        w, predicted = select_retransmission_pilot(vecs, lam, "eigen")
        pilot = w @ cb
        assert predicted == 0.0
        assert abs(np.real(pilot @ ref @ np.conj(pilot))) <= 1e-12 * norm


@pytest.mark.parametrize("m,tau", [(50, 90), (2, 4), (3, 4), (30, 8)])
def test_eigen_mode_reads_the_smallest_eigenpair(m, tau):
    # eigen mode takes the smallest clipped eigenpair the estimator returns,
    # on the span path (m + 1 < tau, where it is 0) and on the full one; the
    # pilot is a unit vector whose quadratic form on the estimate is that value
    cb = make_codebook(tau)
    for cfg, k, factor in _round_one_factors(m, tau, 4):
        vecs, lam = estimate_jammer_gram(factor, k, cfg)
        w, predicted = select_retransmission_pilot(vecs, lam, "eigen")
        pilot = w @ cb
        assert predicted == lam.min()
        ref_vecs, ref_lam = _full_projection(factor @ cb, cb[k], cfg)
        ref = _rebuild((ref_vecs, ref_lam))
        norm = np.linalg.norm(ref)
        if len(factor) + 1 < tau:
            assert predicted == 0.0
        assert predicted == pytest.approx(ref_lam[0], abs=1e-12 * norm)
        assert np.linalg.norm(pilot) == pytest.approx(1.0, abs=1e-12)
        assert np.real(pilot @ ref @ np.conj(pilot)) == pytest.approx(predicted, abs=1e-12 * norm)


def test_gram_estimate_needs_jammer_power():
    cfg = _cfg(Q=0.0)
    with pytest.raises(ValueError):
        estimate_jammer_gram(np.zeros((2, 2), dtype=complex), 0, cfg)


# ---------------------------------------------------------------------------
# full training round
# ---------------------------------------------------------------------------

def test_run_training_blind_uses_estimate():
    # the round's overlap is the blind estimate from its own ||y_t||^2
    cfg = _cfg(M=16, tau=4, T=50, P=1.0, Q=1.0)
    cb = make_codebook(4)
    r = gen_channel_factor(substream(89, 0), 16, 1.0, 1.0)
    amp = overlap_amplitude(cb[1], cb[0])
    overlap_est = run_training(cfg, r, amp, substream(89, 1))
    power = despread_power(*receive_despread(cfg, r, amp, substream(89, 1)))
    assert overlap_est == estimate_overlap_sq(power, cfg)
    assert 0.0 <= overlap_est <= 1.0


def test_run_training_without_jammer_power():
    # no training-phase jamming power leaves the blind estimator undefined
    cfg = _cfg(M=8, tau=4, T=50, P=1.0, Q=1.0, powers=(1.0, 1.0, 0.0, 0.0))
    cb = make_codebook(4)
    rng = substream(90, 0)
    r = gen_channel_factor(rng, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_training(cfg, r, 0j, rng)
