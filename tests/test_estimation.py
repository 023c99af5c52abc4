import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim import (SystemConfig, despread, estimate_jammer_gram,
                    estimate_overlap_sq, gen_channel, make_codebook,
                    mmse_coefficients, mmse_estimate, receive_pilot_block,
                    run_training, substream)
from jamsim.channel import crandn


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
    cfg = _cfg(P=2.0, power_policy="explicit", powers=(2.0, 2.0, 0.0, 0.0), Q=0.0)
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

def test_overlap_estimate_inverts_exactly():
    cfg = _cfg(M=4, tau=10, T=50, P=1.0, Q=1.0)
    target = cfg.tau * cfg.p_t * cfg.beta_u + cfg.tau * cfg.q_t * 0.3 * cfg.beta_j + 1.0
    y = np.full(4, np.sqrt(target), dtype=complex)   # ||y||^2 / M == target
    assert estimate_overlap_sq(y, cfg) == pytest.approx(0.3, rel=1e-12)


def test_overlap_estimate_clamps():
    cfg = _cfg(M=4, tau=10, T=50, P=1.0, Q=1.0)
    floor = cfg.tau * cfg.p_t * cfg.beta_u + 1.0
    y_low = np.full(4, np.sqrt(floor * 0.9), dtype=complex)
    assert estimate_overlap_sq(y_low, cfg) == 0.0
    ceil = floor + cfg.tau * cfg.q_t * cfg.beta_j * 1.5
    y_high = np.full(4, np.sqrt(ceil), dtype=complex)
    assert estimate_overlap_sq(y_high, cfg) == 1.0


def test_overlap_estimate_needs_jammer_power():
    cfg = _cfg(Q=0.0)
    with pytest.raises(ValueError):
        estimate_overlap_sq(np.ones(4, dtype=complex), cfg)


def test_overlap_estimate_converges_with_antennas():
    # rmse shrinks as the array grows; jam-free data converges to zero
    overlap = 0.25
    errors = {}
    zero_means = {}
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
            sq.append((estimate_overlap_sq(despread(block, s_u), cfg) - overlap) ** 2)
            silent = receive_pilot_block(cfg, g_u, g_j, s_u, np.zeros(4), rng)
            zs.append(estimate_overlap_sq(despread(silent, s_u), cfg))
        errors[m] = np.sqrt(np.mean(sq))
        zero_means[m] = np.mean(zs)
    assert errors[2500] < errors[100]
    assert zero_means[2500] < zero_means[100]
    assert zero_means[2500] < 0.01


# ---------------------------------------------------------------------------
# blind jammer gram estimation
# ---------------------------------------------------------------------------

def _block_with_exact_gram(cfg, gram_limit):
    """M x tau block whose sample gram block^H block / M equals gram_limit."""
    eigvals, eigvecs = np.linalg.eigh(gram_limit)
    root = (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.conj().T
    block = np.zeros((cfg.M, cfg.tau), dtype=complex)
    block[:cfg.tau, :] = np.sqrt(cfg.M) * root
    return block


def test_gram_estimate_inverts_limit_exactly():
    cfg = _cfg(M=6, tau=3, T=50, P=1.2, Q=0.8)
    cb = make_codebook(3)
    s_u = cb[0]
    s_j = 0.6 * cb[1] + 0.8j * cb[2]
    target = np.outer(np.conj(s_j), s_j)
    limit = (cfg.tau * cfg.p_t * cfg.beta_u * np.outer(np.conj(s_u), s_u)
             + cfg.tau * cfg.q_t * cfg.beta_j * target + np.eye(3))
    block = _block_with_exact_gram(cfg, limit)
    est = estimate_jammer_gram(block, s_u, cfg)
    assert np.allclose(est, target, atol=1e-10)


def test_gram_estimate_rank_one_basis_case():
    cfg = _cfg(M=4, tau=2, T=50, P=1.0, Q=1.0)
    s_u = make_codebook(2)[0]
    s_j = np.array([1.0, 0.0], dtype=complex)
    limit = (cfg.tau * cfg.p_t * np.outer(np.conj(s_u), s_u)
             + cfg.tau * cfg.q_t * np.outer(np.conj(s_j), s_j) + np.eye(2))
    est = estimate_jammer_gram(_block_with_exact_gram(cfg, limit), s_u, cfg)
    assert np.allclose(est, [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)


def test_gram_estimate_hermitian_psd_on_noisy_data():
    cfg = _cfg(M=64, tau=4, T=50, P=1.0, Q=1.0)
    rng = substream(66, 0)
    cb = make_codebook(4)
    g_u = gen_channel(rng, 64, 1.0)
    g_j = gen_channel(rng, 64, 1.0)
    s_j = crandn(rng, 4) / 2.0
    block = receive_pilot_block(cfg, g_u, g_j, cb[1], s_j, rng)
    est = estimate_jammer_gram(block, cb[1], cfg)
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
            est = estimate_jammer_gram(block, s_u, cfg)
            errs.append(np.linalg.norm(est - target))
        medians[m] = np.median(errs)
    assert medians[10000] < medians[100]


def test_gram_estimate_needs_jammer_power():
    cfg = _cfg(Q=0.0)
    with pytest.raises(ValueError):
        estimate_jammer_gram(np.zeros((4, 2), dtype=complex), np.ones(2), cfg)


# ---------------------------------------------------------------------------
# full training round
# ---------------------------------------------------------------------------

def test_run_training_blind_uses_estimate():
    # the round's overlap is the blind estimate from its own block
    cfg = _cfg(M=16, tau=4, T=50, P=1.0, Q=1.0)
    cb = make_codebook(4)
    rng = substream(89, 0)
    g_u = gen_channel(rng, 16, 1.0)
    g_j = gen_channel(rng, 16, 1.0)
    block, overlap_est = run_training(cfg, g_u, g_j, cb[0], cb[1], substream(89, 1))
    assert np.array_equal(block, receive_pilot_block(cfg, g_u, g_j, cb[0], cb[1],
                                                     substream(89, 1)))
    assert overlap_est == estimate_overlap_sq(despread(block, cb[0]), cfg)
    assert 0.0 <= overlap_est <= 1.0


def test_run_training_without_jammer_power():
    # no training-phase jamming power leaves the blind estimator undefined
    cfg = _cfg(M=8, tau=4, T=50, P=1.0, Q=1.0, power_policy="explicit",
               powers=(1.0, 1.0, 0.0, 0.0))
    cb = make_codebook(4)
    rng = substream(90, 0)
    g_u = gen_channel(rng, 8, 1.0)
    g_j = gen_channel(rng, 8, 1.0)
    with pytest.raises(ValueError):
        run_training(cfg, g_u, g_j, cb[0], np.zeros(4), rng)
