"""Training-phase signal chain.

Linear MMSE channel estimation, the two blind large-array estimators that
recover jammer statistics (the squared pilot/jammer overlap from ||y_t||^2,
the jammer sequence outer product from the block gram), and the exact
low-dimensional draws of those two statistics that a training round makes.
receive_pilot_block and despread build the full M x tau block; the trial
engine does not call them, and the tests keep them as the brute-force
reference for the reduced draws.
"""

import math

import numpy as np

from .channel import crandn
from .config import SystemConfig


def _check_sequences(cfg: SystemConfig, s_u, s_j):
    if len(s_u) != cfg.tau or len(s_j) != cfg.tau:
        raise ValueError(f"sequences must have length tau={cfg.tau}")


def receive_pilot_block(cfg: SystemConfig, g_u, g_j, s_u, s_j, rng) -> np.ndarray:
    """M x tau received block: pilot plus jamming plus unit-variance noise.

    sqrt(tau*p_t) g_u s_u^T + sqrt(tau*q_t) g_j s_j^T + N
    """
    if len(g_u) != cfg.M or len(g_j) != cfg.M:
        raise ValueError(f"channel vectors must have length M={cfg.M}")
    _check_sequences(cfg, s_u, s_j)
    noise = crandn(rng, cfg.M, cfg.tau)
    return (math.sqrt(cfg.tau * cfg.p_t) * np.outer(g_u, s_u)
            + math.sqrt(cfg.tau * cfg.q_t) * np.outer(g_j, s_j)
            + noise)


def despread(block: np.ndarray, s_u: np.ndarray) -> np.ndarray:
    """Correlate the received block with the conjugate pilot: block @ s_u*."""
    if block.ndim != 2 or block.shape[1] != len(s_u):
        raise ValueError(f"block has {block.shape} entries, pilot has length {len(s_u)}")
    return block @ np.conj(s_u)


def mmse_coefficients(cfg: SystemConfig, overlap_sq: float) -> tuple[float, float]:
    """MMSE scaling c_u and per-entry estimate variance gamma_u.

    c_u = sqrt(tau p_t) beta_u / (tau p_t beta_u + tau q_t beta_j overlap^2 + 1)
    gamma_u = c_u sqrt(tau p_t) beta_u
    """
    if overlap_sq < 0:
        raise ValueError("overlap_sq must be nonnegative")
    den = cfg.tau * cfg.p_t * cfg.beta_u + cfg.tau * cfg.q_t * cfg.beta_j * overlap_sq + 1.0
    c_u = math.sqrt(cfg.tau * cfg.p_t) * cfg.beta_u / den
    gamma_u = c_u * math.sqrt(cfg.tau * cfg.p_t) * cfg.beta_u
    return c_u, gamma_u


def mmse_estimate(y_t: np.ndarray, cfg: SystemConfig,
                  overlap_sq: float) -> tuple[float, np.ndarray, float]:
    """Linear MMSE channel estimate from the de-spread observation.

    Returns (c_u, g_hat, gamma_u) with g_hat = c_u * y_t. The caller picks
    overlap_sq: the true value (oracle analysis) or a blind estimate of it.
    """
    if len(y_t) != cfg.M:
        raise ValueError(f"despread observation must have length M={cfg.M}")
    c_u, gamma_u = mmse_coefficients(cfg, overlap_sq)
    return c_u, c_u * y_t, gamma_u


def estimate_overlap_sq(y_norm_sq: float, cfg: SystemConfig) -> float:
    """Blind estimate of the squared pilot/jammer overlap from ||y_t||^2.

    Inverts the large-array limit of ||y_t||^2 / M, which converges to
    tau p_t beta_u + tau q_t beta_j overlap^2 + 1, then clamps to [0, 1]
    (the true overlap of a unit-norm jamming sequence lies in that range
    and the raw estimate can leave it at finite M).
    """
    if cfg.q_t <= 0:
        raise ValueError("overlap estimation needs q_t > 0")
    if not y_norm_sq >= 0:
        raise ValueError(f"||y_t||^2 must be nonnegative, got {y_norm_sq}")
    power = y_norm_sq / cfg.M
    raw = (power / (cfg.tau * cfg.q_t * cfg.beta_j)
           - cfg.p_t * cfg.beta_u / (cfg.q_t * cfg.beta_j)
           - 1.0 / (cfg.tau * cfg.q_t * cfg.beta_j))
    return min(max(raw, 0.0), 1.0)


def estimate_jammer_gram(gram: np.ndarray, s_u: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Blind estimate of the jammer sequence outer product s_j* s_j^T.

    Takes the block gram block^H block, removes the pilot and noise
    contributions from gram / M, then repairs the finite-M result:
    symmetrize to Hermitian and project onto the PSD cone by clipping
    negative eigenvalues (the limit is Hermitian PSD of rank one, and
    PSD-ness keeps downstream quadratic forms nonnegative).
    """
    if cfg.q_t <= 0:
        raise ValueError("jammer gram estimation needs q_t > 0")
    if gram.shape != (cfg.tau, cfg.tau):
        raise ValueError(f"gram must be tau x tau = {cfg.tau} x {cfg.tau}, got {gram.shape}")
    if len(s_u) != cfg.tau:
        raise ValueError(f"pilot must have length tau={cfg.tau}")
    scale = cfg.tau * cfg.q_t * cfg.beta_j
    raw = (gram / (scale * cfg.M)
           - (cfg.p_t * cfg.beta_u / (cfg.q_t * cfg.beta_j)) * np.outer(np.conj(s_u), s_u)
           - np.eye(cfg.tau) / scale)
    herm = (raw + raw.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(herm)
    return (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.conj().T


def receive_despread_power(cfg: SystemConfig, r: np.ndarray, s_u, s_j, rng) -> float:
    """||y_t||^2 of one training round, drawn from its exact law in O(1).

    With [g_u g_j] = Q R (see gen_channel_factor) and a unit-norm pilot s_u,
    y_t = despread(block, s_u) is Q R c plus CN(0, I_M) noise, where
    c = (sqrt(tau p_t), sqrt(tau q_t) s_j^T s_u*). The noise splits into
    z ~ CN(0, I) in the span of Q and a residual whose squared norm is
    Gamma(M - 2), so ||y_t||^2 = ||R c + z||^2 + Gamma(M - 2).
    """
    _check_sequences(cfg, s_u, s_j)
    c = np.array((math.sqrt(cfg.tau * cfg.p_t),
                  math.sqrt(cfg.tau * cfg.q_t) * np.dot(s_j, np.conj(s_u))))
    y = r @ c + crandn(rng, len(r))
    return float(np.vdot(y, y).real) + rng.gamma(max(cfg.M - 2, 0))


def _wishart_factor(rng, n: int, tau: int) -> np.ndarray:
    """A factor X with X^H X ~ CW_tau(n, I), the complex Wishart law.

    X is the n x tau Gaussian matrix itself when n < tau, else its tau x tau
    upper-triangular Bartlett factor: B_ii^2 ~ Gamma(n - i) for
    i = 0..tau-1 and B_ij ~ CN(0, 1) above the diagonal.
    """
    if n < tau:
        return crandn(rng, n, tau)
    b = np.triu(crandn(rng, tau, tau), 1)
    b[np.diag_indices(tau)] = np.sqrt(rng.gamma(n - np.arange(tau)))
    return b


def receive_block_gram(cfg: SystemConfig, r: np.ndarray, s_u, s_j, rng) -> np.ndarray:
    """Gram block^H block (tau x tau) of one training round, drawn from its exact law.

    The block is Q R C + N with C the 2 x tau rows sqrt(tau p_t) s_u^T and
    sqrt(tau q_t) s_j^T. In the span of Q it reads R C + Z with Z i.i.d.
    CN(0, 1); the rest of the noise adds a complex Wishart CW_tau(M - 2, I).
    So the gram costs O(tau^3) whatever M is once M - 2 >= tau.
    """
    _check_sequences(cfg, s_u, s_j)
    pilots = np.stack((math.sqrt(cfg.tau * cfg.p_t) * s_u, math.sqrt(cfg.tau * cfg.q_t) * s_j))
    factor = np.vstack((r @ pilots + crandn(rng, len(r), cfg.tau),
                        _wishart_factor(rng, max(cfg.M - 2, 0), cfg.tau)))
    return factor.conj().T @ factor


def run_training(cfg: SystemConfig, r: np.ndarray, s_u, s_j, rng) -> float:
    """One training round as the receiver sees it: its blind overlap estimate."""
    return estimate_overlap_sq(receive_despread_power(cfg, r, s_u, s_j, rng), cfg)
