"""Training-phase signal chain.

Pilot reception, de-spreading, linear MMSE channel estimation, and the two
blind large-array estimators that recover jammer statistics (the squared
pilot/jammer overlap and the jammer sequence outer product) from the
received pilot block alone.
"""

import math

import numpy as np

from .channel import crandn
from .config import SystemConfig


def receive_pilot_block(cfg: SystemConfig, g_u, g_j, s_u, s_j, rng) -> np.ndarray:
    """M x tau received block: pilot plus jamming plus unit-variance noise.

    sqrt(tau*p_t) g_u s_u^T + sqrt(tau*q_t) g_j s_j^T + N
    """
    if len(g_u) != cfg.M or len(g_j) != cfg.M:
        raise ValueError(f"channel vectors must have length M={cfg.M}")
    if len(s_u) != cfg.tau or len(s_j) != cfg.tau:
        raise ValueError(f"sequences must have length tau={cfg.tau}")
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


def estimate_overlap_sq(y_t: np.ndarray, cfg: SystemConfig) -> float:
    """Blind estimate of the squared pilot/jammer overlap.

    Inverts the large-array limit of ||y_t||^2 / M, which converges to
    tau p_t beta_u + tau q_t beta_j overlap^2 + 1, then clamps to [0, 1]
    (the true overlap of a unit-norm jamming sequence lies in that range
    and the raw estimate can leave it at finite M).
    """
    if cfg.q_t <= 0:
        raise ValueError("overlap estimation needs q_t > 0")
    if len(y_t) != cfg.M:
        raise ValueError(f"despread observation must have length M={cfg.M}")
    power = float(np.sum(np.abs(y_t) ** 2)) / cfg.M
    raw = (power / (cfg.tau * cfg.q_t * cfg.beta_j)
           - cfg.p_t * cfg.beta_u / (cfg.q_t * cfg.beta_j)
           - 1.0 / (cfg.tau * cfg.q_t * cfg.beta_j))
    return min(max(raw, 0.0), 1.0)


def estimate_jammer_gram(block: np.ndarray, s_u: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Blind estimate of the jammer sequence outer product s_j* s_j^T.

    Removes the pilot and noise contributions from block^H block / M, then
    repairs the finite-M result: symmetrize to Hermitian and project onto
    the PSD cone by clipping negative eigenvalues (the limit is Hermitian
    PSD of rank one, and PSD-ness keeps downstream quadratic forms
    nonnegative).
    """
    if cfg.q_t <= 0:
        raise ValueError("jammer gram estimation needs q_t > 0")
    if block.shape != (cfg.M, cfg.tau):
        raise ValueError(f"block must be M x tau = {cfg.M} x {cfg.tau}, got {block.shape}")
    if len(s_u) != cfg.tau:
        raise ValueError(f"pilot must have length tau={cfg.tau}")
    scale = cfg.tau * cfg.q_t * cfg.beta_j
    raw = (block.conj().T @ block / (scale * cfg.M)
           - (cfg.p_t * cfg.beta_u / (cfg.q_t * cfg.beta_j)) * np.outer(np.conj(s_u), s_u)
           - np.eye(cfg.tau) / scale)
    herm = (raw + raw.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(herm)
    return (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.conj().T


def run_training(cfg: SystemConfig, g_u, g_j, s_u, s_j, rng) -> tuple[np.ndarray, float]:
    """One training round as the receiver sees it.

    Returns the received M x tau pilot block and the blind estimate of the
    squared pilot/jammer overlap computed from it.
    """
    block = receive_pilot_block(cfg, g_u, g_j, s_u, s_j, rng)
    return block, estimate_overlap_sq(despread(block, s_u), cfg)
