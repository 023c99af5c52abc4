"""Closed-form effective SINR, achievable rates, and their large-array limits.

The achievable rate treats residual channel-estimation error and jamming as
worst-case Gaussian noise, so every rate here is prelog * log2(1 + sinr)
with prelog = 1 - n_used*tau/T.
"""

import math
from dataclasses import dataclass

from .config import SystemConfig
from .estimation import mmse_coefficients


@dataclass(frozen=True)
class RateReport:
    """One closed-form rate evaluation and its ingredients."""

    rho: float              # effective SINR
    rate: float             # bits/s/Hz
    n_used: int             # pilot transmissions spent
    alpha: float            # jamming-pilot contamination term in the SINR denominator
    overlap_sq_used: float  # squared overlap the formulas were evaluated at
    prelog: float


def contamination_term(cfg: SystemConfig, gamma_u: float, overlap_sq: float) -> float:
    """M (q_d q_t / p_t) (beta_j / beta_u)^2 overlap^2 gamma_u."""
    if cfg.p_t <= 0:
        raise ValueError("contamination term needs p_t > 0")
    return (cfg.M * (cfg.q_d * cfg.q_t / cfg.p_t)
            * (cfg.beta_j / cfg.beta_u) ** 2 * overlap_sq * gamma_u)


def effective_sinr(cfg: SystemConfig, gamma_u: float, overlap_sq: float) -> float:
    """Effective SINR of the estimate-based maximum ratio combiner.

    M p_d gamma_u over (p_d beta_u + q_d beta_j + contamination + 1). The
    contamination term grows with M, which is what ultimately saturates the
    rate when the training phase is hit by a non-orthogonal jammer.
    """
    if cfg.p_t <= 0:
        raise ValueError("effective SINR is undefined for p_t = 0")
    if gamma_u < 0:
        raise ValueError("gamma_u must be nonnegative")
    if overlap_sq < 0:
        raise ValueError("overlap_sq must be nonnegative")
    alpha = contamination_term(cfg, gamma_u, overlap_sq)
    return (cfg.M * cfg.p_d * gamma_u
            / (cfg.p_d * cfg.beta_u + cfg.q_d * cfg.beta_j + alpha + 1.0))


def rate(cfg: SystemConfig, rho: float, n_used: int = 1) -> float:
    """Achievable rate (1 - n_used*tau/T) log2(1 + rho) in bits/s/Hz."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return cfg.prelog(n_used) * math.log2(1.0 + rho)


def rate_from_overlap(cfg: SystemConfig, overlap_sq: float, n_used: int = 1) -> RateReport:
    """Full chain overlap -> gamma_u -> SINR -> rate for one transmission count."""
    _, gamma_u = mmse_coefficients(cfg, overlap_sq)
    alpha = contamination_term(cfg, gamma_u, overlap_sq)
    rho = effective_sinr(cfg, gamma_u, overlap_sq)
    return RateReport(rho=rho, rate=rate(cfg, rho, n_used), n_used=n_used,
                      alpha=alpha, overlap_sq_used=overlap_sq, prelog=cfg.prelog(n_used))


def asymptotic_rate_limit(cfg: SystemConfig, overlap_sq: float) -> float:
    """Large-SINR form of the large-array rate for a single pilot transmission.

    With no training-phase contamination (q_t = 0 or zero overlap) the rate
    grows without bound in M, returned as +inf so tests can tell divergence
    from saturation. Otherwise the SINR tends to
    L = (p_t p_d / (q_t q_d)) (beta_u / beta_j)^2 / overlap^2 as M grows, and
    this returns the large-SINR expression (1 - tau/T) log2(L), which may be
    negative when jamming dominates. The exact limit of rate_from_overlap is
    (1 - tau/T) log2(1 + L); the two agree only when L is large.
    """
    if overlap_sq < 0:
        raise ValueError("overlap_sq must be nonnegative")
    if cfg.q_t * overlap_sq == 0 or cfg.q_d == 0:
        return math.inf
    if cfg.p_t == 0 or cfg.p_d == 0:
        return 0.0  # no training or no payload power: the rate is pinned at zero
    value = (cfg.p_t * cfg.p_d / (cfg.q_t * cfg.q_d)
             * (cfg.beta_u / cfg.beta_j) ** 2 / overlap_sq)
    return cfg.prelog(1) * math.log2(value)


def rate_random_jamming(cfg: SystemConfig, overlaps, n_used: int | None = None) -> RateReport:
    """Rate of the buffered random-jamming retransmission scheme.

    The receiver buffers every pilot round and decodes with the best one,
    so the SINR is evaluated at the smallest squared overlap seen while the
    prelog pays for all n_used transmissions.
    """
    overlaps = list(overlaps)
    if not overlaps:
        raise ValueError("need at least one overlap")
    if n_used is None:
        n_used = len(overlaps)
    if n_used != len(overlaps):
        raise ValueError(f"n_used={n_used} does not match {len(overlaps)} overlaps")
    if not 1 <= n_used <= cfg.n_max:
        raise ValueError(f"n_used must lie in [1, n_max={cfg.n_max}], got {n_used}")
    return rate_from_overlap(cfg, min(overlaps), n_used)

