"""Closed-form effective SINR and achievable rates.

The achievable rate treats residual channel-estimation error and jamming as
worst-case Gaussian noise, so every rate here is prelog * log2(1 + sinr)
with prelog = 1 - n_used*tau/T.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .estimation import mmse_coefficients, mmse_terms


@dataclass(frozen=True)
class RateReport:
    """One closed-form rate evaluation and its ingredients."""

    rho: float              # effective SINR
    rate: float             # bits/s/Hz
    n_used: int             # pilot transmissions spent
    overlap_sq_used: float  # squared overlap the formulas were evaluated at
    prelog: float


@functools.lru_cache(maxsize=256)
def _sinr_terms(cfg: SystemConfig) -> tuple[float, float, float]:
    """Per-config factors of the SINR: contamination scale, interference, signal scale."""
    if cfg.p_t <= 0:
        raise ValueError("effective SINR is undefined for p_t = 0")
    return (cfg.M * (cfg.q_d * cfg.q_t / cfg.p_t) * (cfg.beta_j / cfg.beta_u) ** 2,
            cfg.p_d * cfg.beta_u + cfg.q_d * cfg.beta_j,
            cfg.M * cfg.p_d)


def effective_sinr(cfg: SystemConfig, gamma_u: float, overlap_sq: float) -> float:
    """Effective SINR of the estimate-based maximum ratio combiner.

    M p_d gamma_u over (p_d beta_u + q_d beta_j + contamination + 1), with
    contamination M (q_d q_t / p_t) (beta_j / beta_u)^2 overlap^2 gamma_u.
    The contamination term grows with M, which is what ultimately saturates
    the rate when the training phase is hit by a non-orthogonal jammer.
    Powers so large that the SINR's terms overflow raise ValueError.
    """
    if gamma_u < 0:
        raise ValueError("gamma_u must be nonnegative")
    if overlap_sq < 0:
        raise ValueError("overlap_sq must be nonnegative")
    contamination, interference, signal = _sinr_terms(cfg)
    den = interference + contamination * overlap_sq * gamma_u + 1.0
    sinr = signal * gamma_u / den
    if not (math.isfinite(den) and math.isfinite(sinr)):
        raise ValueError(
            f"powers p_d={cfg.p_d:g}, q_t={cfg.q_t:g}, q_d={cfg.q_d:g} overflow the SINR")
    return sinr


def rate(cfg: SystemConfig, rho: float, n_used: int = 1) -> float:
    """Achievable rate (1 - n_used*tau/T) log2(1 + rho) in bits/s/Hz."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return cfg.prelog(n_used) * math.log2(1.0 + rho)


def sinr_and_rate(cfg: SystemConfig, overlap_sq: float, n_used: int = 1) -> tuple[float, float]:
    """Effective SINR and achievable rate at one squared overlap, as plain floats.

    The trial engine rates every trial with it; rate_from_overlap wraps it.
    """
    _, gamma_u = mmse_coefficients(cfg, overlap_sq)
    rho = effective_sinr(cfg, gamma_u, overlap_sq)
    return rho, rate(cfg, rho, n_used)


def rates_at(cfg: SystemConfig, overlaps, n_used: int = 1) -> np.ndarray:
    """sinr_and_rate's rate at each squared overlap of an array, bit for bit.

    The SINR is sinr_and_rate's arithmetic, elementwise in the same order,
    so every entry rounds as it does there; the logarithm goes through
    math.log2 one float at a time, since np.log2 differs from it in the
    last bit on some inputs. Raises ValueError where sinr_and_rate would.
    """
    overlaps = np.asarray(overlaps, dtype=float)
    if np.any(overlaps < 0):
        raise ValueError("overlap_sq must be nonnegative")
    pilot, jamming, root, beta_u = mmse_terms(cfg)
    contamination, interference, signal = _sinr_terms(cfg)
    with np.errstate(over="ignore", invalid="ignore"):    # the check below reports them
        gamma_u = root * beta_u / (pilot + jamming * overlaps + 1.0) * root * beta_u
        den = interference + contamination * overlaps * gamma_u + 1.0
        sinr = signal * gamma_u / den
    if not (np.all(np.isfinite(den)) and np.all(np.isfinite(sinr))):
        raise ValueError(
            f"powers p_d={cfg.p_d:g}, q_t={cfg.q_t:g}, q_d={cfg.q_d:g} overflow the SINR")
    logs = np.fromiter(map(math.log2, (1.0 + sinr).ravel().tolist()), float, sinr.size)
    return cfg.prelog(n_used) * logs.reshape(overlaps.shape)


def rate_from_overlap(cfg: SystemConfig, overlap_sq: float, n_used: int = 1) -> RateReport:
    """Full chain overlap -> gamma_u -> SINR -> rate for one transmission count."""
    rho, value = sinr_and_rate(cfg, overlap_sq, n_used)
    return RateReport(rho=rho, rate=value, n_used=n_used,
                      overlap_sq_used=overlap_sq, prelog=cfg.prelog(n_used))


def rate_random_jamming(cfg: SystemConfig, overlaps, n_used: int | None = None) -> RateReport:
    """Min-overlap bound on the rate of the buffered random-jamming scheme.

    The SINR is evaluated at the smallest squared overlap among the rounds
    while the prelog pays for all n_used transmissions. That is the rate of
    a receiver that always decodes with its truly best round; the trial
    engine does not call this, it rates alg1 at the round its receiver
    picks from blind estimates (ProtocolTrace.chosen_round).
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

