"""Closed-form effective SINR and achievable rates.

The achievable rate treats residual channel-estimation error and jamming as
worst-case Gaussian noise, so every rate here is prelog * log2(1 + sinr)
with prelog = 1 - n_used*tau/T. effective_sinr and rates_at state them
once, elementwise: the trial engine rates its rows and the oracles their
quadrature nodes through them, so the two agree bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .estimation import mmse_coefficients


@dataclass(frozen=True)
class RateReport:
    """One closed-form rate evaluation and its ingredients."""

    rho: float              # effective SINR
    rate: float             # bits/s/Hz
    n_used: int             # pilot transmissions spent
    overlap_sq_used: float  # squared overlap the formulas were evaluated at
    prelog: float


def effective_sinr(cfg: SystemConfig, overlap_sq):
    """Effective SINR of the estimate-based maximum ratio combiner, elementwise over overlap_sq.

    M p_d gamma_u over (p_d beta_u + q_d beta_j + contamination + 1), with
    contamination M (q_d q_t / p_t) (beta_j / beta_u)^2 overlap^2 gamma_u
    and gamma_u from mmse_coefficients. The contamination term grows with
    M, which is what ultimately saturates the rate when the training phase
    is hit by a non-orthogonal jammer. An overlap that is not finite and
    nonnegative raises ValueError, and so do powers so large that the
    SINR's terms overflow.
    """
    overlap_sq = np.asarray(overlap_sq, dtype=float)
    contamination, interference, signal = cfg.sinr_terms
    with np.errstate(over="ignore", invalid="ignore"):    # the check below reports them
        _, gamma_u = mmse_coefficients(cfg, overlap_sq)
        den = interference + contamination * overlap_sq * gamma_u + 1.0
        sinr = signal * gamma_u / den
    if not (np.all(np.isfinite(den)) and np.all(np.isfinite(sinr))):
        raise ValueError(
            f"powers p_d={cfg.p_d:g}, q_t={cfg.q_t:g}, q_d={cfg.q_d:g} overflow the SINR")
    return sinr


def rates_at(cfg: SystemConfig, overlaps, n_used=1) -> np.ndarray:
    """Achievable rate prelog(n_used) log2(1 + effective_sinr) in bits/s/Hz, elementwise.

    overlaps is a float or an array of squared overlaps, and n_used a
    transmission count or an array of them, one per overlap: the trial
    engine rates a whole row in one call, the oracles their quadrature
    nodes. The logarithm goes through math.log2 one float at a time, since
    np.log2 differs from it in the last bit on some inputs. Raises
    ValueError where effective_sinr does, and where a count overruns T
    (SystemConfig.prelog).
    """
    sinr = effective_sinr(cfg, overlaps)
    logs = np.fromiter(map(math.log2, (1.0 + sinr).ravel().tolist()), float, sinr.size)
    return cfg.prelog(n_used) * logs.reshape(sinr.shape)


def rate_from_overlap(cfg: SystemConfig, overlap_sq: float, n_used: int = 1) -> RateReport:
    """Full chain overlap -> gamma_u -> SINR -> rate for one transmission count, as plain floats."""
    return RateReport(rho=float(effective_sinr(cfg, overlap_sq)),
                      rate=float(rates_at(cfg, overlap_sq, n_used)), n_used=n_used,
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

