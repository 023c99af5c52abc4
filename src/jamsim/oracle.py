"""Exact means the trial engine's estimates are checked and steered against.

round_one_mean integrates a function of round one's squared overlap over
that overlap's exact law. conventional_mean is the mean conventional rate
as that 1-D integral: the engine rates a conventional trial at that overlap
alone, so the integral is exact up to quadrature error, and average_rate
uses it as the known mean of the control variate on the alg rows.
"""

import functools
import math
from collections.abc import Callable

import numpy as np

from .channel import JammerSpec, _codeword_index
from .config import SystemConfig
from .rates import rate_config, sinr_and_rate

# E[g(t)] for t ~ Exp(1) by Gauss-Legendre on [0, 2^-40] and the panels
# [2^(k-1), 2^k] up to 64; the tail beyond weighs e^-64. At large M the rate
# turns within an overlap of order 1/M of 0 (the SINR's denominator vanishes
# at an overlap of order -1/M), which an 80-node Gauss-Laguerre rule misses by
# up to 1e-2 bits at M = 5000.
_PANEL_EDGES = (0.0, *(2.0 ** k for k in range(-40, 7)))
_PANEL_NODES = 10


@functools.cache
def _exp_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes t and weights of E[g(t)], t ~ Exp(1)."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    lo, hi = np.array(_PANEL_EDGES[:-1]), np.array(_PANEL_EDGES[1:])
    half = (hi - lo)[:, None] / 2
    t = (lo[:, None] + half) + half * x
    return tuple(t.ravel().tolist()), tuple((half * w * np.exp(-t)).ravel().tolist())


def round_one_mean(cfg: SystemConfig, jammer: JammerSpec,
                   g: Callable[[float], float]) -> float:
    """E[g(|a|^2)] over the exact law of round one's squared overlap |a|^2.

    That law depends on the jammer kind (draw_overlap_amplitude): gaussian
    gives Exp(mean 1/tau); sphere gives Beta(1, tau - 1), which is
    1 - exp(-t / (tau - 1)) for t ~ Exp(1), and 1 at tau = 1. Both are
    integrated over t (_exp_rule). codeword hits the user's pilot with
    probability 1/tau, or surely or never when first_pilot is set; absent
    gives 0.
    """
    if jammer.kind == "absent":
        return g(0.0)
    if jammer.kind == "codeword":
        j = _codeword_index(jammer, cfg.tau)
        if cfg.first_pilot is not None:
            return g(float(cfg.first_pilot == j))
        return g(1.0) / cfg.tau + g(0.0) * (1.0 - 1.0 / cfg.tau)
    if jammer.kind == "sphere" and cfg.tau == 1:
        return g(1.0)
    nodes, weights = _exp_rule()
    if jammer.kind == "gaussian":
        overlaps = [t / cfg.tau for t in nodes]
    else:
        overlaps = [-math.expm1(-t / (cfg.tau - 1)) for t in nodes]
    return math.fsum(w * g(x) for x, w in zip(overlaps, weights))


@functools.lru_cache(maxsize=256)
def conventional_mean(cfg: SystemConfig, jammer: JammerSpec) -> float:
    """Mean conventional rate E[rate(|a|^2, 1)] under rate_config(cfg, jammer)."""
    rc = rate_config(cfg, jammer)
    return round_one_mean(cfg, jammer, lambda overlap_sq: sinr_and_rate(rc, overlap_sq, 1)[1])
