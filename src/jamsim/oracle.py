"""Exact results the trial engine is checked and steered against.

round_one_mean integrates a function of round one's squared overlap over
that overlap's exact law. conventional_rates is the conventional rate at
given overlaps, and conventional_mean its mean as that 1-D integral: the
engine rates a conventional trial at that overlap alone, so the integral is
exact up to quadrature error. stop_probability is
the exact probability, given that overlap, that round one's blind estimate
meets the threshold, stop_share its mean, and alg1_mean_n_used the mean
transmission count of alg1 it implies at n_max = 2. alg1_stop_side_mean is
the stop side of an alg1 row, E[rate 1{n_used = 1}].

Round two's draws (ProtocolTrace.round_two_sq) have exact laws too,
independent of round one. alg1's is a fresh draw of round one's law:
better_round_rates is the two-round rate at the smaller of its two rounds'
squared overlaps, and better_round_mean its mean over round two's draw
given round one's overlap, a 1-D integral up to that overlap. alg2's, on
its retransmit branch, is the smallest squared modulus of the other tau - 1
coordinates of the jamming sequence; other_min_mean integrates over its law
(scaled free of round one for sphere), retransmit_rates is the two-round
rate at it, and retransmit_mean its mean. All of these rate through
rates.rates_at, bit-identical to the trial engine's rate.

average_rate steers the alg rows with all of these, five columns in all:
the conventional rate has mean conventional_mean; the round-one stop
indicator minus stop_probability has mean 0, alone and times the
conventional rate; on the trials that draw round two, better_round_rates
less better_round_mean (alg1), or retransmit_rates less retransmit_mean
(alg2), has mean 0; and stop_probability itself, p, has mean stop_share.

verify_moments is the moment check: it compares Monte Carlo moments of the
effective-noise decomposition behind the SINR formula with their closed
forms, each in units of its own standard error.
"""

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .channel import crandn, overlap_sq_law, overlap_sq_law_inverse
from .config import SystemConfig, check_count, validate_combination
from .estimation import mmse_coefficients, wishart_factor
from .rates import effective_sinr, rates_at
from .rng import TAG_MOMENTS, substream

# E[g(t)] for t ~ Exp(1) by Gauss-Legendre on [0, 2^-40] and the panels
# [2^(k-1), 2^k] up to 64; the tail beyond weighs e^-64. At large M the rate
# turns within an overlap of order 1/M of 0 (the SINR's denominator vanishes
# at an overlap of order -1/M), which an 80-node Gauss-Laguerre rule misses by
# up to 1e-2 bits at M = 5000.
_PANEL_EDGES = (0.0, *(2.0 ** k for k in range(-40, 7)))
_PANEL_NODES = 10


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and weights of the _PANEL_NODES-node Gauss-Legendre rule, read-only."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.cache
def _exp_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes t and weights of E[g(t)], t ~ Exp(1)."""
    x, w = _legendre_rule()
    lo, hi = np.array(_PANEL_EDGES[:-1]), np.array(_PANEL_EDGES[1:])
    half = (hi - lo)[:, None] / 2
    t = (lo[:, None] + half) + half * x
    return tuple(t.ravel().tolist()), tuple((half * w * np.exp(-t)).ravel().tolist())


def _random_kind_mean(cfg: SystemConfig, g: Callable[[np.ndarray], Sequence[float]],
                      gaussian_div: int, sphere_dof: int, sphere_div: int) -> float:
    """E[g(v)] under cfg's gaussian or sphere jammer, v = overlap_sq_law(t) for t ~ Exp(1).

    The nodes of _exp_rule map through overlap_sq_law one Python float at a
    time: np.expm1 and math.expm1 differ in the last bit on some inputs. A
    sphere's v at sphere_dof = 0 is the point 1 / sphere_div, where g is
    read once."""
    point_mass = cfg.jammer.kind == "sphere" and sphere_dof == 0
    nodes, weights = ((0.0,), (1.0,)) if point_mass else _exp_rule()
    values = [overlap_sq_law(cfg.jammer, t, gaussian_div, sphere_dof, sphere_div) for t in nodes]
    return math.fsum(w * v for v, w in zip(g(np.array(values)), weights))


def round_one_mean(cfg: SystemConfig, g: Callable[[np.ndarray], Sequence[float]]) -> float:
    """E[g(|a|^2)] over the exact law of round one's squared overlap |a|^2.

    g maps a 1-D array of squared overlaps to their values, one per entry.
    The law depends on cfg.jammer's kind (draw_overlap_amplitude): gaussian
    gives Exp(mean 1/tau) and sphere Beta(1, tau - 1), 1 at tau = 1, both
    stated once as overlap_sq_law at (tau, tau - 1, 1) and integrated over
    t ~ Exp(1) (_random_kind_mean). codeword hits the user's pilot
    with probability 1/tau, or surely or never when first_pilot is set;
    absent gives 0.
    """
    if cfg.jammer.is_random:
        return _random_kind_mean(cfg, g, cfg.tau, cfg.tau - 1, 1)
    if cfg.jammer.kind == "absent":
        return float(g(np.zeros(1))[0])
    j = cfg.jammer.pilot(cfg.tau)
    if cfg.first_pilot is not None:
        return float(g(np.array([float(cfg.first_pilot == j)]))[0])
    hit, miss = g(np.array([1.0, 0.0]))
    return float(hit / cfg.tau + miss * (1.0 - 1.0 / cfg.tau))


def conventional_rates(cfg: SystemConfig, overlaps: np.ndarray) -> np.ndarray:
    """Conventional rate rate(|a|^2, 1) under cfg at each squared overlap.

    Bit-identical to the rate of a conventional trial at that overlap.
    """
    return rates_at(cfg, overlaps, 1)


@functools.lru_cache(maxsize=256)
def conventional_mean(cfg: SystemConfig) -> float:
    """Mean conventional rate E[rate(|a|^2, 1)] under cfg."""
    return round_one_mean(cfg, functools.partial(conventional_rates, cfg))


# _poisson_sum stops once every term is below _SUM_TOL. The terms shrink
# geometrically, so the tail it drops stays below 1e-16 up to m = 10^5. It
# takes _SUM_BLOCK steps per pass, with temporaries of that many rows.
_SUM_TOL = 2.0 ** -60
_SUM_BLOCK = 16


def _lower_gamma_regularized(m: int, x: np.ndarray) -> np.ndarray:
    """P(m, x), the regularized lower incomplete gamma function, for an integer m >= 1.

    Elementwise over x >= 0, in O(sqrt(m)) steps. Both sides are Poisson(x)
    tails: P(m, x) sums the probabilities e^-x x^k / k! over k >= m, and
    1 - P(m, x) over k < m. Where x < m, P is summed up from k = m, each
    term x / (k + 1) times the last; elsewhere 1 - P is summed down from
    k = m - 1, each term k / x times the last. Either way the terms shrink
    from the first on, in about 9 sqrt(m) steps near x = m. The error is
    below 1e-11 up to m = 5000; beyond that it grows as m log(m) times the
    float epsilon, the rounding of the first term's logarithm.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    below = x < m
    with np.errstate(divide="ignore"):    # log(0) = -inf gives the term 0
        xs = x[below]
        out[below] = _poisson_sum(m * np.log(xs) - xs - math.lgamma(m + 1),
                                  lambda n: xs / (m + n))
        xs = x[~below]
        out[~below] = 1.0 - _poisson_sum((m - 1) * np.log(xs) - xs - math.lgamma(m),
                                         lambda n: np.maximum(m - n, 0) / xs)
    return out


def _poisson_sum(log_first: np.ndarray, ratios: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Sum of the terms t_0 = exp(log_first) and t_n = r_n t_(n-1), up to _SUM_TOL.

    ratios(steps), for a column of step numbers n, holds r_n in the row of n.
    """
    term = np.exp(log_first)
    total = term.copy()
    start = 1
    while np.any(term > _SUM_TOL):
        steps = np.arange(start, start + _SUM_BLOCK)[:, None]
        terms = term * np.cumprod(ratios(steps), axis=0)
        total += terms.sum(axis=0)
        term = terms[-1]
        start += _SUM_BLOCK
    return total


def stop_probability(cfg: SystemConfig, overlap_sq) -> np.ndarray:
    """Probability that round one's blind estimate meets the threshold, given its squared overlap.

    Elementwise over overlap_sq. Given the overlap ov, ||y_t||^2 is
    sigma^2 Gamma(M) with sigma^2 = tau p_t beta_u + tau q_t beta_j ov + 1,
    and the estimate (estimate_overlap_sq), clamped to [0, 1], is at most
    epsilon < 1 exactly when ||y_t||^2 <= x* = M (tau p_t beta_u + 1 +
    tau q_t beta_j epsilon). So the probability is P(M, x* / sigma^2), P the
    regularized lower incomplete gamma function, and 1 when epsilon >= 1.
    """
    overlap_sq = np.asarray(overlap_sq, dtype=float)
    pilot, jamming, _, _ = cfg.mmse_terms
    if jamming <= 0:
        raise ValueError("overlap estimation needs q_t > 0")
    if cfg.epsilon >= 1.0:
        return np.ones(overlap_sq.shape)
    x_star = cfg.M * (pilot + 1.0 + jamming * cfg.epsilon)
    return _lower_gamma_regularized(cfg.M, x_star / (pilot + jamming * overlap_sq + 1.0))


@functools.lru_cache(maxsize=256)
def stop_share(cfg: SystemConfig) -> float:
    """Probability that round one's blind estimate meets the threshold."""
    return round_one_mean(cfg, functools.partial(stop_probability, cfg))


@functools.lru_cache(maxsize=256)
def alg1_mean_n_used(cfg: SystemConfig) -> float:
    """alg1's exact mean transmission count, for n_max <= 2.

    At n_max = 2 alg1 retransmits exactly when round one's blind estimate
    misses the threshold, so the mean is 2 - stop_share; at n_max = 1 it is
    1. n_max > 2 raises ValueError: every round sees the trial's one
    channel factor R, so round two's stop decision is not independent of
    round one's, and the count is no function of stop_share alone. So does
    a cfg alg1 cannot run (validate_combination).
    """
    validate_combination(cfg, "alg1")
    if cfg.n_max > 2:
        raise ValueError(f"the exact count needs n_max <= 2, got {cfg.n_max}")
    return 1.0 if cfg.n_max == 1 else 2.0 - stop_share(cfg)


@functools.lru_cache(maxsize=256)
def alg1_stop_side_mean(cfg: SystemConfig) -> float:
    """E[rate 1{n_used = 1}] of alg1: its rate on the trials that spend one transmission.

    At n_max >= 2 alg1 spends one exactly when round one's blind estimate
    meets the threshold, with probability stop_probability given round
    one's squared overlap, and is then rated at the conventional rate of
    that overlap, so the mean is round_one_mean of their product. At
    n_max = 1 every trial spends one, at the conventional rate. A cfg
    alg1 cannot run raises ValueError (validate_combination).
    """
    validate_combination(cfg, "alg1")
    if cfg.n_max == 1:
        return conventional_mean(cfg)
    return round_one_mean(cfg, lambda overlaps: (stop_probability(cfg, overlaps)
                                                 * conventional_rates(cfg, overlaps)))


def better_round_rates(cfg: SystemConfig, overlap_one_sq, overlap_two_sq) -> np.ndarray:
    """h = rate(min(o1, o2), 2) per alg1 trial that drew round two.

    o1 and o2 are its rounds' squared overlaps: h is the two-round rate at
    the better true overlap, the rate of a receiver that picks its round
    without error.
    """
    return rates_at(cfg, np.minimum(overlap_one_sq, overlap_two_sq), 2)


@functools.lru_cache(maxsize=256)
def _better_round_panels(cfg: SystemConfig) -> np.ndarray:
    """E[rate(o2, 2); t2 < edge] at each of _PANEL_EDGES but the last, o2 = law(t2), t2 ~ Exp(1).

    The law is round one's; the sums are _exp_rule's, panel by panel.
    """
    nodes, weights = _exp_rule()
    values = overlap_sq_law(cfg.jammer, np.array(nodes), cfg.tau, cfg.tau - 1, 1)
    panels = (np.array(weights) * rates_at(cfg, values, 2)).reshape(-1, _PANEL_NODES).sum(axis=1)
    return np.concatenate([[0.0], np.cumsum(panels[:-1])])


def better_round_mean(cfg: SystemConfig, overlap_one_sq) -> np.ndarray:
    """H(o1) = E[h | o1], the mean of better_round_rates over round two's draw, per o1.

    alg1's round two is a fresh draw o2 of round one's law, independent of
    round one, so with o2 = law(t), t ~ Exp(1) (overlap_sq_law at
    (tau, tau - 1, 1)) and t1 the t at which the law reaches o1,
    H(o1) = E[rate(o2, 2); t < t1] + e^(-t1) rate(o1, 2). The first term
    is _exp_rule's panels below t1, summed once per cfg, plus one
    Gauss-Legendre rule of _PANEL_NODES nodes on the part of t1's panel
    below t1; past the last edge, where the rule stops, every panel is
    whole. A sphere at tau = 1 draws o2 = 1 surely, so H(o1) = rate(o1, 2).
    Kinds that fix round two's draw (codeword, absent) raise ValueError.
    """
    o1 = np.asarray(overlap_one_sq, dtype=float)
    jammer, law = cfg.jammer, (cfg.tau, cfg.tau - 1, 1)
    if not jammer.is_random:
        raise ValueError(f"a {jammer.kind} jammer draws no fresh round two")
    if jammer.kind == "sphere" and cfg.tau == 1:
        return better_round_rates(cfg, o1, 1.0)
    t1 = overlap_sq_law_inverse(jammer, o1, *law)
    edges = np.array(_PANEL_EDGES)
    panel = np.clip(np.searchsorted(edges, t1, side="right") - 1, 0, len(edges) - 2)
    lo = edges[panel]
    half = ((np.minimum(t1, edges[-1]) - lo) / 2)[..., None]
    x, w = _legendre_rule()
    t = lo[..., None] + half * (1.0 + x)
    below = np.sum(half * w * np.exp(-t) * rates_at(cfg, overlap_sq_law(jammer, t, *law), 2),
                   axis=-1)
    return _better_round_panels(cfg)[panel] + below + np.exp(-t1) * rates_at(cfg, o1, 2)


def other_min_mean(cfg: SystemConfig, g: Callable[[np.ndarray], Sequence[float]]) -> float:
    """E[g(v)] over the exact law of v, alg2's round-two draw, freed of round one.

    g maps a 1-D array of values of v to their values, one per entry. On
    its retransmit branch alg2 draws the other tau - 1 codebook coordinates
    of cfg.jammer's sequence given round one's amplitude a
    (complete_amplitudes); m is their smallest squared modulus
    (ProtocolTrace.round_two_sq). gaussian draws them i.i.d. CN(0, 1/tau),
    so v = m ~ Exp(mean 1/(tau (tau - 1))). sphere draws them uniformly on
    the sphere of squared radius 1 - |a|^2, so v = m / (1 - |a|^2) is the
    smallest coordinate of a flat Dirichlet on tau - 1 coordinates,
    P(v > s) = (1 - (tau - 1) s)^(tau - 2), and 1 at tau = 2. Either way v
    is independent of round one. Both laws are overlap_sq_law at
    (tau (tau - 1), tau - 2, tau - 1), integrated over t ~ Exp(1)
    (_random_kind_mean). Kinds whose coordinates round one fixes (codeword,
    absent) and tau = 1, which has no other coordinate, raise ValueError.
    """
    tau, jammer = cfg.tau, cfg.jammer
    if not jammer.is_random or tau < 2:
        raise ValueError(f"a {jammer.kind} jammer at tau={tau} draws no random other coordinates")
    return _random_kind_mean(cfg, g, tau * (tau - 1), tau - 2, tau - 1)


def _retransmit_rates_at(cfg: SystemConfig, v: np.ndarray) -> np.ndarray:
    # sphere's v is m over 1 - |a|^2, whose mean is 1 - 1/tau
    scale = 1.0 if cfg.jammer.kind == "gaussian" else 1.0 - 1.0 / cfg.tau
    return rates_at(cfg, scale * v, 2)


def retransmit_rates(cfg: SystemConfig, round_two_sq: np.ndarray,
                     overlap_one_sq: np.ndarray) -> np.ndarray:
    """h(v) per alg2 trial that drew round two, from its m and round one's squared overlap.

    m is the trial's round_two_sq, and v is other_min_mean's variable: m
    for gaussian, m / (1 - |a|^2) for sphere (1 surely at tau = 2). h is
    the two-round rate rate(s v, 2) under cfg, with
    s = 1 for gaussian and 1 - 1/tau for sphere, so that s v is m at round
    one's mean overlap: the rate alg2 gets when it retransmits on the pilot
    of smallest overlap.
    """
    v = np.asarray(round_two_sq, dtype=float)
    if cfg.jammer.kind == "sphere":
        # at tau = 2 the ratio is 1 surely; computed, it would carry rounding noise
        v = np.ones(v.shape) if cfg.tau == 2 else v / (1.0 - np.asarray(overlap_one_sq))
    return _retransmit_rates_at(cfg, v)


@functools.lru_cache(maxsize=256)
def retransmit_mean(cfg: SystemConfig) -> float:
    """E[h(v)], the exact mean of retransmit_rates on a trial that draws round two."""
    return other_min_mean(cfg, functools.partial(_retransmit_rates_at, cfg))


# verify_moments passes a quantity when |emp - th| <= MOMENT_Z * stderr. A
# correct run of 15 quantities then fails with probability about 1e-4, and
# at 100000 trials M = 20 still resolves a 3% error in e1 (stderr 0.6-0.7%).
MOMENT_Z = 4.5
_MOMENT_CHUNK = 20000


@dataclass(frozen=True)
class Moment:
    """One quantity of the moment check: empirical mean, closed form, standard error."""

    emp: float
    th: float
    se: float

    @property
    def z(self) -> float:
        """emp - th in standard errors; a zero standard error allows only emp == th."""
        if self.se > 0.0:
            return (self.emp - self.th) / self.se
        return 0.0 if self.emp == self.th else math.copysign(math.inf, self.emp - self.th)

    @property
    def ok(self) -> bool:
        return abs(self.z) <= MOMENT_Z


def verify_moments(cfg: SystemConfig, overlap_sq: float, n_trials: int) -> dict[str, Moment]:
    """Monte Carlo check of the effective-noise moments at a pinned overlap.

    Maps e1 (the self-interference of the channel estimate, including the
    estimation error), e2 (the jamming leakage through the combiner), e3
    (the combined thermal noise), signal (the coherent term whose square
    forms the SINR numerator) and sinr, in that order, to their Moment.

    The pilot and jamming sequences are fixed (the closed forms are
    conditional on them); channels, noise, and payload symbols are redrawn
    every trial. The channel estimate uses the true overlap, matching the
    oracle analysis. The standard errors of signal and sinr, functions of
    the means of e1, e2, e3 and ||g_hat||^2, follow by the delta method.
    """
    if not 0.0 <= overlap_sq <= 1.0:
        raise ValueError("overlap_sq must lie in [0, 1]")
    check_count("n_trials", n_trials)
    if cfg.p_t <= 0:
        raise ValueError("the moment check needs training power p_t > 0")
    if overlap_sq < 1.0 and cfg.tau < 2:
        raise ValueError("a partial overlap needs tau >= 2")
    amp = math.sqrt(overlap_sq)    # s_j^T s_u* for a unit-norm s_j at that overlap
    c_u, gamma_u = mmse_coefficients(cfg, overlap_sq)

    rng = substream(cfg.master_seed, int(round(overlap_sq * 1e6)), TAG_MOMENTS)
    sqrt_tp, sqrt_tq = cfg.training_amplitudes
    scale = np.sqrt([cfg.beta_u, cfg.beta_j, 1.0, 1.0])
    sums = np.zeros(4)
    cross = np.zeros((4, 4))
    done = 0
    while done < n_trials:
        n = min(_MOMENT_CHUNK, n_trials - done)
        # every quantity is an inner product of the columns of
        # [g_u g_j n_t n_d] (n_t the de-spread training noise), so a factor
        # of their 4 x 4 gram stands in for the M x 4 draws
        g_u, g_j, n_t, n_d = np.moveaxis(scale * wishart_factor(rng, cfg.M, 4, (n,)), -1, 0)
        x_u = crandn(rng, n)
        x_j = crandn(rng, n)
        y_t = sqrt_tp * g_u + sqrt_tq * amp * g_j + n_t
        g_hat = c_u * y_t
        err = g_u - g_hat
        norm2 = np.sum(np.abs(g_hat) ** 2, axis=1)
        self_noise = (norm2 - cfg.M * gamma_u) + np.sum(g_hat.conj() * err, axis=1)
        samples = np.stack([
            cfg.p_d * np.abs(self_noise * x_u) ** 2,
            cfg.q_d * np.abs(np.sum(g_hat.conj() * g_j, axis=1) * x_j) ** 2,
            np.abs(np.sum(g_hat.conj() * n_d, axis=1)) ** 2,
            norm2,
        ])
        sums += samples.sum(axis=1)
        cross += samples @ samples.T
        done += n

    mean = sums / n_trials
    cov = cross / n_trials - np.outer(mean, mean)
    noise, norm_mean = mean[:3].sum(), mean[3]
    signal_emp = cfg.p_d * norm_mean ** 2
    sinr_emp = signal_emp / noise
    # rows: the gradients of e1, e2, e3, signal and sinr in the four means
    jac = np.zeros((5, 4))
    jac[:3, :3] = np.eye(3)
    jac[3, 3] = 2.0 * cfg.p_d * norm_mean
    jac[4] = (-sinr_emp / noise,) * 3 + (2.0 * sinr_emp / norm_mean,)
    stderrs = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", jac, cov, jac), 0.0) / n_trials)
    emps = (*mean[:3], signal_emp, sinr_emp)
    e2_th = cfg.M * cfg.q_d * gamma_u * (
        cfg.beta_j + cfg.M * gamma_u * (cfg.q_t / cfg.p_t)
        * (cfg.beta_j / cfg.beta_u) ** 2 * overlap_sq)
    ths = (cfg.M * gamma_u * cfg.p_d * cfg.beta_u, e2_th, cfg.M * gamma_u,
           cfg.p_d * (cfg.M * gamma_u) ** 2, effective_sinr(cfg, gamma_u, overlap_sq))
    names = ("e1", "e2", "e3", "signal", "sinr")
    return {name: Moment(float(emp), th, float(se))
            for name, emp, th, se in zip(names, emps, ths, stderrs)}
