"""Trial engine.

Averages closed-form rates over sequence and channel realizations for the
conventional single-shot scheme and both retransmission protocols, and
provides the brute-force moment oracle that validates the effective-noise
decomposition behind the SINR formula.

Every trial draws from two substreams keyed by (master_seed, trial, tag):
one for channels, one for the pilot/jammer/noise draws of the protocol.
Schemes consume the protocol stream in the same leading order, so at equal
trial indices they see identical first-round sequences. That makes scheme
comparisons paired and keeps any execution order or worker count
bit-reproducible.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (JammerSpec, crandn, draw_jammer_sequence, gen_channel,
                      jamming_overlap_sq, make_codebook)
from .config import SystemConfig
from .estimation import mmse_coefficients, run_training
from .protocols import run_algorithm1, run_algorithm2
from .rates import effective_sinr, rate_from_overlap, rate_random_jamming
from .rng import substream

SCHEMES = ("conventional", "alg1", "alg2")

_TAG_CHANNEL = 0
_TAG_PROTOCOL = 1
_TAG_MOMENTS = 2
_MOMENT_CHUNK = 20000


@dataclass(frozen=True)
class TrialResult:
    scheme: str
    rate: float
    n_used: int
    overlap_sq: float


@dataclass(frozen=True)
class TrialData:
    """Per-trial outcomes of one scheme, in trial-index order."""

    scheme: str
    rates: np.ndarray
    n_used: np.ndarray
    overlap_sq: np.ndarray


@dataclass(frozen=True)
class RateSummary:
    mean_rate: float
    stderr: float
    n_used_hist: dict[int, int]
    mean_n_used: float
    n_trials: int


def _rate_config(cfg: SystemConfig, jammer: JammerSpec) -> SystemConfig:
    """Config used for rate formulas: q_d is zero when no data-phase jamming."""
    if jammer.kind == "absent" or not jammer.data_phase_active:
        return cfg.with_powers(cfg.p_t, cfg.p_d, cfg.q_t, 0.0)
    return cfg


def _validate_combination(cfg: SystemConfig, scheme: str, jammer: JammerSpec,
                          first_pilot: int | None):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "alg1":
        if jammer.kind == "codeword":
            raise ValueError("alg1 assumes random jamming; a codeword jammer is deterministic")
        if first_pilot is not None:
            raise ValueError("alg1 always draws its pilots uniformly; first_pilot is not supported")
    if first_pilot is not None and not 0 <= first_pilot < cfg.tau:
        raise ValueError(f"first_pilot must lie in [0, tau), got {first_pilot}")


def simulate_one_trial(cfg: SystemConfig, scheme: str, jammer: JammerSpec, index: int,
                       first_pilot: int | None = None, opt_mode: str = "codebook",
                       rate_cfg: SystemConfig | None = None) -> TrialResult:
    """One independent realization of one scheme.

    Reproducible from (cfg.master_seed, index) alone. The reported rate is
    the closed-form achievable rate at the overlaps selected by
    cfg.rate_accounting.
    """
    _validate_combination(cfg, scheme, jammer, first_pilot)
    if rate_cfg is None:
        rate_cfg = _rate_config(cfg, jammer)
    estimated = cfg.rate_accounting == "estimated_overlap"
    rng_proto = _trial_stream(cfg, index, _TAG_PROTOCOL)
    codebook = make_codebook(cfg.tau)

    if scheme == "conventional":
        k = first_pilot if first_pilot is not None else int(rng_proto.integers(cfg.tau))
        s_u = codebook[k]
        s_j = draw_jammer_sequence(rng_proto, jammer, cfg.tau)
        if estimated:
            rng_chan = _trial_stream(cfg, index, _TAG_CHANNEL)
            g_u = gen_channel(rng_chan, cfg.M, cfg.beta_u)
            g_j = gen_channel(rng_chan, cfg.M, cfg.beta_j)
            _, overlap = run_training(cfg, g_u, g_j, s_u, s_j, rng_proto)
        else:
            overlap = jamming_overlap_sq(s_j, s_u)
        report = rate_from_overlap(rate_cfg, overlap, 1)
        return TrialResult(scheme, report.rate, 1, overlap)

    rng_chan = _trial_stream(cfg, index, _TAG_CHANNEL)
    g_u = gen_channel(rng_chan, cfg.M, cfg.beta_u)
    g_j = gen_channel(rng_chan, cfg.M, cfg.beta_j)

    if scheme == "alg1":
        trace = run_algorithm1(cfg, g_u, g_j, jammer, rng_proto)
        overlaps = [r.overlap_est if estimated else r.overlap_true for r in trace.rounds]
        report = rate_random_jamming(rate_cfg, overlaps, trace.n_used)
        return TrialResult(scheme, report.rate, trace.n_used, report.overlap_sq_used)

    # alg2: the jamming sequence is frozen for the whole trial
    k = first_pilot if first_pilot is not None else int(rng_proto.integers(cfg.tau))
    s_j = draw_jammer_sequence(rng_proto, jammer, cfg.tau)
    trace = run_algorithm2(cfg, g_u, g_j, s_j, rng_proto, opt_mode=opt_mode, first_pilot=k)
    final = trace.rounds[trace.n_used - 1]
    overlap = final.overlap_est if estimated else final.overlap_true
    report = rate_from_overlap(rate_cfg, overlap, trace.n_used)
    return TrialResult(scheme, report.rate, trace.n_used, overlap)


def _trial_stream(cfg: SystemConfig, index: int, tag: int):
    return substream(cfg.master_seed, index, tag)


def _trial_chunk(args):
    cfg, scheme, jammer, first_pilot, opt_mode, start, stop = args
    n = stop - start
    rates = np.empty(n)
    n_used = np.empty(n, dtype=np.int64)
    overlaps = np.empty(n)
    rate_cfg = _rate_config(cfg, jammer)
    for i in range(n):
        res = simulate_one_trial(cfg, scheme, jammer, start + i,
                                 first_pilot=first_pilot, opt_mode=opt_mode,
                                 rate_cfg=rate_cfg)
        rates[i] = res.rate
        n_used[i] = res.n_used
        overlaps[i] = res.overlap_sq
    return start, rates, n_used, overlaps


def run_trials(cfg: SystemConfig, scheme: str, jammer: JammerSpec, n_trials: int,
               n_workers: int = 1, first_pilot: int | None = None,
               opt_mode: str = "codebook") -> TrialData:
    """All trial outcomes for one scheme.

    Results are keyed by trial index, so the worker count only changes wall
    time, never values. The pool never starts more workers than the machine
    has CPUs or the run has chunks.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if n_workers < 1:
        raise ValueError(f"worker count must be positive, got {n_workers}")
    _validate_combination(cfg, scheme, jammer, first_pilot)
    rates = np.empty(n_trials)
    n_used = np.empty(n_trials, dtype=np.int64)
    overlaps = np.empty(n_trials)
    n_workers = min(n_workers, os.cpu_count() or 1)
    if n_workers == 1:
        chunks = [(cfg, scheme, jammer, first_pilot, opt_mode, 0, n_trials)]
        results = map(_trial_chunk, chunks)
    else:
        step = max(1, math.ceil(n_trials / (4 * n_workers)))
        chunks = [(cfg, scheme, jammer, first_pilot, opt_mode, s, min(s + step, n_trials))
                  for s in range(0, n_trials, step)]
        pool = ProcessPoolExecutor(max_workers=min(n_workers, len(chunks)))
        try:
            results = list(pool.map(_trial_chunk, chunks))
        finally:
            pool.shutdown()
    for start, r, n, o in results:
        rates[start:start + len(r)] = r
        n_used[start:start + len(n)] = n
        overlaps[start:start + len(o)] = o
    return TrialData(scheme=scheme, rates=rates, n_used=n_used, overlap_sq=overlaps)


def summarize(data: TrialData) -> RateSummary:
    n = len(data.rates)
    stderr = float(data.rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    counts = np.bincount(data.n_used)
    hist = {int(k): int(c) for k, c in enumerate(counts) if c > 0}
    return RateSummary(mean_rate=float(data.rates.mean()), stderr=stderr,
                       n_used_hist=hist, mean_n_used=float(data.n_used.mean()),
                       n_trials=n)


def average_rate(cfg: SystemConfig, scheme: str, jammer: JammerSpec, n_trials: int,
                 n_workers: int = 1, first_pilot: int | None = None,
                 opt_mode: str = "codebook") -> RateSummary:
    """Mean closed-form rate, its standard error, and the retransmission counts."""
    return summarize(run_trials(cfg, scheme, jammer, n_trials, n_workers=n_workers,
                                first_pilot=first_pilot, opt_mode=opt_mode))


@dataclass(frozen=True)
class MomentReport:
    """Empirical vs closed-form moments of the effective-noise decomposition.

    e1 covers the self-interference of the channel estimate (including the
    estimation error), e2 the jamming leakage through the combiner, e3 the
    combined thermal noise; signal is the coherent term whose square forms
    the SINR numerator.
    """

    overlap_sq: float
    trials: int
    e1_emp: float
    e1_th: float
    e2_emp: float
    e2_th: float
    e3_emp: float
    e3_th: float
    signal_emp: float
    signal_th: float
    sinr_emp: float
    sinr_th: float
    e1_se: float = 0.0      # standard errors of the empirical means
    e2_se: float = 0.0
    e3_se: float = 0.0

    def moment_rel_errors(self) -> dict[str, float]:
        out = {}
        for name in ("e1", "e2", "e3", "signal"):
            emp = getattr(self, f"{name}_emp")
            th = getattr(self, f"{name}_th")
            if th == 0.0:
                out[name] = 0.0 if emp == 0.0 else math.inf
            else:
                out[name] = abs(emp - th) / abs(th)
        return out

    def max_moment_rel_error(self) -> float:
        return max(self.moment_rel_errors().values())

    def sinr_rel_error(self) -> float:
        if self.sinr_th == 0.0:
            return 0.0 if self.sinr_emp == 0.0 else math.inf
        return abs(self.sinr_emp - self.sinr_th) / abs(self.sinr_th)


def verify_moments(cfg: SystemConfig, overlap_sq: float, n_trials: int) -> MomentReport:
    """Monte Carlo check of the effective-noise moments at a pinned overlap.

    The pilot and jamming sequences are fixed (the closed forms are
    conditional on them); channels, noise, and payload symbols are redrawn
    every trial. The channel estimate uses the true overlap, matching the
    oracle analysis.
    """
    if not 0.0 <= overlap_sq <= 1.0:
        raise ValueError("overlap_sq must lie in [0, 1]")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if cfg.p_t <= 0:
        raise ValueError("the moment check needs training power p_t > 0")
    if overlap_sq < 1.0 and cfg.tau < 2:
        raise ValueError("a partial overlap needs tau >= 2")
    codebook = make_codebook(cfg.tau)
    s_u = codebook[0]
    if overlap_sq == 1.0:
        s_j = s_u
    else:
        s_j = math.sqrt(overlap_sq) * codebook[0] + math.sqrt(1.0 - overlap_sq) * codebook[1]
    amp = np.dot(s_j, np.conj(s_u))  # overlap amplitude, |amp|^2 == overlap_sq
    c_u, gamma_u = mmse_coefficients(cfg, overlap_sq)

    rng = substream(cfg.master_seed, _TAG_MOMENTS, int(round(overlap_sq * 1e6)))
    sqrt_tp = math.sqrt(cfg.tau * cfg.p_t)
    sqrt_tq = math.sqrt(cfg.tau * cfg.q_t)
    sums = np.zeros(3)
    squares = np.zeros(3)
    norm_sum = 0.0
    done = 0
    while done < n_trials:
        n = min(_MOMENT_CHUNK, n_trials - done)
        g_u = math.sqrt(cfg.beta_u) * crandn(rng, n, cfg.M)
        g_j = math.sqrt(cfg.beta_j) * crandn(rng, n, cfg.M)
        n_t = crandn(rng, n, cfg.M)   # de-spread training noise, unit variance
        n_d = crandn(rng, n, cfg.M)
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
        ])
        sums += samples.sum(axis=1)
        squares += (samples ** 2).sum(axis=1)
        norm_sum += float(np.sum(norm2))
        done += n

    means = sums / n_trials
    variances = np.maximum(squares / n_trials - means ** 2, 0.0)
    stderrs = np.sqrt(variances / n_trials)
    e1_emp, e2_emp, e3_emp = means
    signal_emp = cfg.p_d * (norm_sum / n_trials) ** 2
    e1_th = cfg.M * gamma_u * cfg.p_d * cfg.beta_u
    e2_th = cfg.M * cfg.q_d * gamma_u * (
        cfg.beta_j + cfg.M * gamma_u * (cfg.q_t / cfg.p_t)
        * (cfg.beta_j / cfg.beta_u) ** 2 * overlap_sq)
    e3_th = cfg.M * gamma_u
    signal_th = cfg.p_d * (cfg.M * gamma_u) ** 2
    sinr_emp = signal_emp / (e1_emp + e2_emp + e3_emp)
    sinr_th = effective_sinr(cfg, gamma_u, overlap_sq)
    return MomentReport(overlap_sq=overlap_sq, trials=n_trials,
                        e1_emp=float(e1_emp), e1_th=e1_th, e2_emp=float(e2_emp),
                        e2_th=e2_th, e3_emp=float(e3_emp), e3_th=e3_th,
                        signal_emp=signal_emp, signal_th=signal_th,
                        sinr_emp=sinr_emp, sinr_th=sinr_th,
                        e1_se=float(stderrs[0]), e2_se=float(stderrs[1]),
                        e3_se=float(stderrs[2]))
