"""Trial engine.

Averages closed-form rates over sequence and channel realizations for the
conventional single-shot scheme and both retransmission protocols.

Every trial draws from two substreams keyed by (master_seed, trial, tag).
The channel stream draws the triangular factor R of [g_u g_j]
(gen_channel_factor): the receiver's statistics see the channels only
through it. The protocol stream draws round one (the pilot index k, then
the overlap amplitude s_j^T c_k* of the jamming sequence with pilot k) for
every scheme, so at equal trial indices all schemes see identical
first-round overlaps. A round matters only through that amplitude, and the
codebook is unitary, so the amplitude is drawn from its exact law
(draw_overlap_amplitude) in place of a whole sequence. For alg1 and alg2
the protocol stream then draws, round by round, the statistic the receiver
decides from: ||y_t||^2 (receive_despread) for every round, drawn the same
way in round one, and for alg2, only when it goes on to retransmit, the
other codebook coordinates of the sequence (complete_amplitudes) and a
factor of round one's block gram in those coordinates
(receive_block_factor), where alg2 searches its pilot. All follow the exact
law of the M-antenna draws at a cost that does not grow with M.
Conventional decides nothing, so it draws neither channels nor noise. Keyed
streams make scheme comparisons paired and keep any execution order or
worker count bit-reproducible.

Every trial also returns the conventional rate of its round one, whose
exact mean (oracle.conventional_mean) makes it the control variate of
average_rate's alg rows.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import JammerSpec, _codeword_index, draw_overlap_amplitude, gen_channel_factor
from .config import SystemConfig, check_count
from .oracle import conventional_mean
from .protocols import run_algorithm1, run_algorithm2
from .rates import rate_config, sinr_and_rate
from .rng import TAG_CHANNEL, TAG_PROTOCOL, substream

SCHEMES = ("conventional", "alg1", "alg2")


@dataclass(frozen=True)
class TrialData:
    """Per-trial outcomes of one scheme, in trial-index order.

    conv_rates holds the conventional rate of each trial's round one, the
    paired control variate of an alg row.
    """

    rates: np.ndarray
    n_used: np.ndarray
    overlap_sq: np.ndarray
    conv_rates: np.ndarray


@dataclass(frozen=True)
class RateSummary:
    mean_rate: float
    stderr: float
    n_used_hist: dict[int, int]
    mean_n_used: float


def _validate_combination(cfg: SystemConfig, scheme: str, jammer: JammerSpec):
    """Reject a (config, scheme, jammer) triple that no trial could run."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _codeword_index(jammer, cfg.tau)
    if scheme == "alg1":
        if jammer.kind == "codeword":
            raise ValueError("alg1 assumes random jamming; a codeword jammer is deterministic")
        if cfg.first_pilot is not None:
            raise ValueError("alg1 always draws its pilots uniformly; first_pilot is not supported")
    if scheme != "conventional" and cfg.q_t <= 0:
        raise ValueError(f"{scheme} estimates the overlap blind, which needs q_t > 0")


def simulate_one_trial(cfg: SystemConfig, scheme: str, jammer: JammerSpec,
                       index: int) -> tuple[float, int, float, float]:
    """One independent realization of one scheme: (rate, n_used, overlap_sq, conv_rate).

    Reproducible from (cfg.master_seed, index) alone. Round one, the pilot
    index and its overlap amplitude, is drawn here for every scheme, so
    schemes are paired at equal indices. The rate is the closed-form
    achievable rate (sinr_and_rate, bit-identical to rate_from_overlap) at
    the true overlap of the round the receiver decodes with, and pays for
    every transmission spent. The MR combiner's SINR does not change when
    the MMSE coefficient is scaled, so a receiver that builds its estimate
    from the blind overlap gets this rate too (the use-and-forget bound).
    conv_rate is the conventional rate of the same trial, at round one's
    overlap; a trial that stops after round one has it as its own rate.
    """
    _validate_combination(cfg, scheme, jammer)
    rng_proto = substream(cfg.master_seed, index, TAG_PROTOCOL)
    # round one: the pilot index, then its overlap amplitude with the
    # jamming sequence, which alg2's jammer replays for the whole trial
    k = cfg.first_pilot if cfg.first_pilot is not None else int(rng_proto.integers(cfg.tau))
    amp = draw_overlap_amplitude(rng_proto, jammer, k, cfg.tau)
    if scheme == "conventional":
        n_used, overlap = 1, abs(amp) ** 2
    else:
        r = gen_channel_factor(substream(cfg.master_seed, index, TAG_CHANNEL),
                               cfg.M, cfg.beta_u, cfg.beta_j)
        trace = (run_algorithm1(cfg, r, k, amp, jammer, rng_proto) if scheme == "alg1"
                 else run_algorithm2(cfg, r, k, amp, jammer, rng_proto))
        n_used, overlap = trace.n_used, trace.rounds[trace.chosen_round].overlap_true
    rc = rate_config(cfg, jammer)
    value = sinr_and_rate(rc, overlap, n_used)[1]
    conv = value if n_used == 1 else sinr_and_rate(rc, abs(amp) ** 2, 1)[1]
    return value, n_used, overlap, conv


def _trial_chunk(args):
    cfg, scheme, jammer, start, stop = args
    rates, n_used, overlaps, conv = zip(*(simulate_one_trial(cfg, scheme, jammer, i)
                                          for i in range(start, stop)))
    return (np.array(rates), np.array(n_used, dtype=np.int64), np.array(overlaps),
            np.array(conv))


def run_trials(cfg: SystemConfig, scheme: str, jammer: JammerSpec, n_trials: int,
               n_workers: int = 1) -> TrialData:
    """All trial outcomes for one scheme.

    Results are keyed by trial index, so the worker count only changes wall
    time, never values. The pool never starts more workers than the machine
    has CPUs or the run has chunks.
    """
    check_count("n_trials", n_trials)
    check_count("worker count", n_workers)
    _validate_combination(cfg, scheme, jammer)
    n_workers = min(n_workers, os.cpu_count() or 1)
    step = n_trials if n_workers == 1 else max(1, math.ceil(n_trials / (4 * n_workers)))
    chunks = [(cfg, scheme, jammer, s, min(s + step, n_trials))
              for s in range(0, n_trials, step)]
    if n_workers == 1:
        results = list(map(_trial_chunk, chunks))
    else:
        pool = ProcessPoolExecutor(max_workers=min(n_workers, len(chunks)))
        try:
            results = list(pool.map(_trial_chunk, chunks))
        finally:
            pool.shutdown()
    rates, n_used, overlaps, conv = map(np.concatenate, zip(*results))
    return TrialData(rates=rates, n_used=n_used, overlap_sq=overlaps, conv_rates=conv)


def control_variate_mean(y: np.ndarray, x: np.ndarray | None = None,
                         x_mean: float = 0.0) -> tuple[float, float]:
    """Mean of the samples y and its standard error, steered by x of exact mean x_mean.

    mean(y) - b (mean(x) - x_mean), with b the sample regression slope of y
    on x, and the standard error of the residuals y - b x with ddof=2.
    Without x, with fewer than 3 samples or with x constant, it is the
    plain mean and its sample standard error (0 for one sample).
    """
    n = len(y)
    if x is None or n < 3 or x.min() == x.max():
        stderr = float(y.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return float(y.mean()), stderr
    x_bar, y_bar = x.mean(), y.mean()
    xc, yc = x - x_bar, y - y_bar
    b = float(xc @ yc / (xc @ xc))
    return float(y_bar - b * (x_bar - x_mean)), float((yc - b * xc).std(ddof=2) / math.sqrt(n))


def average_rate(cfg: SystemConfig, scheme: str, jammer: JammerSpec, n_trials: int,
                 n_workers: int = 1) -> RateSummary:
    """Mean closed-form rate, its standard error, and the retransmission counts.

    A conventional row is the plain sample mean. An alg row is the paired
    control-variate mean (control_variate_mean) against its trials'
    conventional rates, whose exact mean is conventional_mean.
    """
    data = run_trials(cfg, scheme, jammer, n_trials, n_workers=n_workers)
    if scheme == "conventional":
        mean, stderr = control_variate_mean(data.rates)
    else:
        mean, stderr = control_variate_mean(data.rates, data.conv_rates,
                                            conventional_mean(cfg, jammer))
    hist = {int(k): int(c) for k, c in enumerate(np.bincount(data.n_used)) if c > 0}
    return RateSummary(mean_rate=mean, stderr=stderr,
                       n_used_hist=hist, mean_n_used=float(data.n_used.mean()))
