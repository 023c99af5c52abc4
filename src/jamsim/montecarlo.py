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
(draw_overlap_amplitude) in place of a whole sequence. Round one's squared
overlap is the inverse CDF of one uniform, and trial i draws that uniform
in stratum i mod STRATA of STRATA equal ones; later rounds are not
stratified, so alg1's round two stays independent of round one. For alg1
and alg2 the protocol stream then draws, round by round, the statistic the
receiver decides from: ||y_t||^2 (receive_despread) for every round,
drawn the same way in round one, and for alg2, only when it goes on to
retransmit, the other codebook coordinates of the sequence
(complete_amplitudes) and a factor of round one's block gram in those
coordinates (receive_block_factor), where alg2 searches its pilot. All
follow the exact law of the M-antenna draws at a cost that does not grow
with M. Conventional decides nothing, so it draws neither channels nor
noise. Keyed streams make scheme comparisons paired and keep any execution
order or worker count bit-reproducible, so run_trials maps
simulate_one_trial over the trial indices, in-process or on a process pool.

Every trial also returns round one's squared overlap and, on alg trials,
whether round one's blind estimate met the threshold and round two's draw
(ProtocolTrace.round_two_sq). average_rate steers the alg rows with them:
the conventional rate at round one's overlap has the exact mean
oracle.conventional_mean, the stop indicator has the exact mean
oracle.stop_probability given that overlap, which in turn has the exact
mean oracle.stop_share, and on the trials that retransmit, a rate at round
two's draw has an exact mean too: for alg1 the two-round rate at the
better of its rounds' overlaps, given round one's
(oracle.better_round_mean), for alg2 oracle.retransmit_mean. The alg rows'
standard error centres its per-trial terms within round one's strata
(control_variate_mean). A conventional row is the stratified mean of its
trials (stratified_mean).
"""

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channel import draw_overlap_amplitude, gen_channel_factor
from .config import SystemConfig, check_count, validate_combination
from .oracle import (better_round_mean, better_round_rates, conventional_mean, conventional_rates,
                     retransmit_mean, retransmit_rates, stop_probability, stop_share)
from .protocols import run_algorithm1, run_algorithm2
from .rates import sinr_and_rate
from .rng import TAG_CHANNEL, TAG_PROTOCOL, substream

# the number of equal strata of round one's uniform; trial i draws in
# stratum i mod STRATA. On the presets' grids (README) 5 cuts a conventional
# row's variance 7-19x, against 5-12x for 4 and 12-45x for 8, while its z
# tail stays near the plain mean's: a seed's rows leave 4 stderrs 0.003-0.006
# times, against 0.001-0.0025 plain and 0.004-0.009 for 8
STRATA = 5


def __getattr__(name):
    # ProcessPoolExecutor is bound on first use: importing it loads
    # multiprocessing, which a serial run never needs
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class TrialData:
    """Per-trial outcomes of one scheme, in trial-index order.

    overlap_sq is the true squared overlap of the round each receiver
    decodes with. The rest steer an alg row (average_rate):
    round_one_overlap_sq holds round one's squared overlap, and
    round_one_met whether round one's blind estimate met the threshold
    (False on conventional trials, which estimate nothing), and
    round_two_sq round two's draw (ProtocolTrace.round_two_sq, 0 on
    conventional trials).
    """

    rates: np.ndarray
    n_used: np.ndarray
    overlap_sq: np.ndarray
    round_one_overlap_sq: np.ndarray
    round_one_met: np.ndarray
    round_two_sq: np.ndarray


@dataclass(frozen=True)
class RateSummary:
    mean_rate: float
    stderr: float
    n_used_hist: dict[int, int]
    mean_n_used: float


def simulate_one_trial(cfg: SystemConfig, scheme: str,
                       index: int) -> tuple[float, int, float, float, bool, float]:
    """One realization of one scheme.

    Returns (rate, n_used, overlap_sq, round_one_overlap_sq, round_one_met,
    round_two_sq), the fields of TrialData.

    Reproducible from (cfg.master_seed, index) alone. Round one, the pilot
    index and its overlap amplitude, is drawn here for every scheme, so
    schemes are paired at equal indices; its squared overlap is drawn in
    stratum index mod STRATA of its law (draw_overlap_amplitude). The rate
    is the closed-form achievable rate (sinr_and_rate, bit-identical to
    rate_from_overlap) at the true overlap of the round the receiver
    decodes with, and pays for every transmission spent. The MR combiner's
    SINR does not change when the MMSE coefficient is scaled, so a receiver
    that builds its estimate from the blind overlap gets this rate too (the
    use-and-forget bound).
    round_one_overlap_sq is round one's squared overlap, at which a
    conventional trial of the same index is rated. round_one_met says
    whether round one's blind estimate met the threshold, and is False on a
    conventional trial. round_two_sq is the protocol's
    ProtocolTrace.round_two_sq, and 0 on a conventional trial.
    """
    validate_combination(cfg, scheme)
    rng_proto = substream(cfg.master_seed, index, TAG_PROTOCOL)
    # round one: the pilot index, then its overlap amplitude with the
    # jamming sequence, which alg2's jammer replays for the whole trial
    k = cfg.first_pilot if cfg.first_pilot is not None else int(rng_proto.integers(cfg.tau))
    amp = draw_overlap_amplitude(rng_proto, cfg.jammer, k, cfg.tau, (index % STRATA, STRATA))
    overlap_one = abs(amp) ** 2
    if scheme == "conventional":
        n_used, overlap, met, round_two = 1, overlap_one, False, 0.0
    else:
        r = gen_channel_factor(substream(cfg.master_seed, index, TAG_CHANNEL),
                               cfg.M, cfg.beta_u, cfg.beta_j)
        trace = (run_algorithm1(cfg, r, k, amp, rng_proto) if scheme == "alg1"
                 else run_algorithm2(cfg, r, k, amp, rng_proto))
        n_used, overlap = trace.n_used, trace.rounds[trace.chosen_round].overlap_true
        met = cfg.overlap_below_threshold(trace.rounds[0].overlap_est)
        round_two = trace.round_two_sq
    value = sinr_and_rate(cfg, overlap, n_used)[1]
    return value, n_used, overlap, overlap_one, met, round_two


def run_trials(cfg: SystemConfig, scheme: str, n_trials: int, n_workers: int = 1) -> TrialData:
    """All trial outcomes for one scheme: simulate_one_trial mapped over the trial indices.

    Results are keyed by trial index, so the worker count only changes wall
    time, never values. The pool never starts more workers than there are
    CPUs this process may run on (_usable_cpus) or trials, and one worker
    runs in-process, so a serial run never loads the pool machinery; a
    pooled run loads it at its first pool.
    """
    check_count("n_trials", n_trials)
    check_count("worker count", n_workers)
    validate_combination(cfg, scheme)
    n_workers = min(n_workers, _usable_cpus(), n_trials)
    trial = functools.partial(simulate_one_trial, cfg, scheme)
    if n_workers == 1:
        outcomes = list(map(trial, range(n_trials)))
    else:
        # a module attribute, not a bare name: a bare name never reaches the
        # module's __getattr__, and the attribute sees a replacement of it
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=n_workers) as pool:
            outcomes = list(pool.map(trial, range(n_trials),
                                     chunksize=math.ceil(n_trials / (4 * n_workers))))
    return TrialData(*map(np.array, zip(*outcomes)))


def control_variate_mean(y: np.ndarray, columns: np.ndarray | None = None,
                         means: float | tuple[float, ...] = 0.0) -> tuple[float, float]:
    """Mean of the samples y and its standard error, steered by control variates.

    columns holds one control variate per column, one row per sample, and
    means their exact means. Columns that take one value throughout are
    dropped. The estimate is the intercept of the least-squares fit of y on
    the columns less their means, that is mean(y) - b . (mean(columns) -
    means), solved rank-revealing so that collinear columns share one
    coefficient. Its standard error is the jackknife-like sandwich (HC3),
    its terms a_i e_i / (1 - h_i) centred within round one's strata
    (_stratified_spread), with a_i the weight of y_i in the intercept, e_i
    its residual and h_i its leverage. Unlike the residuals' standard
    deviation it counts the noise of the fitted coefficients and residuals
    whose spread changes with the columns; unlike plain HC3 it leaves out
    the spread between strata, which the stratified draw keeps out of the
    mean. Without a varying column, with fewer samples than varying
    columns plus 2, or when one sample alone fixes a coefficient (leverage
    1), it is the plain mean and its sample standard error (0 for one
    sample).
    """
    n = len(y)
    y_bar = y.mean()
    if columns is not None:
        x = np.asarray(columns, dtype=float).reshape(n, -1)
        keep = x.min(axis=0) < x.max(axis=0)
        x, x_mean = x[:, keep], np.broadcast_to(means, keep.shape)[keep]
        if x.shape[1] and n >= x.shape[1] + 2:
            x_bar = x.mean(axis=0)
            xc = x - x_bar
            # unit-norm columns make the rank cut independent of their scales
            norms = np.sqrt(np.einsum("ij,ij->j", xc, xc))
            u, sv, vt = np.linalg.svd(xc / norms, full_matrices=False)
            rank = int(np.sum(sv > sv[0] * n * np.finfo(float).eps))
            u = u[:, :rank]
            leverage = 1.0 / n + np.einsum("ij,ij->i", u, u)
            if leverage.max() < 1.0 - 1e-9:
                # the mean moves by w per unit of the fit's coordinates u^T (y - y_bar)
                w = (vt[:rank] @ ((x_bar - x_mean) / norms)) / sv[:rank]
                uy = u.T @ (y - y_bar)
                resid = y - y_bar - u @ uy
                weight = 1.0 / n - u @ w
                return float(y_bar - w @ uy), _stratified_spread(weight * resid / (1.0 - leverage))
    stderr = float(y.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(y_bar), stderr


def _stratified_spread(terms: np.ndarray) -> float:
    """Root of the sum of squares of the per-sample terms, each centred in its stratum.

    Sample i lies in stratum i mod STRATA, and a stratum's sum of squares
    about its mean is scaled by n_h / (n_h - 1), n_h its count. With fewer
    than 2 STRATA samples, which leave a stratum without two, the terms
    are not centred.
    """
    if len(terms) < 2 * STRATA:
        return float(np.sqrt(np.sum(terms ** 2)))
    total = 0.0
    for h in range(STRATA):
        part = terms[h::STRATA]
        total += len(part) / (len(part) - 1) * float(np.sum((part - part.mean()) ** 2))
    return math.sqrt(total)


def stratified_mean(y: np.ndarray) -> tuple[float, float]:
    """Mean of the samples y of trials 0, 1, ... and its standard error, by round one's strata.

    Sample i lies in stratum i mod STRATA. With at least 2 samples in every
    stratum (len(y) >= 2 STRATA) the mean is (1/H) sum_h ybar_h and the
    standard error sqrt(sum_h s_h^2 / n_h) / H, with H = STRATA and ybar_h,
    s_h^2 and n_h the mean, sample variance and count of stratum h. When
    every stratum holds the same count that mean is the plain mean, and
    it is computed as one. With fewer samples the row is the plain mean
    and its sample standard error (0 for one sample).
    """
    n = len(y)
    if n < 2 * STRATA:
        return control_variate_mean(y)
    strata = [y[h::STRATA] for h in range(STRATA)]
    mean = y.mean() if n % STRATA == 0 else math.fsum(s.mean() for s in strata) / STRATA
    variance = math.fsum(s.var(ddof=1) / len(s) for s in strata)
    return float(mean), math.sqrt(variance) / STRATA


def _control_variates(cfg: SystemConfig, scheme: str,
                      data: TrialData) -> tuple[np.ndarray, tuple[float, ...]]:
    """The control-variate columns of an alg row's trials, and their exact means.

    With x the conventional rate at round one's overlap (conventional_rates),
    p the probability that round one's blind estimate meets the threshold
    given that overlap (stop_probability) and d = S - p, S the round-one
    stop indicator, the first three columns are x, of mean
    conventional_mean, and d and d x, both of mean 0, since x is a function
    of that overlap. The fourth is (1 - S)(f - E f), f a rate at round
    two's draw (ProtocolTrace.round_two_sq). For alg1, f is
    better_round_rates, the two-round rate at the smaller of round one's
    and round two's squared overlaps, the round a receiver without
    estimation error picks, and E f is its mean over round two's draw given
    round one's overlap (better_round_mean). For alg2, f is
    retransmit_rates, of mean retransmit_mean.
    With n_max >= 2 a trial draws round two exactly when S is 0, and that
    draw is independent of round one, so the column has mean 0. It is 0
    throughout under a codeword or absent jammer, where round one fixes
    round two's draw, for alg2 at tau = 1, and at n_max = 1, where no trial
    retransmits. The fifth is p itself, of mean stop_share: round one's
    stop decision sets the row's prelog, and p is its smooth part. Under a
    codeword or absent jammer p is constant (dropped) or collinear with x.
    """
    x = conventional_rates(cfg, data.round_one_overlap_sq)
    p = stop_probability(cfg, data.round_one_overlap_sq)
    d = data.round_one_met - p
    retx = ~data.round_one_met
    round_two = np.zeros(len(retx))
    if cfg.n_max >= 2 and cfg.jammer.is_random:
        if scheme == "alg1":
            one = data.round_one_overlap_sq[retx]
            round_two[retx] = (better_round_rates(cfg, one, data.round_two_sq[retx])
                               - better_round_mean(cfg, one))
        elif cfg.tau > 1:
            round_two[retx] = (retransmit_rates(cfg, data.round_two_sq[retx],
                                                data.round_one_overlap_sq[retx])
                               - retransmit_mean(cfg))
    return (np.column_stack([x, d, d * x, round_two, p]),
            (conventional_mean(cfg), 0.0, 0.0, 0.0, stop_share(cfg)))


def average_rate(cfg: SystemConfig, scheme: str, n_trials: int, n_workers: int = 1) -> RateSummary:
    """Mean closed-form rate, its standard error, and the retransmission counts.

    A conventional row is the stratified mean of its trials
    (stratified_mean): a trial's rate is a function of round one's squared
    overlap alone, which trial i draws in stratum i mod STRATA. An alg row
    is the control-variate mean (control_variate_mean) on its trials' five
    columns (_control_variates). At fig3's M = 500 and 200 trials, the
    fifth, round one's stop probability, took the alg2 stderr from 0.57 to
    0.10 of the plain one and alg1's from 0.32 to 0.18; alg1's fourth at
    its better round and the stratum-centred stderr take them to 0.09 and
    0.11. At fig2's tau = 4, 10 dB and 400 trials, they take alg1's from
    0.46 to 0.24.
    """
    data = run_trials(cfg, scheme, n_trials, n_workers=n_workers)
    if scheme == "conventional":
        mean, stderr = stratified_mean(data.rates)
    else:
        mean, stderr = control_variate_mean(data.rates, *_control_variates(cfg, scheme, data))
    hist = {int(k): int(c) for k, c in enumerate(np.bincount(data.n_used)) if c > 0}
    return RateSummary(mean_rate=mean, stderr=stderr,
                       n_used_hist=hist, mean_n_used=float(data.n_used.mean()))
