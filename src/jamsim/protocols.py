"""Pilot retransmission protocols.

Two receiver-driven counter-attacks against training-phase jamming. Both
decide from blind estimates only (what the array can actually compute), one
against a jammer that randomizes its sequence, one against a jammer that
keeps it fixed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import complete_amplitudes, draw_overlap_amplitude, overlap_amplitude
from .config import SystemConfig, validate_combination
from .estimation import (despread_power, estimate_jammer_gram, estimate_overlap_sq,
                         receive_block_factor, receive_despread, run_training)

@dataclass(frozen=True)
class RoundRecord:
    """One pilot transmission as seen by the simulator."""

    overlap_true: float
    overlap_est: float


@dataclass(frozen=True)
class ProtocolTrace:
    """One protocol run; round_two_sq is round two's draw, 0 when it drew none:
    alg1's second squared overlap, alg2's smallest squared overlap among the
    pilots other than round one's."""

    rounds: tuple[RoundRecord, ...]
    n_used: int
    stop_reason: str            # threshold_met | n_max_reached | opt_no_better
    chosen_round: int           # round whose pilot the receiver decodes with
    round_two_sq: float = 0.0


def select_retransmission_pilot(vecs: np.ndarray, lam: np.ndarray, opt_mode: str = "codebook"):
    """Pilot minimizing w^T G w* against the jammer gram estimate G = vecs diag(lam) vecs^H.

    Pilots are in codebook coordinates, where pilot i is e_i. vecs and lam
    are the eigenpairs estimate_jammer_gram returns: orthonormal columns,
    nonnegative eigenvalues in ascending order. codebook mode searches every
    pilot, reading its form as the row norm sum_k lam_k |vecs_ik|^2 (ties
    break to the lowest index); eigen mode takes the conjugate of the first
    column, the unconstrained unit-norm minimizer. Returns (the pilot's
    coordinates w, predicted quadratic form).
    """
    if opt_mode == "codebook":
        quad = (vecs.real ** 2 + vecs.imag ** 2) @ lam
        idx = int(np.argmin(quad))
        w = np.zeros(len(vecs), dtype=np.complex128)
        w[idx] = 1.0
        return w, float(quad[idx])
    if opt_mode == "eigen":
        return np.conj(vecs[:, 0]), float(lam[0])
    raise ValueError(f"unknown opt_mode {opt_mode!r}")


def run_algorithm1(cfg: SystemConfig, r: np.ndarray, k: int, amp: complex, rng) -> ProtocolTrace:
    """Retransmission loop against random jamming.

    r is the channel factor of the trial (see gen_channel_factor). Round 1
    sends codeword k, and amp is its overlap amplitude with the jamming
    sequence (see draw_overlap_amplitude). Each later round the user sends a
    uniformly drawn codeword and cfg.jammer a fresh sequence, of which only
    the new amplitude is drawn; the receiver stops once its blind overlap
    estimate meets the threshold or n_max transmissions are spent. All
    rounds are buffered and chosen_round marks the best estimate (the
    first, on a tie). A cfg alg1 cannot run raises ValueError
    (validate_combination).
    """
    validate_combination(cfg, "alg1")
    if not 0 <= k < cfg.tau:
        raise ValueError(f"pilot index must lie in [0, tau={cfg.tau}), got {k}")
    rounds = []
    chosen = 0
    stop_reason = "n_max_reached"
    for n in range(cfg.n_max):
        if n:
            k = int(rng.integers(cfg.tau))
            amp = draw_overlap_amplitude(rng, cfg.jammer, k, cfg.tau)
        overlap_est = run_training(cfg, r, amp, rng)
        rounds.append(RoundRecord(abs(amp) ** 2, overlap_est))
        if overlap_est < rounds[chosen].overlap_est:
            chosen = n
        if cfg.overlap_below_threshold(overlap_est):
            stop_reason = "threshold_met"
            break
    round_two = rounds[1].overlap_true if len(rounds) > 1 else 0.0
    return ProtocolTrace(tuple(rounds), len(rounds), stop_reason, chosen, round_two)


def run_algorithm2(cfg: SystemConfig, r: np.ndarray, k: int, amp: complex, rng) -> ProtocolTrace:
    """Pilot adaptation against a jammer (cfg.jammer) that replays one sequence s_j.

    r is the channel factor of the trial (see gen_channel_factor). Round 1
    sends codeword k, and amp is its overlap amplitude with s_j (see
    draw_overlap_amplitude). The receiver reads its blind overlap estimate
    from ||y_t||^2, drawn exactly as run_training draws it. If the estimate
    exceeds the threshold and cfg.n_max allows a second transmission (else
    the trace stops at n_max_reached), the rest of s_j's codebook
    coordinates is drawn given amp (complete_amplitudes), then the round's
    block gram in them given the de-spread draw (receive_block_factor); the
    receiver estimates the jammer gram from it, searches (cfg.opt_mode) for
    the pilot with minimal predicted overlap, and requests one
    retransmission, but only if that prediction improves on round 1. The
    jammer replays s_j under fresh noise.
    """
    if not 0 <= k < cfg.tau:
        raise ValueError(f"pilot index must lie in [0, tau={cfg.tau}), got {k}")
    y_q, resid = receive_despread(cfg, r, amp, rng)
    overlap_est = estimate_overlap_sq(despread_power(y_q, resid), cfg)
    rounds = [RoundRecord(abs(amp) ** 2, overlap_est)]
    if cfg.overlap_below_threshold(overlap_est):
        return ProtocolTrace(tuple(rounds), 1, "threshold_met", 0)
    if cfg.n_max < 2:
        return ProtocolTrace(tuple(rounds), 1, "n_max_reached", 0)
    amps = complete_amplitudes(rng, cfg.jammer, k, amp, cfg.tau)
    overlaps = amps.real ** 2 + amps.imag ** 2
    overlaps[k] = np.inf        # the smallest of the other pilots' overlaps
    other_min = float(overlaps.min()) if cfg.tau > 1 else 0.0
    factor = receive_block_factor(cfg, r, k, amps, y_q, resid, rng)
    vecs, lam = estimate_jammer_gram(factor, k, cfg)
    w, predicted = select_retransmission_pilot(vecs, lam, cfg.opt_mode)
    if not predicted < overlap_est:
        return ProtocolTrace(tuple(rounds), 1, "opt_no_better", 0, other_min)
    amp = overlap_amplitude(amps, w)
    overlap_est2 = run_training(cfg, r, amp, rng)
    rounds.append(RoundRecord(abs(amp) ** 2, overlap_est2))
    return ProtocolTrace(tuple(rounds), 2, "n_max_reached", 1, other_min)
