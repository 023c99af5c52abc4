"""Pilot retransmission protocols.

Two receiver-driven counter-attacks against training-phase jamming. Both
decide from blind estimates only (what the array can actually compute), one
against a jammer that randomizes its sequence, one against a jammer that
keeps it fixed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import (JammerSpec, PilotCodebook, draw_jammer_sequence, jamming_overlap_sq,
                      make_codebook)
from .config import SystemConfig
from .estimation import estimate_jammer_gram, run_training

OPT_MODES = ("codebook", "eigen")


@dataclass(frozen=True)
class RoundRecord:
    """One pilot transmission as seen by the simulator.

    pilot_index is None when the pilot does not come from the codebook
    (eigen-mode retransmission).
    """

    pilot_index: int | None
    overlap_true: float
    overlap_est: float


@dataclass(frozen=True)
class ProtocolTrace:
    rounds: tuple[RoundRecord, ...]
    n_used: int
    stop_reason: str            # threshold_met | n_max_reached | opt_no_better
    chosen_round: int           # round whose pilot the receiver decodes with
    opt_pilot: np.ndarray | None


def gram_quad_form(gram: np.ndarray, pilot: np.ndarray) -> float:
    """Re(pilot^T gram pilot*): predicted squared overlap of a candidate pilot."""
    return float(np.real(pilot @ gram @ np.conj(pilot)))


def select_retransmission_pilot(gram: np.ndarray, codebook: PilotCodebook,
                                opt_mode: str = "codebook"):
    """Pilot minimizing the quadratic form against the jammer gram estimate.

    codebook mode searches the finite pilot family exhaustively (ties break
    to the lowest index); eigen mode takes the conjugated eigenvector of the
    smallest eigenvalue, the unconstrained unit-norm minimizer. Returns
    (index or None, pilot, predicted quadratic form).
    """
    if opt_mode == "codebook":
        cw = codebook.codewords
        quad = np.einsum("ij,jk,ik->i", cw, gram, cw.conj()).real
        idx = int(np.argmin(quad))
        return idx, cw[idx], float(max(quad[idx], 0.0))
    if opt_mode == "eigen":
        eigvals, eigvecs = np.linalg.eigh(gram)
        pilot = np.conj(eigvecs[:, 0])
        return None, pilot, float(max(eigvals[0], 0.0))
    raise ValueError(f"unknown opt_mode {opt_mode!r}")


def run_algorithm1(cfg: SystemConfig, g_u, g_j, jammer: JammerSpec, rng) -> ProtocolTrace:
    """Retransmission loop against random jamming.

    Each round the user sends a uniformly drawn codeword and the jammer a
    fresh random sequence; the receiver stops once its blind overlap
    estimate meets the threshold or n_max transmissions are spent. All
    rounds are buffered and chosen_round marks the best estimate.
    """
    if jammer.kind == "codeword":
        raise ValueError("the random-jamming protocol expects a random or absent jammer")
    codebook = make_codebook(cfg.tau)
    rounds = []
    stop_reason = "n_max_reached"
    for n in range(1, cfg.n_max + 1):
        k = int(rng.integers(cfg.tau))
        s_u = codebook[k]
        s_j = draw_jammer_sequence(rng, jammer, cfg.tau)
        _, overlap_est = run_training(cfg, g_u, g_j, s_u, s_j, rng)
        rounds.append(RoundRecord(k, jamming_overlap_sq(s_j, s_u), overlap_est))
        if cfg.overlap_below_threshold(overlap_est):
            stop_reason = "threshold_met"
            break
    chosen = int(np.argmin([r.overlap_est for r in rounds]))
    return ProtocolTrace(rounds=tuple(rounds), n_used=len(rounds),
                         stop_reason=stop_reason, chosen_round=chosen, opt_pilot=None)


def run_algorithm2(cfg: SystemConfig, g_u, g_j, s_j: np.ndarray, rng,
                   opt_mode: str = "codebook",
                   first_pilot: int | None = None) -> ProtocolTrace:
    """Pilot adaptation against a jammer whose sequence s_j is fixed.

    Round 1 sends a codeword (uniform unless first_pilot pins it). If the
    blind overlap estimate exceeds the threshold, the receiver estimates the
    jammer gram from the same block, searches for the pilot with minimal
    predicted overlap, and requests exactly one retransmission, but only if
    that prediction improves on round 1. At most one retransmission ever
    happens; the jammer replays s_j under fresh noise.
    """
    if opt_mode not in OPT_MODES:
        raise ValueError(f"unknown opt_mode {opt_mode!r}")
    if 2 * cfg.tau >= cfg.T:
        raise ValueError(f"a retransmission needs 2*tau < T, got tau={cfg.tau}, T={cfg.T}")
    codebook = make_codebook(cfg.tau)
    if first_pilot is None:
        first_pilot = int(rng.integers(cfg.tau))
    elif not 0 <= first_pilot < cfg.tau:
        raise ValueError(f"first_pilot must lie in [0, tau), got {first_pilot}")
    s_u = codebook[first_pilot]
    block, overlap_est = run_training(cfg, g_u, g_j, s_u, s_j, rng)
    rounds = [RoundRecord(first_pilot, jamming_overlap_sq(s_j, s_u), overlap_est)]
    if cfg.overlap_below_threshold(overlap_est):
        return ProtocolTrace(tuple(rounds), 1, "threshold_met", 0, None)
    gram = estimate_jammer_gram(block, s_u, cfg)
    opt_idx, opt_pilot, predicted = select_retransmission_pilot(gram, codebook, opt_mode)
    if not predicted < overlap_est:
        return ProtocolTrace(tuple(rounds), 1, "opt_no_better", 0, opt_pilot)
    _, overlap_est2 = run_training(cfg, g_u, g_j, opt_pilot, s_j, rng)
    rounds.append(RoundRecord(opt_idx, jamming_overlap_sq(s_j, opt_pilot), overlap_est2))
    return ProtocolTrace(tuple(rounds), 2, "n_max_reached", 1, opt_pilot)
