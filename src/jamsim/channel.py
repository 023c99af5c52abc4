"""Channel, pilot codebook, and the jamming scenario with its sequence draws."""

import functools
import math
from dataclasses import dataclass

import numpy as np


def crandn(rng, *shape) -> np.ndarray:
    """Circularly symmetric complex normal draws with unit per-entry variance.

    One standard_normal call draws the real and imaginary parts as the last
    axis of a float array, which is then read as complex.
    """
    parts = rng.standard_normal((*shape, 2))
    parts *= math.sqrt(0.5)
    return parts.view(np.complex128).reshape(shape)


def gen_channel(rng, m: int, beta: float) -> np.ndarray:
    """Length-m i.i.d. CN(0, beta) channel vector.

    Real and imaginary parts of each entry are independent zero-mean
    Gaussians with variance beta/2.
    """
    if m < 1:
        raise ValueError(f"antenna count must be positive, got {m}")
    if beta <= 0:
        raise ValueError(f"large-scale fading must be positive, got {beta}")
    return np.sqrt(beta) * crandn(rng, m)


def gen_channel_factor(rng, m: int, beta_u: float, beta_j: float) -> np.ndarray:
    """Triangular factor R of the user and jammer channels, [g_u g_j] = Q R.

    Q has orthonormal columns and is independent of R, and every statistic
    the receiver reads sees the channels through R alone. Bartlett's
    factorization gives R11^2 ~ beta_u Gamma(m), R12 ~ CN(0, beta_j) and
    R22^2 ~ beta_j Gamma(m - 1). R is 2 x 2, or the 1 x 2 row
    [R11, R12] when m = 1, where g_j lies in the span of g_u.
    """
    if m < 1:
        raise ValueError(f"antenna count must be positive, got {m}")
    if beta_u <= 0 or beta_j <= 0:
        raise ValueError(f"large-scale fading must be positive, got {beta_u}, {beta_j}")
    r = np.zeros((min(m, 2), 2), dtype=np.complex128)
    r[0, 0] = np.sqrt(beta_u * rng.gamma(m))
    r[0, 1] = np.sqrt(beta_j) * crandn(rng)
    if m > 1:
        r[1, 1] = np.sqrt(beta_j * rng.gamma(m - 1))
    return r


@functools.lru_cache(maxsize=None)
def make_codebook(tau: int) -> np.ndarray:
    """Deterministic orthonormal constant-modulus pilot family, read-only (tau, tau).

    Row k is pilot k: a row of the normalized DFT matrix, so rows have unit
    norm, are pairwise orthogonal, and every entry has modulus 1/sqrt(tau)
    so pilot energy is spread evenly over the training symbols.
    """
    if tau < 1:
        raise ValueError(f"pilot length must be positive, got {tau}")
    grid = np.arange(tau)
    codewords = np.exp(-2j * np.pi * np.outer(grid, grid) / tau) / np.sqrt(tau)
    codewords.setflags(write=False)
    return codewords


@dataclass(frozen=True)
class JammerSpec:
    """Jamming scenario of one trial.

    kind fixes the distribution the training-phase jamming sequence is
    drawn from: gaussian and sphere draw a fresh random sequence on every
    draw, codeword pins it to pilot codeword codeword_index, absent
    disables the jammer. data_phase_active controls whether the jammer also
    hits the payload symbols.
    """

    kind: str = "gaussian"
    codeword_index: int = 0
    data_phase_active: bool = True

    def __post_init__(self):
        if self.kind not in ("absent", "gaussian", "sphere", "codeword"):
            raise ValueError(f"unknown jammer kind {self.kind!r}")
        if self.codeword_index < 0:
            raise ValueError("codeword_index must be nonnegative")


def draw_jammer_sequence(rng, jammer: JammerSpec, tau: int) -> np.ndarray:
    """One training-phase jamming sequence of length tau.

    gaussian draws i.i.d. CN(0, 1/tau) entries and sphere normalizes a
    Gaussian draw to unit norm, so both satisfy E{||s_j||^2} = 1. absent
    and codeword draw nothing from rng.
    """
    if tau < 1:
        raise ValueError(f"pilot length must be positive, got {tau}")
    if jammer.kind == "absent":
        return np.zeros(tau, dtype=np.complex128)
    if jammer.kind == "codeword":
        if jammer.codeword_index >= tau:
            raise ValueError(f"codeword_index {jammer.codeword_index} out of range "
                             f"for tau={tau}")
        return make_codebook(tau)[jammer.codeword_index]
    seq = crandn(rng, tau)
    if jammer.kind == "gaussian":
        return seq / np.sqrt(tau)
    return seq / np.linalg.norm(seq)


def overlap_amplitude(s_j: np.ndarray, s_u: np.ndarray) -> complex:
    """Overlap amplitude s_j^T s_u* of jamming and pilot sequences."""
    if len(s_j) != len(s_u):
        raise ValueError("sequence lengths differ")
    return complex(np.vdot(s_u, s_j))


def jamming_overlap_sq(s_j: np.ndarray, s_u: np.ndarray) -> float:
    """Squared overlap |s_j^T s_u*|^2 between jamming and pilot sequences."""
    return abs(overlap_amplitude(s_j, s_u)) ** 2
