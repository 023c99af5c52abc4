"""Channel, pilot codebook, and the jamming scenario with its sequence draws."""

import functools
from dataclasses import dataclass

import numpy as np


def crandn(rng, *shape) -> np.ndarray:
    """Circularly symmetric complex normal draws with unit per-entry variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


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


@dataclass(frozen=True)
class PilotCodebook:
    """tau orthonormal pilot sequences of length tau, one per row."""

    tau: int
    codewords: np.ndarray  # (tau, tau), read-only

    def __len__(self) -> int:
        return self.tau

    def __getitem__(self, k: int) -> np.ndarray:
        return self.codewords[k]


@functools.lru_cache(maxsize=None)
def make_codebook(tau: int) -> PilotCodebook:
    """Deterministic orthonormal constant-modulus pilot family.

    Rows of the normalized DFT matrix: unit norm, pairwise orthogonal, and
    every entry has modulus 1/sqrt(tau) so pilot energy is spread evenly
    over the training symbols.
    """
    if tau < 1:
        raise ValueError(f"pilot length must be positive, got {tau}")
    grid = np.arange(tau)
    codewords = np.exp(-2j * np.pi * np.outer(grid, grid) / tau) / np.sqrt(tau)
    codewords.setflags(write=False)
    return PilotCodebook(tau=tau, codewords=codewords)


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


def jamming_overlap_sq(s_j: np.ndarray, s_u: np.ndarray) -> float:
    """Squared overlap |s_j^T s_u*|^2 between jamming and pilot sequences."""
    if len(s_j) != len(s_u):
        raise ValueError("sequence lengths differ")
    return float(np.abs(np.dot(s_j, np.conj(s_u))) ** 2)
