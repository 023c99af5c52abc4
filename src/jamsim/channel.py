"""Channel, pilot codebook, and the jamming sequence draws of each jammer kind."""

import cmath
import functools
import math

import numpy as np

from .config import JammerSpec


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
    r11 = math.sqrt(beta_u * rng.gamma(m))
    re, im = rng.standard_normal(2).tolist()
    r12 = math.sqrt(beta_j) * (complex(re, im) * math.sqrt(0.5))
    if m == 1:
        return np.array([[r11, r12]])
    return np.array([[r11, r12], [0.0, math.sqrt(beta_j * rng.gamma(m - 1))]])


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


def draw_jammer_sequence(rng, jammer: JammerSpec, tau: int) -> np.ndarray:
    """One training-phase jamming sequence of length tau.

    gaussian draws i.i.d. CN(0, 1/tau) entries and sphere normalizes a
    Gaussian draw to unit norm, so both satisfy E{||s_j||^2} = 1. absent
    and codeword draw nothing from rng. The trial engine draws a round's
    overlap amplitude alone (draw_overlap_amplitude); whole sequences are
    the tests' reference for its law.
    """
    if tau < 1:
        raise ValueError(f"pilot length must be positive, got {tau}")
    if not jammer.is_random:
        j = jammer.pilot(tau)
        return np.zeros(tau, dtype=np.complex128) if j is None else make_codebook(tau)[j]
    seq = crandn(rng, tau)
    if jammer.kind == "gaussian":
        return seq / np.sqrt(tau)
    return seq / np.linalg.norm(seq)


def overlap_sq_law(jammer: JammerSpec, t: float, gaussian_div: int, sphere_dof: int,
                   sphere_div: int) -> float:
    """A random kind's squared-overlap law, as a nondecreasing map of t ~ Exp(1).

    gaussian: t / gaussian_div, an exponential of mean 1 / gaussian_div.
    sphere: -expm1(-t / sphere_dof) / sphere_div, a Beta(1, sphere_dof)
    over sphere_div, or surely 1 / sphere_div when sphere_dof is 0. Round
    one's law (draw_overlap_amplitude) is the map at (tau, tau - 1, 1), and
    jamsim.oracle integrates it and alg2's round-two law over t.
    """
    if jammer.kind == "gaussian":
        return t / gaussian_div
    return -math.expm1(-t / sphere_dof) / sphere_div if sphere_dof else 1.0 / sphere_div


def draw_overlap_amplitude(rng, jammer: JammerSpec, k: int, tau: int,
                           stratum: tuple[int, int] | None = None) -> complex:
    """Overlap amplitude s_j^T c_k* of a fresh jamming sequence with pilot k, from its exact law.

    The codebook C is unitary, so the amplitudes conj(C) s_j of one sequence
    with all tau pilots have the law of the sequence itself, and the one
    with pilot k is drawn alone. gaussian and sphere make one rng.random(2)
    call and no other draw: its first uniform U sets |a|^2, overlap_sq_law
    at (tau, tau - 1, 1) and t = -log(1 - u), which is the law's inverse CDF
    at u and so nondecreasing in u alone; its second, phi, sets a's phase
    2 pi phi. Without a stratum u is U. stratum (h, H) draws u uniformly on
    [h/H, (h+1)/H), as 1 - u = ((H - 1 - h) + (1 - U)) / H, so that the top
    stratum's 1 - u never rounds to 0. codeword j gives 1 if j == k, else 0;
    absent gives 0. absent and codeword draw nothing from rng.
    """
    if not 0 <= k < tau:
        raise ValueError(f"pilot index must lie in [0, tau={tau}), got {k}")
    if jammer.is_random:
        u, phi = rng.random(2).tolist()
        if stratum is None:
            t = -math.log1p(-u)
        else:
            h, n_strata = stratum
            t = -math.log(((n_strata - 1 - h) + (1.0 - u)) / n_strata)
        overlap_sq = overlap_sq_law(jammer, t, tau, tau - 1, 1)
        return cmath.rect(math.sqrt(overlap_sq), 2.0 * math.pi * phi)
    return complex(jammer.pilot(tau) == k)


def complete_amplitudes(rng, jammer: JammerSpec, k: int, amp: complex, tau: int) -> np.ndarray:
    """All tau overlap amplitudes conj(C) s_j, drawn given amp, the one with pilot k.

    gaussian draws the other tau - 1 coordinates i.i.d. CN(0, 1/tau),
    independent of amp. sphere draws them uniformly on the sphere of squared
    radius 1 - |amp|^2, so the whole vector has unit norm, and it is uniform
    on the unit sphere when |amp|^2 has round one's law (overlap_sq_law,
    draw_overlap_amplitude). codeword and absent are fixed, and amp must
    match them. The sequence itself is s_j = C^T times the result.
    """
    if not 0 <= k < tau:
        raise ValueError(f"pilot index must lie in [0, tau={tau}), got {k}")
    if not jammer.is_random:
        j = jammer.pilot(tau)
        if amp != (j == k):
            raise ValueError(f"amplitude {amp} cannot come from a {jammer.kind} jammer "
                             f"at pilot {k}")
        amps = np.zeros(tau, dtype=np.complex128)
        if j is not None:
            amps[j] = 1.0
        return amps
    if jammer.kind == "sphere" and not abs(amp) <= 1.0 + 1e-12:    # slack for rounding
        raise ValueError(f"a unit-norm sequence has amplitudes of modulus <= 1, got {amp}")
    # coordinate k is drawn too, then overwritten: the others are all that is read
    amps = crandn(rng, tau)
    amps[k] = 0.0
    if jammer.kind == "gaussian":
        amps *= math.sqrt(1.0 / tau)
    elif tau > 1:
        amps *= math.sqrt(max(1.0 - abs(amp) ** 2, 0.0)) / np.linalg.norm(amps)
    amps[k] = amp
    return amps


def overlap_amplitude(s_j: np.ndarray, s_u: np.ndarray) -> complex:
    """Overlap amplitude s_j^T s_u* of jamming and pilot sequences."""
    if len(s_j) != len(s_u):
        raise ValueError("sequence lengths differ")
    return complex(np.vdot(s_u, s_j))


def jamming_overlap_sq(s_j: np.ndarray, s_u: np.ndarray) -> float:
    """Squared overlap |s_j^T s_u*|^2 between jamming and pilot sequences."""
    return abs(overlap_amplitude(s_j, s_u)) ** 2
