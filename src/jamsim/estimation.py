"""Training-phase signal chain.

Linear MMSE channel estimation, the two blind large-array estimators that
recover jammer statistics (the squared pilot/jammer overlap from ||y_t||^2,
the jammer sequence outer product from a factor of the block gram), and the
exact low-dimensional draws of those two statistics that a training round
makes: the de-spread statistics first, the gram factor given them, in
codebook coordinates (pilot k is e_k). receive_pilot_block and despread
build the full M x tau block; the trial engine does not call them, and the
tests keep them as the brute-force reference for the reduced draws.
"""

import functools
import math

import numpy as np

from .channel import crandn
from .config import SystemConfig

_SQRT_HALF = math.sqrt(0.5)


def receive_pilot_block(cfg: SystemConfig, g_u, g_j, s_u, s_j, rng) -> np.ndarray:
    """M x tau received block: pilot plus jamming plus unit-variance noise.

    sqrt(tau*p_t) g_u s_u^T + sqrt(tau*q_t) g_j s_j^T + N
    """
    if len(g_u) != cfg.M or len(g_j) != cfg.M:
        raise ValueError(f"channel vectors must have length M={cfg.M}")
    if len(s_u) != cfg.tau or len(s_j) != cfg.tau:
        raise ValueError(f"sequences must have length tau={cfg.tau}")
    noise = crandn(rng, cfg.M, cfg.tau)
    return (math.sqrt(cfg.tau * cfg.p_t) * np.outer(g_u, s_u)
            + math.sqrt(cfg.tau * cfg.q_t) * np.outer(g_j, s_j)
            + noise)


def despread(block: np.ndarray, s_u: np.ndarray) -> np.ndarray:
    """Correlate the received block with the conjugate pilot: block @ s_u*."""
    if block.ndim != 2 or block.shape[1] != len(s_u):
        raise ValueError(f"block has {block.shape} entries, pilot has length {len(s_u)}")
    return block @ np.conj(s_u)


def mmse_coefficients(cfg: SystemConfig, overlap_sq):
    """MMSE scaling c_u and per-entry estimate variance gamma_u, elementwise over overlap_sq.

    c_u = sqrt(tau p_t) beta_u / (tau p_t beta_u + tau q_t beta_j overlap^2 + 1)
    gamma_u = c_u sqrt(tau p_t) beta_u
    An overlap that is not finite and nonnegative raises ValueError.
    """
    if not np.all(np.isfinite(overlap_sq) & np.greater_equal(overlap_sq, 0.0)):
        raise ValueError("overlap_sq must be finite and nonnegative")
    pilot, jamming, root, beta_u = cfg.mmse_terms
    c_u = root * beta_u / (pilot + jamming * overlap_sq + 1.0)
    return c_u, c_u * root * beta_u


def mmse_estimate(y_t: np.ndarray, cfg: SystemConfig,
                  overlap_sq: float) -> tuple[float, np.ndarray, float]:
    """Linear MMSE channel estimate from the de-spread observation.

    Returns (c_u, g_hat, gamma_u) with g_hat = c_u * y_t. The caller picks
    overlap_sq: the true value (oracle analysis) or a blind estimate of it.
    """
    if len(y_t) != cfg.M:
        raise ValueError(f"despread observation must have length M={cfg.M}")
    c_u, gamma_u = mmse_coefficients(cfg, overlap_sq)
    return c_u, c_u * y_t, gamma_u


def estimate_overlap_sq(y_norm_sq: float, cfg: SystemConfig) -> float:
    """Blind estimate of the squared pilot/jammer overlap from ||y_t||^2.

    Inverts the large-array limit of ||y_t||^2 / M, which converges to
    tau p_t beta_u + tau q_t beta_j overlap^2 + 1, then clamps to [0, 1]
    (the true overlap of a unit-norm jamming sequence lies in that range
    and the raw estimate can leave it at finite M).
    """
    if cfg.q_t <= 0:
        raise ValueError("overlap estimation needs q_t > 0")
    if not y_norm_sq >= 0:
        raise ValueError(f"||y_t||^2 must be nonnegative, got {y_norm_sq}")
    pilot, jamming, _, _ = cfg.mmse_terms
    raw = (y_norm_sq / cfg.M - pilot - 1.0) / jamming
    return min(max(raw, 0.0), 1.0)


def estimate_jammer_gram(factor: np.ndarray, k: int,
                         cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Blind estimate of the jammer sequence outer product s_j* s_j^T, as eigenpairs.

    Takes any factor A of the block gram in codebook coordinates, where the
    pilot, codeword k, is the unit vector e_k (receive_block_factor draws
    one): A^H A = C block^H block C^H. It removes the pilot and noise
    contributions from A^H A / M, then repairs the finite-M result: take the
    Hermitian matrix of its lower triangle and project it onto the PSD cone by
    clipping negative eigenvalues (the limit is Hermitian PSD of rank one, and
    PSD-ness keeps downstream quadratic forms nonnegative). The pilot term
    sits at entry (k, k) alone. The noise term -I / (tau q_t beta_j) only
    shifts the eigenvalues, so it is subtracted from them. When A has m rows
    and m + 1 < tau, the raw estimate is -I / (tau q_t beta_j) off
    span(range(A^H), e_k), where clipping zeroes it, so only its restriction
    to that span, taken from a thin QR, is eigen-decomposed.

    Returns (vecs, lam): orthonormal columns, in codebook coordinates, and
    their clipped eigenvalues in ascending order, so that the estimate is
    vecs diag(lam) vecs^H. Only the pairs that clipping leaves positive are
    returned, after a smallest pair (vecs[:, 0], lam[0]) for the eigen-mode
    search; on the span path that is a unit vector off the span, with
    eigenvalue 0.
    """
    if cfg.q_t <= 0:
        raise ValueError("jammer gram estimation needs q_t > 0")
    if factor.ndim != 2 or factor.shape[1] != cfg.tau:
        raise ValueError(f"gram factor must have tau={cfg.tau} columns, got shape {factor.shape}")
    if not 0 <= k < cfg.tau:
        raise ValueError(f"pilot index must lie in [0, tau={cfg.tau}), got {k}")
    m_scale, pilot_weight, floor = cfg.gram_terms
    m = len(factor)
    basis = None
    if m + 1 < cfg.tau:
        # [A^H e_k] = basis @ coords: A and e_k in coordinates of the span
        stacked = np.zeros((cfg.tau, m + 1), dtype=np.complex128)
        stacked[:, :m] = factor.conj().T
        stacked[k, m] = 1.0
        basis, coords = np.linalg.qr(stacked)
        factor = coords[:, :m].conj().T
    raw = factor.conj().T @ factor
    raw /= m_scale
    if basis is None:
        raw[k, k] -= pilot_weight
    else:
        u = coords[:, m]
        raw -= pilot_weight * np.outer(u, np.conj(u))
    eigvals, eigvecs = np.linalg.eigh(raw)     # reads the lower triangle only
    lam = np.maximum(eigvals - floor, 0.0)
    keep = lam > 0.0
    if basis is None:
        keep[0] = True
        return eigvecs[:, keep], lam[keep]
    # the unit vector e_j least inside the span, minus its projection on it:
    # its squared norm is at least 1 - rank/tau
    j = int(np.argmin((basis.real ** 2 + basis.imag ** 2).sum(axis=1)))
    off = -(basis @ np.conj(basis[j]))
    off[j] += 1.0
    vecs = np.column_stack((off / np.linalg.norm(off), basis @ eigvecs[:, keep]))
    return vecs, np.concatenate(((0.0,), lam[keep]))


def receive_despread(cfg: SystemConfig, r: np.ndarray, amp: complex,
                     rng) -> tuple[tuple[complex, ...], float]:
    """De-spread statistics of one training round, drawn from their exact law in O(1).

    amp is the round's overlap amplitude s_j^T s_u* (see overlap_amplitude).
    With [g_u g_j] = Q R (see gen_channel_factor) and a unit-norm pilot s_u,
    y_t = despread(block, s_u) is Q R c plus CN(0, I_M) noise, where
    c = (sqrt(tau p_t), sqrt(tau q_t) amp). The noise splits into
    z ~ CN(0, I) in the span of Q and a residual whose squared norm is
    Gamma(M - 2). Returns (y_q, resid) with y_q = R c + z, one entry per row
    of R, so ||y_t||^2 = ||y_q||^2 + resid. The arithmetic is on Python
    scalars: at this size numpy's per-call cost exceeds the work.
    """
    c_u, c_j = cfg.training_amplitudes
    c_j *= amp
    z = rng.standard_normal(2 * len(r)).tolist()
    y_q = tuple(r_u * c_u + r_j * c_j + complex(re, im) * _SQRT_HALF
                for (r_u, r_j), re, im in zip(r.tolist(), z[::2], z[1::2]))
    return y_q, (rng.gamma(cfg.M - 2) if cfg.M > 2 else 0.0)


def despread_power(y_q, resid: float) -> float:
    """||y_t||^2 from the statistics receive_despread draws."""
    return sum(abs(y) ** 2 for y in y_q) + resid


@functools.lru_cache(maxsize=None)
def _bartlett_layout(n: int, tau: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat layout of a tau x tau Bartlett factor of CW_tau(n, I), row-major.

    The positions of its entries above the diagonal and of its diagonal,
    and the diagonal's Gamma shapes n - i as floats.
    """
    rows, cols = np.triu_indices(tau, 1)
    diag = np.arange(tau)
    return rows * tau + cols, diag * (tau + 1), (n - diag).astype(float)


def wishart_factor(rng, n: int, tau: int, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Independent factors X with X^H X ~ CW_tau(n, I), the complex Wishart law.

    X is the n x tau Gaussian matrix itself when n < tau, else its tau x tau
    upper-triangular Bartlett factor: B_ii^2 ~ Gamma(n - i) for
    i = 0..tau-1 and B_ij ~ CN(0, 1) above the diagonal. The result has
    shape batch + X.shape, one factor per batch entry.
    """
    if n < tau:
        return crandn(rng, *batch, n, tau)
    upper, diag, dof = _bartlett_layout(n, tau)
    b = np.zeros((*batch, tau * tau), dtype=np.complex128)
    b[..., upper] = crandn(rng, *batch, len(upper))
    b[..., diag] = np.sqrt(rng.standard_gamma(dof, size=(*batch, tau)))
    return b.reshape(*batch, tau, tau)


def receive_block_factor(cfg: SystemConfig, r: np.ndarray, k: int, amps: np.ndarray,
                         y_q: tuple[complex, ...], resid: float, rng) -> np.ndarray:
    """A factor A of the round's block gram in codebook coordinates, drawn given receive_despread.

    C is unitary, so block C^H has the law of a block with pilot e_k and
    jamming sequence amps = conj(C) s_j (see complete_amplitudes). Its
    column k is y_t. In the basis of Q its other columns, independent of
    y_t, are sqrt(tau q_t) amps_i times R's jammer column plus CN(0, I)
    noise, above an (M - 2) x tau noise residual rotated so that its
    de-spread output lies on the first axis. So A stacks, with column k set
    to the de-spread lead:
      sqrt(tau q_t) r[:, 1] amps^T + Z, column k y_q     (the span of Q)
      n0, column k sqrt(resid)                          (when M >= 3)
      X, column k 0, X^H X ~ CW_tau(M - 3, I)   (Bartlett's factor when M - 3 >= tau)
    with Z, n0 and X drawn fresh, in that order, by one crandn call (of
    Bartlett's factor, the entries above its diagonal; the diagonal's Gamma
    draws follow, as in wishart_factor): the cost is flat in M once
    M - 3 >= tau.
    """
    tau = cfg.tau
    n = max(cfg.M - 3, 0)
    lead = (*y_q, math.sqrt(resid)) if cfg.M >= 3 else y_q
    head = len(lead)
    if n < tau:
        factor = crandn(rng, head + n, tau)
    else:
        upper, diag, dof = _bartlett_layout(n, tau)
        cut = head * tau
        draws = crandn(rng, cut + len(upper))
        factor = np.zeros((head + tau, tau), dtype=np.complex128)
        flat = factor.reshape(-1)
        flat[:cut] = draws[:cut]
        bartlett = flat[cut:]
        bartlett[upper] = draws[cut:]
        bartlett[diag] = np.sqrt(rng.standard_gamma(dof))
    # outer(r[:, 1], sqrt(tau q_t) amps), added to Z
    factor[:len(r)] += r[:, 1, None] * (cfg.training_amplitudes[1] * amps)
    factor[:head, k] = lead
    factor[head:, k] = 0.0
    return factor


def run_training(cfg: SystemConfig, r: np.ndarray, amp: complex, rng) -> float:
    """One training round as the receiver sees it: its blind overlap estimate.

    amp is the round's overlap amplitude s_j^T s_u* (see receive_despread).
    """
    return estimate_overlap_sq(despread_power(*receive_despread(cfg, r, amp, rng)), cfg)
