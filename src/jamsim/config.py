"""System parameters of one simulated uplink, its jamming scenario included,
and the rules on which scheme can run against which scenario."""

import functools
import math
import numbers
from dataclasses import dataclass

OPT_MODES = ("codebook", "eigen")
JAMMER_KINDS = ("gaussian", "sphere", "absent", "codeword")
SCHEMES = ("conventional", "alg1", "alg2")

_MAX_SEED = 2**64 - 1
# slack for the energy-budget inequalities, which are checked on floats
_BUDGET_RTOL = 1e-9


def snr_db_to_power(snr_db: float) -> float:
    """Linear power for a given SNR in dB (noise variance is 1)."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db={snr_db:g} gives a power beyond float range") from None


def check_integer(name: str, value):
    """The one integer rule of every input: a bool or a non-integer raises ValueError.

    numpy integers pass; bounds are left to the caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value):
    """Reject a count (of trials or workers) that is not a positive integer."""
    check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class JammerSpec:
    """Jamming scenario of a link.

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
        if self.kind not in JAMMER_KINDS:
            raise ValueError(f"unknown jammer kind {self.kind!r}")
        check_integer("codeword_index", self.codeword_index)
        if self.codeword_index < 0:
            raise ValueError(f"codeword_index must be nonnegative, got {self.codeword_index}")
        if not isinstance(self.data_phase_active, bool):
            raise ValueError(f"data_phase_active must be a bool, got {self.data_phase_active!r}")

    @property
    def is_random(self) -> bool:
        """Whether every draw gives a fresh random sequence (gaussian, sphere)."""
        return self.kind in ("gaussian", "sphere")

    def pilot(self, tau: int) -> int | None:
        """The pilot a codeword jammer repeats, checked against tau; None for any other kind."""
        if self.kind != "codeword":
            return None
        if self.codeword_index >= tau:
            raise ValueError(f"codeword_index {self.codeword_index} out of range for tau={tau}")
        return self.codeword_index


@dataclass(frozen=True)
class SystemConfig:
    """All knobs of the link simulation, its jamming scenario included.

    Powers are linear with unit noise variance. Without explicit powers the
    training and data powers equal the budgets (p_t = p_d = P and
    q_t = q_d = Q), which meets the per-block energy constraints
    tau*p_t + (T-tau)*p_d <= T*P and tau*q_t + (T-tau)*q_d <= T*Q with
    equality. powers=(p_t, p_d, q_t, q_d) sets the per-phase powers directly
    and must respect the same constraints. A jammer that is absent or spares
    the payload symbols (jammer.data_phase_active False) puts no power into
    the data phase, so q_d reads 0 whatever the powers say.
    """

    M: int = 50                 # BS antennas
    T: int = 200                # coherence block length, symbols
    tau: int = 10               # pilot length, symbols
    beta_u: float = 1.0         # user large-scale fading, linear
    beta_j: float = 1.0         # jammer large-scale fading, linear
    P: float = 1.0              # user average power budget
    Q: float = 1.0              # jammer average power budget
    powers: tuple[float, float, float, float] | None = None  # (p_t, p_d, q_t, q_d)
    epsilon: float = 0.1        # retransmission threshold on the squared overlap
    n_max: int = 2              # max transmissions per coherence block
    master_seed: int = 0
    first_pilot: int | None = None  # codeword the user opens with; None draws it uniformly
    opt_mode: str = "codebook"      # alg2's search for the retransmission pilot
    jammer: JammerSpec = JammerSpec()

    def __post_init__(self):
        for name in ("M", "T", "tau", "n_max", "master_seed"):
            check_integer(name, getattr(self, name))
        for name in ("beta_u", "beta_j", "P", "Q", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.M < 1:
            raise ValueError("M must be a positive antenna count")
        if self.T < 2:
            raise ValueError("T must be at least 2 symbols")
        if not 0 < self.tau < self.T:
            raise ValueError(f"tau must satisfy 0 < tau < T, got tau={self.tau}, T={self.T}")
        if self.n_max < 1:
            raise ValueError("n_max must be a positive transmission count")
        if self.n_max * self.tau >= self.T:
            raise ValueError(
                f"n_max*tau must be smaller than T, got {self.n_max}*{self.tau} >= {self.T}")
        if self.beta_u <= 0 or self.beta_j <= 0:
            raise ValueError("large-scale fading coefficients must be positive")
        if self.P < 0 or self.Q < 0:
            raise ValueError("power budgets must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not 0 <= self.master_seed <= _MAX_SEED:
            raise ValueError("master_seed must fit in 64 bits")
        k = self.first_pilot
        if k is not None:
            check_integer("first_pilot", k)
            if not 0 <= k < self.tau:
                raise ValueError(f"first_pilot must be an index in [0, tau={self.tau}), got {k!r}")
        if self.opt_mode not in OPT_MODES:
            raise ValueError(f"unknown opt_mode {self.opt_mode!r}")
        if not isinstance(self.jammer, JammerSpec):
            raise ValueError(f"jammer must be a JammerSpec, got {self.jammer!r}")
        self.jammer.pilot(self.tau)
        if self.powers is None:
            return
        if not isinstance(self.powers, tuple) or len(self.powers) != 4:
            raise ValueError(f"powers must be a tuple (p_t, p_d, q_t, q_d), got {self.powers!r}")
        p_t, p_d, q_t, q_d = self.powers
        if not all(math.isfinite(v) for v in self.powers):
            raise ValueError(f"explicit powers must be finite, got {self.powers!r}")
        if min(p_t, p_d, q_t, q_d) < 0:
            raise ValueError("explicit powers must be nonnegative")
        user = self.tau * p_t + (self.T - self.tau) * p_d
        jam = self.tau * q_t + (self.T - self.tau) * q_d
        user_cap = self.T * self.P
        jam_cap = self.T * self.Q
        if user > user_cap * (1 + _BUDGET_RTOL):
            raise ValueError(
                f"user power budget violated: tau*p_t+(T-tau)*p_d={user:g} > T*P={user_cap:g}")
        if jam > jam_cap * (1 + _BUDGET_RTOL):
            raise ValueError(
                f"jammer power budget violated: tau*q_t+(T-tau)*q_d={jam:g} > T*Q={jam_cap:g}")

    # resolved per-phase powers
    @property
    def p_t(self) -> float:
        return self.P if self.powers is None else self.powers[0]

    @property
    def p_d(self) -> float:
        return self.P if self.powers is None else self.powers[1]

    @property
    def q_t(self) -> float:
        return self.Q if self.powers is None else self.powers[2]

    @property
    def q_d(self) -> float:
        if self.jammer.kind == "absent" or not self.jammer.data_phase_active:
            return 0.0
        return self.Q if self.powers is None else self.powers[3]

    # Derived per-config terms, computed on first use and held by the
    # instance: a trial reads them several times, and a cache keyed by the
    # config would hash it, and compare it field by field, on every read.
    # dataclasses.replace builds a fresh instance, so its terms are fresh.
    @functools.cached_property
    def training_amplitudes(self) -> tuple[float, float]:
        """sqrt(tau p_t) and sqrt(tau q_t), the pilot's and the jammer's training amplitudes."""
        return math.sqrt(self.tau * self.p_t), math.sqrt(self.tau * self.q_t)

    @functools.cached_property
    def mmse_terms(self) -> tuple[float, float, float, float]:
        """tau p_t beta_u, tau q_t beta_j, sqrt(tau p_t) and beta_u."""
        return (self.tau * self.p_t * self.beta_u, self.tau * self.q_t * self.beta_j,
                self.training_amplitudes[0], self.beta_u)

    @functools.cached_property
    def sinr_terms(self) -> tuple[float, float, float]:
        """Factors of the effective SINR: contamination scale, interference, signal scale."""
        if self.p_t <= 0:
            raise ValueError("effective SINR is undefined for p_t = 0")
        return (self.M * (self.q_d * self.q_t / self.p_t) * (self.beta_j / self.beta_u) ** 2,
                self.p_d * self.beta_u + self.q_d * self.beta_j,
                self.M * self.p_d)

    @functools.cached_property
    def gram_terms(self) -> tuple[float, float, float]:
        """Scalings of the blind jammer gram estimate, for q_t > 0.

        With s = tau q_t beta_j: M s, which divides the raw gram,
        p_t beta_u / (q_t beta_j), the weight of the pilot term, and 1 / s,
        the noise floor subtracted from its eigenvalues.
        """
        scale = self.mmse_terms[1]
        return scale * self.M, self.p_t * self.beta_u / (self.q_t * self.beta_j), 1.0 / scale

    def prelog(self, n_used: int = 1) -> float:
        """Fraction of the coherence block left for data after n_used pilots."""
        if n_used * self.tau >= self.T:
            raise ValueError(f"{n_used} transmissions of {self.tau} symbols exceed T={self.T}")
        return 1.0 - n_used * self.tau / self.T

    def overlap_below_threshold(self, overlap_sq: float) -> bool:
        """Retransmission stop rule: the squared pilot/jammer overlap is at most epsilon."""
        if overlap_sq < 0:
            raise ValueError("overlap_sq must be nonnegative")
        return overlap_sq <= self.epsilon


def validate_combination(cfg: SystemConfig, scheme: str):
    """Reject a scheme that no trial could run under cfg and its jammer."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "alg1":
        if cfg.jammer.kind == "codeword":
            raise ValueError("alg1 assumes random jamming; a codeword jammer is deterministic")
        if cfg.first_pilot is not None:
            raise ValueError("alg1 always draws its pilots uniformly; first_pilot is not supported")
    if scheme != "conventional" and cfg.q_t <= 0:
        raise ValueError(f"{scheme} estimates the overlap blind, which needs q_t > 0")
