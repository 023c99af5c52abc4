"""Scalar system parameters for one simulated uplink."""

import dataclasses
import math
import numbers
from dataclasses import dataclass

POWER_POLICIES = ("uniform", "explicit")
THRESHOLD_MODES = ("squared", "amplitude")
RATE_ACCOUNTING_MODES = ("true_overlap", "estimated_overlap")

_MAX_SEED = 2**64 - 1
# slack for the energy-budget inequalities, which are checked on floats
_BUDGET_RTOL = 1e-9


def snr_db_to_power(snr_db: float) -> float:
    """Linear power for a given SNR in dB (noise variance is 1)."""
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """All scalar knobs of the link simulation.

    Powers are linear with unit noise variance. Under the uniform policy the
    training and data powers equal the budgets (p_t = p_d = P and
    q_t = q_d = Q), which meets the per-block energy constraints
    tau*p_t + (T-tau)*p_d <= T*P and tau*q_t + (T-tau)*q_d <= T*Q with
    equality. An explicit policy supplies (p_t, p_d, q_t, q_d) directly and
    must respect the same constraints.
    """

    M: int = 50                 # BS antennas
    T: int = 200                # coherence block length, symbols
    tau: int = 10               # pilot length, symbols
    beta_u: float = 1.0         # user large-scale fading, linear
    beta_j: float = 1.0         # jammer large-scale fading, linear
    P: float = 1.0              # user average power budget
    Q: float = 1.0              # jammer average power budget
    power_policy: str = "uniform"
    powers: tuple[float, float, float, float] | None = None  # (p_t, p_d, q_t, q_d)
    epsilon: float = 0.1        # retransmission threshold
    n_max: int = 2              # max transmissions per coherence block
    master_seed: int = 0
    threshold_on: str = "squared"           # threshold compares overlap^2 or |overlap|
    rate_accounting: str = "true_overlap"   # overlaps fed to the closed-form rate

    def __post_init__(self):
        for name in ("M", "T", "tau", "n_max"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if self.power_policy not in POWER_POLICIES:
            raise ValueError(f"unknown power_policy {self.power_policy!r}")
        if self.threshold_on not in THRESHOLD_MODES:
            raise ValueError(f"unknown threshold_on mode {self.threshold_on!r}")
        if self.rate_accounting not in RATE_ACCOUNTING_MODES:
            raise ValueError(f"unknown rate_accounting mode {self.rate_accounting!r}")
        if self.power_policy == "uniform":
            if self.powers is not None:
                raise ValueError("uniform power policy does not take explicit powers")
        else:
            if self.powers is None or len(self.powers) != 4:
                raise ValueError("explicit power policy needs powers=(p_t, p_d, q_t, q_d)")
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
        return self.P if self.power_policy == "uniform" else self.powers[0]

    @property
    def p_d(self) -> float:
        return self.P if self.power_policy == "uniform" else self.powers[1]

    @property
    def q_t(self) -> float:
        return self.Q if self.power_policy == "uniform" else self.powers[2]

    @property
    def q_d(self) -> float:
        return self.Q if self.power_policy == "uniform" else self.powers[3]

    def prelog(self, n_used: int = 1) -> float:
        """Fraction of the coherence block left for data after n_used pilots."""
        if n_used * self.tau >= self.T:
            raise ValueError(f"{n_used} transmissions of {self.tau} symbols exceed T={self.T}")
        return 1.0 - n_used * self.tau / self.T

    def overlap_below_threshold(self, overlap_sq: float) -> bool:
        """Retransmission stop rule for a squared pilot/jammer overlap.

        In 'squared' mode the squared overlap is compared against epsilon
        directly; in 'amplitude' mode its square root is.
        """
        if overlap_sq < 0:
            raise ValueError("overlap_sq must be nonnegative")
        if self.threshold_on == "squared":
            return overlap_sq <= self.epsilon
        return math.sqrt(overlap_sq) <= self.epsilon

    def with_powers(self, p_t: float, p_d: float, q_t: float, q_d: float) -> "SystemConfig":
        """Copy of this config with explicit per-phase powers."""
        return dataclasses.replace(self, power_policy="explicit",
                                   powers=(float(p_t), float(p_d), float(q_t), float(q_d)))
