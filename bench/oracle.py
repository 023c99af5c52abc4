"""Correctness check for the rows of the fig2 and fig3 presets.

The expected grid is written out here rather than read from the program, so
a row that goes missing, moves or changes its label is caught.

- conventional rows are compared with a Gauss-Laguerre oracle: under
  true-overlap accounting and a Gaussian jammer the squared overlap is
  exactly Exp(mean 1/tau), so the mean rate is a 1-D integral of
  ``rate_from_overlap``. A row passes within ``Z_LIMIT`` standard errors.
- alg1 and alg2 rows need a finite rate between 0 and the zero-overlap,
  N=1 rate, and a mean transmission count between 1 and n_max.
"""

import math
from dataclasses import dataclass

import numpy as np

LAGUERRE_NODES = 80
Z_LIMIT = 4.0
SCHEMES = ("conventional", "alg1", "alg2")

_FIG2_TAU_FRACTIONS = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)
_FIG2_SNRS_DB = (0.0, 10.0)
_FIG3_ANTENNAS = (10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 500.0)
_FIG3_SNR_DB = 5.0
_T = 200
_EPSILON = 0.1
_N_MAX = 2


@dataclass(frozen=True)
class Row:
    """One CSV row of a preset, as written by the program."""

    axis: str
    value: float
    scheme: str
    mean_rate: float
    stderr: float
    mean_n_used: float
    n_trials: int
    seed: int

    @classmethod
    def from_csv(cls, record: dict) -> "Row":
        return cls(axis=record["axis"], value=float(record["value"]),
                   scheme=record["scheme"], mean_rate=float(record["mean_rate"]),
                   stderr=float(record["stderr"]),
                   mean_n_used=float(record["mean_n_used"]),
                   n_trials=int(record["n_trials"]), seed=int(record["seed"]))


def expected_points(preset: str) -> list[tuple[str, float, dict]]:
    """(axis label, value, SystemConfig keyword arguments) per sweep point."""
    from jamsim.config import snr_db_to_power

    if preset == "fig2":
        points = []
        for snr_db in _FIG2_SNRS_DB:
            power = snr_db_to_power(snr_db)
            for frac in _FIG2_TAU_FRACTIONS:
                points.append((f"tau_over_T[snr_db={snr_db:g}]", frac,
                               dict(M=50, tau=round(frac * _T), P=power, Q=power)))
        return points
    if preset == "fig3":
        power = snr_db_to_power(_FIG3_SNR_DB)
        return [("M", m, dict(M=int(m), tau=20, P=power, Q=power)) for m in _FIG3_ANTENNAS]
    raise ValueError(f"unknown preset {preset!r}")


def conventional_oracle(cfg) -> float:
    """Mean conventional rate: E[rate_from_overlap(X)], X ~ Exp(mean 1/tau)."""
    from jamsim.rates import rate_from_overlap

    nodes, weights = np.polynomial.laguerre.laggauss(LAGUERRE_NODES)
    mean = 1.0 / cfg.tau
    return float(sum(w * rate_from_overlap(cfg, mean * x, 1).rate
                     for x, w in zip(nodes, weights)))


class RowChecker:
    """Checks one preset's rows for a given trial count and master seed."""

    def __init__(self, preset: str, n_trials: int, seed: int):
        from jamsim.config import SystemConfig
        from jamsim.rates import rate_from_overlap

        self.preset = preset
        self.n_trials = n_trials
        self.seed = seed
        self.expected = {}
        for axis, value, kwargs in expected_points(preset):
            cfg = SystemConfig(T=_T, epsilon=_EPSILON, n_max=_N_MAX, master_seed=seed,
                               **kwargs)
            ceiling = rate_from_overlap(cfg, 0.0, 1).rate
            oracle = conventional_oracle(cfg)
            for scheme in SCHEMES:
                self.expected[(axis, value, scheme)] = (cfg, oracle, ceiling)

    @property
    def n_rows(self) -> int:
        return len(self.expected)

    def check_row(self, row: Row) -> str | None:
        """None when the row passes, else the reason it fails."""
        key = (row.axis, row.value, row.scheme)
        if key not in self.expected:
            return f"unexpected row {key}"
        cfg, oracle, ceiling = self.expected[key]
        if row.n_trials != self.n_trials or row.seed != self.seed:
            return f"row {key} has n_trials={row.n_trials}, seed={row.seed}"
        if not (math.isfinite(row.mean_rate) and math.isfinite(row.stderr)
                and math.isfinite(row.mean_n_used) and row.stderr >= 0):
            return f"row {key} has a non-finite value"
        if row.scheme == "conventional":
            if row.mean_n_used != 1.0:
                return f"row {key}: conventional mean_n_used={row.mean_n_used}"
            diff = abs(row.mean_rate - oracle)
            if not diff <= Z_LIMIT * row.stderr:
                return (f"row {key}: mean_rate={row.mean_rate:.6g} is "
                        f"{diff / row.stderr if row.stderr > 0 else math.inf:.2f} stderr "
                        f"from the quadrature oracle {oracle:.6g}")
            return None
        if not 0.0 <= row.mean_rate <= ceiling:
            return f"row {key}: mean_rate={row.mean_rate:.6g} outside [0, {ceiling:.6g}]"
        if not 1.0 <= row.mean_n_used <= cfg.n_max:
            return f"row {key}: mean_n_used={row.mean_n_used} outside [1, {cfg.n_max}]"
        return None

    def check(self, rows: list[Row]) -> list[str]:
        """Reasons for every failing row, plus one per missing or repeated row."""
        failures = [reason for reason in map(self.check_row, rows) if reason is not None]
        seen = [(r.axis, r.value, r.scheme) for r in rows]
        missing = set(self.expected) - set(seen)
        failures += [f"missing row {key}" for key in sorted(missing)]
        if len(set(seen)) != len(seen):
            failures.append("repeated rows")
        return failures
