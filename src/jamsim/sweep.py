"""Parameter sweeps, CSV emission, and the figure-reproduction presets."""

import csv
import dataclasses
import math
from dataclasses import dataclass

from .config import SystemConfig, snr_db_to_power
from .channel import JammerSpec
from .montecarlo import SCHEMES, average_rate

AXES = ("tau_over_T", "M", "snr_db", "epsilon")
PRESET_NAMES = ("fig2", "fig3")
CSV_HEADER = ("axis", "value", "scheme", "mean_rate", "stderr",
              "mean_n_used", "n_trials", "seed")

# tau/T grid for the training-payload preset: every point maps to an integer
# pilot length at T=200 and keeps n_max*tau < T at n_max=2
_FIG2_TAU_FRACTIONS = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)
_FIG2_SNRS_DB = (0.0, 10.0)
_FIG3_ANTENNAS = (10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 500.0)
_FIG3_SNR_DB = 5.0


def derive_config(base: SystemConfig, axis: str, value: float) -> SystemConfig:
    """Config for one sweep point, with the offending value in any error."""
    try:
        if axis == "tau_over_T":
            tau_exact = value * base.T
            tau = round(tau_exact)
            if abs(tau_exact - tau) > 1e-9 or tau < 1:
                raise ValueError(f"tau/T={value:g} gives non-integer pilot length {tau_exact:g}")
            return dataclasses.replace(base, tau=tau)
        if axis == "M":
            m = round(value)
            if abs(value - m) > 1e-9 or m < 1:
                raise ValueError(f"antenna count must be a positive integer, got {value:g}")
            return dataclasses.replace(base, M=m)
        if axis == "snr_db":
            if base.power_policy != "uniform":
                raise ValueError("an SNR sweep needs the uniform power policy")
            power = snr_db_to_power(value)
            return dataclasses.replace(base, P=power, Q=power)
        if axis == "epsilon":
            return dataclasses.replace(base, epsilon=float(value))
        raise ValueError(f"unknown sweep axis {axis!r}")
    except ValueError as err:
        raise ValueError(f"axis {axis}={value:g}: {err}") from None


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its values, and the schemes to average."""

    axis: str
    values: tuple[float, ...]
    schemes: tuple[str, ...]
    base: SystemConfig
    jammer: JammerSpec = JammerSpec()
    n_trials: int = 1000
    output_path: str | None = None
    n_workers: int = 1
    first_pilot: int | None = None
    opt_mode: str = "codebook"
    label: str | None = None    # axis name written to the CSV, defaults to axis

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("schemes must be a nonempty subset of " + ", ".join(SCHEMES))
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        for value in self.values:
            derive_config(self.base, self.axis, value)  # fail early, names the value

    @property
    def axis_label(self) -> str:
        return self.label if self.label is not None else self.axis


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    scheme: str
    mean_rate: float
    stderr: float
    mean_n_used: float
    n_trials: int
    seed: int


def run_sweep(spec: SweepSpec, write: bool = True) -> list[SweepRow]:
    """One CSV row per (axis value, scheme), deterministic in the master seed.

    Every point reuses trial indices 0..n_trials-1 under the same master
    seed, so any row re-run individually reproduces its mean exactly and
    scheme comparisons at one point are paired.
    """
    rows = []
    for value in spec.values:
        cfg = derive_config(spec.base, spec.axis, value)
        for scheme in spec.schemes:
            summary = average_rate(cfg, scheme, spec.jammer, spec.n_trials,
                                   n_workers=spec.n_workers,
                                   first_pilot=spec.first_pilot,
                                   opt_mode=spec.opt_mode)
            rows.append(SweepRow(axis=spec.axis_label, value=float(value), scheme=scheme,
                                 mean_rate=summary.mean_rate, stderr=summary.stderr,
                                 mean_n_used=summary.mean_n_used,
                                 n_trials=summary.n_trials, seed=cfg.master_seed))
    if write and spec.output_path is not None:
        write_csv(rows, spec.output_path)
    return rows


def write_csv(rows, path: str):
    """UTF-8 CSV with a header row and full float precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row.axis, f"{row.value:.17g}", row.scheme,
                             f"{row.mean_rate:.17g}", f"{row.stderr:.17g}",
                             f"{row.mean_n_used:.17g}", row.n_trials, row.seed])


def preset_specs(name: str, n_trials: int = 50000, master_seed: int = 0,
                 n_workers: int = 1) -> list[SweepSpec]:
    """Built-in sweeps reproducing the shape of the reference curves.

    fig2 sweeps the training payload tau/T at M=50 for 0 and 10 dB (the
    grid stops at 0.45 because two transmissions must fit in the block);
    fig3 sweeps the antenna count at 5 dB. Both run all three schemes under
    Gaussian jamming with epsilon=0.1.
    """
    if name == "fig2":
        specs = []
        for snr_db in _FIG2_SNRS_DB:
            power = snr_db_to_power(snr_db)
            base = SystemConfig(M=50, T=200, tau=10, P=power, Q=power,
                                epsilon=0.1, n_max=2, master_seed=master_seed)
            specs.append(SweepSpec(axis="tau_over_T", values=_FIG2_TAU_FRACTIONS,
                                   schemes=SCHEMES, base=base, jammer=JammerSpec(),
                                   n_trials=n_trials, n_workers=n_workers,
                                   label=f"tau_over_T[snr_db={snr_db:g}]"))
        return specs
    if name == "fig3":
        power = snr_db_to_power(_FIG3_SNR_DB)
        base = SystemConfig(M=10, T=200, tau=20, P=power, Q=power,
                            epsilon=0.1, n_max=2, master_seed=master_seed)
        return [SweepSpec(axis="M", values=_FIG3_ANTENNAS, schemes=SCHEMES,
                          base=base, jammer=JammerSpec(), n_trials=n_trials,
                          n_workers=n_workers)]
    raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def run_preset(name: str, output_path: str | None = None, n_trials: int = 50000,
               master_seed: int = 0, n_workers: int = 1) -> list[SweepRow]:
    rows = []
    for spec in preset_specs(name, n_trials=n_trials, master_seed=master_seed,
                             n_workers=n_workers):
        rows.extend(run_sweep(spec, write=False))
    if output_path is not None:
        write_csv(rows, output_path)
    return rows
