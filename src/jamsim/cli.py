"""Command-line front end.

Subcommands: simulate, sweep, verify-appendix, preset. Configuration is a
flat key = value file ('#' starts a comment); command-line flags override
file values. Exit codes: 0 success, 1 a verify-appendix quantity more
than MOMENT_Z standard errors from its closed form, 2 usage or
configuration error.
"""

import argparse
import csv
import sys

from .channel import JammerSpec
from .config import SystemConfig, snr_db_to_power
from .montecarlo import MOMENT_Z, SCHEMES, _validate_combination, average_rate, verify_moments
from .sweep import (AXES, PRESET_NAMES, SweepRow, SweepSpec, run_preset,
                    run_sweep, write_csv)

_POWER_KEYS = ("p_t", "p_d", "q_t", "q_d")
_SYSTEM_KEYS = ("m", "t", "tau", "beta_u", "beta_j", "p", "q", "snr_db", *_POWER_KEYS,
                "epsilon", "n_max", "seed")
_SCENARIO_KEYS = ("jammer", "jammer_data_phase", "first_pilot", "opt_mode",
                  "schemes", "trials", "threads", "out")
_SWEEP_KEYS = ("axis", "values")
_VERIFY_KEYS = ("overlaps",)
KNOWN_KEYS = frozenset(_SYSTEM_KEYS + _SCENARIO_KEYS + _SWEEP_KEYS + _VERIFY_KEYS)


class ConfigError(Exception):
    """Bad configuration; the message names the offending key or file."""


def parse_flat_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from None
    mapping = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, value = text.split("=", 1)
        key = key.strip().lower()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _get_int(mapping, key, default):
    if key not in mapping:
        return default
    try:
        return int(mapping[key])
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {mapping[key]!r}") from None


def _get_float(mapping, key, default):
    if key not in mapping:
        return default
    try:
        return float(mapping[key])
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {mapping[key]!r}") from None


def _get_bool(mapping, key, default):
    if key not in mapping:
        return default
    text = mapping[key].lower()
    if text in ("true", "yes", "1"):
        return True
    if text in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r}: expected true/false, got {mapping[key]!r}")


def _get_float_list(mapping, key, default):
    if key not in mapping:
        return default
    try:
        return tuple(float(v) for v in mapping[key].split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected comma-separated numbers, "
                          f"got {mapping[key]!r}") from None


def system_config_from_mapping(mapping: dict) -> SystemConfig:
    kwargs = dict(
        M=_get_int(mapping, "m", 50),
        T=_get_int(mapping, "t", 200),
        tau=_get_int(mapping, "tau", 10),
        beta_u=_get_float(mapping, "beta_u", 1.0),
        beta_j=_get_float(mapping, "beta_j", 1.0),
        epsilon=_get_float(mapping, "epsilon", 0.1),
        n_max=_get_int(mapping, "n_max", 2),
        master_seed=_get_int(mapping, "seed", 0),
        first_pilot=_first_pilot_from_mapping(mapping),
        opt_mode=mapping.get("opt_mode", "codebook"),
    )
    if "snr_db" in mapping:
        if "p" in mapping or "q" in mapping:
            raise ConfigError("config key 'snr_db' conflicts with explicit 'p'/'q' budgets")
        power = snr_db_to_power(_get_float(mapping, "snr_db", 0.0))
        kwargs["P"] = kwargs["Q"] = power
    else:
        kwargs["P"] = _get_float(mapping, "p", 1.0)
        kwargs["Q"] = _get_float(mapping, "q", 1.0)
    if any(k in mapping for k in _POWER_KEYS):
        missing = [k for k in _POWER_KEYS if k not in mapping]
        if missing:
            raise ConfigError(f"explicit per-phase powers need keys: {', '.join(missing)}")
        kwargs["powers"] = tuple(_get_float(mapping, k, None) for k in _POWER_KEYS)
    try:
        return SystemConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def jammer_from_mapping(mapping: dict) -> JammerSpec:
    text = mapping.get("jammer", "gaussian")
    data_phase = _get_bool(mapping, "jammer_data_phase", True)
    index = 0
    kind = text
    if text.startswith("codeword"):
        kind = "codeword"
        if ":" in text:
            try:
                index = int(text.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"config key 'jammer': bad codeword index in {text!r}") from None
    try:
        return JammerSpec(kind=kind, codeword_index=index, data_phase_active=data_phase)
    except ValueError as err:
        raise ConfigError(f"config key 'jammer': {err}") from None


def schemes_from_mapping(mapping: dict) -> tuple[str, ...]:
    text = mapping.get("schemes", "conventional")
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    if not schemes:
        raise ConfigError("config key 'schemes': at least one scheme is required")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"config key 'schemes': unknown scheme {scheme!r}")
    return schemes


def _first_pilot_from_mapping(mapping: dict):
    text = mapping.get("first_pilot", "random")
    if text.lower() == "random":
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config key 'first_pilot': expected an index or 'random', "
                          f"got {text!r}") from None


def _load_mapping(ns) -> dict:
    mapping = parse_flat_config(ns.config) if ns.config else {}
    if ns.seed is not None:
        mapping["seed"] = str(ns.seed)
    if ns.trials is not None:
        mapping["trials"] = str(ns.trials)
    if ns.out is not None:
        mapping["out"] = ns.out
    if ns.threads is not None:
        mapping["threads"] = str(ns.threads)
    return mapping


def _cmd_simulate(ns) -> int:
    mapping = _load_mapping(ns)
    cfg = system_config_from_mapping(mapping)
    jammer = jammer_from_mapping(mapping)
    schemes = schemes_from_mapping(mapping)
    trials = _get_int(mapping, "trials", 1000)
    threads = _get_int(mapping, "threads", 1)
    for scheme in schemes:
        _validate_combination(cfg, scheme, jammer)     # fail before the first trial
    rows = []
    for scheme in schemes:
        summary = average_rate(cfg, scheme, jammer, trials, n_workers=threads)
        print(f"scheme={scheme} mean_rate={summary.mean_rate:.6f} "
              f"stderr={summary.stderr:.6f} mean_n_used={summary.mean_n_used:.4f} "
              f"trials={summary.n_trials} seed={cfg.master_seed}")
        rows.append(SweepRow(axis="single", value=0.0, scheme=scheme,
                             mean_rate=summary.mean_rate, stderr=summary.stderr,
                             mean_n_used=summary.mean_n_used,
                             n_trials=summary.n_trials, seed=cfg.master_seed))
    if "out" in mapping:
        write_csv(rows, mapping["out"])
        print(f"wrote {len(rows)} rows to {mapping['out']}")
    return 0


def _cmd_sweep(ns) -> int:
    mapping = _load_mapping(ns)
    if "axis" not in mapping:
        raise ConfigError("a sweep needs the config key 'axis'")
    by_name = {name.lower(): name for name in AXES}
    axis = by_name.get(mapping["axis"].lower())
    if axis is None:
        raise ConfigError(f"config key 'axis': unknown axis {mapping['axis']!r}, "
                          f"choose from {', '.join(AXES)}")
    values = _get_float_list(mapping, "values", ())
    if "out" not in mapping:
        raise ConfigError("a sweep needs an output path ('out' key or --out)")
    spec = SweepSpec(axis=axis, values=values, schemes=schemes_from_mapping(mapping),
                     base=system_config_from_mapping(mapping),
                     jammer=jammer_from_mapping(mapping),
                     n_trials=_get_int(mapping, "trials", 1000),
                     n_workers=_get_int(mapping, "threads", 1))
    rows = run_sweep(spec)
    write_csv(rows, mapping["out"])
    print(f"wrote {len(rows)} rows to {mapping['out']}")
    return 0


def _cmd_verify(ns) -> int:
    mapping = _load_mapping(ns)
    mapping.setdefault("m", "20")
    mapping.setdefault("tau", "8")
    cfg = system_config_from_mapping(mapping)
    overlaps = _get_float_list(mapping, "overlaps", (0.0, 0.5, 1.0))
    trials = _get_int(mapping, "trials", 100000)
    reports = [verify_moments(cfg, overlap, trials) for overlap in overlaps]
    csv_rows = []
    for rep in reports:
        for name, m in rep.moments.items():
            print(f"overlap_sq={rep.overlap_sq:g} {name:<6} emp={m.emp:.6g} th={m.th:.6g} "
                  f"stderr={m.se:.4g} z={m.z:+.2f} {'ok' if m.ok else 'FAIL'}")
            csv_rows.append([f"{rep.overlap_sq:.17g}", name,
                             *(f"{v:.17g}" for v in (m.emp, m.th, m.se, m.z)), rep.trials])
    if "out" in mapping:
        with open(mapping["out"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("overlap_sq", "moment", "empirical", "theoretical",
                             "stderr", "z", "trials"))
            writer.writerows(csv_rows)
    all_ok = all(rep.ok for rep in reports)
    print(f"RESULT: {'PASS' if all_ok else 'FAIL'} (every |emp - th| <= {MOMENT_Z:g} stderr, "
          f"{trials} trials per overlap)")
    return 0 if all_ok else 1


def _cmd_preset(ns) -> int:
    mapping = _load_mapping(ns)
    out = mapping.get("out", f"{ns.name}.csv")
    rows = run_preset(ns.name, n_trials=_get_int(mapping, "trials", 50000),
                      master_seed=_get_int(mapping, "seed", 0),
                      n_workers=_get_int(mapping, "threads", 1))
    write_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamsim",
        description="Monte Carlo simulator for a jammed massive MIMO uplink "
                    "with pilot retransmission counter-attacks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--seed", type=int, help="master seed (64-bit)")
    common.add_argument("--trials", type=int, help="Monte Carlo trials")
    common.add_argument("--out", help="output CSV path")
    common.add_argument("--threads", type=int, help="parallel workers")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="average rates for one configuration").set_defaults(run=_cmd_simulate)
    sub.add_parser("sweep", parents=[common],
                   help="sweep one axis and emit a CSV").set_defaults(run=_cmd_sweep)
    sub.add_parser("verify-appendix", parents=[common],
                   help="moment oracle for the effective-noise decomposition"
                   ).set_defaults(run=_cmd_verify)
    preset = sub.add_parser("preset", parents=[common],
                            help="run a built-in figure-reproduction sweep")
    preset.add_argument("name", choices=PRESET_NAMES)
    preset.set_defaults(run=_cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.run(ns)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
