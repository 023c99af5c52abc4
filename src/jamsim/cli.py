"""Command-line front end.

Subcommands: simulate, sweep, verify-appendix, preset. Configuration is a
flat key = value file ('#' starts a comment); command-line flags override
file values, and each subcommand accepts only the keys it reads
(COMMAND_KEYS). A key left out keeps the default of what it configures
(SystemConfig, SweepSpec, run_preset). Exit codes: 0 success, 1 a
verify-appendix quantity more than MOMENT_Z standard errors from its
closed form, 2 usage or configuration error.
"""

import argparse
import csv
import sys

from .config import JAMMER_KINDS, SCHEMES, JammerSpec, SystemConfig, snr_db_to_power
from .oracle import MOMENT_Z, verify_moments
from .sweep import (AXES, PRESET_NAMES, SweepSpec, point_rows, run_preset, run_sweep,
                    write_csv)

# config key -> SystemConfig field; snr_db and the per-phase powers are set apart
_FIELDS = {"m": "M", "t": "T", "tau": "tau", "beta_u": "beta_u", "beta_j": "beta_j",
           "p": "P", "q": "Q", "epsilon": "epsilon", "n_max": "n_max", "seed": "master_seed",
           "first_pilot": "first_pilot", "opt_mode": "opt_mode"}
_POWER_KEYS = ("p_t", "p_d", "q_t", "q_d")
_RUN_ARGS = {"trials": "n_trials", "threads": "n_workers"}

_SYSTEM_KEYS = {*_FIELDS, "snr_db", *_POWER_KEYS} - {"first_pilot", "opt_mode"}
_SCENARIO_KEYS = {"jammer", "jammer_data_phase", "first_pilot", "opt_mode",
                  "schemes", "trials", "threads", "out"}
COMMAND_KEYS = {
    "simulate": _SYSTEM_KEYS | _SCENARIO_KEYS,
    "sweep": _SYSTEM_KEYS | _SCENARIO_KEYS | {"axis", "values"},
    "verify-appendix": _SYSTEM_KEYS | {"overlaps", "trials", "out"},
    "preset": {"seed", "trials", "threads", "out"},
}
KNOWN_KEYS = frozenset().union(*COMMAND_KEYS.values())


class ConfigError(Exception):
    """Bad configuration; the message names the offending key or file."""


def _bool(text):
    return {"true": True, "yes": True, "1": True,
            "false": False, "no": False, "0": False}[text.lower()]


def _jammer(text):
    kind, colon, index = text.partition(":")
    if kind not in JAMMER_KINDS or (colon and not (kind == "codeword" and index.isdecimal())):
        raise ValueError(text)
    return {"kind": kind, "codeword_index": int(index)} if colon else {"kind": kind}


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _pilot(text):
    return None if text.lower() == "random" else int(text)


_INT = (int, "an integer")
_FLOAT = (float, "a number")
_FLOATS = (_floats, "comma-separated numbers")
# config key -> (parser, what a parse error says the key expects); other keys stay text
_PARSERS = {
    **dict.fromkeys(("m", "t", "tau", "n_max", "seed", "trials", "threads"), _INT),
    **dict.fromkeys(("beta_u", "beta_j", "p", "q", "snr_db", *_POWER_KEYS, "epsilon"),
                    _FLOAT),
    "values": _FLOATS, "overlaps": _FLOATS,
    "jammer": (_jammer, f"{', '.join(JAMMER_KINDS)} or codeword:<k>"),
    "jammer_data_phase": (_bool, "true/false"),
    "first_pilot": (_pilot, "an index or 'random'"),
}


def _get(mapping, key, default=None):
    """The parsed value of key, or default when the mapping lacks it."""
    if key not in mapping:
        return default
    parse, expected = _PARSERS.get(key, (str, ""))
    try:
        return parse(mapping[key])
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key!r}: expected {expected}, "
                          f"got {mapping[key]!r}") from None


def _present(mapping, names):
    """Keyword arguments for the keys of names (key -> argument) that mapping sets."""
    return {arg: _get(mapping, key) for key, arg in names.items() if key in mapping}


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


def system_config_from_mapping(mapping: dict) -> SystemConfig:
    kwargs = _present(mapping, _FIELDS)
    if "snr_db" in mapping:
        if "p" in mapping or "q" in mapping:
            raise ConfigError("config key 'snr_db' conflicts with explicit 'p'/'q' budgets")
        kwargs["P"] = kwargs["Q"] = snr_db_to_power(_get(mapping, "snr_db"))
    if any(k in mapping for k in _POWER_KEYS):
        missing = [k for k in _POWER_KEYS if k not in mapping]
        if missing:
            raise ConfigError(f"explicit per-phase powers need keys: {', '.join(missing)}")
        kwargs["powers"] = tuple(_get(mapping, k) for k in _POWER_KEYS)
    try:
        jammer = JammerSpec(**_get(mapping, "jammer", {}),
                            **_present(mapping, {"jammer_data_phase": "data_phase_active"}))
        return SystemConfig(**kwargs, jammer=jammer)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def schemes_from_mapping(mapping: dict) -> tuple[str, ...]:
    text = mapping.get("schemes", "conventional")
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    if not schemes:
        raise ConfigError("config key 'schemes': at least one scheme is required")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"config key 'schemes': unknown scheme {scheme!r}")
    return schemes


def _load_mapping(ns) -> dict:
    """The config file's keys with the flags on top, all of them keys ns.command reads."""
    mapping = parse_flat_config(ns.config) if ns.config else {}
    for flag in ("seed", "trials", "out", "threads"):
        if getattr(ns, flag) is not None:
            mapping[flag] = str(getattr(ns, flag))
    stray = sorted(set(mapping) - COMMAND_KEYS[ns.command])
    if stray:
        raise ConfigError(f"{ns.command} does not read the config key(s) "
                          f"{', '.join(map(repr, stray))}")
    return mapping


def _cmd_simulate(ns) -> int:
    mapping = _load_mapping(ns)
    cfg = system_config_from_mapping(mapping)
    schemes = schemes_from_mapping(mapping)
    run_args = {"n_trials": SweepSpec.n_trials, "n_workers": SweepSpec.n_workers,
                **_present(mapping, _RUN_ARGS)}
    rows = []
    for row in point_rows(cfg, schemes, **run_args, axis="single", value=0.0):
        print(f"scheme={row.scheme} mean_rate={row.mean_rate:.6f} "
              f"stderr={row.stderr:.6f} mean_n_used={row.mean_n_used:.4f} "
              f"trials={row.n_trials} seed={row.seed}")
        rows.append(row)
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
    values = _get(mapping, "values", ())
    if "out" not in mapping:
        raise ConfigError("a sweep needs an output path ('out' key or --out)")
    spec = SweepSpec(axis=axis, values=values, schemes=schemes_from_mapping(mapping),
                     base=system_config_from_mapping(mapping), **_present(mapping, _RUN_ARGS))
    rows = run_sweep(spec)
    write_csv(rows, mapping["out"])
    print(f"wrote {len(rows)} rows to {mapping['out']}")
    return 0


def _cmd_verify(ns) -> int:
    mapping = _load_mapping(ns)
    mapping.setdefault("m", "20")
    mapping.setdefault("tau", "8")
    cfg = system_config_from_mapping(mapping)
    overlaps = _get(mapping, "overlaps", (0.0, 0.5, 1.0))
    if not overlaps:
        raise ConfigError("config key 'overlaps': at least one overlap is required")
    trials = _get(mapping, "trials", 100000)
    reports = [(overlap, verify_moments(cfg, overlap, trials)) for overlap in overlaps]
    csv_rows = []
    for overlap, moments in reports:
        for name, m in moments.items():
            print(f"overlap_sq={overlap:g} {name:<6} emp={m.emp:.6g} th={m.th:.6g} "
                  f"stderr={m.se:.4g} z={m.z:+.2f} {'ok' if m.ok else 'FAIL'}")
            csv_rows.append([f"{overlap:.17g}", name,
                             *(f"{v:.17g}" for v in (m.emp, m.th, m.se, m.z)), trials])
    if "out" in mapping:
        with open(mapping["out"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("overlap_sq", "moment", "empirical", "theoretical",
                             "stderr", "z", "trials"))
            writer.writerows(csv_rows)
    all_ok = all(m.ok for _, moments in reports for m in moments.values())
    print(f"RESULT: {'PASS' if all_ok else 'FAIL'} (every |emp - th| <= {MOMENT_Z:g} stderr, "
          f"{trials} trials per overlap)")
    return 0 if all_ok else 1


def _cmd_preset(ns) -> int:
    mapping = _load_mapping(ns)
    out = mapping.get("out", f"{ns.name}.csv")
    rows = run_preset(ns.name, **_present(mapping, {**_RUN_ARGS, "seed": "master_seed"}))
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
