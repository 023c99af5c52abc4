import argparse
import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jamsim.montecarlo
from jamsim import (JammerSpec, SweepSpec, SystemConfig, average_rate, cli, run_preset,
                    run_sweep, write_csv)
from jamsim.oracle import Moment
from jamsim.sweep import CSV_HEADER, derive_config, preset_specs

SRC = Path(__file__).resolve().parent.parent / "src"


def _base(**kw):
    kwargs = dict(M=16, T=40, tau=4, P=1.0, Q=1.0, epsilon=0.1, n_max=2, master_seed=3)
    kwargs.update(kw)
    return SystemConfig(**kwargs)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# sweep specification and execution
# ---------------------------------------------------------------------------

def test_spec_validation():
    base = _base()
    with pytest.raises(ValueError, match="schemes"):
        SweepSpec(axis="M", values=(8.0, 16.0), schemes=(), base=base)
    with pytest.raises(ValueError, match="increasing"):
        SweepSpec(axis="M", values=(16.0, 8.0), schemes=("conventional",), base=base)
    with pytest.raises(ValueError, match="values"):
        SweepSpec(axis="M", values=(), schemes=("conventional",), base=base)
    with pytest.raises(ValueError, match="unknown scheme"):
        SweepSpec(axis="M", values=(8.0,), schemes=("magic",), base=base)
    with pytest.raises(ValueError, match="axis"):
        SweepSpec(axis="carrier", values=(8.0,), schemes=("conventional",), base=base)
    # every (point, scheme) is checked before the first trial
    with pytest.raises(ValueError, match=r"tau_over_T=0.6: n_max\*tau"):
        SweepSpec(axis="tau_over_T", values=(0.1, 0.6), schemes=("alg2",),
                  base=_base(T=200, tau=20, n_max=2))
    with pytest.raises(ValueError, match="tau_over_T=0.02: first_pilot"):
        SweepSpec(axis="tau_over_T", values=(0.02, 0.1), schemes=("conventional",),
                  base=_base(T=200, tau=20, first_pilot=5))
    codeword = JammerSpec(kind="codeword", codeword_index=5)
    with pytest.raises(ValueError, match="tau_over_T=0.02: codeword_index 5 out of range"):
        SweepSpec(axis="tau_over_T", values=(0.02, 0.1), schemes=("conventional",),
                  base=_base(T=200, tau=20, jammer=codeword))
    # the blind overlap estimate of alg1 and alg2 needs training-phase jamming
    with pytest.raises(ValueError, match=r"M=8: alg2 .* needs q_t > 0"):
        SweepSpec(axis="M", values=(8.0, 16.0), schemes=("conventional", "alg2"),
                  base=_base(Q=0.0))


@pytest.mark.parametrize("counts,message", [
    (dict(n_workers=0), "worker count must be positive"),
    (dict(n_workers=1.5), "worker count must be an integer"),
    (dict(n_trials=2.5), "n_trials must be an integer"),
    (dict(n_trials=True), "n_trials must be an integer"),
    (dict(n_trials=0), "n_trials must be positive"),
])
def test_spec_rejects_bad_counts(counts, message):
    # checked when the spec is built, not at its first row
    with pytest.raises(ValueError, match=message):
        SweepSpec(axis="M", values=(8.0,), schemes=("conventional",), base=_base(), **counts)


def test_derive_config_reports_offending_value():
    base = _base()
    with pytest.raises(ValueError, match="tau_over_T=0.033"):
        derive_config(base, "tau_over_T", 0.033)   # 1.32 pilot symbols
    with pytest.raises(ValueError, match="M=0"):
        derive_config(base, "M", 0.0)
    # a value whose derived config breaks an invariant carries the value too
    with pytest.raises(ValueError, match="tau_over_T=0.5"):
        derive_config(base, "tau_over_T", 0.5)     # n_max*tau == T
    snr_cfg = derive_config(base, "snr_db", 10.0)
    assert snr_cfg.p_t == pytest.approx(10.0)
    eps_cfg = derive_config(base, "epsilon", 0.3)
    assert eps_cfg.epsilon == 0.3


def test_run_sweep_writes_schema_and_is_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    spec = SweepSpec(axis="M", values=(8.0, 16.0), schemes=("conventional", "alg1"),
                     base=_base(), n_trials=150)
    rows_a = run_sweep(spec)
    write_csv(rows_a, str(out_a))
    write_csv(run_sweep(spec), str(out_b))
    assert len(rows_a) == 4
    assert out_a.read_text() == out_b.read_text()
    parsed = _read_csv(out_a)
    assert list(parsed[0].keys()) == list(CSV_HEADER)
    assert {row["scheme"] for row in parsed} == {"conventional", "alg1"}


def test_sweep_rows_round_trip_exactly():
    # re-running one row's parameters reproduces its mean bit for bit
    spec = SweepSpec(axis="M", values=(8.0, 16.0), schemes=("alg1",),
                     base=_base(jammer=JammerSpec(kind="sphere")), n_trials=120)
    rows = run_sweep(spec)
    for row in rows:
        cfg = derive_config(spec.base, spec.axis, row.value)
        summary = average_rate(cfg, row.scheme, row.n_trials)
        assert summary.mean_rate == row.mean_rate
        assert summary.stderr == row.stderr


def test_presets_shape():
    fig2 = preset_specs("fig2", n_trials=10, master_seed=0, n_workers=1)
    assert len(fig2) == 2
    assert all(len(s.values) == 10 for s in fig2)
    assert fig2[0].axis_label != fig2[1].axis_label
    assert all(2 * max(s.values) < 1.0 for s in fig2)   # two pilots must fit in T
    fig3 = preset_specs("fig3", n_trials=10, master_seed=0, n_workers=1)
    assert len(fig3) == 1 and fig3[0].axis == "M"
    with pytest.raises(ValueError):
        preset_specs("fig9", n_trials=10, master_seed=0, n_workers=1)


def test_run_preset_row_count(tmp_path):
    out = tmp_path / "fig3.csv"
    rows = run_preset("fig3", n_trials=20)
    write_csv(rows, str(out))
    assert len(rows) == 3 * 9
    assert len(_read_csv(out)) == len(rows)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _run_cli(*args):
    # the subprocess imports jamsim from this checkout's src, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "jamsim.cli", *args],
                          capture_output=True, text=True, env=env)


def test_pooled_preset_writes_the_serial_csv(tmp_path):
    # pool workers rebuild each row's config from a pickle, with the terms
    # it holds; their rows are the serial rows, byte for byte
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"fig3-{threads}.csv"
        assert cli.main(["preset", "fig3", "--trials", "20", "--threads", threads,
                         "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_config_keys_cover_the_system_config_fields():
    # every SystemConfig field but the per-phase powers and the jammer has
    # exactly one key; the jammer has two
    fields = {f.name for f in dataclasses.fields(SystemConfig)} - {"powers", "jammer"}
    assert sorted(cli._FIELDS.values()) == sorted(fields)
    assert {*cli._FIELDS, "jammer", "jammer_data_phase"} <= cli.KNOWN_KEYS


def test_each_command_reads_its_own_keys():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(cli.COMMAND_KEYS) == set(commands.choices)
    assert frozenset().union(*cli.COMMAND_KEYS.values()) == cli.KNOWN_KEYS
    assert len(cli.KNOWN_KEYS) == 26
    keys = cli.COMMAND_KEYS
    assert keys["preset"] == {"seed", "trials", "threads", "out"}
    assert keys["sweep"] - keys["simulate"] == {"axis", "values"}
    assert keys["verify-appendix"] - keys["simulate"] == {"overlaps"}
    assert keys["simulate"] - keys["verify-appendix"] == {
        "jammer", "jammer_data_phase", "first_pilot", "opt_mode", "schemes", "threads"}


@pytest.mark.parametrize("argv,text,named", [
    (["preset", "fig3"], "m = 100\nsnr_db = 20\njammer = sphere\n",
     ["preset", "'jammer', 'm', 'snr_db'"]),
    (["verify-appendix", "--threads", "2"], "", ["verify-appendix", "'threads'"]),
    (["verify-appendix"], "jammer = sphere\n", ["verify-appendix", "'jammer'"]),
    (["simulate"], "axis = M\n", ["simulate", "'axis'"]),
    (["simulate"], "jammer = codeword7\n", ["'jammer'", "'codeword7'"]),
    (["simulate"], "jammer = gaussian:1\n", ["'jammer'", "'gaussian:1'"]),
    (["simulate"], "jammer = codeword:x\n", ["'jammer'", "'codeword:x'"]),
], ids=["preset-system-keys", "verify-threads-flag", "verify-jammer", "simulate-axis",
        "jammer-without-colon", "jammer-index-on-gaussian", "jammer-bad-index"])
def test_cli_rejects_keys_a_command_does_not_read(tmp_path, capsys, argv, text, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text + "trials = 5\n")
    out = tmp_path / "x.csv"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named)
    assert not out.exists()


def test_cli_rejects_a_codeword_index_beyond_tau(tmp_path, capsys):
    # the scenario is part of the config, so the index is checked with it
    cfg = tmp_path / "c.cfg"
    cfg.write_text("tau = 4\njammer = codeword:99\ntrials = 5\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: codeword_index 99 out of range for tau=4\n"
    assert "scheme=" not in captured.out


def test_cli_simulate_and_csv(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("m = 16\nt = 40\ntau = 4\nsnr_db = 10\n"
                   "schemes = conventional,alg2\ntrials = 50\nseed = 2\n")
    out = tmp_path / "sim.csv"
    proc = _run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0
    assert "scheme=conventional" in proc.stdout
    assert "scheme=alg2" in proc.stdout
    rows = _read_csv(out)
    assert len(rows) == 2 and rows[0]["axis"] == "single"


def test_cli_simulate_prints_each_row_before_the_next_scheme_runs(tmp_path, monkeypatch,
                                                                   capsys):
    # the scheme= lines printed since the last run_trials call, at each call
    new_lines = []
    run_trials = jamsim.montecarlo.run_trials

    def recording_run_trials(*args, **kwargs):
        new_lines.append(capsys.readouterr().out.count("scheme="))
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(jamsim.montecarlo, "run_trials", recording_run_trials)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("m = 8\nt = 40\ntau = 4\nschemes = conventional,alg1,alg2\ntrials = 5\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    assert new_lines == [0, 1, 1]
    assert capsys.readouterr().out.count("scheme=") == 1


def test_cli_missing_config_is_usage_error(tmp_path):
    proc = _run_cli("simulate", "--config", str(tmp_path / "absent.cfg"))
    assert proc.returncode == 2
    assert "absent.cfg" in proc.stderr


def test_cli_unknown_key_is_diagnosed(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = 16\nwarp_factor = 9\n")
    proc = _run_cli("simulate", "--config", str(cfg))
    assert proc.returncode == 2
    assert "warp_factor" in proc.stderr
    cfg.write_text("scheme = alg1\n")       # the alias of 'schemes' is gone
    proc = _run_cli("simulate", "--config", str(cfg))
    assert proc.returncode == 2
    assert "unknown config key 'scheme'" in proc.stderr


def test_cli_bad_value_is_diagnosed(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = many\n")
    proc = _run_cli("simulate", "--config", str(cfg))
    assert proc.returncode == 2
    assert "'m'" in proc.stderr
    cfg.write_text("p = nan\n")
    proc = _run_cli("simulate", "--config", str(cfg))
    assert proc.returncode == 2
    assert "P must be finite" in proc.stderr
    proc = _run_cli("simulate", "--threads", "0", "--trials", "5")
    assert proc.returncode == 2
    assert "worker count" in proc.stderr


@pytest.mark.parametrize("command,text,named", [
    ("sweep", "axis = M\nvalues = 8,inf\n", "M=inf"),
    ("sweep", "axis = tau_over_T\nvalues = 0.05,inf\n", "tau_over_T=inf"),
    ("sweep", "axis = snr_db\nvalues = 0,4000\n", "snr_db=4000"),
    ("simulate", "snr_db = 4000\n", "snr_db=4000"),
    ("simulate", "snr_db = 3000\n", "overflow the SINR"),
])
def test_cli_overflowing_values_are_usage_errors(tmp_path, command, text, named):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text + "schemes = conventional\ntrials = 5\n")
    proc = _run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert named in proc.stderr


@pytest.mark.parametrize("text,named", [
    ("schemes = alg2,alg1\nfirst_pilot = 2\n", "first_pilot is not supported"),
    ("schemes = conventional,alg2\nopt_mode = banana\n", "unknown opt_mode 'banana'"),
    ("schemes = conventional,alg1\nq = 0\n",
     "alg1 estimates the overlap blind, which needs q_t > 0"),
])
def test_cli_simulate_rejects_a_bad_scheme_before_any_trial(tmp_path, text, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "m = 16\nt = 40\ntau = 4\ntrials = 5\n")
    proc = _run_cli("simulate", "--config", str(cfg))
    assert proc.returncode == 2
    assert named in proc.stderr
    assert "scheme=" not in proc.stdout


def test_cli_per_phase_powers(tmp_path):
    cfg = tmp_path / "powers.cfg"
    cfg.write_text("m = 16\nt = 40\ntau = 4\np = 2\nq = 1\n"
                   "p_t = 2\np_d = 2\nq_t = 1\nq_d = 0.5\n"
                   "schemes = conventional,alg1\ntrials = 60\nseed = 3\n")
    out = tmp_path / "powers.csv"
    assert _run_cli("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0
    explicit = SystemConfig(M=16, T=40, tau=4, P=2.0, Q=1.0, master_seed=3,
                            powers=(2.0, 2.0, 1.0, 0.5))
    for row in _read_csv(out):
        summary = average_rate(explicit, row["scheme"], 60)
        assert float(row["mean_rate"]) == summary.mean_rate
    # a partial set of per-phase keys names the missing ones
    cfg.write_text("p_t = 0.5\ntrials = 5\n")
    proc = _run_cli("simulate", "--config", str(cfg))
    assert proc.returncode == 2
    assert "p_d, q_t, q_d" in proc.stderr
    # the policy, threshold and rate-accounting switches are gone: unknown keys
    for key, value in (("power_policy", "explicit"), ("threshold_on", "amplitude"),
                       ("rate_accounting", "estimated_overlap")):
        cfg.write_text(f"{key} = {value}\ntrials = 5\n")
        proc = _run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == 2
        assert f"unknown config key {key!r}" in proc.stderr


def test_cli_sweep_and_reproducibility(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("axis = M\nvalues = 8,16\nschemes = conventional\n"
                   "t = 40\ntau = 4\ntrials = 60\nseed = 4\n")
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert _run_cli("sweep", "--config", str(cfg), "--out", str(out1)).returncode == 0
    assert _run_cli("sweep", "--config", str(cfg), "--out", str(out2)).returncode == 0
    assert out1.read_text() == out2.read_text()


def test_cli_sweep_requires_axis_and_out(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("values = 8,16\nschemes = conventional\n")
    proc = _run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2 and "axis" in proc.stderr
    cfg.write_text("axis = M\nvalues = 8,16\nschemes = conventional\nt = 40\ntau = 4\n")
    proc = _run_cli("sweep", "--config", str(cfg))
    assert proc.returncode == 2 and "out" in proc.stderr


def test_cli_verify_appendix_exit_codes(tmp_path, monkeypatch, capsys):
    # 0 at every seed of a quick check, not at a lucky one
    for seed in range(9):
        assert cli.main(["verify-appendix", "--trials", "4000", "--seed", str(seed)]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out
    # 1 when one quantity is 10 standard errors off its closed form
    real = cli.verify_moments

    def e1_off(cfg, overlap, trials):
        moments = real(cfg, overlap, trials)
        e1 = moments["e1"]
        return {**moments, "e1": Moment(e1.th + 10 * e1.se, e1.th, e1.se)}

    monkeypatch.setattr(cli, "verify_moments", e1_off)
    assert cli.main(["verify-appendix", "--trials", "4000"]) == 1
    out = capsys.readouterr().out
    assert "e1     emp=" in out and "z=+10.00 FAIL" in out and "RESULT: FAIL" in out
    # 2 for the relative tolerance the verdict no longer has
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("tolerance = 0.03\n")
    assert cli.main(["verify-appendix", "--config", str(cfg), "--trials", "100"]) == 2
    assert "unknown config key 'tolerance'" in capsys.readouterr().err
    # 2 for an empty overlap list, which would pass with nothing checked
    cfg.write_text("overlaps = ,\n")
    assert cli.main(["verify-appendix", "--config", str(cfg), "--trials", "100"]) == 2
    assert "at least one overlap" in capsys.readouterr().err


def test_cli_verify_appendix_csv(tmp_path):
    out = tmp_path / "moments.csv"
    proc = _run_cli("verify-appendix", "--trials", "2000", "--out", str(out))
    assert proc.returncode == 0
    rows = _read_csv(out)
    assert list(rows[0]) == ["overlap_sq", "moment", "empirical", "theoretical",
                             "stderr", "z", "trials"]
    assert {row["moment"] for row in rows} == {"e1", "e2", "e3", "signal", "sinr"}
    assert len(rows) == 15    # three overlaps, five tracked quantities
    for row in rows:
        z = (float(row["empirical"]) - float(row["theoretical"])) / float(row["stderr"])
        assert float(row["z"]) == pytest.approx(z, rel=1e-12)


def test_cli_preset_smoke(tmp_path):
    out = tmp_path / "fig2.csv"
    proc = _run_cli("preset", "fig2", "--trials", "10", "--out", str(out))
    assert proc.returncode == 0
    assert len(_read_csv(out)) == 60


def test_cli_rejects_unknown_subcommand():
    proc = _run_cli("explode")
    assert proc.returncode == 2
