import csv
import subprocess
import sys

import pytest

from jamsim import (JammerSpec, SystemConfig, SweepSpec, average_rate,
                    derive_config, preset_specs, run_preset, run_sweep)
from jamsim.sweep import CSV_HEADER


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
    spec_a = SweepSpec(axis="M", values=(8.0, 16.0), schemes=("conventional", "alg1"),
                       base=_base(), jammer=JammerSpec(), n_trials=150,
                       output_path=str(out_a))
    spec_b = SweepSpec(axis="M", values=(8.0, 16.0), schemes=("conventional", "alg1"),
                       base=_base(), jammer=JammerSpec(), n_trials=150,
                       output_path=str(out_b))
    rows_a = run_sweep(spec_a)
    run_sweep(spec_b)
    assert len(rows_a) == 4
    assert out_a.read_text() == out_b.read_text()
    parsed = _read_csv(out_a)
    assert list(parsed[0].keys()) == list(CSV_HEADER)
    assert {row["scheme"] for row in parsed} == {"conventional", "alg1"}


def test_sweep_rows_round_trip_exactly(tmp_path):
    # re-running one row's parameters reproduces its mean bit for bit
    spec = SweepSpec(axis="M", values=(8.0, 16.0), schemes=("alg1",),
                     base=_base(), jammer=JammerSpec(), n_trials=120,
                     output_path=str(tmp_path / "sweep.csv"))
    rows = run_sweep(spec)
    for row in rows:
        cfg = derive_config(spec.base, spec.axis, row.value)
        summary = average_rate(cfg, row.scheme, spec.jammer, row.n_trials)
        assert summary.mean_rate == row.mean_rate
        assert summary.stderr == row.stderr


def test_presets_shape():
    fig2 = preset_specs("fig2", n_trials=10)
    assert len(fig2) == 2
    assert all(len(s.values) == 10 for s in fig2)
    assert fig2[0].axis_label != fig2[1].axis_label
    assert all(2 * max(s.values) < 1.0 for s in fig2)   # two pilots must fit in T
    fig3 = preset_specs("fig3", n_trials=10)
    assert len(fig3) == 1 and fig3[0].axis == "M"
    with pytest.raises(ValueError):
        preset_specs("fig9")


def test_run_preset_row_count(tmp_path):
    out = tmp_path / "fig3.csv"
    rows = run_preset("fig3", output_path=str(out), n_trials=20)
    assert len(rows) == 3 * 9
    assert len(_read_csv(out)) == len(rows)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "jamsim.cli", *args],
                          capture_output=True, text=True)


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


def test_cli_verify_appendix_exit_codes(tmp_path):
    ok = _run_cli("verify-appendix", "--trials", "4000", "--seed", "6")
    assert ok.returncode == 0
    assert "RESULT: PASS" in ok.stdout
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("tolerance = 0\nsinr_tolerance = 0\n")
    strict = _run_cli("verify-appendix", "--config", str(cfg), "--trials", "2000")
    assert strict.returncode == 1
    assert "RESULT: FAIL" in strict.stdout


def test_cli_verify_appendix_csv(tmp_path):
    out = tmp_path / "moments.csv"
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("tolerance = 0.2\nsinr_tolerance = 0.2\n")   # smoke run, few trials
    proc = _run_cli("verify-appendix", "--config", str(cfg),
                    "--trials", "2000", "--out", str(out))
    assert proc.returncode == 0
    rows = _read_csv(out)
    assert {row["moment"] for row in rows} == {"e1", "e2", "e3", "signal", "sinr"}
    assert len(rows) == 15    # three overlaps, five tracked quantities


def test_cli_preset_smoke(tmp_path):
    out = tmp_path / "fig2.csv"
    proc = _run_cli("preset", "fig2", "--trials", "10", "--out", str(out))
    assert proc.returncode == 0
    assert len(_read_csv(out)) == 60


def test_cli_rejects_unknown_subcommand():
    proc = _run_cli("explode")
    assert proc.returncode == 2
