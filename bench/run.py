"""Benchmark of the jamsim figure presets, run in-process through ``jamsim.cli.main``.

    python3 bench/run.py --workload fig2 --seed 7 --seconds 55 --trace 0

A run repeats its workload's preset at a fixed trial count, with master
seeds derived from --seed, for about --seconds, and checks every output
row (see oracle.py). Passes of one master seed must give bit-identical
rows.

--trace 0 reports the end-to-end metrics, measured with tracing off; the
timings of serial workloads are scaled to a reference host speed (see
hostspeed.py).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones (see tracer.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. README.md in this directory says why each workload exists.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_SLICE_S, host_slice
from tracer import TARGETS, TRIAL_SCHEMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

TARGET_STDERR = 0.01    # bits/s/Hz, the standard error time_to_se_s aims at
SETUP_PER_PASS = 4      # cold set-ups timed before each untraced pass
MIN_SETUPS = 24         # cold set-ups per --trace 0 run
MIN_PASSES = 3          # untraced passes per --trace 0 run
PASS_SEEDS = 3          # master seeds per --trace 0 run (see pass_seeds)
MIN_PAIRS = 2           # untraced + traced pairs per --trace 1 run
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str
    trials: int      # per sweep point and scheme
    threads: int

    @property
    def scaled(self) -> bool:
        """Whether the pass timings are scaled to the reference host speed.

        The host slices run in the benchmark process, so they stand in for
        the host speed only where the trials run there too; README.md gives
        the measurement that rules it out for the pool.
        """
        return self.threads == 1


WORKLOADS = {
    # 400 trials damp the seed's share of the time_to_se_s spread (README.md)
    "fig2": Workload("fig2", 400, 1),
    "fig3-threads2": Workload("fig3", 200, 2),
}

END_TO_END = {
    "trials_per_s": "1/s",
    "time_to_se_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _layer_metrics():
    metrics = {}
    for module_name, attr in TARGETS:
        metrics[f"{module_name}.{attr}.calls"] = "count"
        metrics[f"{module_name}.{attr}.self_s"] = "s"
    metrics["montecarlo.run_trials.wall_s"] = "s"
    metrics["montecarlo.pool_starts"] = "count"
    metrics["channel.crandn.entries"] = "count"
    metrics["protocols.select_retransmission_pilot.cmacs"] = "count"
    for scheme in TRIAL_SCHEMES:
        metrics[f"montecarlo.trial_us.{scheme}.p50"] = "us"
        metrics[f"montecarlo.trial_us.{scheme}.p99"] = "us"
    metrics["protocols.alg1.retx_per_trial"] = "retx/trial"
    metrics["protocols.alg1.useful_retx_frac"] = "ratio"
    metrics["protocols.alg2.retx_frac"] = "ratio"
    metrics["protocols.alg2.useful_retx_frac"] = "ratio"
    metrics["protocols.alg2.opt_no_better_frac"] = "ratio"
    metrics["protocols.overlap_est_bias"] = "overlap_sq"
    metrics["protocols.overlap_est_rmse"] = "overlap_sq"
    metrics["trace.overhead_frac"] = "ratio"
    return metrics


PER_LAYER = _layer_metrics()
_TIMED_UNITS = ("s", "us")


def load_jamsim():
    """Import jamsim from this checkout's src/, or exit without a result."""
    if not (SRC / "jamsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no jamsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jamsim.cli

    if Path(jamsim.__file__).resolve().parent != SRC / "jamsim":
        raise SystemExit(f"error: imported jamsim from {jamsim.__file__}, not {SRC}")
    return jamsim.cli


def preset_argv(workload: Workload, seed: int, out_csv: Path) -> list[str]:
    argv = ["preset", workload.preset, "--trials", str(workload.trials),
            "--seed", str(seed), "--out", str(out_csv)]
    if workload.threads != 1:
        argv += ["--threads", str(workload.threads)]
    return argv


@dataclasses.dataclass
class Pass:
    wall_s: float       # without the host slices
    rows: list          # oracle.Row, in CSV order
    row_s: list         # seconds spent in each sweep.average_rate call
    error: str | None = None
    slice_s: list = dataclasses.field(default_factory=list)  # host slices around the rows

    def row_seconds(self, scaled: bool) -> list[float]:
        """Each row's seconds, at the reference host speed when scaled.

        A scaled row is multiplied by REF_SLICE_S over the mean of the host
        slices just before and just after it.
        """
        if not scaled:
            return self.row_s
        return [s * 2 * REF_SLICE_S / (before + after)
                for s, before, after in zip(self.row_s, self.slice_s, self.slice_s[1:])]

    def trials_per_s(self, scaled: bool) -> float:
        """Trials over wall time; scaled, the wall time is scaled as its rows
        are on average."""
        wall = self.wall_s * sum(self.row_seconds(scaled)) / sum(self.row_s)
        return sum(r.n_trials for r in self.rows) / wall


def time_to_se_s(passes: list[Pass], scaled: bool) -> float:
    """Seconds to bring every row's standard error down to TARGET_STDERR.

    The sum over rows of the row's median seconds times its squared stderr
    over TARGET_STDERR squared. The squared stderr is the mean over the
    distinct master seeds of the passes, so that the seed moves it less;
    passes of one seed have identical rows.
    """
    rows_by_seed = {p.rows[0].seed: p.rows for p in passes}
    row_var = [statistics.fmean(r.stderr ** 2 for r in same_row)
               for same_row in zip(*rows_by_seed.values())]
    row_s = [statistics.median(same_row)
             for same_row in zip(*(p.row_seconds(scaled) for p in passes))]
    return sum(s * v for s, v in zip(row_s, row_var)) / TARGET_STDERR ** 2


class RowTimer:
    """Times every call into jamsim.sweep.average_rate, one per output row,
    and takes a host slice before each call and one after the last."""

    def __init__(self):
        self.row_s = []
        self.slice_s = []
        self.slicing_s = 0.0    # wall time the slices took

    def take_slice(self):
        t0 = perf_counter()
        self.slice_s.append(host_slice())
        self.slicing_s += perf_counter() - t0

    def __enter__(self):
        import jamsim.sweep

        original = self.original = jamsim.sweep.average_rate

        def timed(*args, **kwargs):
            self.take_slice()
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.row_s.append(perf_counter() - t0)

        jamsim.sweep.average_rate = timed
        return self

    def __exit__(self, *exc):
        import jamsim.sweep

        jamsim.sweep.average_rate = self.original


def run_pass(cli, argv: list[str], tracer=None) -> Pass:
    """One preset run through the CLI, then its CSV read back.

    An untraced pass times its rows and takes host slices (RowTimer); a
    traced pass leaves both to the tracer.
    """
    from oracle import Row

    out_csv = Path(argv[argv.index("--out") + 1])
    out_csv.unlink(missing_ok=True)
    timer = RowTimer()
    stderr = io.StringIO()
    with (timer if tracer is None else contextlib.nullcontext()), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        t0 = perf_counter()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                code = cli.main(argv)
        except Exception as err:  # a crashing workload fails all its rows
            return Pass(perf_counter() - t0, [], timer.row_s, f"{type(err).__name__}: {err}")
        # the slices ran inside the timed call, but they are not the program's time
        wall = perf_counter() - t0 - timer.slicing_s
    if code != 0:
        return Pass(wall, [], timer.row_s, f"exit code {code}: {stderr.getvalue().strip()}")
    if tracer is None:
        timer.take_slice()
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = [Row.from_csv(record) for record in csv.DictReader(fh)]
    return Pass(wall, rows, timer.row_s, slice_s=timer.slice_s)


class Verdict:
    """Rows attempted and failed over a run, with the reasons."""

    def __init__(self, make_checker):
        self.make_checker = make_checker    # master seed -> oracle.RowChecker
        self.checkers = {}
        self.references = {}                # master seed -> rows of its first pass
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, p: Pass, seed: int):
        if seed not in self.checkers:
            self.checkers[seed] = self.make_checker(seed)
        checker = self.checkers[seed]
        n_rows = checker.n_rows
        self.attempted += n_rows
        if p.error is not None:
            reasons = [p.error]
            bad = n_rows
        else:
            reasons = checker.check(p.rows)
            if p.rows != self.references.setdefault(seed, p.rows):
                reasons.append(f"rows differ from the first pass of seed {seed} in this run")
            bad = min(len(reasons), n_rows)
        self.failed += bad
        self.reasons += reasons

    def add_reason(self, reason: str):
        self.failed += 1
        self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def run_repeated(unit, seconds: float, min_units: int) -> list:
    """Call unit() until the next call would end after `seconds` (at least min_units)."""
    results = []
    t0 = perf_counter()
    while True:
        result = unit()
        results.append(result)
        if any(p.error is not None for p in result):
            return results
        elapsed = perf_counter() - t0
        if len(results) >= min_units and elapsed * (1 + 1 / len(results)) > seconds:
            return results


def setup_samples(argv: list[str], n: int) -> list[tuple[float, float]]:
    """(set-up seconds, host slice seconds) of n cold set-ups, each in a
    fresh interpreter."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe_setup.py"), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        setup_s, slice_s = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup_s), float(slice_s)))
    return samples


def peak_rss_mib() -> float:
    """Largest resident set of this process and of any child it waited for."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (all but trace.overhead_frac)."""
    spans = tracer.self_times()
    out = {}
    for name, unit in PER_LAYER.items():
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "wall_s"):
            calls, total, own = spans.get(base, (0, 0.0, 0.0))
            out[name] = {"calls": calls, "self_s": own, "wall_s": total}[kind]
    out["channel.crandn.entries"] = tracer.crandn_entries
    out["protocols.select_retransmission_pilot.cmacs"] = tracer.search_cmacs
    for scheme in TRIAL_SCHEMES:
        p50, p99 = tracer.trial_percentiles_us(scheme)
        out[f"montecarlo.trial_us.{scheme}.p50"] = p50
        out[f"montecarlo.trial_us.{scheme}.p99"] = p99
    out["montecarlo.pool_starts"] = tracer.pool_starts
    out.update(tracer.protocol_stats())
    return out


def run_metadata(workload_name: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
    return {
        "workload": workload_name,
        "seed": seed,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": commit,
    }


def pass_seeds(seed: int) -> list[int]:
    """The master seeds the untraced passes of a run take in turn."""
    return [seed * PASS_SEEDS + k for k in range(PASS_SEEDS)]


def measure_end_to_end(cli, workload, seed, seconds, verdict) -> dict:
    """Untraced passes, with cold set-ups timed between them.

    The passes take the master seeds of pass_seeds() in turn, so that
    time_to_se_s pools their variance estimates. The set-ups are spread over
    the whole run, so that their median sees the same host conditions as the
    passes.
    """
    out_csv = OUT_DIR / f"pass-{os.getpid()}.csv"
    seeds = pass_seeds(seed)
    setups = []
    passes = []

    def unit():
        pass_seed = seeds[len(passes) % len(seeds)]
        argv = preset_argv(workload, pass_seed, out_csv)
        setups.extend(setup_samples(argv, SETUP_PER_PASS))
        p = run_pass(cli, argv)
        verdict.add(p, pass_seed)
        passes.append(p)
        return (p,)

    run_repeated(unit, seconds, MIN_PASSES)
    good = [p for p in passes if p.error is None]
    if not good:
        return {}
    setups += setup_samples(preset_argv(workload, seed, out_csv), MIN_SETUPS - len(setups))
    slices = [s for p in good for s in p.slice_s]
    # unscaled figures, for reference; they are not metrics
    print(f"raw_trials_per_s {statistics.median(p.trials_per_s(False) for p in good)!r} 1/s")
    print(f"raw_setup_s {statistics.median(s for s, _ in setups)!r} s")
    print(f"host_speed {REF_SLICE_S / statistics.median(slices)!r} (reference = 1)")
    return {
        "trials_per_s": statistics.median(p.trials_per_s(workload.scaled) for p in good),
        "time_to_se_s": time_to_se_s(good, workload.scaled),
        "setup_s": statistics.median(s * REF_SLICE_S / h for s, h in setups),
        "peak_rss_mib": peak_rss_mib(),
    }


def measure_layers(cli, workload, seed, seconds, verdict, spans_path) -> dict:
    argv = preset_argv(workload, seed, OUT_DIR / f"pass-{os.getpid()}.csv")
    tracers = []

    def run_pair():
        plain = run_pass(cli, argv)
        tracer = Tracer()
        traced = run_pass(cli, argv, tracer)
        tracers.append(tracer)
        return plain, traced

    pairs = run_repeated(run_pair, seconds, MIN_PAIRS)
    for plain, traced in pairs:
        verdict.add(plain, seed)
        verdict.add(traced, seed)
    if any(p.error is not None for pair in pairs for p in pair):
        return {}
    per_pass = [layer_metrics(t) for t in tracers]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            continue
        values = [m[name] for m in per_pass]
        if unit in _TIMED_UNITS:
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                verdict.add_reason(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
    out["trace.overhead_frac"] = (statistics.median(t.wall_s for _, t in pairs)
                                  / statistics.median(p.wall_s for p, _ in pairs) - 1.0)
    tracers[-1].write_spans(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seed < 0:
        parser.error("--seed must be nonnegative")

    cli = load_jamsim()
    from oracle import RowChecker

    workload = WORKLOADS[ns.workload]
    OUT_DIR.mkdir(exist_ok=True)
    meta = run_metadata(ns.workload, ns.seed)
    print("meta " + json.dumps(meta), flush=True)
    verdict = Verdict(lambda seed: RowChecker(workload.preset, workload.trials, seed))

    # warm-up: load lazily imported numpy parts and fill the codebook cache
    tiny = dataclasses.replace(workload, trials=2, threads=1)
    warm = run_pass(cli, preset_argv(tiny, ns.seed, OUT_DIR / f"warm-{os.getpid()}.csv"))
    if warm.error is not None:
        verdict.add(warm, ns.seed)
        metrics = {}
    elif ns.trace:
        spans_path = OUT_DIR / f"spans-{ns.workload}-seed{ns.seed}.csv"
        metrics = measure_layers(cli, workload, ns.seed, ns.seconds, verdict, spans_path)
    else:
        metrics = measure_end_to_end(cli, workload, ns.seed, ns.seconds, verdict)
    for path in OUT_DIR.glob(f"*-{os.getpid()}.csv"):
        path.unlink()

    units = PER_LAYER if ns.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_frac {verdict.failed_frac!r} ratio ({verdict.failed} of "
          f"{verdict.attempted} rows)")
    for reason in verdict.reasons[:20]:
        print(f"check failed: {reason}")
    result = {
        "correct": verdict.failed == 0 and set(metrics) == set(units),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    report = OUT_DIR / f"result-{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    report.write_text(json.dumps({"meta": meta, "result": result,
                                  "reasons": verdict.reasons}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
