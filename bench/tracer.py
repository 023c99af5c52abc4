"""Per-layer tracing of the jamsim modules, from outside the package.

A ``Tracer`` replaces the public functions listed in ``TARGETS`` with
wrappers that record one span per call: name, start, end, parent span and
sweep row. The wrappers are installed on every name that binds the
function, so calls made through ``from .channel import crandn`` and the
like are seen. Spans stay in memory until the run ends.

Only the process that installed the tracer records spans. Forked pool
workers inherit the wrappers but pass calls straight through.
"""

import functools
import math
import os
import sys
import weakref
from time import perf_counter

import numpy as np

# (module, function) pairs, in the order the metrics are reported
TARGETS = (
    ("rng", "substream"),
    ("channel", "crandn"),
    ("channel", "gen_channel"),
    ("channel", "draw_jammer_sequence"),
    ("channel", "jamming_overlap_sq"),
    ("estimation", "receive_pilot_block"),
    ("estimation", "despread"),
    ("estimation", "estimate_jammer_gram"),
    ("estimation", "estimate_overlap_sq"),
    ("estimation", "mmse_estimate"),
    ("estimation", "run_training"),
    ("rates", "rate_from_overlap"),
    ("rates", "rate_random_jamming"),
    ("protocols", "select_retransmission_pilot"),
    ("protocols", "run_algorithm1"),
    ("protocols", "run_algorithm2"),
    ("montecarlo", "simulate_one_trial"),
    ("montecarlo", "run_trials"),
    ("sweep", "average_rate"),
    ("sweep", "write_csv"),
)
TRIAL_SCHEMES = ("conventional", "alg1", "alg2")
PACKAGE = "jamsim"


def _deactivate(ref):
    tracer = ref()
    if tracer is not None:
        tracer.active = False


def _jamsim_modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Spans and counters of one traced preset run.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.rows = []
        self._stack = []
        self.row = -1
        self.active = False
        self.pool_starts = 0
        self.crandn_entries = 0
        self.search_cmacs = 0
        self.trial_spans = {scheme: [] for scheme in TRIAL_SCHEMES}
        self.protocol_traces = []   # (algorithm, ProtocolTrace)
        self._patches = []
        os.register_at_fork(after_in_child=functools.partial(_deactivate, weakref.ref(self)))

    # -- installation -----------------------------------------------------

    def __enter__(self):
        import jamsim.cli  # noqa: F401  (loads every module of the package)

        modules = _jamsim_modules()
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        montecarlo = sys.modules[f"{PACKAGE}.montecarlo"]
        executor = montecarlo.ProcessPoolExecutor

        def counting_executor(*args, **kwargs):
            if self.active:
                self.pool_starts += 1
            return executor(*args, **kwargs)

        self._patches.append((montecarlo, "ProcessPoolExecutor", executor))
        montecarlo.ProcessPoolExecutor = counting_executor
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        observe = {
            "channel.crandn": self._observe_crandn,
            "protocols.select_retransmission_pilot": self._observe_search,
            "protocols.run_algorithm1": self._observe_protocol,
            "protocols.run_algorithm2": self._observe_protocol,
            "montecarlo.simulate_one_trial": self._observe_trial,
        }.get(name)
        starts_row = name == "sweep.average_rate"
        names, starts, ends = self.names, self.starts, self.ends
        parents, rows, stack = self.parents, self.rows, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if starts_row:
                self.row += 1
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            rows.append(self.row)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return wrapper

    # -- counters taken at the layer boundaries ---------------------------

    def _observe_crandn(self, idx, args, kwargs, result):
        self.crandn_entries += result.size

    def _observe_search(self, idx, args, kwargs, result):
        # exhaustive search: tau quadratic forms of tau x tau, tau^3 complex MACs
        self.search_cmacs += args[0].shape[0] ** 3

    def _observe_protocol(self, idx, args, kwargs, result):
        algorithm = "alg1" if self.names[idx] == "protocols.run_algorithm1" else "alg2"
        self.protocol_traces.append((algorithm, result))

    def _observe_trial(self, idx, args, kwargs, result):
        scheme = kwargs.get("scheme", args[1] if len(args) > 1 else None)
        self.trial_spans[scheme].append(idx)

    # -- derived numbers --------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total inclusive seconds, total self seconds)."""
        if not self.starts:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        names = np.asarray(self.names)
        for name in np.unique(names):
            mask = names == name
            out[str(name)] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
        return out

    def trial_percentiles_us(self, scheme: str) -> tuple[float, float]:
        """Median and 99th percentile of one scheme's trial duration, in µs."""
        idx = self.trial_spans[scheme]
        if not idx:
            return 0.0, 0.0
        dur = (np.asarray(self.ends)[idx] - np.asarray(self.starts)[idx]) * 1e6
        p50, p99 = np.percentile(dur, [50, 99])
        return float(p50), float(p99)

    def protocol_stats(self) -> dict[str, float]:
        """Retransmission behaviour and blind-estimate quality.

        A retransmission is useful when its true overlap is below that of
        every earlier round of the trial. Bias and RMSE compare the blind
        overlap estimate with the true overlap over every round.
        """
        alg1 = [t for a, t in self.protocol_traces if a == "alg1"]
        alg2 = [t for a, t in self.protocol_traces if a == "alg2"]

        def useful(trace):
            best, count = trace.rounds[0].overlap_true, 0
            for r in trace.rounds[1:]:
                if r.overlap_true < best:
                    count += 1
                best = min(best, r.overlap_true)
            return count

        def frac(num, den):
            return num / den if den else 0.0

        retx1 = sum(t.n_used - 1 for t in alg1)
        retx2 = sum(t.n_used - 1 for t in alg2)
        errors = np.array([r.overlap_est - r.overlap_true
                           for _, t in self.protocol_traces for r in t.rounds])
        return {
            "protocols.alg1.retx_per_trial": frac(retx1, len(alg1)),
            "protocols.alg1.useful_retx_frac": frac(sum(map(useful, alg1)), retx1),
            "protocols.alg2.retx_frac": frac(retx2, len(alg2)),
            "protocols.alg2.useful_retx_frac": frac(sum(map(useful, alg2)), retx2),
            "protocols.alg2.opt_no_better_frac":
                frac(sum(t.stop_reason == "opt_no_better" for t in alg2), len(alg2)),
            "protocols.overlap_est_bias": float(errors.mean()) if errors.size else 0.0,
            "protocols.overlap_est_rmse":
                math.sqrt(float(np.mean(errors ** 2))) if errors.size else 0.0,
        }

    def write_spans(self, path):
        """CSV of every span: name, start and end in seconds, parent, row."""
        t0 = min(self.starts, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,row\n")
            for i, (name, start, end, parent, row) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents, self.rows)):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{row}\n")
