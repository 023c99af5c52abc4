"""Time one cold set-up of a preset run, in a fresh interpreter.

Set-up is what happens before the first trial: importing jamsim (and with
it numpy), parsing the preset command line and building the preset's
sweep specs. Prints the elapsed seconds, and then the seconds of a host
slice taken right after (see hostspeed.py), by which run.py scales them.

    python3 bench/probe_setup.py <preset argument> ...

The arguments are those run.py passes to ``jamsim.cli.main``.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import jamsim.cli  # noqa: E402
from jamsim.sweep import preset_specs  # noqa: E402

ns = jamsim.cli.build_parser().parse_args(sys.argv[1:])
preset_specs(ns.name, n_trials=ns.trials, master_seed=ns.seed, n_workers=ns.threads or 1)
setup_s = time.perf_counter() - t0

from hostspeed import host_slice  # noqa: E402

for _ in range(2):      # warm-up: the first slices in a fresh interpreter are cold
    host_slice()
print(repr(setup_s), repr(statistics.median(host_slice() for _ in range(5))))
