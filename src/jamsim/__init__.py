"""Link-level Monte Carlo simulator for a single-user massive MIMO uplink
under a jamming attack, with blind jammer-statistics estimation and two
pilot retransmission counter-attack protocols.

The package binds the library API that README lists; every other name,
the tests' brute-force references included, lives in its module.
"""

from .channel import draw_overlap_amplitude, gen_channel_factor
from .config import JammerSpec, SystemConfig, snr_db_to_power
from .montecarlo import average_rate, run_trials, simulate_one_trial
from .oracle import verify_moments
from .protocols import run_algorithm1, run_algorithm2
from .rng import substream
from .sweep import SweepSpec, run_preset, run_sweep, write_csv

__version__ = "0.1.0"
