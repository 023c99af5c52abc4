"""Link-level Monte Carlo simulator for a single-user massive MIMO uplink
under a jamming attack, with blind jammer-statistics estimation and two
pilot retransmission counter-attack protocols."""

from .channel import (JammerSpec, crandn, draw_jammer_sequence, draw_overlap_amplitude,
                      gen_channel, gen_channel_factor, jamming_overlap_sq, make_codebook,
                      overlap_amplitude)
from .config import SystemConfig, snr_db_to_power
from .estimation import (despread, estimate_jammer_gram, estimate_overlap_sq,
                         mmse_coefficients, mmse_estimate, receive_pilot_block,
                         run_training)
from .montecarlo import (MomentReport, RateSummary, average_rate, run_trials,
                         simulate_one_trial, verify_moments)
from .protocols import (ProtocolTrace, RoundRecord, run_algorithm1, run_algorithm2,
                        select_retransmission_pilot)
from .rates import (RateReport, effective_sinr, rate, rate_from_overlap,
                    rate_random_jamming)
from .rng import substream
from .sweep import (SweepRow, SweepSpec, derive_config, preset_specs,
                    run_preset, run_sweep, write_csv)

__version__ = "0.1.0"
