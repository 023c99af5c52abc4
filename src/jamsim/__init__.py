"""Link-level Monte Carlo simulator for a single-user massive MIMO uplink
under a jamming attack, with blind jammer-statistics estimation and two
pilot retransmission counter-attack protocols."""

from .channel import (JammerSpec, PilotCodebook, crandn, draw_jammer_sequence,
                      gen_channel, jamming_overlap_sq, make_codebook)
from .config import SystemConfig, snr_db_to_power
from .estimation import (despread, estimate_jammer_gram, estimate_overlap_sq,
                         mmse_coefficients, mmse_estimate, receive_pilot_block,
                         run_training)
from .montecarlo import (MomentReport, RateSummary, TrialData, TrialResult,
                         average_rate, run_trials, simulate_one_trial, summarize,
                         verify_moments)
from .protocols import (ProtocolTrace, RoundRecord, gram_quad_form,
                        run_algorithm1, run_algorithm2, select_retransmission_pilot)
from .rates import (RateReport, asymptotic_rate_limit, contamination_term,
                    effective_sinr, rate, rate_from_overlap, rate_random_jamming)
from .rng import substream
from .sweep import (SweepRow, SweepSpec, derive_config, preset_specs,
                    run_preset, run_sweep, write_csv)

__version__ = "0.1.0"
