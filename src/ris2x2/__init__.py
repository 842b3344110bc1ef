"""Two-tile reconfigurable surface assisted 2x2 link over Rayleigh fading.

A numpy library (plus a small CLI) for the complete performance
characterization of singular-vector transmission modes with and without
per-tile phase compensation: exact alignment-factor and eigenvalue laws,
the paper's closed-form outage, Mellin-Barnes outage and throughput of
every mode and the closed forms of the weakest mode, each with an
independent quadrature oracle, the closed-form joint optimum over
transmit/combine vectors and tile phases as a benchmark, and a
reproducible Monte Carlo harness.

Sampling, the system model and the joint optimum have one code path each:
every function takes one realization or a stack of a million (leading
axes), and a tile configuration is always a pair of unit phasors.
"""

from .linalg2 import Svd2, svd2
from .sampling import ChannelRealization, RngState, channel_realizations
from .sysmodel import (
    MODES,
    Mode,
    alignment_factors,
    compensated_phases,
    instantaneous_snr,
    mode_vectors,
    mode_z_factors,
)
from .special import MeijerParams, QuadratureError, meijer_g
from .analytic import (
    consecutive_mode_gap_db,
    diversity_order,
    eigenvalue_cdf,
    eigenvalue_mean,
    eigenvalue_pdf,
    mean_mode_snr,
    mean_z,
    outage,
    outage_closed_form,
    outage_quadrature,
    snr_gain_db,
    snr_gain_linear,
    throughput,
    throughput_closed_r22,
    throughput_closed_r22_cmp,
    throughput_quadrature,
    weighted_bessel_integral,
    z_factor_cdf,
)
from .altopt import optimal_configuration, optimize_batch
from .montecarlo import (
    ALT,
    AltScheme,
    EmpiricalCdf,
    McEstimate,
    OutageCounter,
    TrialStats,
    channel_statistics,
    estimate_outage,
    estimate_throughput,
    gain_ratio,
    mode_gap_ratio,
    outage_from_stats,
    parse_scheme,
    scheme_snr_factor,
    throughput_from_stats,
    wilson_halfwidth,
)

__version__ = "0.1.0"
