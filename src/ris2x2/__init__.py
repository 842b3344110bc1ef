"""Two-tile reconfigurable surface assisted 2x2 link over Rayleigh fading.

A numpy/scipy library (plus a small CLI) for the complete performance
characterization of singular-vector transmission modes with and without
per-tile phase compensation: exact alignment-factor and eigenvalue laws,
closed-form outage and throughput with independent quadrature oracles, the
closed-form joint optimum over transmit/combine vectors and tile phases as
a benchmark, and a reproducible Monte Carlo harness.
"""

from .linalg2 import Svd2, UnitaryAngles, angles_from_unitary, svd2, unitary_from_angles
from .sampling import (
    ChannelRealization,
    RngState,
    angle_diff_cdf,
    angle_diff_pdf,
    angle_sum_pdf,
    channel_realizations,
    gaussian_channels,
    haar_angles,
    haar_unitaries,
    sample_channel_realization,
    sample_gaussian_channel,
    sample_haar_unitary,
)
from .sysmodel import (
    MODES,
    Mode,
    PhaseConfig,
    SnrSample,
    compensated_phases,
    instantaneous_snr,
    mode_snr,
    mode_vectors,
    mode_z_factors,
)
from .special import (
    DEFAULT_QUADRATURE,
    MeijerGError,
    MeijerParams,
    QuadratureError,
    QuadratureSpec,
    bessel_k,
    meijer_g,
    weighted_bessel_integral,
)
from .analytic import (
    consecutive_mode_gap_db,
    eigenvalue_cdf,
    eigenvalue_mean,
    eigenvalue_pdf,
    mean_mode_snr,
    mean_z,
    outage_closed_form,
    outage_quadrature,
    snr_gain_db,
    snr_gain_linear,
    throughput,
    throughput_closed_r22,
    throughput_closed_r22_cmp,
    z_factor_cdf,
)
from .altopt import optimal_configuration, optimize_batch
from .montecarlo import (
    ALT,
    AltScheme,
    EmpiricalCdf,
    McEstimate,
    TrialStats,
    channel_statistics,
    empirical_cdf,
    estimate_outage,
    estimate_throughput,
    outage_from_stats,
    parse_scheme,
    scheme_label,
    scheme_snr_factor,
    throughput_from_stats,
    wilson_halfwidth,
)

__version__ = "0.1.0"
