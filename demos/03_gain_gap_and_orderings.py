"""The 2 dB compensation gain, the consecutive-mode gap, and SNR orderings.

Phase compensation multiplies the average SNR of every mode by
1 + pi^2/16 (about 2.09 dB).  The mean-SNR ratio between consecutive modes
equals the ratio of eigenvalue means, 3.5/0.5 = 7 (about 8.45 dB); the
value 10 log10(6) ~ 7.78 dB is sometimes quoted for this gap and is shown
for comparison only.
"""

from ris2x2 import (
    MODES,
    channel_statistics,
    consecutive_mode_gap_db,
    gain_ratio,
    mean_mode_snr,
    mode_gap_ratio,
    scheme_snr_factor,
    snr_gain_db,
    snr_gain_linear,
)

stats = channel_statistics(seed=123, trials=500_000)

print(f"analytic compensation gain: {snr_gain_linear():.6f} = {snr_gain_db():.4f} dB")
gain = gain_ratio(stats)
print(f"Monte Carlo gain          : {gain.value:.6f} +- {gain.ci_half_width:.6f}")

derived_db, quoted_db = consecutive_mode_gap_db()
print(f"\nconsecutive-mode gap      : derived {derived_db:.4f} dB (ratio 7), "
      f"quoted reference {quoted_db:.4f} dB")
print(f"Monte Carlo mean ratio    : {mode_gap_ratio(stats):.4f} (j1i1 over j2i1)")

print("\nmean SNR per mode at gamma_bar = 1 (analytic | Monte Carlo):")
for mode in MODES:
    sample = scheme_snr_factor(stats, mode).mean()
    print(f"  {mode.label:10s} {mean_mode_snr(mode, 1.0):8.4f} | {sample:8.4f}")
