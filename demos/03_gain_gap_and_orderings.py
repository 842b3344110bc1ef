"""The 2 dB compensation gain, the consecutive-mode gap, and SNR orderings.

Phase compensation multiplies the average SNR of every mode by
1 + pi^2/16 (about 2.09 dB).  The mean-SNR ratio between consecutive modes
equals the ratio of eigenvalue means, 3.5/0.5 = 7 (about 8.45 dB); the
value 10 log10(6) ~ 7.78 dB is sometimes quoted for this gap and is shown
for comparison only.
"""

from ris2x2 import (
    MODES,
    Mode,
    channel_statistics,
    consecutive_mode_gap_db,
    mean_mode_snr,
    scheme_snr_factor,
    snr_gain_db,
    snr_gain_linear,
)

stats = channel_statistics(seed=123, trials=500_000, workers=4)

print(f"analytic compensation gain: {snr_gain_linear():.6f} = {snr_gain_db():.4f} dB")
zc = stats.z_comp[:, 0].mean()
zp = stats.z_plain[:, 0].mean()
print(f"Monte Carlo gain          : {zc / zp:.6f}")

derived_db, quoted_db = consecutive_mode_gap_db()
g11 = scheme_snr_factor(stats, Mode(1, 1, False))
g21 = scheme_snr_factor(stats, Mode(2, 1, False))
print(f"\nconsecutive-mode gap      : derived {derived_db:.4f} dB (ratio 7), "
      f"quoted reference {quoted_db:.4f} dB")
print(f"Monte Carlo mean ratio    : {g11.mean() / g21.mean():.4f}")

print("\nmean SNR per mode at gamma_bar = 1 (analytic | Monte Carlo):")
for mode in MODES:
    sample = scheme_snr_factor(stats, mode).mean()
    print(f"  {mode.label:10s} {mean_mode_snr(mode, 1.0):8.4f} | {sample:8.4f}")
