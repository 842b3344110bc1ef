"""Outage probability vs average SNR: analytic curves against Monte Carlo.

Reproduces the outage comparison at a 0 dB threshold for the leading mode
with and without compensation, the weakest plain mode and the jointly
optimized benchmark.  The analytic column is the Mellin-Barnes outage,
one line integral per mode over the whole sweep (the paper's Bessel and
Meijer-G closed forms agree with it to 1e-12 here); the Monte Carlo
column reuses one statistics pass across the whole sweep (the per-trial
SNR scales linearly with the average SNR).  The rows come from
``curve_rows``, the same function that writes the CSV of the equivalent
CLI:
ris2x2 outage --svg --out fig1.csv
"""

from ris2x2 import channel_statistics
from ris2x2.acceptance import curve_rows

stats = channel_statistics(seed=42, trials=200_000)
threshold = 1.0  # 0 dB
names = ("j1i1", "j1i1-cmp", "j2i2", "alt")
rows = curve_rows(stats, names, range(-5, 26), threshold, "outage")

print(f"{'snr_db':>6}  {'scheme':10} {'analytic':>12} {'monte carlo':>12} {'3*ci':>10}")
for snr_db, name, ana, mc, ci in rows:
    if snr_db % 5 == 0:
        ana_text = "-" if ana is None else f"{ana:.6f}"
        print(f"{snr_db:6d}  {name:10} {ana_text:>12} {mc:12.6f} {3 * ci:10.6f}")

print("\npointwise orderings across the sweep (shared draws, exact):")
mc = {(snr_db, name): value for snr_db, name, _ana, value, _ci in rows}
ok = all(
    mc[snr_db, "alt"] <= mc[snr_db, "j1i1-cmp"] <= mc[snr_db, "j1i1"]
    for snr_db in range(-5, 26)
)
print("P_alt <= P_cmp(1,1) <= P_plain(1,1) at every grid point:", ok)
