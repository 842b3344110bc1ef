"""The two alignment-factor laws on the statistics pass.

The factor z = |v^H Phi w|^2 of the mode SNR is uniform on [0, 1] for any
fixed surface configuration, and follows
F(z) = z - sqrt(z(1-z)) asin(sqrt z) once the tile phases track the
channel.  Both laws are checked here, as verify's criterion C2 checks
them, on the matched columns of a million-trial pass.
"""

import numpy as np

from ris2x2 import EmpiricalCdf, channel_statistics, z_factor_cdf

stats = channel_statistics(seed=77, trials=1_000_000)
z_plain, z_comp = stats.z_plain[:, 0], stats.z_comp[:, 0]

print(f"E[z] fixed surface   : {z_plain.mean():.6f}   (law: 0.5)")
print(f"E[z] compensated     : {z_comp.mean():.6f}   (law: {0.5 * (1 + np.pi**2 / 16):.6f})")
ks_p = EmpiricalCdf(z_plain).ks_distance(lambda z: z_factor_cdf(z, compensated=False))
ks_c = EmpiricalCdf(z_comp).ks_distance(lambda z: z_factor_cdf(z, compensated=True))
print(f"KS uniform law       : {ks_p:.5f}")
print(f"KS compensated law   : {ks_c:.5f}")

print("\n   z    fixed: MC / law     compensated: MC / law")
plain, comp = EmpiricalCdf(z_plain), EmpiricalCdf(z_comp)
for z in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9):
    print(
        f"{z:5.2f}   {plain(z):.5f} / {z_factor_cdf(z, False):.5f}"
        f"   {comp(z):.5f} / {z_factor_cdf(z, True):.5f}"
    )
