"""Haar angle densities and the two alignment-factor laws.

The factor z = |v^H Phi w|^2 of the mode SNR is uniform on [0, 1] for any
fixed surface configuration, and follows
F(z) = z - sqrt(z(1-z)) asin(sqrt z) once the tile phases track the
channel.  Both laws are checked here against a million Haar pairs, along
with the angle-difference density behind the compensated law.
"""

import numpy as np

from ris2x2 import (
    EmpiricalCdf,
    RngState,
    alignment_factors,
    angle_diff_cdf,
    angle_diff_pdf,
    haar_angles,
    haar_unitaries,
    z_factor_cdf,
)

state = RngState(seed=77, stream=0)
n = 1_000_000

# matched z factors of the first columns of two independent Haar draws
v = haar_unitaries(state.child(1), n)[:, :, :1]
w = haar_unitaries(state.child(2), n)[:, :, :1]
z_plain, z_comp = (z[:, 0, 0] for z in alignment_factors(v, w))

print(f"E[z] fixed surface   : {z_plain.mean():.6f}   (law: 0.5)")
print(f"E[z] compensated     : {z_comp.mean():.6f}   (law: {0.5 * (1 + np.pi**2 / 16):.6f})")
ks_p = EmpiricalCdf(z_plain).ks_distance(lambda z: z_factor_cdf(z, compensated=False))
ks_c = EmpiricalCdf(z_comp).ks_distance(lambda z: z_factor_cdf(z, compensated=True))
print(f"KS uniform law       : {ks_p:.5f}")
print(f"KS compensated law   : {ks_c:.5f}")

print("\nmixing-angle difference density (two independent Haar draws):")
a = haar_angles(state.child(3), n).theta12
b = haar_angles(state.child(4), n).theta12
ks_d = EmpiricalCdf(a - b).ks_distance(angle_diff_cdf)
print(f"KS empirical vs analytic CDF: {ks_d:.5f}")
for x in (0.0, 0.5, 1.0, 1.5):
    print(f"  pdf({x:3.1f}) = {angle_diff_pdf(x):.6f}")
