"""A three-party game certifying genuine tripartite entanglement.

The witness 1/2 - |GHZ><GHZ| is nonnegative on every biseparable state
(mixtures that factorize across some bipartition AB|C, AC|B or BC|A).
Expanding it over three tetrahedron ensembles turns it into a game whose
value stays nonnegative for all biseparable strategies and reaches
(3 - 7v)/64 for noisy GHZ states, crossing zero at v = 3/7.
"""

import numpy as np

from mdiw import ghz_beta, ghz_witness, mdi_value, noisy_ghz, fast_entangled_table, \
    violation_scan, witness_value, zero_crossing
from mdiw.witness import ghz_coefficient, reconstruct

dec = ghz_beta()
print("GHZ-witness coefficient tensor over tetrahedron^3:")
values = sorted({round(ghz_coefficient(s, t, u), 10) for s in range(4)
                 for t in range(4) for u in range(4)})
print(f"  distinct values: {values}")
print(f"  (that is +/- 3(sqrt(3)-1)/32 and +/- 3(sqrt(3)+1)/32)")
print(f"  reconstruction residual: {dec.residual:.2e}")
assert np.allclose(reconstruct(dec), ghz_witness().matrix, atol=1e-10)

print("\nWitness values along the noisy GHZ family (direct traces):")
for v in (0.0, 3 / 7, 0.6, 1.0):
    print(f"  v = {v:.4f}: tr[W rho] = {witness_value(ghz_witness(), noisy_ghz(v)):+.6f}")

print("\nGame values with honest maximally-entangled projections (= tr[W rho]/8):")
grid = np.linspace(0.0, 1.0, 8)
curve = violation_scan("noisy_ghz", dec, grid)
for v, value in curve:
    print(f"  v = {v:.4f}: I = {value:+.8f}   (3-7v)/64 = {(3 - 7 * v) / 64:+.8f}")

crossing = zero_crossing(curve)
print(f"\nSign change at v = {crossing:.12f}; genuine tripartite entanglement")
print(f"begins at 3/7 = {3 / 7:.12f}.")

print("\nSingle-point check at v = 1:")
table = fast_entangled_table(noisy_ghz(1.0), dec.ensembles)
print(f"  I = {mdi_value(dec, table):+.6f} (closed form -1/16 = {-1 / 16:+.6f})")
