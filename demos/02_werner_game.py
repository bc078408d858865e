"""Playing the singlet-witness game against Werner states.

Two parties receive tetrahedron input states, jointly project each input
with their half of a shared state onto a maximally entangled state, and
report success (1) or failure (0).  The game value

    I = sum_{s,t} beta[s,t] * P(1,1 | tau_s, omega_t)

equals tr[W rho] / 4 for this honest strategy, so the Werner family
v |psi-><psi-| + (1-v) 1/4 yields the closed line I(v) = (1 - 3v)/16,
crossing zero exactly at the entanglement threshold v = 1/3.
"""

import numpy as np

from mdiw import (
    bell_strategy,
    fast_entangled_table,
    mdi_value,
    simulate_entangled,
    table_to_csv,
    tetrahedron_beta,
    violation_scan,
    werner_state,
    zero_crossing,
)

dec = tetrahedron_beta()

print("Correlation table for the pure singlet (v = 1):")
table = fast_entangled_table(werner_state(1.0), dec.ensembles)
print(table_to_csv(table))

print("Matching inputs never both succeed; mismatched inputs succeed with p = 1/12.")
print(f"Game value: I = {mdi_value(dec, table):+.6f}  (closed form: -1/8)\n")

print("The full tensor simulation agrees with the fast contraction:")
full = simulate_entangled(bell_strategy(werner_state(1.0)), dec.ensembles)
worst = np.abs(full.p_all_ones - table.p_all_ones).max()
print(f"  max |difference| over all 16 input pairs = {worst:.2e}\n")

print("Sweeping the Werner family:")
grid = np.linspace(0.0, 1.0, 11)
curve = violation_scan("werner", dec, grid)
print(f"{'v':>6} {'I':>12} {'(1-3v)/16':>12}")
for v, value in curve:
    print(f"{v:6.2f} {value:12.6f} {(1 - 3 * v) / 16:12.6f}")

crossing = zero_crossing(curve)
print(f"\nSign change at v = {crossing:.12f} (exact threshold 1/3 = {1 / 3:.12f})")
print("Below the threshold the state is separable and no strategy helps;")
print("above it, the honest projections certify entanglement without any")
print("trust in the measurement hardware.")
