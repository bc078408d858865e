"""Stress-testing the separable bound with see-saw adversaries.

No strategy built from unentangled shared states can push the game value
below zero, whatever the measurement devices do.  The search below tries
anyway: random mixtures, random share states, random measurements, each
term reduced to one effective operator per party (or per entangled pair),
then see-saw refinement, where each step sets one of those operators to
the projector onto the negative eigenspace of its gradient with the rest
held fixed.  On a
genuine witness it stops at the bound; on a non-witness operator the same
optimizer digs far below zero, showing the failure to violate is not
optimizer weakness.
"""

import numpy as np

from mdiw import AttackConfig, attack, biseparable_attack, ghz_beta, tetrahedron_beta
from mdiw.verify import negated_projector_decomposition
from mdiw.witness import reconstruct

cfg = AttackConfig(restarts=40, iterations=400, mixture_size=4, share_dim=2, seed=2024)

print("--- separable attack on the singlet-witness game ---")
dec = tetrahedron_beta()
report = attack(dec, dec.ensembles, cfg)
print(f"evaluated {report.evaluations} strategies in {report.wall_time:.2f}s")
print(f"five best restart minima: {sorted(report.restart_minima)[:5]}")
print(f"global minimum: {report.min_value:.3e}  (bound: >= 0)")

print("\n--- biseparable attack on the GHZ game ---")
decg = ghz_beta()
cfgb = AttackConfig(restarts=25, iterations=400, mixture_size=4, share_dim=2, seed=2024)
reportb = biseparable_attack(decg, decg.ensembles, cfgb)
print(f"evaluated {reportb.evaluations} strategies in {reportb.wall_time:.2f}s")
print(f"global minimum: {reportb.min_value:.3e}  (bound: >= 0)")

print("\n--- negative control: the same optimizer on a non-witness ---")
bad = negated_projector_decomposition()
top = np.linalg.eigvalsh(reconstruct(bad))[-1]
class_min = float(np.sum(bad.beta))
print(f"R = -|psi-><psi-| has top eigenvalue {top:.1e} (0 up to rounding), so no strategy")
print(f"goes below tr[R] = sum of coefficients = {class_min:.4f}, which always-click reaches")
report_bad = attack(bad, bad.ensembles, cfg)
print(f"optimizer minimum: {report_bad.min_value:.4f}")
print("The optimizer reaches the exact minimum of the separable class: it has")
print("ample power to find violations when violations exist.")

assert report.min_value >= -1e-9 and reportb.min_value >= -1e-9
assert class_min - 1e-9 <= report_bad.min_value <= 0.99 * class_min
print("\nBound respected on witnesses, demolished on the non-witness.")
