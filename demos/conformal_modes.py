"""Per-mode check of the conductivity-to-potential reduction.

A depth-only conformal factor on the cylinder turns the conductivity
boundary map into the potential-form map plus an explicit boundary
correction. For gamma = exp(2t) on the three-dimensional cylinder the
reduced potential is the constant 1/4 and everything has a closed form;
the table compares the two routes mode by mode on the two-torus
cross-section.
"""

import numpy as np

from evosq.dnmap import conformal_identity_check, conductivity_mode_dn, dn_mode_symbol
from evosq.geometry import build_warped_geometry, conformal_potential, make_profile

g = build_warped_geometry(make_profile("flat-cylinder", T=1.0), N=16, M=128, eps=0.3, dim=2)
gamma = lambda t: np.exp(2.0 * t)

pot, corr = conformal_potential(g, gamma, 3)
t_mid = g.ts[g.M // 2]  # the sampled potential answers at grid nodes only
print(f"reduced potential at t={t_mid:.4f} (should be 0.25 everywhere): "
      f"{float(pot.on_slice(g.theta, t_mid).ravel()[0]):.6f}")
print(f"boundary correction (should be -0.5): {float(corr[0]):.6f}")
print()

modes = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (4, 0), (5, 5), (8, 0)]
out = conformal_identity_check(g, gamma, 3, modes)
print(f"{'mode':>8} {'conductivity':>14} {'reduced route':>14} {'rel err':>10}")
for k in modes:
    ksq = float(k[0] ** 2 + k[1] ** 2)
    lam_g = conductivity_mode_dn(g, gamma, 3, ksq)
    lam_q = float(dn_mode_symbol(g, pot, ksq, depths=[0])[0])
    predicted = lam_q - (-0.5)  # sigma(0)=1 for this factor
    print(f"{str(k):>8} {lam_g:>14.8f} {predicted:>14.8f} {out['per_mode'][k]:>10.2e}")
print()
print(f"max relative error over {len(modes)} modes: {out['max_rel_error']:.2e}")
