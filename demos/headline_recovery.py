"""Recover the boundary-map difference from the diagonal source problem.

The two-sweep collar solve turns the potential difference into a field
whose boundary slope reproduces Lam1(0) - Lam2(0). This runs the flat
cylinder with a constant-vs-zero pair under refinement, then a bump pair
on the annulus, and finishes with the angular shell masses of the
recovered kernel (the off-diagonal signal the whole construction is
after).
"""

import numpy as np

from evosq.dnmap import compute_dn_family
from evosq.geometry import build_warped_geometry, make_profile
from evosq.probes import offdiagonal_flag, shell_decomposition
from evosq.source_bvp import dn_recovery_check

print("flat cylinder, Q1=1, Q2=0, N=32:")
prof = make_profile("flat-cylinder", T=1.0)
for M in (32, 64, 128):
    g = build_warped_geometry(prof, N=32, M=M, eps=0.3)
    f1 = compute_dn_family(g, {"kind": "constant", "value": 1.0})
    f2 = compute_dn_family(g, {"kind": "zero"})
    out = dn_recovery_check(f1, f2)
    print(f"  M={M:>4}  rel error {out['rel_error']:.3e}  sign {out['sign']:+d}")

print()
print("annulus, two bumps:")
q1 = {"kind": "bump", "amplitude": 3.0, "theta0": 1.0, "t0": 0.1, "width": 0.4}
q2 = {"kind": "bump", "amplitude": -2.0, "theta0": 4.0, "t0": 0.15, "width": 0.35}
g = build_warped_geometry(make_profile("annulus", rho=0.25), N=32, M=64, eps=0.3)
out = dn_recovery_check(compute_dn_family(g, q1), compute_dn_family(g, q2))
print(f"  rel error {out['rel_error']:.3e}  sign {out['sign']:+d}")

kernel = out["recovered"]
shells = shell_decomposition(g, kernel)
print()
print("angular shells of the recovered kernel (distance from the diagonal):")
for (lo, hi), mass in zip(shells["edges"], shells["masses"]):
    print(f"  [{lo:.3f}, {hi:.3f})  mass {mass:.3e}")
print(f"  near-diagonal rest      mass {shells['catchall']:.3e}")
print(f"  partition defect {shells['partition_defect']:.1e}")
flag = offdiagonal_flag(g, kernel)
print(f"  off-diagonal flag: {bool(flag['flag'])} (far mass {flag['far_mass']:.3e})")
print()
print("swap q2 for q1 and every stage collapses to exact zero (run the")
print("null-test scenario to see it).")
