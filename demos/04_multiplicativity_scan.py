"""
Hunting a multiplicativity violation
====================================

Whether nu_p(A (x) B) = nu_p(A) nu_p(B) can fail is order-dependent: the
antisymmetric d = 3 channel paired with itself is multiplicative for
small p but not for large p.  This demo reproduces the violation at p = 5
and locates the onset threshold: a coarse grid brackets it, and the root of
the violating state's gap curve, confirmed by one check on each side, places
it (bisection is the fallback when the confirmations disagree).
"""

import math

from cptwb import optimize as opt
from cptwb import zoo

cfg = opt.OptimizerConfig(restarts=12, max_iters=500, seed=0, tensor_restarts=24)
w3 = zoo.werner_holevo(3)

# At p = 5 the maximally entangled input beats every product input:
# Tr[(W (x) W)(beta)]^5 = 43/10368 while product inputs cap at 4^{-4}.
rep = opt.mult_check(w3, w3, 5.0, cfg)
print("p = 5")
print("  nu_5(W) * nu_5(W)      =", f"{rep.product_of_singles:.12f}")
print("  nu_5(W (x) W) lower bd =", f"{rep.nu_product_lb:.12f}")
print("  violated:", rep.violated, "  log-gap:", f"{rep.gap:.6f}")
print("  entangled trace power  =", f"{rep.nu_product_lb ** 5:.12e}",
      " (43/10368 =", f"{43 / 10368:.12e})")

# At p = 2 the same pair is multiplicative to solver precision.
rep2 = opt.mult_check(w3, w3, 2.0, cfg)
print("p = 2")
print("  violated:", rep2.violated, "  log-gap:", f"{rep2.gap:.2e}")

# Scan a coarse grid and narrow the first onset down to 0.01.
scan = opt.mult_scan(w3, w3, (4.0, 4.5, 5.0), cfg, resolution=0.01)
print("scan rows (threshold placed by", scan.placed_by + "):")
for row in scan.rows:
    print(f"  p = {row.p:.4f}   violated: {row.violated}   gap: {row.gap:+.3e}")
print("threshold p* ~", f"{scan.threshold:.4f}",
      " bracket:", tuple(round(x, 4) for x in scan.bracket))
assert math.isclose(scan.threshold, 4.79, abs_tol=0.03)
