"""
Output p-norms and minimal output entropy
=========================================

The fixed-point power iteration behind estimate_nu_p, and the Renyi /
von Neumann output entropies built on top of it.
"""

import math

import numpy as np

from cptwb import channels as chan
from cptwb import entropy
from cptwb import optimize as opt
from cptwb import zoo

cfg = opt.OptimizerConfig(restarts=16, max_iters=400, seed=0)

# nu_p is the largest output Schatten p-norm over pure inputs (p > 1).
# For the antisymmetric d = 3 channel every pure state is optimal and
# nu_p = 2^{(1-p)/p} exactly -- a sharp correctness probe.
phi = zoo.werner_holevo(3)
for p in (2.0, 3.0, 5.0):
    rep = opt.estimate_nu_p(phi, p, cfg)
    exact = 2.0 ** ((1 - p) / p)
    print(f"nu_{p:g} = {rep.best_value:.12f}   exact {exact:.12f}   "
          f"converged={all(rep.converged)}")

# Each restart's iterate sequence is monotone by construction; the report
# counts any numerical violations (there should be none).
print("monotonicity violations:", rep.monotonicity_violations)

# The minimal output entropy of the transpose-shift channel is attained
# on coherent pairs like (1, i, 0)/sqrt(2), giving log 3 - (2/3) log 2.
# At p = 1 the same search climbs Tr Gamma log Gamma = -S directly.
fss = zoo.fss_psi()
rep1 = entropy.estimate_smin_p(fss, 1.0, cfg)
want = math.log(3) - (2.0 / 3.0) * math.log(2)
print(f"S_min = {rep1.value:.12f}   closed form {want:.12f}")
print("argmin:", np.round(rep1.argmin, 6))

# At p = 0 the search minimizes output *rank*.
rep0 = entropy.estimate_smin_p(fss, 0.0, cfg)
print(f"S_0 = {rep0.value:.12f} = log", round(math.exp(rep0.value)))

# Renyi orders interpolate; the von Neumann entropy is the p -> 1 limit.
out = chan.apply(fss, np.outer(rep1.argmin, rep1.argmin.conj()))
for p in (0.5, 0.999, 1.0, 1.001, 2.0):
    print(f"  S_{p:<5g} of the optimal output = {entropy.renyi(out, p):.9f}")

# Coherent information of the noiseless channel on the uniform state is
# log d; fully depolarizing flips the sign.
uniform = np.eye(3) / 3
print("I_c(identity) =", f"{entropy.coherent_information(zoo.identity_channel(3), uniform):.6f}")
print("I_c(depolarizing) =", f"{entropy.coherent_information(zoo.depolarizing(3), uniform):.6f}")
