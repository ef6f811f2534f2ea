"""
Averaging states and splitting block matrices
=============================================

Two constructive decompositions: writing a density matrix as a uniform
average of unit-vector projectors, and splitting a PSD 2x2-block matrix
into two halves of half the rank.  Applied to Choi matrices the second
turns a qubit-output channel into an even mixture of two generalized
extreme channels.
"""

import numpy as np

from cptwb import channels as chan
from cptwb import decompose as dec
from cptwb import linalg as la
from cptwb import zoo
from cptwb._rng import random_density

rng = np.random.default_rng(7)

# --- density matrix as an average of unit vectors --------------------
# With rho = Q diag(w) Q^dagger, the columns of Q diag(sqrt w) F, F the DFT
# matrix, are d unit vectors whose projectors average to rho.
rho = random_density(4, rng)
xs = dec.horn_vectors(rho)
acc = sum(np.outer(x, x.conj()) for x in xs) / len(xs)
print("horn reconstruction within 1e-10:", bool(np.abs(acc - rho).max() < 1e-10))
print("vector norms:", [round(float(np.linalg.norm(x)), 12) for x in xs])
# their Gram matrix is F^dagger diag(w) F: constant diagonal 1, and its
# entries depend only on m - n (mod d), a circulant
gram = np.array([[np.vdot(a, b) for b in xs] for a in xs])
print("frame Gram matrix:")
for row in np.round(gram, 6) + 0.0:  # + 0.0 turns -0.0 into 0.0
    print("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))

# --- two-term split of a PSD block matrix ----------------------------
# Both halves keep A's diagonal blocks exactly and have rank <= d1.
d1 = 3
g = rng.normal(size=(2 * d1, 4)) + 1j * rng.normal(size=(2 * d1, 4))
a = g @ g.conj().T
a /= np.abs(a).max()
split = dec.szarek_split(a, d1=d1)
mid = 0.5 * (split.terms[0] + split.terms[1])
print("split midpoint within 1e-9:", bool(np.abs(mid - a).max() < 1e-9))
print("term ranks:", [la.numerical_rank(t) for t in split.terms], "  bound:", d1)

# verify_ar4 checks the combined form A = (1/2) sum X_m X_m^dagger.
rep = dec.verify_ar4(a, split.factors, rank_bound=d1)
print("combined form ok:", rep.ok,
      " residual within 1e-8:", rep.reconstruction_residual <= 1e-8)

# --- the same split at the Choi level --------------------------------
# For a qubit-output channel the Choi matrix, reordered so the output
# leg is the block grid, meets the split's shape; the halves are again
# channels, each with Choi rank <= d_in (generalized extreme).
phi = zoo.random_channel(3, 2, 5, seed=11)
print("original Choi rank:", chan.choi_rank(phi))
h1, h2 = dec.szarek_split_choi(chan.kraus_to_choi(phi))
for i, h in enumerate((h1, h2), 1):
    half = chan.choi_to_kraus(h)
    print(f"half {i}: Choi rank {chan.choi_rank(h)},",
          "valid CPT:", chan.validate_cpt(half, tol=1e-8).ok)
mix = 0.5 * (h1.matrix + h2.matrix)
print("mixture within 1e-9:",
      bool(np.abs(mix - chan.kraus_to_choi(phi).matrix).max() < 1e-9))
