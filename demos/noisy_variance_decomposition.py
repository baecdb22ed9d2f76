"""Two-group decomposition of the noisy kernel variance.

A noisy kernel's off-diagonal variance splits exactly into a between-group
term (same-coset mean vs cross-coset mean) plus the within-group variances,
weighted by the group fractions. This script measures the deviations of a
simulated noisy kernel, gamma = 1 - kappa on its same-coset entries and
delta = kappa - alpha on its cross-coset ones, feeds their means and
variances to `theory.two_group_moments`, and checks the reconstruction
against the directly computed variance.

Run: python3 demos/noisy_variance_decomposition.py
"""

import numpy as np

from cosetkernel import experiment, kernel, theory

N_QUBITS, M = 5, 2
EPSILON = 0.3

for variant in ("fiducial", "selection"):
    rngs = experiment.trial_rngs(2, N_QUBITS, M, [0])
    reps, ((kmat,),), counts, labels = experiment.kernel_tables(
        N_QUBITS, M, rngs, "full", (variant,), EPSILON)
    alpha = kernel.alpha_matrix(reps[0])[0, 1]
    # the two groups, diagonal excluded
    same = ~np.eye(len(kmat), dtype=bool) & (labels[:, None] == labels)
    gammas = 1 - kmat[same]
    deltas = kmat[labels[:, None] != labels] - alpha
    gamma, delta = (gammas.mean(), gammas.var()), (deltas.mean(), deltas.var())
    direct = kernel.trial_stats(kmat, counts, labels)[0]
    _, rebuilt = theory.two_group_moments(M, N_QUBITS, alpha, gamma, delta)
    print(f"{variant}:")
    print(f"  alpha              {alpha:.6f}")
    print(f"  mean gamma (same)  {gamma[0]:.6f}  var {gamma[1]:.2e}")
    print(f"  mean delta (cross) {delta[0]:+.6f}  var {delta[1]:.2e}")
    print(f"  variance direct    {direct:.8f}")
    print(f"  variance rebuilt   {rebuilt:.8f}  (|diff| {abs(direct - rebuilt):.2e})")
