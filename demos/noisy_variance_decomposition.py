"""Two-group decomposition of the noisy kernel variance.

A noisy kernel's off-diagonal variance splits exactly into a between-group
term (same-coset mean vs cross-coset mean) plus the within-group variances,
weighted by the group fractions. This script measures the deviation
statistics from a simulated noisy kernel, feeds them to the closed form, and
checks the reconstruction against the directly computed variance.

Run: python3 demos/noisy_variance_decomposition.py
"""

import numpy as np

from cosetkernel import dataset, experiment, kernel, theory

N_QUBITS, M = 5, 2
EPSILON = 0.3

for variant in ("fiducial", "selection"):
    rngs = experiment.trial_rngs(2, N_QUBITS, M, [0])
    reps, _ = experiment.draw_trials(N_QUBITS, M, rngs)
    kmat = experiment.noisy_kernels(reps, None, variant, EPSILON, rngs)[0]
    alpha = kernel.alpha_matrix(reps[0])[0, 1]
    labels = dataset.coset_labels(N_QUBITS, M)
    stats = theory.extract_deviation_stats(kmat, labels, alpha)
    direct = kernel.trial_stats(kmat, ~np.eye(len(kmat), dtype=bool), labels)[0]
    rebuilt = theory.noisy_variance(M, N_QUBITS, stats)
    print(f"{variant}:")
    print(f"  alpha              {alpha:.6f}")
    print(f"  mean gamma (same)  {stats.mean_gamma:.6f}  var {stats.var_gamma:.2e}")
    print(f"  mean delta (cross) {stats.mean_delta:+.6f}  var {stats.var_delta:.2e}")
    print(f"  variance direct    {direct:.8f}")
    print(f"  variance rebuilt   {rebuilt:.8f}  (|diff| {abs(direct - rebuilt):.2e})")
