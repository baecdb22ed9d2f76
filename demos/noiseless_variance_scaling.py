"""Kernel variance versus qubit count, noiselessly.

Runs a small Monte-Carlo sweep over N for a few coset counts and prints the
empirical train-surface variance next to the closed-form asymptote and the
large-N limit (m - 1)/m^2. The point of the sweep: the variance flattens out
instead of decaying exponentially in N.

Run: python3 demos/noiseless_variance_scaling.py
"""

import numpy as np

from cosetkernel import experiment, kernel, noise, theory

TRIALS = 30
SEED = 7

print(f"{'m':>3} {'N':>3} {'empirical':>10} {'asymptotic':>11} {'limit':>8}")
for m in (2, 4):
    for n_qubits in (4, 6, 8):
        rngs = experiment.trial_rngs(SEED, n_qubits, m, range(TRIALS))
        ds, splits = experiment.draw_trials(n_qubits, m, rngs)
        kmats = experiment.noisy_kernels(ds, splits, noise.NoiseConfig(), rngs)
        _, variances = kernel.offdiag_stats(kmats)
        print(
            f"{m:>3} {n_qubits:>3} {np.mean(variances):>10.5f} "
            f"{theory.asymptotic_variance(m, n_qubits, n_qubits):>11.5f} "
            f"{theory.limit_variance(m):>8.5f}"
        )
