"""Noisy kernel entries stay inside their analytic envelopes.

Draw ten noisy kernels under each coherent-noise variant, all three built as
one stack from the same trials, and compare the realized entries to the
per-pair bounds: same-coset entries against their lower bound, cross-coset
entries against the two-sided band around alpha.

Run: python3 demos/noise_envelopes.py
"""

import numpy as np

from cosetkernel import dataset, experiment, kernel, noise
from cosetkernel.noise import count_envelope_violations

EPSILON = 0.1
N_QUBITS = 5
SEED = 11

rngs = experiment.trial_rngs(SEED, N_QUBITS, 2, range(10))
reps, _ = experiment.draw_trials(N_QUBITS, 2, rngs, "full")
stacked = experiment.noisy_kernels(reps, None, noise.NOISY_VARIANTS, EPSILON,
                                   rngs)
alphas = kernel.alpha_matrix(reps)
labels = dataset.coset_labels(N_QUBITS, 2)
off_diagonal = ~np.eye(len(labels), dtype=bool)
same = off_diagonal & (labels[:, None] == labels[None, :])
for variant, kmats in zip(noise.NOISY_VARIANTS, stacked):
    violations, checked = count_envelope_violations(
        kmats, labels, alphas, variant, EPSILON
    )
    same_min = kmats[:, same].min()
    stats = kernel.trial_stats(kmats, off_diagonal, labels)
    lows, highs = stats[:, 2], stats[:, 4]
    bounds = noise.bounds_for(variant, 0.0, EPSILON)
    print(
        f"{variant:>14}: {checked} entries, {violations} violations; "
        f"min same-coset value {same_min:.5f} "
        f"(lower bound {bounds.same_coset_lower:.5f}); "
        f"mean cross-coset spread {np.mean(highs - lows):.5f}"
    )
