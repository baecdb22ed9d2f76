"""Noisy kernel entries stay inside their analytic envelopes.

Draw ten noisy kernels under each coherent-noise variant, all three built as
one stack from the same trials, and compare the realized entries to the
per-pair bounds: same-coset entries against their lower bound, cross-coset
entries against the two-sided band around alpha.

Run: python3 demos/noise_envelopes.py
"""

import numpy as np

from cosetkernel import experiment, kernel, noise
from cosetkernel.noise import count_envelope_violations

EPSILON = 0.1
N_QUBITS = 5
SEED = 11

rngs = experiment.trial_rngs(SEED, N_QUBITS, 2, range(10))
reps, stacked, counts, labels = experiment.kernel_tables(
    N_QUBITS, 2, rngs, "full", noise.NOISY_VARIANTS, EPSILON)
alphas = kernel.alpha_matrix(reps)
same = (kernel.pair_counts(counts) > 0) & (labels[:, None] == labels[None, :])
for variant, kmats in zip(noise.NOISY_VARIANTS, stacked):
    violations, checked = count_envelope_violations(
        kmats[None], counts, labels, alphas, (variant,), EPSILON
    )
    same_min = kmats[:, same].min()
    stats = kernel.trial_stats(kmats, counts, labels)
    lows, highs = stats[:, 2], stats[:, 4]
    # every coset's own pair, on the diagonal, has the same lower bound
    lower, _ = noise.bounds_for(variant, alphas, EPSILON)
    print(
        f"{variant:>14}: {checked} entries, {violations} violations; "
        f"min same-coset value {same_min:.5f} "
        f"(lower bound {lower[0, 0, 0]:.5f}); "
        f"mean cross-coset spread {np.mean(highs - lows):.5f}"
    )
