"""Noisy kernel entries stay inside their analytic envelopes.

For each coherent-noise variant, draw ten noisy kernels as one batch and
compare the realized entries to the per-pair bounds: same-coset entries
against their lower bound, cross-coset entries against the two-sided band
around alpha.

Run: python3 demos/noise_envelopes.py
"""

import numpy as np

from cosetkernel import dataset, experiment, kernel, noise
from cosetkernel.noise import count_envelope_violations

EPSILON = 0.1
N_QUBITS = 5
SEED = 11

for variant in ("fiducial", "selection", "representation"):
    rngs = experiment.trial_rngs(SEED, N_QUBITS, 2, range(10))
    reps, _ = experiment.draw_trials(N_QUBITS, 2, rngs, "full")
    kmats = experiment.noisy_kernels(
        reps, None, noise.NoiseConfig(variant, EPSILON), rngs
    )
    labels = dataset.coset_labels(N_QUBITS, 2)
    violations, checked = count_envelope_violations(
        kmats, labels, kernel.alpha_matrix(reps), variant, EPSILON
    )
    same = (~np.eye(len(labels), dtype=bool)) & (
        labels[:, None] == labels[None, :]
    )
    same_min = kmats[:, same].min()
    stats = kernel.trial_stats(kmats, ~np.eye(len(labels), dtype=bool), labels)
    lows, highs = stats[:, 2], stats[:, 4]
    bounds = noise.bounds_for(variant, 0.0, EPSILON)
    print(
        f"{variant:>14}: {checked} entries, {violations} violations; "
        f"min same-coset value {same_min:.5f} "
        f"(lower bound {bounds.same_coset_lower:.5f}); "
        f"mean cross-coset spread {np.mean(highs - lows):.5f}"
    )
