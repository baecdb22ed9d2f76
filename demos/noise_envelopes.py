"""Noisy kernel entries stay inside their analytic envelopes.

For each coherent-noise variant, draw a few noisy kernels and compare the
realized entries to the per-pair bounds: same-coset entries against their
lower bound, cross-coset entries against the two-sided band around alpha.

Run: python3 demos/noise_envelopes.py
"""

import numpy as np

from cosetkernel import experiment, kernel, noise
from cosetkernel.noise import count_envelope_violations

EPSILON = 0.1
N_QUBITS = 5
SEED = 11

for variant in ("fiducial", "selection", "representation"):
    violations = 0
    checked = 0
    same_min = 1.0
    cross_spread = []
    for t in range(10):
        rng = experiment.trial_rng(SEED, N_QUBITS, 2, t)
        ds, _, kmat = experiment.build_trial_kernel(
            N_QUBITS, 2, noise.NoiseConfig(variant, EPSILON), rng, surface="full"
        )
        alphas = kernel.alpha_matrix(ds)
        v, c = count_envelope_violations(kmat, alphas, variant, EPSILON)
        violations += v
        checked += c
        labels = kmat.coset_labels
        same = (~np.eye(kmat.size, dtype=bool)) & (labels[:, None] == labels[None, :])
        same_min = min(same_min, kmat.entries[same].min())
        cross_spread.append(np.ptp(kernel.cross_coset_values(kmat)))
    bounds = noise.bounds_for(variant, 0.0, EPSILON)
    print(
        f"{variant:>14}: {checked} entries, {violations} violations; "
        f"min same-coset value {same_min:.5f} "
        f"(lower bound {bounds.same_coset_lower:.5f}); "
        f"mean cross-coset spread {np.mean(cross_spread):.5f}"
    )
