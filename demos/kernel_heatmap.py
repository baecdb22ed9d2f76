"""Build one dataset, compute its full kernel, and export a heat map.

The printed matrix shows the block structure directly: ones inside each
coset block, a single shared value alpha_ij across each cross-coset block.
The CSV written at the end is the same format the CLI's --heatmap flag
produces.

Run: python3 demos/kernel_heatmap.py
"""

import numpy as np

from cosetkernel import dataset, experiment, kernel

rng = np.random.default_rng(3)
n_qubits, m = 3, 3
reps = experiment.draw_trials(n_qubits, m, [rng], "full")[0][0]
kmat = kernel.kernel_matrix(dataset.points(reps))

names = dataset.point_names(n_qubits, m)
print("    " + " ".join(f"{l:>6}" for l in names))
for row_label, row in zip(names, kmat):
    print(f"{row_label:>4} " + " ".join(f"{v:6.3f}" for v in row))

print()
alphas = kernel.alpha_matrix(reps)
for i in range(m):
    for j in range(i + 1, m):
        print(f"alpha[{i},{j}] = {alphas[i, j]:.6f}")

kernel.export_heatmap(kmat, names, "demo_heatmap.csv")
print("\nwrote demo_heatmap.csv")
