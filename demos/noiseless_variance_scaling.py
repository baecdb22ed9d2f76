"""Kernel variance versus qubit count, noiselessly, up to N = 128.

Runs a Monte-Carlo sweep through `run_experiment` for two coset counts at
N = 4, 8, 16, 32, 64 and 128 and prints the empirical train-surface
variance next to the closed-form asymptote and the large-N limit
(m - 1)/m^2. Beside them stands the variance of a generic kernel, the
overlap |<a|b>|^2 of two Haar-random N-qubit states, (d - 1)/(d^2 (d + 1))
with d = 2^N. The point of the sweep: the coset kernel's variance stays on
its floor while the generic one concentrates exponentially in N.

Run: python3 demos/noiseless_variance_scaling.py
"""

from cosetkernel import experiment

TRIALS = 30
SEED = 7

print(f"{'m':>3} {'N':>4} {'empirical':>10} {'asymptotic':>11} {'limit':>8} "
      f"{'generic':>10}")
for m in (2, 4):
    for n_qubits in (4, 8, 16, 32, 64, 128):
        cfg = experiment.ExperimentConfig(
            qubit_range=(n_qubits, n_qubits), coset_counts=(m,),
            trials=TRIALS, seed=SEED,
        )
        (row,) = experiment.run_experiment(cfg)["aggregates"]
        d = 2.0**n_qubits
        print(
            f"{m:>3} {n_qubits:>4} {row['mean_variance']:>10.5f} "
            f"{row['theory_asymptotic']:>11.5f} {row['theory_limit']:>8.5f} "
            f"{(d - 1) / (d * d * (d + 1)):>10.3e}"
        )
