"""Closed-form expectation and variance of the coset kernel value
distribution, with and without coherent-noise deviations.

Conventions: ordered off-diagonal pairs, diagonal excluded, population
variance throughout. Same-coset entries equal 1 (count m n (n-1)); each
unordered coset pair (i, j) contributes 2 n^2 entries of value alpha_{i,j}.
"""

from dataclasses import dataclass

import numpy as np


def _alpha_sums(m, alphas):
    """Sums of alpha_{i,j} and alpha_{i,j}^2 over the pairs i < j, as floats,
    from an (m, m) matrix or from one alpha that every pair shares."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim == 0:  # C(m, 2) a and C(m, 2) a^2, with no matrix built
        pairs = m * (m - 1) // 2
        return pairs * float(alphas), pairs * float(alphas) ** 2
    if alphas.shape != (m, m):
        raise ValueError(f"alphas must be {m}x{m}")
    iu = np.triu_indices(m, k=1)
    off = alphas[iu]
    return float(off.sum()), float((off**2).sum())


def exact_expectation(m, n, alphas):
    """Mean kernel value over off-diagonal entries, per-pair alphas."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    s1, _ = _alpha_sums(m, alphas)
    return (m * (n - 1) + 2 * n * s1) / (m * (m * n - 1))


def exact_variance(m, n, alphas):
    """Population variance of the off-diagonal kernel-value multiset."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    s1, s2 = _alpha_sums(m, alphas)
    linear = m * (n - 1) + 2 * n * s1
    quadratic = m * (n - 1) + 2 * n * s2
    return (m * (m * n - 1) * quadratic - linear**2) / (m**2 * (m * n - 1) ** 2)


def asymptotic_variance(m, n, n_qubits):
    """Large-N form with the Haar value alpha = 2^-N."""
    return (
        n * (n - 1) * (m - 1) / (m * n - 1) ** 2 * (1 - 2.0 ** (-n_qubits)) ** 2
    )


def asymptotic_expectation(m, n, n_qubits):
    return ((n - 1) + n * (m - 1) * 2.0 ** (-n_qubits)) / (m * n - 1)


def limit_variance(m):
    """n -> infinity, N -> infinity limit."""
    return (m - 1) / m**2


def limit_expectation(m):
    return 1.0 / m


@dataclass(frozen=True)
class NoiseDeviationStats:
    """Summary of per-entry departures from the ideal values: gamma = 1 -
    kappa on same-coset pairs, delta = kappa - alpha on cross-coset pairs."""

    mean_gamma: float
    var_gamma: float
    mean_delta: float
    var_delta: float
    alpha: float


def noisy_expectation(m, n, stats):
    """Mean kernel value under the uniform-alpha deviation model."""
    p = (n - 1) / (m * n - 1)
    q = n * (m - 1) / (m * n - 1)
    return p * (1 - stats.mean_gamma) + q * (stats.alpha + stats.mean_delta)


def noisy_variance(m, n, stats):
    """Two-group decomposition of the off-diagonal population variance."""
    p = (n - 1) / (m * n - 1)
    q = n * (m - 1) / (m * n - 1)
    same_mean = 1 - stats.mean_gamma
    cross_mean = stats.alpha + stats.mean_delta
    return (
        p * q * (same_mean - cross_mean) ** 2
        + p * stats.var_gamma
        + q * stats.var_delta
    )


def extract_deviation_stats(k, labels, alpha):
    """Gamma/delta summary from one kernel matrix and its points' coset
    labels, diagonal excluded."""
    off = ~np.eye(k.shape[0], dtype=bool)
    same = off & (labels[:, None] == labels[None, :])
    cross = labels[:, None] != labels[None, :]
    if same.sum() < 2 or cross.sum() < 2:
        raise ValueError("need at least 2 entries in each class")
    gammas = 1 - k[same]
    deltas = k[cross] - alpha
    return NoiseDeviationStats(
        float(gammas.mean()),
        float(gammas.var()),
        float(deltas.mean()),
        float(deltas.var()),
        float(alpha),
    )
