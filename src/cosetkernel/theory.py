"""Closed-form expectation and variance of the coset kernel value
distribution, with and without coherent-noise deviations.

Conventions: ordered off-diagonal pairs, diagonal excluded, population
variance throughout. Same-coset entries equal 1 (n_i (n_i - 1) in coset i);
each ordered coset pair (i, j) contributes n_i n_j entries alpha_{i,j}.
The `theory` command's exact and asymptotic values are one plug-in value:
`offdiag_moments` at n_i = n and alpha = 2^-N, so no m x m matrix is built;
the report's overlays take it at n = N.

Under noise, `two_group_moments` splits the kernel over the same-coset
deviations gamma = 1 - kappa and the cross-coset ones delta = kappa - alpha;
fed one kernel's measured moments, it gives back that kernel's own.
"""

from operator import index

import numpy as np


def offdiag_moments(counts, alphas):
    """Off-diagonal mean and population variance, as Python floats, of a
    noiseless kernel with counts[i] >= 1 points in coset i of m >= 2: 1 on
    n_i (n_i - 1) same-coset entries, alpha_ij on n_i n_j entries per pair
    i != j. `alphas` is (m, m), or one alpha for every pair (no matrix).
    With s1, s2 the sums of alpha, alpha^2 over those entries, the variance
    numerator pairs (same + s2) - (same + s1)^2 is summed as same (cross -
    2 s1 + s2) + (cross s2 - s1^2), without the plain form's cancellation
    (up to 8e3 ulp at m = 1e5). s1, s2 are exact at alpha = 2^-N, so one
    alpha and its matrix give the same bits."""
    counts = [index(n) for n in counts]
    if len(counts) < 2 or min(counts) < 1:
        raise ValueError("need m >= 2 and n >= 1")
    squares = sum(n * n for n in counts)
    same, cross = squares - sum(counts), sum(counts) ** 2 - squares
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim == 0:
        s1, s2 = cross * float(alphas), cross * float(alphas) ** 2
    elif alphas.shape == (len(counts),) * 2:
        weights = np.outer(counts, counts)
        np.fill_diagonal(weights, 0)
        s1 = float(np.sum(weights * alphas))
        s2 = float(np.sum(weights * alphas**2))
    else:
        raise ValueError(f"alphas must be {len(counts)}x{len(counts)}")
    pairs = same + cross
    variance = same * (cross - 2 * s1 + s2) + (cross * s2 - s1 * s1)
    return (same + s1) / pairs, variance / pairs**2


def limit_variance(m):
    """n -> infinity, N -> infinity limit."""
    return (m - 1) / m**2


def limit_expectation(m):
    return 1.0 / m


def two_group_moments(m, n, alpha, gamma, delta):
    """Off-diagonal mean and population variance with n points in each of m
    cosets, same-coset entries 1 - gamma and cross-coset ones alpha + delta,
    `gamma` and `delta` each a (mean, population variance) pair: with p, q
    the groups' shares of the entries, the variance is p q (same mean -
    cross mean)^2 + p var_gamma + q var_delta."""
    p, q = (n - 1) / (m * n - 1), n * (m - 1) / (m * n - 1)
    same, cross = 1 - gamma[0], alpha + delta[0]
    return (p * same + q * cross,
            p * q * (same - cross) ** 2 + p * gamma[1] + q * delta[1])
