"""Coherent-noise samplers and their worst-case kernel-value envelopes.

All perturbations are tensor products of small single-qubit rotations whose
angles are drawn uniformly inside a budget chosen so that the operator norm
of the deviation stays below epsilon.
"""

from dataclasses import astuple, dataclass

import numpy as np

VARIANTS = ("none", "fiducial", "selection", "representation")


@dataclass(frozen=True)
class NoiseConfig:
    variant: str = "none"
    epsilon: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown noise variant {self.variant!r}")
        if not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.variant == "none" and self.epsilon != 0:
            raise ValueError("a nonzero epsilon needs a noise variant")


@dataclass(frozen=True)
class NoiseBounds:
    same_coset_lower: float
    cross_coset_lower: float
    cross_coset_upper: float


def sample_fiducial_offsets(n_qubits, epsilon, rng):
    """N per-qubit Ry-angle offsets, uniform in [-2 eps / N, 2 eps / N];
    keeps the preparation within eps of the ideal one in operator norm."""
    bound = 2 * epsilon / n_qubits
    return rng.uniform(-bound, bound, size=n_qubits)


def sample_element_perturbation(n_qubits, epsilon, rng, shape=()):
    """Per-qubit XZX Euler triples, uniform in [-2 eps / (sqrt(5) N), +...],
    for a (*shape) stack of perturbations: shape (*shape, N, 3). Each one
    stays within eps of the identity in operator norm. One draw for the
    stack gives the same stream as one call per perturbation in C order."""
    bound = 2 * epsilon / (np.sqrt(5) * n_qubits)
    return rng.uniform(-bound, bound, size=(*shape, n_qubits, 3))


def _clamp(v):
    return float(min(max(v, 0.0), 1.0))


def _envelope(alpha, shift):
    """Bounds on kappa when the overlap amplitude moves by at most `shift`
    around sqrt(alpha)."""
    root = np.sqrt(alpha)
    upper = _clamp((root + shift) ** 2)
    lower = _clamp((root - shift) ** 2) if root >= shift else 0.0
    return lower, upper


def bounds_fiducial(alpha, epsilon):
    """Envelope for fiducial-state errors: amplitude shift 2 eps + eps^2."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    shift = 2 * epsilon + epsilon**2
    same_lower = _clamp((1 - shift) ** 2) if shift <= 1 else 0.0
    cross_lower, cross_upper = _envelope(alpha, shift)
    return NoiseBounds(same_lower, cross_lower, cross_upper)


def bounds_selection(alpha, epsilon):
    """Envelope for selection errors: same-coset amplitude >= 1 - eps^2 / 2,
    cross-coset amplitude shift 2 eps."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    same_lower = _clamp((1 - epsilon**2 / 2) ** 2)
    cross_lower, cross_upper = _envelope(alpha, 2 * epsilon)
    return NoiseBounds(same_lower, cross_lower, cross_upper)


def bounds_for(variant, alpha, epsilon):
    # representation errors obey the same inequalities as fiducial errors
    if variant in ("fiducial", "representation"):
        return bounds_fiducial(alpha, epsilon)
    if variant == "selection":
        return bounds_selection(alpha, epsilon)
    raise ValueError(f"no bounds for variant {variant!r}")


def count_envelope_violations(kmat, alphas, variant, epsilon, tol=1e-9):
    """Count noisy kernel entries outside their per-pair envelope.

    The bounds depend only on the coset pair, so they are evaluated once per
    pair of coset labels present and compared with all entries at once.
    """
    labels = kmat.coset_labels
    cosets, index = np.unique(labels, return_inverse=True)
    table = np.array([
        [astuple(bounds_for(variant, alphas[i, j], epsilon)) for j in cosets]
        for i in cosets
    ])
    same_lower, cross_lower, cross_upper = np.moveaxis(
        table[np.ix_(index, index)], -1, 0
    )
    values = kmat.entries
    same = labels[:, None] == labels[None, :]
    off_diagonal = ~np.eye(kmat.size, dtype=bool)
    outside = np.where(
        same,
        values < same_lower - tol,
        ~((cross_lower - tol <= values) & (values <= cross_upper + tol)),
    )
    return int(np.sum(outside & off_diagonal)), int(np.sum(off_diagonal))
