"""Coherent-noise samplers and their worst-case kernel-value envelopes.

All perturbations are tensor products of small single-qubit rotations whose
angles are drawn uniformly inside a budget chosen so that the operator norm
of the deviation stays below epsilon. The envelopes take one alpha or an
array of them, so a batch of trials is checked with one evaluation.
"""

from dataclasses import dataclass

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


def _envelope(alpha, shift):
    """Bounds on kappa when the overlap amplitude moves by at most `shift`
    around sqrt(alpha), for one alpha or elementwise over an array."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((0 <= alpha) & (alpha <= 1)):
        raise ValueError("alpha must be in [0, 1]")
    root = np.sqrt(alpha)
    upper = np.clip(np.square(root + shift), 0.0, 1.0)
    lower = np.where(root >= shift, np.square(root - shift), 0.0)
    return lower[()], upper[()]


def bounds_fiducial(alpha, epsilon):
    """Envelope for fiducial-state errors: amplitude shift 2 eps + eps^2."""
    shift = 2 * epsilon + epsilon**2
    same_lower = np.square(1 - shift) if shift <= 1 else 0.0
    return NoiseBounds(same_lower, *_envelope(alpha, shift))


def bounds_selection(alpha, epsilon):
    """Envelope for selection errors: same-coset amplitude >= 1 - eps^2 / 2,
    cross-coset amplitude shift 2 eps."""
    same_lower = np.clip(np.square(1 - epsilon**2 / 2), 0.0, 1.0)
    return NoiseBounds(same_lower, *_envelope(alpha, 2 * epsilon))


def bounds_for(variant, alpha, epsilon):
    # representation errors obey the same inequalities as fiducial errors
    if variant in ("fiducial", "representation"):
        return bounds_fiducial(alpha, epsilon)
    if variant == "selection":
        return bounds_selection(alpha, epsilon)
    raise ValueError(f"no bounds for variant {variant!r}")


def count_envelope_violations(kmat, alphas, variant, epsilon, tol=1e-9):
    """(violations, entries checked) of the noisy kernel entries against
    their per-pair envelope, for one matrix and its (m, m) alphas or a batch
    of trials' matrices and their (T, m, m) alphas. Each entry's alpha is
    gathered by its coset labels, and the bounds are evaluated once."""
    size, m = kmat.size, alphas.shape[-1]
    values = kmat.entries.reshape(-1, size, size)
    rows = np.broadcast_to(kmat.coset_labels, values.shape[:-1])[..., None]
    cols = np.swapaxes(rows, -1, -2)
    trials = np.arange(len(rows))[:, None, None]
    bounds = bounds_for(variant, alphas.reshape(-1, m, m)[trials, rows, cols],
                        epsilon)
    outside = np.where(
        rows == cols,
        values < bounds.same_coset_lower - tol,
        ~((bounds.cross_coset_lower - tol <= values)
          & (values <= bounds.cross_coset_upper + tol)),
    )
    outside &= ~np.eye(size, dtype=bool)
    return int(np.sum(outside)), len(rows) * size * (size - 1)
