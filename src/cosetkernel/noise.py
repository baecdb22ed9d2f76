"""Coherent-noise models: their samplers, `attach`, and their worst-case
kernel-value envelopes.

All perturbations are tensor products of small single-qubit rotations whose
angles are drawn uniformly inside a budget chosen so that the operator norm
of the deviation stays below epsilon. Each variant changes only the kernel's
inputs, and `attach` alone decides how. Noise functions take the variant (a
name, or a tuple of names for a stack) and epsilon; `NoiseConfig` validates
a config's pair. The envelopes take one alpha or an array of them, so a
batch of trials is checked with one evaluation.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import su2

VARIANTS = ("none", "fiducial", "selection", "representation")
# the variants `verify-bounds` checks, in its order
NOISY_VARIANTS = VARIANTS[1:]
# the variants whose errors `attach` folds into the point factors
_FOLDED = frozenset(("selection", "representation"))
# slack for rounding when an entry is compared with its envelope
ENVELOPE_TOL = 1e-9


@dataclass(frozen=True)
class NoiseConfig:
    variant: str = "none"
    epsilon: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown noise variant {self.variant!r}")
        # a bool counts as an int, but `true` in a config is no budget
        if (not isinstance(self.epsilon, numbers.Real)
                or isinstance(self.epsilon, bool)):
            raise ValueError("epsilon must be a real number, "
                             f"got {self.epsilon!r}")
        # the widest sampling box, fiducial offsets at N = 2, is 2 epsilon
        try:  # an int past the float range has no finite box either
            finite = abs(float(self.epsilon)) <= np.finfo(float).max / 2
        except OverflowError:
            finite = False
        if not finite:  # NaN fails the comparison
            raise ValueError(f"epsilon {self.epsilon!r} is not finite or "
                             "overflows 2 * epsilon")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.variant == "none" and self.epsilon != 0:
            raise ValueError("a nonzero epsilon needs a noise variant")


@dataclass(frozen=True)
class NoiseBounds:
    same_coset_lower: float
    cross_coset_lower: float
    cross_coset_upper: float


def from_euler(angles):
    """Per-qubit factors Rx(t1) Rz(t2) Rx(t3) for (..., N, 3) angle triples;
    returns the (..., N, 2, 2) factors.

    In closed form, with the half-angles h_k = t_k / 2, the product is
    [[a, -conj(b)], [b, conj(a)]] with
    a = cos h2 cos(h1 + h3) - i sin h2 cos(h1 - h3) and
    b = -sin h2 sin(h1 - h3) - i cos h2 sin(h1 + h3),
    so no 2x2 product is formed."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim < 2 or angles.shape[-1] != 3:
        raise ValueError("expected (..., N, 3) angle triples (t1, t2, t3)")
    if not np.all(np.isfinite(angles)):
        raise ValueError("non-finite angles")
    h1, h2, h3 = np.moveaxis(angles, -1, 0) / 2
    cos2, sin2 = np.cos(h2), np.sin(h2)
    plus, minus = h1 + h3, h1 - h3
    return su2(cos2 * np.cos(plus), -sin2 * np.cos(minus),
               -sin2 * np.sin(minus), -cos2 * np.sin(plus))


def fold(variant, errors, factors):
    """One perturbation per point and qubit folded into the point's
    factors, both (..., N, 2, 2): E_x,j D_x,j for selection and
    D_x,j E_x,j for representation. Each 2x2 product is two elementwise
    outer products and a sum, so every point's result has the same bits
    whatever the stack around it."""
    left, right = errors, factors
    if variant == "representation":
        left, right = factors, errors
    return (left[..., :, :1] * right[..., :1, :]
            + left[..., :, 1:] * right[..., 1:, :])


def fiducial_offsets(n_qubits, epsilon, rngs):
    """The (2, T, N) bra and ket offsets of a batch of trials' fiducial
    errors, 2N uniforms read from each stream where it stands: the bra's
    offsets, then the ket's. Each is uniform in [-2 eps / N, 2 eps / N],
    which keeps each preparation within eps of the ideal one in operator
    norm."""
    bound = 2 * epsilon / n_qubits
    sides = [rng.uniform(-bound, bound, size=(2, n_qubits)) for rng in rngs]
    return np.moveaxis(np.array(sides), 1, 0)


def element_angles(points, n_qubits, epsilon, rngs):
    """The (T, P, N, 3) XZX Euler triples of the perturbations E_x of a
    batch of trials' points, for selection or representation errors
    (`from_euler` builds them): 3PN uniforms read from each stream where it
    stands, a triple per point and qubit in C order. Each angle is uniform
    in [-2 eps / (sqrt(5) N), 2 eps / (sqrt(5) N)], which keeps every E_x
    within eps of the identity in operator norm."""
    bound = 2 * epsilon / (np.sqrt(5) * n_qubits)
    return np.array([rng.uniform(-bound, bound, size=(points, n_qubits, 3))
                     for rng in rngs])


def attach(variants, epsilon, factors, rngs):
    """A batch of trials' (T, P, N, 2, 2) point factors under a noise
    variant at `epsilon`, and the (2, T, N) bra and ket offsets that go with
    them to `kernel.kernel_matrix`; for a tuple of V variants,
    (V, T, P, N, 2, 2) factors and (2, V, T, N) offsets. Fiducial errors are
    `fiducial_offsets`, zeros for the other variants. Selection and
    representation errors are built from `element_angles` and folded into
    the factors exactly, since both are tensor products: as E_x,j D_x,j and
    as D_x,j E_x,j (`fold`). `none` reads nothing. Every variant reads each
    stream from where it stood at the call, so each slice of a tuple's
    result is bit for bit that of its name alone; selection and
    representation share one Euler draw."""
    names = (variants,) if isinstance(variants, str) else variants
    p, n = factors.shape[-4:-2]
    folded = not _FOLDED.isdisjoint(names)
    states = ([rng.bit_generator.state for rng in rngs]
              if folded and "fiducial" in names else ())
    sides = fiducial_offsets(n, epsilon, rngs) if "fiducial" in names else None
    for rng, state in zip(rngs, states):
        rng.bit_generator.state = state
    errors = from_euler(element_angles(p, n, epsilon, rngs)) if folded else None
    noisy = np.empty((len(names), *factors.shape), complex)
    offsets = np.zeros((2, len(names), len(rngs), n))
    for v, name in enumerate(names):
        if name == "fiducial":
            offsets[:, v] = sides
        noisy[v] = fold(name, errors, factors) if name in _FOLDED else factors
    if isinstance(variants, str):
        return noisy[0], offsets[:, 0]
    return noisy, offsets


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
    """Envelope for fiducial-state errors: amplitude shift 2 eps + eps^2.

    From eps = 1 on, this and `bounds_selection` are the trivial envelope:
    same-coset lower bound 0, cross-coset bounds [0, 1]. So both clamp eps
    to 1, which keeps every bound and lets no square of eps overflow."""
    epsilon = min(epsilon, 1.0)
    shift = 2 * epsilon + epsilon**2
    same_lower = np.square(1 - shift) if shift <= 1 else 0.0
    return NoiseBounds(same_lower, *_envelope(alpha, shift))


def bounds_selection(alpha, epsilon):
    """Envelope for selection and representation errors, one E_x within
    eps of I per point: same-coset amplitude >= 1 - 2 eps^2 (bound 0 once
    2 eps^2 > 1), cross-coset amplitude shift 2 eps.

    Points c s_a, c s_b of one coset overlap as <psi|W|psi>, W unitary:
    c^dag E_x^dag E_x' c for selection (E_x D_x), E_x^dag S E_x' S for
    representation (D_x E_x), with S = s_a s_b fixing psi. ||W - I|| <= 2 eps,
    so each eigenvalue e^(it) of W has 2 |sin(t/2)| <= 2 eps, hence
    cos t >= 1 - 2 eps^2 and Re<psi|W|psi> >= 1 - 2 eps^2. eps is
    clamped to 1, as in `bounds_fiducial`."""
    epsilon = min(epsilon, 1.0)
    same = 1 - 2 * epsilon**2
    same_lower = np.square(same) if same >= 0 else 0.0
    return NoiseBounds(same_lower, *_envelope(alpha, 2 * epsilon))


def bounds_for(variant, alpha, epsilon):
    if variant == "fiducial":
        return bounds_fiducial(alpha, epsilon)
    if variant in _FOLDED:
        return bounds_selection(alpha, epsilon)
    raise ValueError(f"no bounds for variant {variant!r}")


def count_envelope_violations(k, labels, alphas, variant, epsilon):
    """(violations, entries checked) of the noisy kernel entries against
    their per-pair envelope, for one matrix, its points' (K,) coset labels
    and its (m, m) alphas, or a batch of trials' matrices, their (K,) or
    (T, K) labels and their (T, m, m) alphas. With a tuple of V variants,
    `k` has a leading variant axis, (V, K, K) or (V, T, K, K), that shares
    the labels and the alphas, and the counts are totals over the variants.
    The bounds are evaluated once per variant, per coset pair, and each
    entry's are gathered by its coset labels. A NaN or infinite entry is a
    violation in either class."""
    variants = (variant,) if isinstance(variant, str) else tuple(variant)
    size, m = k.shape[-1], alphas.shape[-1]
    values = k.reshape(-1, size, size)
    labels = np.broadcast_to(labels, k.shape[:-1]).reshape(values.shape[:-1])
    rows, cols = labels[..., :, None], labels[..., None, :]
    # each entry's coset pair as a flat index into the (V, T, m, m) bounds
    pair = (np.arange(len(values))[:, None, None] * m + rows) * m + cols
    bounds = [bounds_for(v, alphas, epsilon) for v in variants]
    lower = np.take([b.cross_coset_lower - ENVELOPE_TOL for b in bounds], pair)
    upper = np.take([b.cross_coset_upper + ENVELOPE_TOL for b in bounds], pair)
    same_lower = np.repeat([b.same_coset_lower - ENVELOPE_TOL for b in bounds],
                           len(values) // len(variants))
    outside = np.where(
        rows == cols,
        values < same_lower[:, None, None],
        ~((lower <= values) & (values <= upper)),
    )
    outside |= ~np.isfinite(values)
    outside &= ~np.eye(size, dtype=bool)
    return int(np.sum(outside)), len(values) * size * (size - 1)
