"""Coherent-noise models: their sampler `attach`, and their worst-case
kernel-value envelopes.

All perturbations are tensor products of small single-qubit rotations whose
angles are drawn uniformly inside a budget chosen so that the operator norm
of the deviation stays below epsilon. Each variant changes only the kernel's
inputs, and `attach` alone decides how, from a row of `draws` uniforms per
trial that `experiment.draw_trials` reads (its docstring states the stream
layout). `draws`, `attach` and `count_envelope_violations` take the variants
as a tuple of names, one slice of their stack each, and epsilon, and
`check_variants` rejects any other argument; `NoiseConfig` validates a
config's one variant and epsilon. `attach` noises only the points it is
told to keep, so a train split's kernel folds no error into a test point.
An envelope depends only on a coset pair's alpha, so `bounds_for` turns a
table of coset-pair alphas into two tables, the (lower, upper) interval of
each pair, which `count_envelope_violations` gathers to the entries of a
batch of trials.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import su2
from .kernel import gather_alphas, pair_counts

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
        if isinstance(self.epsilon, np.generic):  # json cannot write it
            object.__setattr__(self, "epsilon", self.epsilon.item())
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


def check_variants(variants):
    """Raise a ValueError unless `variants` is a tuple of names in
    `VARIANTS`; a bare name is not, as its letters are no names."""
    if not (isinstance(variants, tuple)
            and all(name in VARIANTS for name in variants)):
        raise ValueError(f"variants must be a tuple of names in {VARIANTS}, "
                         f"got {variants!r}")


def draws(variants, points, n_qubits):
    """How many uniforms `attach` reads from each trial's noise row, for a
    tuple of variants and P `points` of N qubits: 2N for fiducial, 3PN for
    selection or representation, none for `none`. Every variant reads the
    same row from its start, so a tuple reads the most of its names'."""
    check_variants(variants)
    return max((0 if name == "none" else 2 * n_qubits if name == "fiducial"
                else 3 * points * n_qubits for name in variants), default=0)


def attach(variants, epsilon, factors, uniforms, kept=None):
    """A batch of trials' (T, P, N, 2, 2) point factors under each of a
    tuple of V noise variants at `epsilon`, and the bra and ket offsets that
    go with them to `kernel.kernel_matrix`: (V, T, P, N, 2, 2) factors and
    (2, V, T, N) offsets. With the (T, K) indices `kept` (a train split),
    only those points are noised and returned, (V, T, K, N, 2, 2), each
    with the errors it has among all P. Each angle is -b + 2 b u, the bits
    of `Generator.uniform(-b, b)` on the same draw u, taken from the
    trial's row of `uniforms` (at least `draws` long for all P points).
    Every variant reads the row from its start, so each slice of the result
    is bit for bit that of its name alone.

    Fiducial errors are the bra's N offsets, then the ket's, with
    b = 2 eps / N, which keeps each preparation within eps of the ideal one
    in operator norm; zeros for the other variants. Selection and
    representation errors share one draw of XZX Euler triples
    (`from_euler`), one per point and qubit in C order over all P points,
    with b = 2 eps / (sqrt(5) N), which keeps every E_x within eps of the
    identity; they are folded into the factors exactly, as E_x,j D_x,j and
    as D_x,j E_x,j (`fold`). `none` reads nothing."""
    check_variants(variants)
    p, n = factors.shape[-4:-2]
    # each trial's kept points, or all of them, of a (T, P, ...) array
    at = slice(None) if kept is None else (np.arange(len(kept))[:, None], kept)
    if not _FOLDED.isdisjoint(variants):
        bound = 2 * epsilon / (np.sqrt(5) * n)
        triples = uniforms[:, :3 * p * n].reshape(-1, p, n, 3)[at]
        errors = from_euler(-bound + 2 * bound * triples)
    factors = factors[at]
    noisy = np.empty((len(variants), *factors.shape), complex)
    offsets = np.zeros((2, len(variants), len(uniforms), n))
    for v, name in enumerate(variants):
        if name == "fiducial":
            bound = 2 * epsilon / n
            sides = -bound + 2 * bound * uniforms[:, :2 * n]
            offsets[:, v] = np.moveaxis(sides.reshape(-1, 2, n), 1, 0)
        noisy[v] = fold(name, errors, factors) if name in _FOLDED else factors
    return noisy, offsets


def bounds_for(variant, alphas, epsilon):
    """The envelopes of kernel entries under `variant`'s errors at
    `epsilon`, for a (..., m, m) table of coset-pair `alphas`: (lower,
    upper), two tables of its shape. Across cosets the overlap amplitude
    of two points moves by at most a `shift` around sqrt(alpha), so off
    the diagonal the interval is [(sqrt(alpha) - shift)^2, or 0 once shift
    passes sqrt(alpha), min(1, (sqrt(alpha) + shift)^2)]. Within one coset
    it stays at least `same`, and the overlap of two unit vectors is at
    most 1, so on the diagonal the interval is [max(same, 0)^2, 1].

    Fiducial errors, each preparation within eps of the ideal one, give
    shift 2 eps + eps^2 and same 1 - shift. Selection and representation
    errors, one E_x within eps of I per point, give shift 2 eps and
    same 1 - 2 eps^2: points c s_a, c s_b of one coset overlap as
    <psi|W|psi>, W unitary: c^dag E_x^dag E_x' c for selection (E_x D_x),
    E_x^dag S E_x' S for representation (D_x E_x), with S = s_a s_b fixing
    psi. ||W - I|| <= 2 eps, so each eigenvalue e^(it) of W has
    2 |sin(t/2)| <= 2 eps, hence cos t >= 1 - 2 eps^2 and
    Re<psi|W|psi> >= 1 - 2 eps^2.

    From eps = 1 on, every envelope is the trivial one: [0, 1] on and off
    the diagonal. So eps is clamped to 1, which keeps every bound and lets
    no square of eps overflow."""
    epsilon = min(epsilon, 1.0)
    if variant == "fiducial":
        shift = 2 * epsilon + epsilon**2
        same = 1 - shift
    elif variant in _FOLDED:
        shift, same = 2 * epsilon, 1 - 2 * epsilon**2
    else:
        raise ValueError(f"no bounds for variant {variant!r}")
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((0 <= alphas) & (alphas <= 1)):
        raise ValueError("alpha must be in [0, 1]")
    root = np.sqrt(alphas)
    diag = np.eye(alphas.shape[-1], dtype=bool)  # one coset
    lower = np.where(diag, np.square(max(same, 0.0)),
                     np.where(root >= shift, np.square(root - shift), 0.0))
    upper = np.where(diag, 1.0, np.clip(np.square(root + shift), 0.0, 1.0))
    return lower, upper


def count_envelope_violations(k, counts, labels, alphas, variants, epsilon):
    """(violations, entries checked) of the off-diagonal kernel entries
    that the tables `k` of a tuple of V `variants` stand for
    (`experiment.kernel_tables`): (V, A, A) for one trial or (V, T, A, A)
    for a batch, one slice per variant. Each entry counts
    `kernel.pair_counts(counts)` times, with the coset `labels` of its row
    and column and the tables' (m, m) or (T, m, m) `alphas`, which every
    variant shares; the counts are totals over the variants.

    Each distinct envelope (selection and representation share one) is
    one `bounds_for` call on the (T, m, m) alphas, widened by `ENVELOPE_TOL`
    and gathered once to each entry's coset pair by its labels
    (`kernel.gather_alphas` of the pairs' indices). A NaN entry fails both
    comparisons and an infinite one fails one, so either is a violation in
    either class. A tuple whose length is not the tables' count of slices
    raises a ValueError naming both."""
    check_variants(variants)
    if len(variants) != len(k):
        raise ValueError(
            f"{len(variants)} variants for {len(k)} kernel tables")
    alphas = alphas.reshape(-1, *alphas.shape[-2:])
    # each entry's coset pair, as a flat index into a (T, m, m) table
    pair = gather_alphas(np.arange(alphas.size).reshape(alphas.shape), labels)
    weights = pair_counts(counts)
    violations = 0
    envelopes = {}  # each entry's widened interval, by distinct envelope
    for name, entries in zip(variants, k):
        envelope = _FOLDED if name in _FOLDED else name
        if envelope not in envelopes:
            lower, upper = bounds_for(name, alphas, epsilon)
            envelopes[envelope] = ((lower - ENVELOPE_TOL).ravel()[pair],
                                   (upper + ENVELOPE_TOL).ravel()[pair])
        lower, upper = envelopes[envelope]
        inside = (lower <= entries) & (entries <= upper)
        violations += int(np.sum(np.where(inside, 0, weights)))
    return violations, int(np.sum(np.broadcast_to(weights, k.shape)))
