"""Labeled coset datasets: m hidden Haar-random representatives acting on the
N chain-graph stabilizer generators, plus the coverage-constrained train/test
split."""

import json
from dataclasses import dataclass, replace

import numpy as np

from . import group
from .statevector import su2_from_ginibre

FACTOR_TOL = 1e-9  # unitarity and point = representative @ generator


@dataclass(frozen=True)
class CosetDataset:
    """P = m N points x_{i,a} = c_i s_a in coset-major order, each stored as
    its per-qubit factors.

    The datasets of a batch of trials share one instance: the factor arrays
    carry a leading trial axis, and the labels, which depend on N and m
    only, are stored once."""

    num_qubits: int
    representatives: np.ndarray  # (m, N, 2, 2) hidden c_i; (T, m, N, 2, 2)
    factors: np.ndarray  # (P, N, 2, 2) points; (T, P, N, 2, 2)
    coset_labels: np.ndarray  # (P,) int, i
    subgroup_indices: np.ndarray  # (P,) int, a

    @property
    def num_cosets(self):
        return self.representatives.shape[-4]

    def trial(self, t):
        """Trial t's dataset from a batch."""
        return replace(
            self, representatives=self.representatives[t], factors=self.factors[t]
        )


@dataclass(frozen=True)
class SplitIndices:
    train: tuple
    test: tuple


def _generators(n_qubits):
    """(N, N, 2, 2) factors of the N chain stabilizer generators s_a."""
    labels = "".join(group.chain_generators(n_qubits))
    return group.from_pauli(labels).reshape(n_qubits, n_qubits, 2, 2)


def _times_generators(factors, indices):
    """factors @ s_a for (..., N, 2, 2) factor stacks and generator indices
    a that broadcast against their leading axes. Each factor of s_a is X (on
    qubit a), Z (on its chain neighbours) or I, so the product swaps the two
    columns, negates the second or keeps both: the same bits as the matrix
    product, without one."""
    qubits = np.arange(factors.shape[-3])
    distance = np.abs(qubits - np.asarray(indices)[..., None])
    out = np.where((distance == 0)[..., None, None], factors[..., ::-1], factors)
    out[..., 1] = np.where(distance[..., None] == 1, -out[..., 1], out[..., 1])
    return out


def generate_trials(n_qubits, m, rngs):
    """Datasets of m * N points x_{i,a} = c_i s_a, coset-major order, for a
    batch of trials: one per stream in `rngs`, along a leading trial axis.

    Each stream gives its trial's Ginibre normals for the m x N Haar draw,
    in C order; the QR build and the product with the generator stack then
    run once for the whole batch."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    if m < 2:
        raise ValueError("need at least 2 cosets")
    normals = np.stack([rng.standard_normal((m, n_qubits, 2, 2, 2)) for rng in rngs])
    reps = su2_from_ginibre(normals)
    factors = _times_generators(reps[:, :, None], np.arange(n_qubits))
    return CosetDataset(
        n_qubits,
        reps,
        factors.reshape(len(rngs), m * n_qubits, n_qubits, 2, 2),
        np.repeat(np.arange(m), n_qubits),
        np.tile(np.arange(n_qubits), m),
    )


def generate(n_qubits, m, rng):
    """One trial's dataset: the one-stream case of `generate_trials`."""
    return generate_trials(n_qubits, m, [rng]).trial(0)


def split(ds, rng):
    """Uniformly random half of the points, resampled until every coset is
    represented in the training half."""
    total = len(ds.coset_labels)
    train_size = total // 2
    m = ds.num_cosets
    if m > train_size:
        raise ValueError(f"cannot cover {m} cosets with {train_size} train slots")
    labels = ds.coset_labels
    while True:
        train = rng.choice(total, size=train_size, replace=False)
        if len(set(labels[train])) == m:
            break
    train = tuple(np.sort(train).tolist())
    kept = set(train)
    test = tuple(i for i in range(total) if i not in kept)
    return SplitIndices(train, test)


def _pairs(factors):
    """Nested lists with each complex entry as a [real, imag] pair."""
    return np.stack([factors.real, factors.imag], axis=-1).tolist()


def _factors_from_pairs(data, n_qubits, what):
    """(., N, 2, 2) complex factors from nested [real, imag] pairs; rejects
    any other shape and factors that are not unitary."""
    bad_shape = f"{what} factors must have shape (., {n_qubits}, 2, 2)"
    try:
        pairs = np.ascontiguousarray(data, dtype=float)
    except ValueError as exc:  # ragged nesting
        raise ValueError(bad_shape) from exc
    if pairs.ndim != 5 or pairs.shape[1:] != (n_qubits, 2, 2, 2):
        raise ValueError(bad_shape)
    factors = pairs.view(complex)[..., 0]
    deviation = factors @ np.conj(np.swapaxes(factors, -1, -2)) - np.eye(2)
    if not np.all(np.abs(deviation) <= FACTOR_TOL):
        raise ValueError(f"{what} factors are not unitary to {FACTOR_TOL}")
    return factors


def to_json(ds, seed=None):
    """Serialize a dataset; factor matrices as real/imag pairs."""
    return json.dumps(
        {
            "num_qubits": ds.num_qubits,
            "seed": seed,
            "representatives": _pairs(ds.representatives),
            "subgroup_elems": _pairs(_generators(ds.num_qubits)),
            "points": [
                {
                    "element": element,
                    "coset_label": int(i),
                    "subgroup_index": int(a),
                }
                for element, i, a in zip(
                    _pairs(ds.factors), ds.coset_labels, ds.subgroup_indices
                )
            ],
        },
        sort_keys=True,
    )


def _labels(values, count, what):
    """Integer array of `values`, each in 0..count-1."""
    labels = np.array(values)
    if labels.dtype.kind != "i" or np.any((labels < 0) | (labels >= count)):
        raise ValueError(f"{what} must be integers in 0..{count - 1}")
    return labels


def from_json(text):
    """Dataset from `to_json` output. Factors come from outside the program
    here, so their shape, their unitarity, the coset labels and subgroup
    indices, and every point's agreement with representative @ generator are
    checked; the stored generators are implied by num_qubits and not read."""
    data = json.loads(text)
    n_qubits = data["num_qubits"]
    points = data["points"]
    reps = _factors_from_pairs(data["representatives"], n_qubits, "representative")
    labels = _labels([p["coset_label"] for p in points], len(reps), "coset labels")
    indices = _labels(
        [p["subgroup_index"] for p in points], n_qubits, "subgroup indices"
    )
    factors = _factors_from_pairs([p["element"] for p in points], n_qubits, "point")
    expected = _times_generators(reps[labels], indices)
    if not np.all(np.abs(factors - expected) <= FACTOR_TOL):
        raise ValueError(
            "point factors differ from representative @ generator of their "
            f"coset label and subgroup index by more than {FACTOR_TOL}"
        )
    return CosetDataset(n_qubits, reps, factors, labels, indices)
