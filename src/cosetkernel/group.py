"""Tensor products of single-qubit rotations, chain-graph stabilizer
generators, and the fiducial-state preparation circuit.

A group element of SU(2)^(tensor N) is stored as its N per-qubit 2x2
unitaries, an (N, 2, 2) factor array; stacks of elements are (..., N, 2, 2)
arrays. Elements compose factor-wise (`g @ h`, the representation is a
homomorphism) and invert by conjugate transpose. Euler triples and Pauli
strings are constructors only, since composing two Euler-parametrized
rotations does not yield another triple without re-extraction.

The preparation circuit, Ry(pi/2 - o_j) on every qubit and then CZ on each
chain edge, is described by its offsets alone: `kernel` contracts the chain
graph state from the per-qubit rotations and the CZ sign (-1)^(s_j s_(j+1))
without building it.
"""

from dataclasses import dataclass

import numpy as np

from .statevector import PAULIS, rx, rz

_PAULI_INDEX = {c: k for k, c in enumerate(PAULIS)}
_PAULI_STACK = np.stack(list(PAULIS.values()))


def from_euler(angles):
    """Per-qubit factors Rx(t1) Rz(t2) Rx(t3) for (..., N, 3) angle triples;
    returns the (..., N, 2, 2) factors."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim < 2 or angles.shape[-1] != 3:
        raise ValueError("expected (..., N, 3) angle triples (t1, t2, t3)")
    if not np.all(np.isfinite(angles)):
        raise ValueError("non-finite angles")
    t1, t2, t3 = np.moveaxis(angles, -1, 0)
    return rx(t1) @ rz(t2) @ rx(t3)


def from_pauli(labels):
    """Embed a Pauli string (e.g. "XZI") as (N, 2, 2) factors."""
    bad = set(labels) - set(PAULIS)
    if bad:
        raise ValueError(f"invalid Pauli labels: {bad}")
    return _PAULI_STACK[[_PAULI_INDEX[c] for c in labels]]


def chain_generators(n):
    """Stabilizer generators of the chain graph: X on each vertex, Z on its
    neighbors."""
    if n < 2:
        raise ValueError("chain needs at least 2 qubits")
    gens = []
    for j in range(n):
        labels = ["I"] * n
        labels[j] = "X"
        if j > 0:
            labels[j - 1] = "Z"
        if j < n - 1:
            labels[j + 1] = "Z"
        gens.append("".join(labels))
    return gens


@dataclass(frozen=True)
class FiducialPreparation:
    """Chain-graph-state circuit: Ry(pi/2 - offset_j) on every qubit, then CZ
    on each chain edge. Zero offsets give the ideal fiducial state. Offsets
    of shape (T, N) describe one preparation per trial of a batch."""

    num_qubits: int
    offsets: np.ndarray  # (N,) or (T, N)

    def __post_init__(self):
        offs = np.asarray(self.offsets, dtype=float)
        if offs.ndim not in (1, 2) or offs.shape[-1] != self.num_qubits:
            raise ValueError("need one offset per qubit")
        object.__setattr__(self, "offsets", offs)


def fiducial_preparation(n, offsets=None):
    if offsets is None:
        offsets = np.zeros(n)
    return FiducialPreparation(n, offsets)
