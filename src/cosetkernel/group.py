"""Tensor products of single-qubit rotations, chain-graph stabilizer
generators, and fiducial-state preparation.

A group element of SU(2)^(tensor N) is stored as its N per-qubit 2x2
unitaries, an (N, 2, 2) factor array; stacks of elements are (..., N, 2, 2)
arrays. Elements compose factor-wise (`g @ h`, the representation is a
homomorphism) and invert by conjugate transpose. Euler triples and Pauli
strings are constructors only, since composing two Euler-parametrized
rotations does not yield another triple without re-extraction.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .statevector import (
    PAULIS,
    apply_cz,
    apply_single_qubit,
    rx,
    ry,
    rz,
    zero_state,
)

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


def apply(g, state):
    """Apply each per-qubit factor of one (N, 2, 2) element to the state."""
    return apply_batch(np.asarray(g)[None], state)[0]


def apply_batch(factors, state):
    """Apply P product unitaries, given as a (P, N, 2, 2) factor stack, to one
    state; returns the (P, 2^N) results.

    Each qubit q takes one einsum pass over the stack viewed as
    (P, 2^q, 2, 2^(N-q-1)), so the P elements share every pass.
    """
    factors = np.asarray(factors)
    if factors.ndim != 4 or factors.shape[2:] != (2, 2):
        raise ValueError("factors must have shape (P, N, 2, 2)")
    p, n = factors.shape[:2]
    if 2**n != len(state):
        raise ValueError("size mismatch")
    psi = np.broadcast_to(state, (p, 2**n))
    for q in range(n):
        view = psi.reshape(p, 2**q, 2, 2 ** (n - q - 1))
        psi = np.einsum("pij,pajb->paib", factors[:, q], view).reshape(p, 2**n)
    return psi


def dense(g):
    """Full 2^N x 2^N matrix of one (N, 2, 2) element (Kronecker product
    oracle)."""
    return reduce(np.kron, g)


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


def chain_edges(n):
    return [(j, j + 1) for j in range(n - 1)]


@dataclass(frozen=True)
class FiducialPreparation:
    """Chain-graph-state circuit: Ry(pi/2 - offset_j) on every qubit, then CZ
    on each chain edge. Zero offsets give the ideal fiducial state."""

    num_qubits: int
    offsets: np.ndarray

    def __post_init__(self):
        offs = np.asarray(self.offsets, dtype=float)
        if offs.shape != (self.num_qubits,):
            raise ValueError("need one offset per qubit")
        object.__setattr__(self, "offsets", offs)


def fiducial_preparation(n, offsets=None):
    if offsets is None:
        offsets = np.zeros(n)
    return FiducialPreparation(n, offsets)


def prepare_fiducial(prep):
    """Statevector produced by the preparation circuit from |0...0>."""
    state = zero_state(prep.num_qubits)
    for q, gate in enumerate(ry(np.pi / 2 - prep.offsets)):
        state = apply_single_qubit(state, gate, q)
    for j, k in chain_edges(prep.num_qubits):
        state = apply_cz(state, j, k)
    return state


def fiducial_operator(prep):
    """Dense 2^N x 2^N matrix of the preparation circuit."""
    n = prep.num_qubits
    op = reduce(np.kron, ry(np.pi / 2 - prep.offsets))
    cz_diag = np.ones(2**n)
    for j, k in chain_edges(n):
        bits_j = (np.arange(2**n) >> (n - 1 - j)) & 1
        bits_k = (np.arange(2**n) >> (n - 1 - k)) & 1
        cz_diag = cz_diag * np.where((bits_j & bits_k) == 1, -1.0, 1.0)
    return cz_diag[:, None] * op
