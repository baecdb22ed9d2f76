"""Tensor products of single-qubit rotations.

A group element of SU(2)^(tensor N) is stored as its N per-qubit 2x2
unitaries, an (N, 2, 2) factor array; stacks of elements are (..., N, 2, 2)
arrays. Elements compose factor-wise (`g @ h`, the representation is a
homomorphism) and invert by conjugate transpose. Euler triples are a
constructor only, since composing two Euler-parametrized rotations does not
yield another triple without re-extraction.
"""

import numpy as np

from .statevector import rx, rz


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
