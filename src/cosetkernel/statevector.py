"""Single-qubit gates and dense-state primitives.

Rotations and batched Haar-random SU(2) draws build the per-qubit factors
that everything else works on. The kernel itself never forms a 2^N state
(see `kernel`); dense states, 1-D complex arrays of length 2**N with qubit 0
the most significant bit of the basis index, appear only in the dense test
oracle and in the helpers below (the zero state, inner products, operator
norms, Haar-random states).
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def _gates(a, b, c, d):
    """2x2 matrices [[a, b], [c, d]] over the broadcast shape S of the
    entries; shape (*S, 2, 2)."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    out = np.empty(a.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def rx(theta):
    """Rx rotation(s); an array of angles gives a stack of gates."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return _gates(c, -1j * s, -1j * s, c)


def ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return _gates(c, -s, s, c)


def rz(theta):
    return _gates(np.exp(-1j * theta / 2), 0, 0, np.exp(1j * theta / 2))


def zero_state(n):
    if n < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    return state


def inner_product(a, b):
    """<a|b>, conjugate-linear in the first argument."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return complex(np.vdot(a, b))


def operator_norm(a):
    """Largest singular value."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def haar_random_su2(rng, shape=()):
    """Haar-random SU(2) elements, shape (*shape, 2, 2), via QR of complex
    Ginibre matrices. One draw of shape (*shape, 2, 2, 2) holds, per element,
    the 2x2 real parts and then the 2x2 imaginary parts, so the stream is the
    same as one call per element in C order."""
    g = rng.standard_normal((*shape, 2, 2, 2))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    # fix the phase ambiguity of QR, then normalize the determinant
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q / np.sqrt(np.linalg.det(q))[..., None, None]


def haar_random_state(dim, rng):
    """Haar-random pure state on a dim-dimensional space."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
