"""Single-qubit gates and the batched Haar-random SU(2) build.

These build the per-qubit 2x2 factors that everything else works on; no
2^N state is formed anywhere in the package (see `kernel`).
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


def su2_from_ginibre(g):
    """Haar-random SU(2) elements from complex Ginibre matrices, via QR.
    `g` holds standard normals of shape (..., 2, 2, 2): per element, the 2x2
    real parts and then the 2x2 imaginary parts; the result is (..., 2, 2).
    Each element depends only on its own normals, so any stack of draws (for
    instance one per trial along a leading axis) gives the same elements as
    one call per draw."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    # fix the phase ambiguity of QR, then normalize the determinant
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q / np.sqrt(np.linalg.det(q))[..., None, None]
