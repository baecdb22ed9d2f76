"""Single-qubit gates and the batched Haar-random SU(2) build from four
normals per element.

These build the per-qubit 2x2 factors that everything else works on; no
2^N state is formed anywhere in the package (see `kernel`).
"""

import numpy as np


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


def su2_from_normals(x):
    """Haar-random SU(2) elements from standard normals of shape (..., 4):
    the normalised 4-vector (a_re, a_im, b_re, b_im) is a uniform point of
    the 3-sphere, i.e. a Haar-random unit quaternion, and the result is
    [[a, -conj(b)], [b, conj(a)]], shape (..., 2, 2). Each element depends
    only on its own four normals, so any stack of draws (for instance one
    per trial along a leading axis) gives the same elements as one call per
    draw."""
    a_re, a_im, b_re, b_im = np.moveaxis(x, -1, 0)
    norm = np.sqrt(a_re * a_re + a_im * a_im + b_re * b_re + b_im * b_im)
    # the real and imaginary parts of the four entries, row by row
    parts = np.stack([a_re, a_im, -b_re, b_im, b_re, b_im, a_re, -a_im], -1)
    return (parts / norm[..., None]).view(complex).reshape(*norm.shape, 2, 2)
