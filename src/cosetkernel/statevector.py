"""SU(2) elements laid out from the real and imaginary parts of their
first column, and the batched Haar-random SU(2) build from four normals per
element.

These build the per-qubit 2x2 factors that everything else works on; no
2^N state is formed anywhere in the package (see `kernel`).
"""

import numpy as np


def su2(a_re, a_im, b_re, b_im):
    """The SU(2) elements [[a, -conj(b)], [b, conj(a)]] from the real and
    imaginary parts of a and b (|a|^2 + |b|^2 = 1), arrays of one shape S;
    shape (*S, 2, 2). The eight real parts are written row by row through a
    float view, with no complex arithmetic."""
    parts = np.stack([a_re, a_im, -b_re, b_im, b_re, b_im, a_re, -a_im], -1)
    return parts.view(complex).reshape(*parts.shape[:-1], 2, 2)


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
    return su2(a_re / norm, a_im / norm, b_re / norm, b_im / norm)
