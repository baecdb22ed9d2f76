"""Labeled coset datasets: m hidden Haar-random representatives acting on the
N chain-graph stabilizer generators, plus the coverage-constrained train/test
split. A trial's dataset is its (m, N, 2, 2) representatives c_i; a batch of
trials stacks them along a leading trial axis. The points x_{i,a} = c_i s_a
(`points`), their labels i (`coset_labels`) and their names `c{i}s{a}`
(`point_names`) follow from the c_i and the fixed generators, coset-major,
and this module alone states that layout. Every factor is an SU(2) element
(`su2`); no 2^N state is formed anywhere in the package (see `kernel`).

The samplers take arrays, not generators: four normals per representative
factor (`su2_from_normals`), then P + m uniforms for the split, which
`experiment.draw_trials` reads from each trial's stream (its docstring
states the layout) and the zero-budget `experiment.kernel_tables` up to the
m counts. The split takes the layout by its block size n and coset count m:
m coset-major blocks of n points (n = N here). It is uniform over the
halves of the P = m n points that cover every coset, and is kept as its
sorted train indices; the test half is their complement. It is built, not
resampled: the first m uniforms give the per-coset train counts
(`train_counts`) by inverse CDF from their exact law, tabulated once per
(n, m), and the other P rank the points inside each block. A split's
indices pick the points that `noise.attach` noises and
`kernel.kernel_matrix` then compares; the kernel takes no indices itself.
"""

import math
from functools import lru_cache

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


def points(reps):
    """The points x_{i,a} = c_i s_a, factor by factor, in coset-major order:
    (..., m, N, 2, 2) representatives give (..., m N, N, 2, 2) points. Each
    factor of s_a is X (on qubit a), Z (on its chain neighbours) or I, so the
    product swaps the two columns, negates the second or keeps both: the
    same bits as the matrix product, without one."""
    *batch, m, n = reps.shape[:-2]
    a = np.arange(n)
    out = np.repeat(reps[..., None, :, :, :], n, axis=-4)
    out[..., a, a, :, :] = reps[..., ::-1]
    # generator a's Z factors sit on qubits a + 1 and a - 1
    gen, qubit = np.concatenate(([a[:-1], a[1:]], [a[1:], a[:-1]]), axis=1)
    out[..., gen, qubit, :, 1] = -reps[..., qubit, :, 1]
    return out.reshape(*batch, m * n, n, 2, 2)


def coset_labels(n_qubits, m):
    """The coset i of each point x_{i,a}, in coset-major order."""
    return np.repeat(np.arange(m), n_qubits)


def point_names(n_qubits, m):
    """The names `c{i}s{a}` of the points x_{i,a}, in coset-major order."""
    return [f"c{i}s{a}" for i in range(m) for a in range(n_qubits)]


# a sweep reads each (N, m) cell's table in all of its chunks; repeated runs
# in one process read them again. At N = 128, m = 5 a table is 1.6 MB.
@lru_cache(maxsize=32)
def _count_cdfs(n, m):
    """Conditional CDFs of the per-coset train counts of a uniformly random
    covering half of m cosets of n points each, a half of m n // 2 points:
    cdf[i, s, k - 1] = P(n_i <= k | n_i + ... + n_(m-1) = s).

    There are prod_i C(n, n_i) covering halves with counts n_i >= 1, so
    P(n_i = k | s) = C(n, k) ways_(i+1)(s - k) / ways_i(s), where ways_i(s)
    counts the covering s-point picks from cosets i, i+1, ... . The counts
    are exact integers and each ratio is rounded once, so the CDF is
    nondecreasing in k, is exactly 1.0 from the last possible count on, and
    rises only at possible counts. Only the rows of sums s that cosets
    i, ... can be left with are tabulated; the others hold 1.0 and are
    never read."""
    train_size = m * n // 2
    cdfs = np.ones((m, train_size + 1, n))
    ways = np.zeros(train_size + 1, dtype=object)  # no cosets left
    ways[0] = 1
    k = np.arange(1, n + 1)
    picks = np.array([math.comb(n, j) for j in k], dtype=object)
    for i in reversed(range(m)):
        # cosets before i take 1 to n points each, those from i at most all
        rows = slice(max(0, train_size - i * n),
                     min(train_size - i, (m - i) * n) + 1)
        rest = np.arange(train_size + 1)[rows, None] - k
        terms = np.where(rest >= 0, ways[np.maximum(rest, 0)] * picks, 0)
        cum = np.cumsum(terms, axis=1)
        ways = np.zeros(train_size + 1, dtype=object)
        ways[rows] = cum[:, -1]
        cdfs[i, rows] = cum / np.where(cum[:, -1:] == 0, 1, cum[:, -1:])
    cdfs.flags.writeable = False
    return cdfs


def train_counts(n, m, uniforms):
    """The (T, m) per-coset train counts of uniformly random covering halves
    of m cosets of n points each, one (T, m) row of uniforms in [0, 1)
    each, the first m of a split's: coset by coset, the first count whose
    conditional CDF exceeds the coset's uniform."""
    train_size = m * n // 2
    if m > train_size:
        raise ValueError(f"cannot cover {m} cosets of {n} points with "
                         f"{train_size} train slots")
    cdfs = _count_cdfs(n, m)
    left = np.full(len(uniforms), train_size)
    counts = np.empty((len(uniforms), m), dtype=int)
    for i in range(m):
        below = cdfs[i, left] <= uniforms[:, i, None]
        counts[:, i] = 1 + np.count_nonzero(below, axis=-1)
        left -= counts[:, i]
    return counts


def split_trials(n, m, uniforms):
    """Uniformly random halves of the P = m n points of m cosets of n points
    each, in coset-major order, that cover every coset, one (T, P + m) row
    of uniforms each: the (T, K) sorted train indices. A row's first m
    uniforms give the `train_counts`, and its other P rank each coset's
    block of n points: the block keeps the points with the smallest, ties
    going to the lower index."""
    trials = len(uniforms)
    counts = train_counts(n, m, uniforms[:, :m])
    order = np.argsort(uniforms[:, m:].reshape(trials, m, n), axis=-1,
                       kind="stable")
    kept = np.empty(order.shape, dtype=bool)
    np.put_along_axis(kept, order, np.arange(n) < counts[..., None], -1)
    return np.nonzero(kept.reshape(trials, m * n))[1].reshape(
        trials, m * n // 2)
