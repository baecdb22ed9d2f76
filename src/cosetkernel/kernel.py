"""Covariant kernel evaluation as a chain of 2x2 transfer steps.

Every entry is the exact squared amplitude
|<0| V_left^dag D_x^dag D_x' V_right |0>|^2; no measurement sampling. The
fiducial V|0> is the chain graph state CZ_chain (tensor_j a_j) with the
single-qubit states a_j = Ry(pi/2 - o_j)|0>. A preparation is given by its
(N,) offsets o alone, zeros for the ideal state; noise (`noise.attach`)
may give the bra and the ket their own. Its amplitude on the basis string s is
prod_j a_j[s_j] times the CZ sign (-1)^(sum_j s_j s_(j+1)), and
D_x^dag D_x' is the tensor product of the 2x2 factors M_j = D_x,j^dag D_x',j.
The amplitude is therefore a sum over bra and ket strings (t, u) of a
product of local weights g_j[t_j, u_j] = conj(a^l_j[t_j]) a^r_j[u_j]
M_j[t_j, u_j] and nearest-neighbour signs (-1)^(t_j t_(j+1) + u_j u_(j+1)).
With H = [[1, 1], [1, -1]], the sign matrix (-1)^(t t'), it is contracted
left to right as v <- g_j * (H v H), starting from v = g_1, and is the sum
of the four entries of the final v. `transfer_amplitudes` runs this chain
for all P x Q point pairs at once, holding v as four (P, Q) planes and
building each g_j inside the loop with one (2P x 2) @ (2 x 2Q) product, so
memory is O(P Q + N P) for any N and no 2^N vector appears.

g_j is complex, but H is real, so H v H needs no complex product: on the
float view of v, H v is a real (2 x 2) product over its two row halves, and
(H v) H a real one with kron(H, I_2) over each column's (u, re/im)
quadruple. Each entry of the result is a sum or difference of two entries
of its input, which is what the complex products with H computed, so the
amplitudes keep those products' bits (`tests/oracle.py` holds that complex
chain as the reference).

The chain also runs for a batch of trials at once: every array then carries
a leading trial axis, (T, P, N, 2, 2) factor stacks, (T, N) offsets and
(T, P, Q) amplitudes, and each step is one batched product over the trials.
Each trial's entries are the same, bit for bit, as in a batch of one, so
a batch may run in slices: `_gram` runs as many kernels per chain call as
keep their (2P x 2P) transfer matrices within `CHUNK_ENTRIES`. A kernel is
the plain Gram array of a factor stack, with no coset labels.
`trial_stats` takes a batch of such arrays with a weight for each entry and
a coset label for each row and column; every statistic is a sum or an
extremum over the two trailing axes, which gives each trial the bits of a
batch of one. A kernel's off-diagonal statistics weigh its entries by
~eye. The tests check the chain against a dense 2^N construction
(`tests/oracle.py`).

Without noise no chain over the points is needed: every point is c_i s_a,
s_a fixes the ideal fiducial, so entry (p, q) is the alpha of the points'
cosets, and a kernel's off-diagonal entries are alpha_ij, n_i n_j times for
each i != j, and 1, n_i (n_i - 1) times, for the n_i points of coset i.
`experiment` takes the statistics of the (T, m, m) alpha matrices with
those counts as weights whenever the noise budget is zero; their chain runs
over the m representatives only. `gather_alphas` builds the kernels
themselves from the alpha matrices, for the heat map. The chain over all
P x P pairs stays the path of every noisy kernel and the tests' reference
for the noiseless ones.
"""

import numpy as np

# complex entries of the (2P x 2P) transfer matrices one chain call holds
# over its batch of kernels. Past about twice this, a batch runs slower than
# one kernel at a time, and the chain's working set (two such arrays) grows
# with it. `experiment` sizes its trial chunks by the same budget.
CHUNK_ENTRIES = 2**16

_H = np.array([[1.0, 1.0], [1.0, -1.0]])  # (-1)^(t t'), the CZ sign
# kron(H, I_2): H on the u of every column (q, u), for v's float view cut
# into rows of one column's (u, re/im) quadruple (written out, because
# calling np.kron at import adds about 0.2 MiB to the peak RSS)
_H_COLUMNS = np.array([[1.0, 0.0, 1.0, 0.0],
                       [0.0, 1.0, 0.0, 1.0],
                       [1.0, 0.0, -1.0, 0.0],
                       [0.0, 1.0, 0.0, -1.0]])


def _prepared_qubits(offsets):
    """a_j = Ry(pi/2 - o_j)|0> = (cos h_j, sin h_j), h_j = (pi/2 - o_j) / 2,
    for (..., N) offsets, as complex (..., 1, N, 1, 2) arrays that scale
    factor stacks (so that real factors give a complex chain too)."""
    half = (np.pi / 2 - offsets) / 2
    a = np.stack([np.cos(half), np.sin(half)], -1).astype(complex)
    return a[..., None, :, None, :]


def transfer_amplitudes(left, right, offsets_left, offsets_right):
    """(P, Q) amplitudes <psi_l| D_p^dag D_q |psi_r> for (P, N, 2, 2) and
    (Q, N, 2, 2) factor stacks, with |psi_l>, |psi_r> the chain graph states
    prepared with the (N,) offsets of each side; contracted qubit by qubit
    (module docstring). Leading trial axes, on the stacks as
    (T, P, N, 2, 2) or on the offsets as (T, N), broadcast and give
    (T, P, Q).

    v is held as a (2P, 2Q) matrix with rows (t, p) and columns (q, u), so
    g_j is one complex (2P x 2) @ (2 x 2Q) product and H v H two real
    products on v's float view: H on the row halves, kron(H, I_2) on each
    column's (u, re/im) quadruple.
    """
    a_left = _prepared_qubits(offsets_left)
    a_right = _prepared_qubits(offsets_right)
    p, n, q = left.shape[-4], left.shape[-3], right.shape[-4]
    # per qubit j: rows (t, p) of conj(a_l[t] D_p[k, t]), columns (q, u) of
    # a_r[u] D_q[k, u]; O(N P) memory, g_j itself is formed in the loop
    bras = np.moveaxis(np.conj(left * a_left), (-3, -1), (0, -3))
    kets = np.moveaxis(right * a_right, (-3, -2), (0, -3))
    bras = bras.reshape(n, *bras.shape[1:-3], 2 * p, 2)
    kets = kets.reshape(n, *kets.shape[1:-3], 2, 2 * q)
    v = bras[0] @ kets[0]
    batch = v.shape[:-2]
    # each step keeps at most two (2P, 2Q) arrays alive; this sets the
    # memory per kernel that `CHUNK_ENTRIES` budgets for
    for bra, ket in zip(bras[1:], kets[1:]):
        hv = _H @ v.view(float).reshape(*batch, 2, -1)
        del v
        hvh = hv.reshape(-1, 4) @ _H_COLUMNS
        del hv
        v = bra @ ket
        v *= hvh.view(complex).reshape(v.shape)
        del hvh
    v = v.reshape(*batch, 2, p, q, 2)
    # over u, then over t: two elementwise sums, where one np.sum over both
    # axes is a slow strided reduction
    halves = v[..., 0] + v[..., 1]
    return halves[..., 0, :, :] + halves[..., 1, :, :]


def chunks(count, per_item):
    """0..count-1 in ranges of as many items of `per_item` entries each as
    keep within CHUNK_ENTRIES; at least one item per range."""
    step = max(1, CHUNK_ENTRIES // per_item)
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _gram(factors, offsets):
    """|<psi_l| D_p^dag D_q |psi_r>|^2 over all pairs of a factor stack's
    points, for the (2, N) or (2, T, N) offsets of the bra and the ket; the
    upper triangle mirrored, so the result is exactly symmetric. A
    (T, P, N, 2, 2) stack runs through the chain in `chunks` of its
    kernels, which changes no bits (module docstring)."""
    p = factors.shape[-4]
    slices = chunks(len(factors), (2 * p) ** 2) if factors.ndim == 5 else []
    if len(slices) > 1:
        gram = np.empty((len(factors), p, p))
        for rows in slices:
            cut = slice(rows.start, rows.stop)
            sides = offsets[:, cut] if offsets.ndim == 3 else offsets
            gram[cut] = _gram(factors[cut], sides)
        return gram
    gram = np.abs(transfer_amplitudes(factors, factors, *offsets)) ** 2
    below = np.tri(gram.shape[-1], k=-1, dtype=bool)
    return np.where(below, np.swapaxes(gram, -1, -2), gram)


def kernel_matrix(factors, indices=None, offsets=None):
    """All pairwise kernel values over a (P, N, 2, 2) factor stack's points,
    or over the K points `indices` selects (e.g. a train split), with the
    (2, N) Ry offsets of every entry's bra and ket preparation (ideal
    without them), as a (K, K) array. Factors with leading batch axes,
    (..., P, N, 2, 2), give (..., K, K): (T, K) indices and (2, ..., N)
    offsets align with the trailing batch axes and broadcast over the
    rest, and the batch runs through `_gram` as one flat stack of kernels."""
    n = factors.shape[-3]
    offsets = np.zeros((2, n)) if offsets is None else np.asarray(offsets, float)
    if offsets.ndim < 2 or len(offsets) != 2 or offsets.shape[-1] != n:
        raise ValueError("need one offset per qubit")
    if indices is not None:
        idx = np.asarray(indices, dtype=int)[..., None, None, None]
        factors = np.take_along_axis(
            factors, idx[(None,) * (factors.ndim - idx.ndim)], -4)
    batch, k = factors.shape[:-4], factors.shape[-4]
    if offsets.ndim > 2:
        offsets = np.broadcast_to(offsets, (2, *batch, n)).reshape(2, -1, n)
    return _gram(factors.reshape(-1, k, n, 2, 2), offsets).reshape(*batch, k, k)


def alpha_matrix(reps):
    """alpha_{i,j} = |<psi| D_ci^dag D_cj |psi>|^2 with unit diagonal, for
    (m, N, 2, 2) representatives; (T, m, m) for a batch of trials'. It is
    `kernel_matrix(reps)` with its diagonal set, through the shared
    `_gram`, so that every `kernel_matrix` call is a kernel over points."""
    alphas = _gram(reps, np.zeros((2, reps.shape[-3])))
    diagonal = np.arange(reps.shape[-4])
    alphas[..., diagonal, diagonal] = 1.0
    return alphas


def gather_alphas(alphas, labels):
    """The unperturbed (T, K, K) kernels of a batch of trials, entry (p, q)
    alpha[label_p, label_q] (module docstring), from their (T, m, m) alpha
    matrices and their points' coset labels, (K,) shared or (T, K) per
    trial. Same-coset entries are alpha's unit diagonal, and the result is
    exactly symmetric, as `alpha_matrix` is."""
    trials = np.arange(len(alphas))[:, None, None]
    return alphas[trials, labels[..., :, None], labels[..., None, :]]


def trial_stats(values, weights, labels):
    """The statistics of `experiment.TRIAL_FIELDS[3:8]` over the trailing
    (A, A) block of `values`, entry (a, b) counted `weights[..., a, b]`
    times and with the coset `labels[..., a]` and `labels[..., b]`: the
    weighted variance (two passes) and mean, then the min, weighted mean
    and max of the entries whose labels differ and whose weight is above 0.
    (5,) for one block, (T, 5) for a batch of trials, with (A, A) or
    (T, A, A) weights and (A,) or (T, A) labels."""
    axes = (-2, -1)
    total = np.sum(weights, axis=axes)
    mean = np.sum(weights * values, axis=axes) / total
    deviations = values - mean[..., None, None]
    variance = np.sum(weights * deviations * deviations, axis=axes) / total
    cross = (labels[..., :, None] != labels[..., None, :]) & (weights > 0)
    cross_weights = np.where(cross, weights, 0)
    cross_mean = (np.sum(cross_weights * values, axis=axes)
                  / np.sum(cross_weights, axis=axes))
    return np.stack([variance, mean,
                     np.where(cross, values, np.inf).min(axis=axes),
                     cross_mean,
                     np.where(cross, values, -np.inf).max(axis=axes)], -1)


def export_heatmap(k, names, path):
    """CSV heat map of one matrix: the point names (`dataset.point_names`)
    as header row and column, full-precision entries."""
    lines = ["," + ",".join(names)]
    for name, row in zip(names, k.tolist()):
        lines.append(name + "," + ",".join(map(repr, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
