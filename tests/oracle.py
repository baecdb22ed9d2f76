"""Reference code for the tests: the kernel built from full 2^N state
vectors and Kronecker-product matrices, the Pauli-string stabilizer
generators, and one-trial helpers over the package's batched calls.

The package computes every kernel as a chain of 2x2 transfer steps and never
forms a 2^N state. This module does the opposite on purpose, so that the
tests can check the chain against an independent construction: the
preparation circuit is a dense 2^N x 2^N matrix, each point's feature state
is `dense(D_x) @ V |0>`, and a selection or representation perturbation E_x
is applied as its own dense matrix, `dense(E_x) @ dense(D_x)` or
`dense(D_x) @ dense(E_x)`, rather than folded into the point's factors by
`noise.attach`, which builds the package's noisy inputs for a tuple of
variants. `alpha_matrix` builds the representatives' states the
same way, the reference for `kernel.alpha_matrix` and so for the noiseless
kernels that `experiment` gathers from it. Dense states are 1-D complex
arrays of length 2**N with qubit 0 the most significant bit of the basis
index. The oracle refuses more than DENSE_MAX_QUBITS qubits.

A preparation is given by its (N,) Ry offsets, as in `kernel`. The Pauli
matrices, `from_pauli` and `chain_generators` spell out the chain
stabilizer generators s_a as Pauli strings, the reference for the package's
column swaps and sign flips (`dataset.points`).

`trial_rng` is the reference stream of one trial, a `SeedSequence` and a
generator of its own, which the package's `experiment.trial_rngs` builds for
a whole chunk at once. `generate`, `split`, `build_kernel` and `run_trial`
are one trial of the package's batched calls: a batch of one stream,
`[rng]`, and its trial 0. `generate` reads only the stream's normals and
`split` only its P + m uniforms, so a test can read a trial's stream one
piece at a time, in the layout `experiment.draw_trials` states. A trial's
dataset is its (m, N, 2, 2) representatives (`dataset.points` and
`dataset.coset_labels` give its points and their labels), a split is its
sorted train indices, and a trial's report is its record, the dict of
`experiment.TRIAL_FIELDS`. `split_by_blocks` is the split's reference, a
loop over trials and coset blocks. `expand_tables` spreads a batch of
`experiment.kernel_tables`' tables, one point or one coset per row, over
the points, so both compare with kernels built point by point.
`train_points` gathers each trial's train points from a factor stack, and
`train_tables_from_all_points` is the reference for a noisy train-surface
table: every point noised, then the train points compared.

`sequential_draws` is the reference for that layout: a trial's draws read
one piece at a time, normals, the m count uniforms, the P rank uniforms,
then `Generator.uniform(-b, b)` per noise variant from one restored state
(`fiducial_offsets`, `element_angles`), with the noisy inputs built from
those angles without `noise.attach`. `attached` is one trial's noise from
`noise.attach` on identity factors, which the fold leaves as they are.

`rx`, `ry` and `rz` are the single-qubit rotations. `noise.from_euler`
multiplies out Rx Rz Rx in closed form, and `rx(t1) @ rz(t2) @ rx(t3)` is
the reference for it; `ry` prepares the fiducial's qubits.
`transfer_amplitudes` is the transfer chain with each CZ-sign step taken as
two complex products with H; the package takes those steps on the float
view of v, and must give the same bits.

`haar_random_su2` is the tests' Haar sampler: four normals per element from
a stream, built by the package's `su2_from_normals`, as
`experiment.draw_trials` does for each trial. `su2_from_ginibre` is an
independent Haar construction to test that build against: the QR
decomposition of a complex Ginibre matrix with its phases fixed (Mezzadri,
arXiv:math-ph/0609050), divided by a square root of its determinant.
"""

from functools import reduce

import numpy as np

from cosetkernel import dataset, experiment, kernel, noise
from cosetkernel.dataset import su2_from_normals

DENSE_MAX_QUBITS = 10
_H = np.array([[1, 1], [1, -1]], dtype=complex)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}
_PAULI_INDEX = {c: k for k, c in enumerate(PAULIS)}
_PAULI_STACK = np.stack(list(PAULIS.values()))


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


def transfer_amplitudes(left, right, offsets_left, offsets_right):
    """`kernel.transfer_amplitudes` with each CZ-sign step taken as two
    complex products with H, H v and then (H v) H."""
    a_left = ry(np.pi / 2 - offsets_left)[..., None, :, None, :, 0]
    a_right = ry(np.pi / 2 - offsets_right)[..., None, :, None, :, 0]
    p, n, q = left.shape[-4], left.shape[-3], right.shape[-4]
    bras = np.moveaxis(np.conj(left * a_left), (-3, -1), (0, -3))
    kets = np.moveaxis(right * a_right, (-3, -2), (0, -3))
    bras = bras.reshape(n, *bras.shape[1:-3], 2 * p, 2)
    kets = kets.reshape(n, *kets.shape[1:-3], 2, 2 * q)
    v = bras[0] @ kets[0]
    batch = v.shape[:-2]
    for bra, ket in zip(bras[1:], kets[1:]):
        hvh = (_H @ v.reshape(*batch, 2, -1)).reshape(*batch, -1, 2) @ _H
        v = bra @ ket
        v *= hvh.reshape(v.shape)
    v = v.reshape(*batch, 2, p, q, 2)
    halves = v[..., 0] + v[..., 1]
    return halves[..., 0, :, :] + halves[..., 1, :, :]


def trial_rng(seed, n_qubits, m, trial_index):
    """One trial's stream, built on its own: `experiment.trial_rngs` must
    give every trial of a chunk this generator's state."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(n_qubits, m, trial_index))
    )


def generate(n_qubits, m, rng):
    """One trial's (m, N, 2, 2) representatives from the stream `rng`,
    which gives its 4 m N normals and nothing else."""
    return experiment._read_streams(n_qubits, m, [rng], 0)[0][0]


def split(n, m, rng):
    """One trial's (K,) train indices over m coset-major blocks of n points,
    from the next P + m uniforms of the stream `rng`."""
    return dataset.split_trials(n, m, rng.random((1, m * n + m)))[0]


def split_by_blocks(n, m, uniforms):
    """The reference for `dataset.split_trials`, trial by trial and coset by
    coset: each coset's block of n points sorted by (rank uniform, index),
    its first `dataset.train_counts` points kept, and the kept indices
    sorted."""
    counts = dataset.train_counts(n, m, uniforms[:, :m])
    halves = []
    for row, row_counts in zip(uniforms.tolist(), counts.tolist()):
        kept = []
        for i, count in enumerate(row_counts):
            block = range(i * n, (i + 1) * n)
            kept += sorted(block, key=lambda p: (row[m + p], p))[:count]
        halves.append(sorted(kept))
    return np.array(halves)


def train_points(factors, train):
    """Each trial's train points of a (..., T, P, N, 2, 2) factor stack,
    for (T, K) train indices: (..., T, K, N, 2, 2), the leading axes
    sharing the indices."""
    idx = np.asarray(train, dtype=int)[..., None, None, None]
    return np.take_along_axis(
        factors, idx[(None,) * (factors.ndim - idx.ndim)], -4)


def train_tables_from_all_points(n_qubits, m, rngs, variants, epsilon):
    """The (V, T, K, K) noisy train-surface kernels of a batch of streams,
    built in another order than `experiment.kernel_tables` builds them:
    `noise.attach` noises all P points of each trial, then the train
    points' factors are gathered and compared."""
    reps, train, uniforms = experiment.draw_trials(n_qubits, m, rngs, "train",
                                                   variants)
    factors, offsets = noise.attach(variants, epsilon, dataset.points(reps),
                                    uniforms)
    return kernel.kernel_matrix(train_points(factors, train), offsets)


def build_kernel(n_qubits, m, cfg_noise, rng, surface="train"):
    """One trial's representatives, train indices and noisy kernel from the
    stream `rng`; the split is drawn on either surface, and the full
    surface's kernel is over every point. Built through `noise.attach` and
    `kernel.kernel_matrix`, not `experiment.kernel_tables`, so a zero
    budget runs the chain too."""
    variants, epsilon = (cfg_noise.variant,), cfg_noise.epsilon
    reps, train, uniforms = experiment.draw_trials(n_qubits, m, [rng],
                                                   variants=variants)
    factors, offsets = noise.attach(variants, epsilon, dataset.points(reps),
                                    uniforms)
    if surface == "train":
        factors = train_points(factors, train)
    kmat = kernel.kernel_matrix(factors, offsets)
    return reps[0], train[0], kmat[0, 0]


def run_trial(n_qubits, m, cfg_noise, rng, *, trial_index=0, surface="train",
              digest=""):
    """One trial's record from the stream `rng`."""
    _, (values,), counts, labels = experiment.kernel_tables(
        n_qubits, m, [rng], surface, (cfg_noise.variant,), cfg_noise.epsilon)
    stats = kernel.trial_stats(values, counts, labels)
    return dict(zip(experiment.TRIAL_FIELDS,
                    (n_qubits, m, trial_index, *stats[0].tolist(), digest)))


def expand_tables(values, counts, labels):
    """The (T, K, K) kernels over the points, and their (T, K) coset labels,
    of a batch of `experiment.kernel_tables`' (T, A, A) tables, each row a
    repeated `counts[..., a]` times, one trial at a time. A row's points are
    consecutive: the points are coset-major and a split's train indices
    sorted, so one coset's train points follow each other."""
    counts = np.broadcast_to(counts, (len(values), counts.shape[-1]))
    labels = np.broadcast_to(labels, (len(values), labels.shape[-1]))
    kernels, point_labels = [], []
    for table, trial_counts, trial_labels in zip(values, counts, labels):
        rows = np.repeat(np.arange(len(trial_counts)), trial_counts)
        kernels.append(table[np.ix_(rows, rows)])
        point_labels.append(trial_labels[rows])
    return np.array(kernels), np.array(point_labels)


def fiducial_offsets(n_qubits, epsilon, rng):
    """The (2, N) bra and ket offsets of one trial's fiducial errors, read
    from the stream `rng` as `Generator.uniform(-b, b)`, b = 2 eps / N."""
    bound = 2 * epsilon / n_qubits
    return rng.uniform(-bound, bound, size=(2, n_qubits))


def element_angles(points, n_qubits, epsilon, rng):
    """The (P, N, 3) XZX Euler triples of one trial's selection or
    representation errors, read from the stream `rng` as
    `Generator.uniform(-b, b)`, b = 2 eps / (sqrt(5) N)."""
    bound = 2 * epsilon / (np.sqrt(5) * n_qubits)
    return rng.uniform(-bound, bound, size=(points, n_qubits, 3))


def sequential_draws(n_qubits, m, rng, surface, variants, epsilon):
    """One trial's draws from the stream `rng`, read one piece at a time:
    its representatives, its (K,) train indices (None on the full surface,
    which still reads them) and, for a tuple of V `variants`, its
    (V, P, N, 2, 2) noisy point factors and (2, V, N) offsets. Every
    variant's angles are read from where the split left the stream, which
    is left where the longest of those reads left it."""
    reps = su2_from_normals(rng.standard_normal((m, n_qubits, 4)))
    counts = rng.random(m)
    ranks = rng.random(m * n_qubits)
    train = None
    if surface == "train":
        train = dataset.split_trials(n_qubits, m,
                                     np.concatenate([counts, ranks])[None])[0]
    points = dataset.points(reps)
    factors = np.broadcast_to(points, (len(variants), *points.shape)).copy()
    offsets = np.zeros((2, len(variants), n_qubits))
    start = end = rng.bit_generator.state
    longest = 0
    for v, name in enumerate(variants):
        rng.bit_generator.state = start
        if name == "fiducial":
            offsets[:, v] = fiducial_offsets(n_qubits, epsilon, rng)
            read = 2 * n_qubits
        elif name != "none":
            errors = noise.from_euler(
                element_angles(len(points), n_qubits, epsilon, rng))
            factors[v] = noise.fold(name, errors, points)
            read = 3 * len(points) * n_qubits
        else:
            read = 0
        if read > longest:
            longest, end = read, rng.bit_generator.state
    rng.bit_generator.state = end
    return reps, train, factors, offsets


def attached(variant, epsilon, n_qubits, rng, points=1):
    """One trial's noise from `noise.attach`, on the next `noise.draws`
    uniforms of the stream `rng`: the (2, N) bra and ket offsets for
    fiducial errors, the (points, N, 2, 2) perturbations E_x for selection
    or representation errors."""
    identity = np.broadcast_to(I2, (1, points, n_qubits, 2, 2))
    uniforms = rng.random((1, noise.draws((variant,), points, n_qubits)))
    factors, offsets = noise.attach((variant,), epsilon, identity, uniforms)
    return offsets[:, 0, 0] if variant == "fiducial" else factors[0, 0]


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


def haar_random_state(dim, rng):
    """Haar-random pure state on a dim-dimensional space."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_random_su2(rng, shape=()):
    """Haar-random SU(2) elements, shape (*shape, 2, 2), from one draw of
    shape (*shape, 4) normals."""
    return su2_from_normals(rng.standard_normal((*shape, 4)))


def su2_from_ginibre(g):
    """Haar-random SU(2) elements from complex Ginibre matrices, via QR.
    `g` holds standard normals of shape (..., 2, 2, 2): per element, the 2x2
    real parts and then the 2x2 imaginary parts; the result is (..., 2, 2)."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    # fix the phase ambiguity of QR, then normalize the determinant
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q / np.sqrt(np.linalg.det(q))[..., None, None]


def dense(g):
    """Full 2^N x 2^N matrix of one (N, 2, 2) element (Kronecker product)."""
    return reduce(np.kron, g)


def chain_edges(n):
    return [(j, j + 1) for j in range(n - 1)]


def fiducial_operator(offsets):
    """Dense 2^N x 2^N matrix of the preparation circuit with (N,) Ry
    offsets."""
    n = len(offsets)
    op = reduce(np.kron, ry(np.pi / 2 - np.asarray(offsets, dtype=float)))
    cz_diag = np.ones(2**n)
    for j, k in chain_edges(n):
        bits_j = (np.arange(2**n) >> (n - 1 - j)) & 1
        bits_k = (np.arange(2**n) >> (n - 1 - k)) & 1
        cz_diag = cz_diag * np.where((bits_j & bits_k) == 1, -1.0, 1.0)
    return cz_diag[:, None] * op


def feature_states(factors, offsets, perturbations=None, variant="selection"):
    """(P, 2^N) rows |phi(x)> = D_x V |0> for a (P, N, 2, 2) factor stack
    and the preparation V of the (N,) offsets. With one perturbation E_x per
    point as a second (P, N, 2, 2) stack, the rows are E_x D_x V |0> for the
    `selection` variant and D_x E_x V |0> for `representation`."""
    n = len(offsets)
    if n > DENSE_MAX_QUBITS:
        raise ValueError(
            f"the dense oracle is limited to {DENSE_MAX_QUBITS} qubits"
        )
    if perturbations is not None and perturbations.shape != factors.shape:
        raise ValueError("need one perturbation per point")
    fiducial = fiducial_operator(offsets) @ zero_state(n)
    ops = [dense(f) for f in factors]
    if perturbations is not None:
        errors = [dense(e) for e in perturbations]
        if variant == "selection":
            ops = [e @ op for e, op in zip(errors, ops)]
        else:
            ops = [op @ e for e, op in zip(errors, ops)]
    return np.stack([op @ fiducial for op in ops])


def kernel_matrix(factors, offsets=None, *, perturbations=None,
                  variant="selection"):
    """`kernel.kernel_matrix` from dense feature states, with the noise given
    unfolded: the (2, N) bra and ket offsets, and optionally a (P, N, 2, 2)
    stack of one perturbation per point that `variant` places
    (`feature_states`). Entries are |<phi_l(x)|phi_r(x')>|^2. Stacks with
    leading batch axes, (..., P, N, 2, 2), get one dense kernel per stack;
    their offsets are (2, ..., N)."""
    if factors.ndim > 4:
        return np.stack([
            kernel_matrix(
                factors[t],
                None if offsets is None else offsets[:, t],
                perturbations=None if perturbations is None
                else perturbations[t],
                variant=variant,
            )
            for t in range(len(factors))
        ])
    if offsets is None:
        ideal = np.zeros(factors.shape[-3])
        left = right = feature_states(factors, ideal, perturbations, variant)
    else:
        left, right = (feature_states(factors, o, perturbations, variant)
                       for o in offsets)
    gram = np.abs(left.conj() @ right.T) ** 2
    return np.triu(gram) + np.triu(gram, 1).T


def alpha_matrix(reps):
    """`kernel.alpha_matrix` from dense feature states of the (m, N, 2, 2)
    representatives, with unit diagonal; a (T, m, N, 2, 2) batch gets one
    dense matrix per trial, stacked."""
    if reps.ndim == 5:
        return np.stack([alpha_matrix(r) for r in reps])
    states = feature_states(reps, np.zeros(reps.shape[-3]))
    alphas = np.abs(states.conj() @ states.T) ** 2
    np.fill_diagonal(alphas, 1.0)
    return alphas
