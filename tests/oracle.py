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
`noise.attach`, which builds the package's noisy inputs for one variant or
a tuple of them. `alpha_matrix` builds the representatives' states the
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
`[rng]`, and its trial 0. A trial's dataset is its (m, N, 2, 2)
representatives (`dataset.points` and `dataset.coset_labels` give its points
and their labels), a split is its sorted train indices, and a trial's report
is its record, the dict of `experiment.TRIAL_FIELDS`.

`rx`, `ry` and `rz` are the single-qubit rotations. `noise.from_euler`
multiplies out Rx Rz Rx in closed form, and `rx(t1) @ rz(t2) @ rx(t3)` is
the reference for it; `ry` prepares the fiducial's qubits.
`transfer_amplitudes` is the transfer chain with each CZ-sign step taken as
two complex products with H; the package takes those steps on the float
view of v, and must give the same bits.

`haar_random_su2` is the tests' Haar sampler: four normals per element from
a stream, built by the package's `su2_from_normals`, as
`dataset.generate_trials` does for each trial. `su2_from_ginibre` is an
independent Haar construction to test that build against: the QR
decomposition of a complex Ginibre matrix with its phases fixed (Mezzadri,
arXiv:math-ph/0609050), divided by a square root of its determinant.
"""

from functools import reduce

import numpy as np

from cosetkernel import dataset, experiment
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
    """One trial's (m, N, 2, 2) representatives from the stream `rng`."""
    return dataset.generate_trials(n_qubits, m, [rng])[0]


def split(labels, m, rng):
    """One trial's (K,) train indices over points of the coset `labels`
    0..m-1, from the stream `rng`."""
    return dataset.split_trials(labels, m, [rng])[0]


def build_kernel(n_qubits, m, cfg_noise, rng, surface="train"):
    """One trial's representatives, train indices and noisy kernel from the
    stream `rng`; the split is drawn on either surface, and the full
    surface's kernel is over every point."""
    reps, train = experiment.draw_trials(n_qubits, m, [rng])
    kmat = experiment.noisy_kernels(
        reps, train if surface == "train" else None, cfg_noise.variant,
        cfg_noise.epsilon, [rng]
    )
    return reps[0], train[0], kmat[0]


def run_trial(n_qubits, m, cfg_noise, rng, *, trial_index=0, surface="train",
              digest=""):
    """One trial's record from the stream `rng`."""
    stats = experiment.run_trials(n_qubits, m, cfg_noise, [rng], surface)
    return dict(zip(experiment.TRIAL_FIELDS,
                    (n_qubits, m, trial_index, *stats[0].tolist(), digest)))


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


def kernel_matrix(factors, indices=None, offsets=None, *, perturbations=None,
                  variant="selection"):
    """`kernel.kernel_matrix` from dense feature states, with the noise given
    unfolded: the (2, N) bra and ket offsets, and optionally a (P, N, 2, 2)
    stack of one perturbation per point, that `indices` selects from too
    and that `variant` places (`feature_states`). Entries are |<phi_l(x)|phi_r(x')>|^2. A batch of
    trials' stacks gets one dense kernel per trial, stacked; its offsets are
    (2, T, N)."""
    if factors.ndim == 5:
        def at(t, a):
            return None if a is None else a[t]

        return np.stack([
            kernel_matrix(
                factors[t],
                at(t, indices),
                None if offsets is None else offsets[:, t],
                perturbations=at(t, perturbations),
                variant=variant,
            )
            for t in range(len(factors))
        ])
    idx = slice(None) if indices is None else np.asarray(indices, dtype=int)
    factors = factors[idx]
    if perturbations is not None:
        perturbations = perturbations[idx]
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
