import csv

import numpy as np
import pytest

from cosetkernel import dataset, experiment, kernel, noise, theory

import oracle


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_real_sign_steps_match_the_complex_chain(n):
    # the CZ-sign steps on the float view give the bits of the complex
    # products with H: on a trial batch, with the bra and the ket on their
    # own offsets and point sets of different sizes, and for one trial
    m, trials = 3, 4
    rngs = [oracle.trial_rng(12, n, m, t) for t in range(trials)]
    ket = dataset.points(experiment.draw_trials(n, m, rngs)[0])
    bra = ket[:, : n + 1]
    offsets = np.random.default_rng(n).uniform(-0.2, 0.2, (2, trials, n))
    got = kernel.transfer_amplitudes(bra, ket, *offsets)
    assert got.shape == (trials, n + 1, m * n)
    assert np.array_equal(got, oracle.transfer_amplitudes(bra, ket, *offsets))
    one = kernel.transfer_amplitudes(bra[1], ket[1], *offsets[:, 1])
    assert np.array_equal(one, oracle.transfer_amplitudes(bra[1], ket[1],
                                                          *offsets[:, 1]))
    assert np.array_equal(one, got[1])


def test_entry_same_point_is_one():
    rng = np.random.default_rng(0)
    points = dataset.points(oracle.generate(3, 2, rng))
    kmat = kernel.kernel_matrix(points[[0, 0]])
    assert abs(kmat[0, 1] - 1) < 1e-12


def test_entry_same_coset_is_one():
    rng = np.random.default_rng(1)
    points = dataset.points(oracle.generate(4, 2, rng))
    kmat = kernel.kernel_matrix(points[[0, 2]])
    assert list(dataset.coset_labels(4, 2)[[0, 2]]) == [0, 0]
    assert abs(kmat[0, 1] - 1) < 1e-10


def test_cross_coset_mean_near_haar_value():
    # mean alpha over independent Haar representative pairs at N=6 is 1/64
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(1000):
        vals.append(kernel.alpha_matrix(oracle.generate(6, 2, rng))[0, 1])
    vals = np.array(vals)
    se = vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean() - 1 / 64) < 3 * se


def test_matrix_counts_and_symmetry():
    rng = np.random.default_rng(3)
    n, m = 2, 2
    kmat = kernel.kernel_matrix(dataset.points(oracle.generate(n, m, rng)))
    assert isinstance(kmat, np.ndarray) and kmat.shape == (m * n, m * n)
    assert np.array_equal(kmat, kmat.T)
    off = kmat[~np.eye(len(kmat), dtype=bool)]
    assert np.sum(np.abs(off - 1) < 1e-9) == m * (n**2 - n)
    labels = dataset.coset_labels(n, m)
    assert len(kmat[labels[:, None] != labels[None, :]]) == 2 * n**2


def test_block_structure():
    # cross value depends on the coset pair only, not the generators
    rng = np.random.default_rng(4)
    reps = oracle.generate(4, 3, rng)
    kmat = kernel.kernel_matrix(dataset.points(reps))
    alphas = kernel.alpha_matrix(reps)
    labels = dataset.coset_labels(4, 3)
    for r in range(len(kmat)):
        for c in range(len(kmat)):
            i, j = labels[r], labels[c]
            expected = 1.0 if i == j else alphas[i, j]
            assert abs(kmat[r, c] - expected) < 1e-10


def test_entries_in_unit_interval():
    rng = np.random.default_rng(5)
    kmat = kernel.kernel_matrix(dataset.points(oracle.generate(3, 4, rng)))
    assert np.all(kmat > -1e-10)
    assert np.all(kmat < 1 + 1e-10)


def test_restriction_to_train_split():
    rng = np.random.default_rng(6)
    points = dataset.points(oracle.generate(3, 2, rng))
    train = oracle.split(3, 2, rng)
    full = kernel.kernel_matrix(points)
    sub = kernel.kernel_matrix(points[train])
    assert sub.shape == (len(train), len(train))
    np.testing.assert_allclose(sub, full[np.ix_(train, train)])


def test_dense_path_matches_gate_path():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        points = dataset.points(oracle.generate(n, 2, rng))
        pair = [0, len(points) - 1]
        g = kernel.kernel_matrix(points[pair])[0, 1]
        d = oracle.kernel_matrix(points[pair])[0, 1]
        assert abs(g - d) < 1e-10


def test_selection_noise_diagonal_is_one():
    rng = np.random.default_rng(8)
    reps, _, uniforms = experiment.draw_trials(3, 2, [rng],
                                               variants=("selection",))
    noisy, offsets = noise.attach(("selection",), 0.3, dataset.points(reps),
                                  uniforms)
    kmat = kernel.kernel_matrix(noisy, offsets=offsets)[0, 0]
    np.testing.assert_allclose(np.diag(kmat), 1.0, atol=1e-12)


def test_selection_noise_needs_one_perturbation_per_point():
    rng = np.random.default_rng(16)
    points = dataset.points(oracle.generate(3, 2, rng))
    perts = oracle.attached("selection", 0.3, 3, rng)
    with pytest.raises(ValueError, match="one perturbation per point"):
        oracle.kernel_matrix(points, perturbations=perts)


def test_fiducial_offsets_need_one_per_qubit():
    # the qubit count is the factor stack's, so one offset cannot stand for
    # three
    points = dataset.points(oracle.generate(3, 2, np.random.default_rng(17)))
    with pytest.raises(ValueError, match="one offset per qubit"):
        kernel.kernel_matrix(points, offsets=np.array([[0.3], [-0.2]]))


def test_alpha_matrix_properties():
    rng = np.random.default_rng(10)
    alphas = kernel.alpha_matrix(oracle.generate(3, 4, rng))
    np.testing.assert_allclose(np.diag(alphas), 1.0)
    assert np.array_equal(alphas, alphas.T)
    assert np.all((alphas >= 0) & (alphas <= 1))


def test_alpha_matrix_is_the_kernel_over_the_representatives():
    # off the diagonal, bit for bit the ideal kernel of a batch of trials'
    # (T, m, N, 2, 2) representatives taken as points; 1 on it
    for n_qubits, m in ((2, 2), (3, 5), (7, 3), (64, 4)):
        rngs = experiment.trial_rngs(19, n_qubits, m, range(6))
        reps = experiment.draw_trials(n_qubits, m, rngs, "full")[0]
        alphas = kernel.alpha_matrix(reps)
        kmats = kernel.kernel_matrix(reps)
        off = ~np.eye(m, dtype=bool)
        assert alphas.shape == kmats.shape == (6, m, m)
        assert alphas[:, off].tobytes() == kmats[:, off].tobytes()
        assert np.all(alphas[:, ~off] == 1.0)


def test_alpha_mean_at_eight_qubits():
    rng = np.random.default_rng(11)
    vals = []
    for _ in range(200):
        vals.append(kernel.alpha_matrix(oracle.generate(8, 2, rng))[0, 1])
    vals = np.array(vals)
    se = vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean() - 1 / 256) < 3 * se


def test_heatmap_export():
    rng = np.random.default_rng(12)
    kmat = kernel.kernel_matrix(dataset.points(oracle.generate(2, 2, rng)))
    text = kernel.heatmap_csv(kmat, dataset.point_names(2, 2))
    lines = text.strip().split("\n")
    assert lines[0] == ",c0s0,c0s1,c1s0,c1s1"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[0] == "c0s0"
    np.testing.assert_allclose(
        [float(v) for v in row[1:]], kmat[0]
    )


def test_heatmap_text_is_the_repr_of_each_entry():
    # each distinct value is rendered once, and the text is still that of
    # rendering every entry: signed zeros, NaNs of either sign, infinities,
    # the least subnormal and repeated values, mirrored but for one entry
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-300,
               1 / 3, 0.1 + 0.2, 1.0]
    k = np.resize(special, (6, 6))
    k = np.where(np.tri(6, k=-1, dtype=bool), k.T, k)
    k[0, 5] = 2.5
    names = [f"p{i}" for i in range(6)]
    want = ",p0,p1,p2,p3,p4,p5\n" + "".join(
        name + "," + ",".join(map(repr, row)) + "\n"
        for name, row in zip(names, k.tolist()))
    assert kernel.heatmap_csv(k, names) == want


@pytest.mark.parametrize("surface", ["full", "train"])
def test_heatmap_text_matches_the_kernel(surface):
    # each label is its point's c{i}s{a} and each cell the repr of its
    # entry as a Python float, checked against the parsed CSV
    rng = oracle.trial_rng(3, 4, 3, 0)
    _, train, kmat = oracle.build_kernel(
        4, 3, noise.NoiseConfig("selection", 0.2), rng, surface
    )
    labels = [f"c{i}s{a}" for i in range(3) for a in range(4)]
    if surface == "train":
        labels = [labels[p] for p in train]
    rows = list(csv.reader(kernel.heatmap_csv(kmat, labels).splitlines()))
    assert rows[0] == [""] + labels
    assert len(rows) == 1 + len(kmat)
    for label, row, entries in zip(labels, rows[1:], kmat):
        assert row[0] == label
        assert row[1:] == [repr(float(v)) for v in entries]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("attachment", noise.VARIANTS)
def test_feature_states_match_dense_oracle(n, attachment):
    """The kernels of `experiment.kernel_tables`, spread over the points,
    match the ones built from dense feature states with the same noise draws
    left unfolded, on the full dataset and on a train split."""
    rng = np.random.default_rng(100 + n)
    reps, splits, uniforms = experiment.draw_trials(n, 2, [rng],
                                                    variants=(attachment,))
    eps = 0.0 if attachment == "none" else 0.3
    # the noise of the same uniforms on identity factors: the fold leaves
    # the perturbations E_x as they are
    identity = np.broadcast_to(oracle.I2, (1, 2 * n, n, 2, 2))
    errors, offsets = noise.attach((attachment,), eps, identity, uniforms)
    for surface in ("full", "train"):
        (values,), counts, labels = experiment.kernel_tables(
            n, 2, [np.random.default_rng(100 + n)], surface, (attachment,),
            eps)[1:]
        chain = oracle.expand_tables(values, counts, labels)[0]
        indices = slice(None) if surface == "full" else splits[0]
        unfolded = {}
        if attachment == "fiducial":
            unfolded["offsets"] = offsets[:, 0, 0]
        elif attachment != "none":
            unfolded["perturbations"] = errors[0, 0][indices]
            unfolded["variant"] = attachment
        dense = oracle.kernel_matrix(dataset.points(reps[0])[indices],
                                     **unfolded)
        np.testing.assert_allclose(chain[0], dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_alpha_matrix_matches_dense_oracle(n):
    rng = np.random.default_rng(200 + n)
    reps = oracle.generate(n, 4, rng)
    np.testing.assert_allclose(kernel.alpha_matrix(reps),
                               oracle.alpha_matrix(reps),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 2**40])
def test_chain_slices_keep_every_bit(budget, monkeypatch):
    # `kernel_matrix` runs a batch of kernels through the chain in slices of
    # max(1, CHUNK_ENTRIES // (2P)^2): one kernel a slice at budget 1, the
    # whole batch at once at 2**40. Either way each kernel, and each alpha
    # matrix, has the bits of its own unbatched call, with the bra and ket
    # offsets shared, (2, N), or per trial, (2, T, N)
    trials = 5
    for n_qubits, m in ((2, 2), (3, 3), (5, 2)):
        rngs = experiment.trial_rngs(61, n_qubits, m, range(trials))
        reps = experiment.draw_trials(n_qubits, m, rngs, "full")[0]
        points = dataset.points(reps)
        offsets = np.random.default_rng(n_qubits).uniform(
            -0.2, 0.2, (2, trials, n_qubits))
        shared_ref = [kernel.kernel_matrix(p, offsets[:, 0])
                      for p in points]
        own_ref = [kernel.kernel_matrix(points[t], offsets[:, t])
                   for t in range(trials)]
        alphas_ref = [kernel.alpha_matrix(r) for r in reps]
        batches = []
        chain = kernel.transfer_amplitudes

        def counted(left, *args):
            batches.append(len(left))
            return chain(left, *args)

        with monkeypatch.context() as patched:
            patched.setattr(kernel, "CHUNK_ENTRIES", budget)
            patched.setattr(kernel, "transfer_amplitudes", counted)
            shared = kernel.kernel_matrix(points, offsets[:, 0])
            own = kernel.kernel_matrix(points, offsets)
            alphas = kernel.alpha_matrix(reps)
        assert batches == ([1] * 3 * trials if budget == 1 else [trials] * 3)
        assert np.array_equal(shared, shared_ref)
        assert np.array_equal(own, own_ref)
        assert np.array_equal(alphas, alphas_ref)


def test_dense_oracle_refuses_past_its_cap():
    n = oracle.DENSE_MAX_QUBITS + 1
    points = dataset.points(oracle.generate(n, 2, np.random.default_rng(14)))
    with pytest.raises(ValueError, match="dense oracle"):
        oracle.kernel_matrix(points[[0, 1]])


@pytest.mark.parametrize("n", [32, 128])
def test_large_n_full_surface_properties(n):
    """Past the dense oracle's reach: same-coset entries are 1, cross-coset
    entries are the coset pair's alpha, and the off-diagonal variance is the
    closed form for those alphas. The tables `experiment.kernel_tables`
    takes from the alphas when the noise budget is zero, spread over the
    points, match the chain's kernels, on both surfaces and for every
    variant that has no budget."""
    unperturbed = ["none", "fiducial", "selection"]
    for m in (2, 3, 4, 5) if n == 32 else (2,):
        rng = oracle.trial_rng(15, n, m, 0)
        reps, train, _ = experiment.draw_trials(n, m, [rng])
        points = dataset.points(reps)
        kmat = kernel.kernel_matrix(points)[0]
        alphas = kernel.alpha_matrix(reps)[0]
        labels = dataset.coset_labels(n, m)
        expected = alphas[labels[:, None], labels[None, :]]
        same = labels[:, None] == labels[None, :]
        np.testing.assert_allclose(kmat[same], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kmat[~same], expected[~same], rtol=0,
                                   atol=1e-12)
        var = kernel.trial_stats(kmat, np.ones(len(kmat), dtype=int),
                                 labels)[0]
        assert abs(var - theory.offdiag_moments([n] * m, alphas)[1]) < 1e-12
        train_kmat = kernel.kernel_matrix(oracle.train_points(points,
                                                              train))[0]
        for surface, chain in (("full", kmat), ("train", train_kmat)):
            for variant in unperturbed:
                (values,), counts, labels = experiment.kernel_tables(
                    n, m, [oracle.trial_rng(15, n, m, 0)], surface,
                    (variant,), 0.0)[1:]
                gathered = oracle.expand_tables(values, counts, labels)[0]
                np.testing.assert_allclose(gathered[0], chain, rtol=0,
                                           atol=1e-12)


@pytest.mark.parametrize("surface", ["full", "train"])
@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_pair_count_weights_match_the_gathered_kernel(n, surface):
    # a noiseless kernel's off-diagonal entries are alpha_ij, n_i n_j times
    # for i != j, and 1, n_i (n_i - 1) times: its (m, m) alpha matrix with
    # n_i points per row has the statistics of the kernel with one
    trials = 3
    for m in (2, 3, 5):
        rngs = [oracle.trial_rng(8, n, m, t) for t in range(trials)]
        reps, train, _ = experiment.draw_trials(n, m, rngs)
        labels = dataset.coset_labels(n, m)
        if surface == "train":
            labels = labels[train]
        alphas = kernel.alpha_matrix(reps)
        kmats = kernel.gather_alphas(alphas, labels)
        counts = np.array([np.bincount(row, minlength=m) for row in
                           np.broadcast_to(labels, (trials, labels.shape[-1]))])
        got = kernel.trial_stats(alphas, counts, np.arange(m))
        want = kernel.trial_stats(kmats, np.ones(kmats.shape[-1], dtype=int),
                                  labels)
        assert got.shape == want.shape == (trials, 5)
        assert np.array_equal(got[:, 2::2], want[:, 2::2])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", range(2, 9))
def test_equal_count_weights_give_the_closed_form(m):
    # n points in every coset: the weighted mean and variance of the alpha
    # matrix are the closed-form moments of the off-diagonal multiset
    alphas = kernel.alpha_matrix(oracle.generate(4, m, np.random.default_rng(m)))
    for n in range(1, 129):
        variance, mean = kernel.trial_stats(alphas, np.full(m, n),
                                            np.arange(m))[:2]
        want_mean, want_variance = theory.offdiag_moments([n] * m, alphas)
        assert abs(mean - want_mean) <= 1e-15
        assert abs(variance - want_variance) <= 1e-15


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_train_split_counts_give_the_closed_form(n):
    # the uneven per-coset counts of real train splits: the pair-count
    # weighted mean and variance of each trial's alpha matrix are the
    # closed-form moments of its off-diagonal multiset
    trials = 3
    for m in (2, 3, 5):
        rngs = [oracle.trial_rng(9, n, m, t) for t in range(trials)]
        reps, train, _ = experiment.draw_trials(n, m, rngs, "train")
        alphas = kernel.alpha_matrix(reps)
        labels = dataset.coset_labels(n, m)[train]
        counts = np.array([np.bincount(row, minlength=m) for row in labels])
        want = kernel.trial_stats(alphas, counts, np.arange(m))[:, 1::-1]
        got = [theory.offdiag_moments(c, a) for c, a in zip(counts, alphas)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("surface", ["full", "train"])
@pytest.mark.parametrize("n", [2, 5, 16, 128])
def test_pair_counts(n, surface):
    # n_a n_b point pairs between rows a != b and n_a (n_a - 1) within row
    # a: ~eye for one point per row, and K (K - 1) in all for the K points
    # of either surface's zero-budget tables
    for m in (2, 3, 5):
        assert np.array_equal(kernel.pair_counts(np.ones(m * n, dtype=int)),
                              ~np.eye(m * n, dtype=bool))
        rngs = experiment.trial_rngs(10, n, m, range(3))
        counts = experiment.kernel_tables(n, m, rngs, surface, ("none",),
                                          0.0)[2]
        points = m * n if surface == "full" else m * n // 2
        pairs = kernel.pair_counts(counts)
        assert np.all(np.sum(pairs, axis=(-2, -1)) == points * (points - 1))
        for c, p in zip(np.broadcast_to(counts, (3, m)),
                        np.broadcast_to(pairs, (3, m, m))):
            assert np.array_equal(p, np.outer(c, c) - np.diag(c))
