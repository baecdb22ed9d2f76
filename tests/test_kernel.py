import numpy as np
import pytest

from cosetkernel import dataset, group, kernel, noise


def test_entry_same_point_is_one():
    rng = np.random.default_rng(0)
    ds = dataset.generate(3, 2, rng)
    x = ds.points[0]
    assert abs(kernel.kernel_entry(x, x) - 1) < 1e-12


def test_entry_same_coset_is_one():
    rng = np.random.default_rng(1)
    ds = dataset.generate(4, 2, rng)
    assert abs(kernel.kernel_entry(ds.points[0], ds.points[2]) - 1) < 1e-10


def test_cross_coset_mean_near_haar_value():
    # mean alpha over independent Haar representative pairs at N=6 is 1/64
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(1000):
        ds = dataset.generate(6, 2, rng)
        vals.append(kernel.alpha_matrix(ds)[0, 1])
    vals = np.array(vals)
    se = vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean() - 1 / 64) < 3 * se


def test_matrix_counts_and_symmetry():
    rng = np.random.default_rng(3)
    n, m = 2, 2
    ds = dataset.generate(n, m, rng)
    kmat = kernel.kernel_matrix(list(ds.points), n)
    assert np.array_equal(kmat.entries, kmat.entries.T)
    off = kmat.entries[~np.eye(kmat.size, dtype=bool)]
    assert np.sum(np.abs(off - 1) < 1e-9) == m * (n**2 - n)
    assert len(kernel.cross_coset_values(kmat)) == 2 * n**2


def test_block_structure():
    # cross value depends on the coset pair only, not the generators
    rng = np.random.default_rng(4)
    ds = dataset.generate(4, 3, rng)
    kmat = kernel.kernel_matrix(list(ds.points), 4)
    alphas = kernel.alpha_matrix(ds)
    for r in range(kmat.size):
        for c in range(kmat.size):
            i, j = kmat.coset_labels[r], kmat.coset_labels[c]
            expected = 1.0 if i == j else alphas[i, j]
            assert abs(kmat.entries[r, c] - expected) < 1e-10


def test_entries_in_unit_interval():
    rng = np.random.default_rng(5)
    ds = dataset.generate(3, 4, rng)
    kmat = kernel.kernel_matrix(list(ds.points), 3)
    assert np.all(kmat.entries > -1e-10)
    assert np.all(kmat.entries < 1 + 1e-10)


def test_restriction_to_train_split():
    rng = np.random.default_rng(6)
    ds = dataset.generate(3, 2, rng)
    sp = dataset.split(ds, rng)
    full = kernel.kernel_matrix(list(ds.points), 3)
    sub = kernel.restrict(full, sp.train)
    assert sub.size == len(sp.train)
    np.testing.assert_allclose(
        sub.entries, full.entries[np.ix_(sp.train, sp.train)]
    )


def test_dense_path_matches_gate_path():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        ds = dataset.generate(n, 2, rng)
        x, xp = ds.points[0], ds.points[-1]
        g = kernel.kernel_entry(x, xp, method="gate")
        d = kernel.kernel_entry(x, xp, method="dense")
        assert abs(g - d) < 1e-10


def test_selection_noise_diagonal_is_one():
    rng = np.random.default_rng(8)
    n = 3
    ds = dataset.generate(n, 2, rng)
    perts = [
        noise.perturbation_element(noise.sample_element_perturbation(n, 0.3, rng))
        for _ in ds.points
    ]
    kmat = kernel.kernel_matrix(list(ds.points), n, perturbations=perts)
    np.testing.assert_allclose(np.diag(kmat.entries), 1.0, atol=1e-12)


def test_fiducial_noise_needs_both_sides():
    rng = np.random.default_rng(9)
    ds = dataset.generate(2, 2, rng)
    with pytest.raises(ValueError):
        kernel.kernel_matrix(list(ds.points), 2, offsets_left=np.zeros(2))


def test_alpha_matrix_properties():
    rng = np.random.default_rng(10)
    ds = dataset.generate(3, 4, rng)
    alphas = kernel.alpha_matrix(ds)
    np.testing.assert_allclose(np.diag(alphas), 1.0)
    assert np.array_equal(alphas, alphas.T)
    assert np.all((alphas >= 0) & (alphas <= 1))


def test_alpha_mean_at_eight_qubits():
    rng = np.random.default_rng(11)
    vals = []
    for _ in range(200):
        ds = dataset.generate(8, 2, rng)
        vals.append(kernel.alpha_matrix(ds)[0, 1])
    vals = np.array(vals)
    se = vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean() - 1 / 256) < 3 * se


def test_heatmap_export(tmp_path):
    rng = np.random.default_rng(12)
    ds = dataset.generate(2, 2, rng)
    kmat = kernel.kernel_matrix(list(ds.points), 2)
    path = tmp_path / "heat.csv"
    kernel.export_heatmap(kmat, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",c0s0,c0s1,c1s0,c1s1"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[0] == "c0s0"
    np.testing.assert_allclose(
        [float(v) for v in row[1:]], kmat.entries[0]
    )


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("attachment", ["none", "fiducial", "selection"])
def test_feature_states_match_dense_oracle(n, attachment):
    rng = np.random.default_rng(100 + n)
    points = list(dataset.generate(n, 2, rng).points)
    preps = [group.fiducial_preparation(n)]
    perts = None
    if attachment == "fiducial":
        preps = [
            group.fiducial_preparation(n, noise.sample_fiducial_offsets(n, 0.3, rng))
            for _ in ("left", "right")
        ]
    elif attachment == "selection":
        perts = [
            noise.perturbation_element(noise.sample_element_perturbation(n, 0.3, rng))
            for _ in points
        ]
    for prep in preps:
        gate = kernel.feature_states(points, prep, perts)
        dense = kernel.feature_states(points, prep, perts, method="dense")
        assert gate.shape == (len(points), 2**n)
        np.testing.assert_allclose(gate, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "attachment, expected", [("none", 1), ("fiducial", 2), ("selection", 1)]
)
def test_one_fiducial_preparation_per_side(monkeypatch, attachment, expected):
    rng = np.random.default_rng(13)
    n = 4
    points = list(dataset.generate(n, 3, rng).points)
    kwargs = {}
    if attachment == "fiducial":
        kwargs = {
            "offsets_left": noise.sample_fiducial_offsets(n, 0.1, rng),
            "offsets_right": noise.sample_fiducial_offsets(n, 0.1, rng),
        }
    elif attachment == "selection":
        kwargs = {"perturbations": [
            noise.perturbation_element(noise.sample_element_perturbation(n, 0.1, rng))
            for _ in points
        ]}
    calls = []
    original = group.prepare_fiducial

    def counting(prep):
        calls.append(prep)
        return original(prep)

    monkeypatch.setattr(group, "prepare_fiducial", counting)
    kernel.kernel_matrix(points, n, **kwargs)
    assert len(calls) == expected
