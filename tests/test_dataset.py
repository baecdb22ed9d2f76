import itertools
import math
import re
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from cosetkernel import dataset, kernel

import oracle


def test_generate_counts_and_labels():
    rng = np.random.default_rng(0)
    reps = oracle.generate(2, 2, rng)
    assert reps.shape == (2, 2, 2, 2)
    assert dataset.points(reps).shape == (4, 2, 2, 2)
    assert list(dataset.coset_labels(2, 2)) == [0, 0, 1, 1]

    reps = oracle.generate(3, 5, rng)
    assert dataset.points(reps).shape == (15, 3, 2, 2)
    assert reps.shape == (5, 3, 2, 2)
    labels = list(dataset.coset_labels(3, 5))
    assert all(labels.count(i) == 3 for i in range(5))


def test_generate_invalid_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        oracle.generate(1, 2, rng)
    with pytest.raises(ValueError):
        oracle.generate(3, 1, rng)


def test_points_are_rep_times_generator():
    # the point that `point_names` calls c{i}s{a} is c_i s_a, in coset i
    rng = np.random.default_rng(1)
    reps = oracle.generate(3, 2, rng)
    points = dataset.points(reps)
    gens = [oracle.from_pauli(p) for p in oracle.chain_generators(3)]
    names = dataset.point_names(3, 2)
    assert len(names) == len(points)
    for x, label, name in zip(points, dataset.coset_labels(3, 2), names):
        i, a = map(int, re.fullmatch(r"c(\d+)s(\d+)", name).groups())
        assert label == i
        for j in range(3):
            expected = reps[i, j] @ gens[a][j]
            np.testing.assert_allclose(x[j], expected, atol=1e-12)


def test_same_coset_kernel_is_one():
    rng = np.random.default_rng(2)
    kmat = kernel.kernel_matrix(dataset.points(oracle.generate(3, 2, rng)))
    labels = dataset.coset_labels(3, 2)
    same = labels[:, None] == labels[None, :]
    assert np.all(np.abs(kmat[same] - 1) < 1e-10)


def test_cross_coset_never_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        kmat = kernel.kernel_matrix(dataset.points(oracle.generate(n, 2, rng)))
        labels = dataset.coset_labels(n, 2)
        values = kmat[labels[:, None] != labels[None, :]]
        assert len(values) == 2 * n**2
        assert np.all(values < 1 - 1e-6)


def test_split_sizes_and_coverage():
    rng = np.random.default_rng(4)
    labels = dataset.coset_labels(2, 2)
    train = oracle.split(2, 2, rng)
    assert len(train) == 2
    assert set(labels[train]) == {0, 1}

    labels = dataset.coset_labels(10, 5)
    rows = [rng, *np.random.default_rng(7).spawn(7)]
    splits = dataset.split_trials(10, 5, np.stack([r.random(55)
                                                   for r in rows]))
    assert splits.shape == (8, 25)
    for train in splits:
        assert set(labels[train]) == set(range(5))
    # each row strictly increasing within [0, P): distinct points, whose
    # complement is the test half
    assert np.all(np.diff(splits, axis=-1) > 0)
    assert np.all((0 <= splits) & (splits < 50))


def test_split_deterministic():
    train1 = oracle.split(4, 3, np.random.default_rng(99))
    train2 = oracle.split(4, 3, np.random.default_rng(99))
    assert np.array_equal(train1, train2)


# (n, m): m coset-major blocks of n points each
SPLIT_CASES = {"N3-m2": (3, 2), "N4-m3": (4, 3), "N2-m5": (2, 5)}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_follows_exact_law(case):
    # uniform over the halves that cover every coset, by exhaustive
    # enumeration: chi-square on the count vectors and on the halves
    n, m = SPLIT_CASES[case]
    labels = dataset.coset_labels(n, m)
    total = len(labels)
    covering = [half for half in itertools.combinations(range(total), total // 2)
                if len(set(labels[list(half)])) == m]
    draws = 20_000
    rng = np.random.default_rng(1234)
    got = dataset.split_trials(n, m, rng.random((draws, total + m)))
    halves = Counter(map(tuple, got.tolist()))
    assert set(halves) <= set(covering)
    observed = [halves[h] for h in covering]
    assert stats.chisquare(observed).pvalue > 1e-3

    def count_vector(half):
        return tuple(np.bincount(labels[list(half)], minlength=m))

    law = Counter(map(count_vector, covering))
    vectors = Counter(map(count_vector, got))
    assert set(vectors) <= set(law)
    if len(law) > 1:
        observed = [vectors[v] for v in law]
        expected = [draws * law[v] / len(covering) for v in law]
        assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("n", [*range(2, 10), 16, 64, 128])
def test_split_matches_the_block_loop(n):
    # bit for bit the per-trial, per-coset loop, m > n included, on rows
    # with tied rank uniforms and with count uniforms at 0.0 and the
    # largest double below 1
    rng = np.random.default_rng(n)
    for m in range(2, 6):
        rows = rng.random((12, m * n + m))
        ranks = rows[:, m:]
        ranks[0] = 0.5  # every point of every block tied
        ranks[1, 1::2] = ranks[1, ::2][:len(ranks[1, 1::2])]  # pairs tied
        ranks[2, n - 1] = ranks[2, 0]  # the ends of block 0 tied
        ranks[3] = np.round(ranks[3], 1)  # ties scattered over the blocks
        rows[4:8, :m] = 0.0
        rows[8:12, :m] = np.nextafter(1.0, 0.0)
        rows[[5, 9], m:] = 0.25
        assert np.array_equal(dataset.split_trials(n, m, rows),
                              oracle.split_by_blocks(n, m, rows)), (n, m)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (2, 5), (128, 5)])
def test_train_counts_at_uniform_edges(n, m):
    # coset uniforms of 0.0 and the largest double below 1, in every
    # combination for few cosets, still give possible counts
    train_size = m * n // 2
    edges = (0.0, np.nextafter(1.0, 0.0))
    rows = np.array(list(itertools.product(edges, repeat=m)))
    counts = dataset.train_counts(n, m, rows)
    assert np.all(counts >= 1)
    assert np.all(counts <= n)
    assert np.all(counts.sum(axis=1) == train_size)
    if n < 10:
        # probabilities are far from the rounding limit here, so the edges
        # pick the smallest and the largest possible count
        for row, got in zip(rows, counts):
            left = train_size
            for i, u in enumerate(row):
                rest = m - i - 1
                low = max(1, left - rest * n)
                high = min(n, left - rest)
                assert got[i] == (low if u == 0.0 else high)
                left -= got[i]


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_reads_fixed_draws(case):
    # each trial's split reads exactly its own row of P + m uniforms,
    # whatever the data: a row one short or one long is refused
    n, m = SPLIT_CASES[case]
    draws = m * n + m
    for seed in range(20):
        rows = np.random.default_rng(seed).random((3, draws))
        got = dataset.split_trials(n, m, rows)
        for t in range(3):
            assert np.array_equal(
                got[t], dataset.split_trials(n, m, rows[t:t + 1])[0])
        for wrong in (rows[:, :-1], np.hstack([rows, rows[:, :1]])):
            with pytest.raises(ValueError):
                dataset.split_trials(n, m, wrong)


def test_split_rejects_uncoverable_cosets():
    # three cosets, one point each: one train slot
    with pytest.raises(ValueError, match="cannot cover 3 cosets"):
        oracle.split(1, 3, np.random.default_rng(0))


def test_count_law_tabulates_quickly():
    # the largest cells of a sweep: N = 128, m = 5, cold
    start = time.perf_counter()
    dataset._count_cdfs.__wrapped__(128, 5)
    assert time.perf_counter() - start < 1.0


def _haar_su2_loop(rng):
    """Per-qubit reference draw: four normals at a time, normalised with
    Python floats into the unit quaternion (a, b), as [[a, -b*], [b, a*]]."""
    a_re, a_im, b_re, b_im = rng.standard_normal(4).tolist()
    norm = math.sqrt(a_re * a_re + a_im * a_im + b_re * b_re + b_im * b_im)
    a = complex(a_re / norm, a_im / norm)
    b = complex(b_re / norm, b_im / norm)
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


@pytest.mark.parametrize("m", [2, 3, 5])
def test_batched_draw_matches_per_qubit_loop(m):
    # the one stacked Haar draw and broadcast product reproduce, bit for bit,
    # a loop over representatives and qubits, and leave the stream in the
    # same state
    for n in range(2, 9):
        batched_rng = np.random.default_rng(1000 * m + n)
        loop_rng = np.random.default_rng(1000 * m + n)
        got = oracle.generate(n, m, batched_rng)
        reps = np.array([[_haar_su2_loop(loop_rng) for _ in range(n)]
                         for _ in range(m)])
        gens = [oracle.from_pauli(p) for p in oracle.chain_generators(n)]
        points = np.array([[c[j] @ s[j] for j in range(n)]
                           for c in reps for s in gens])
        assert np.array_equal(got, reps)
        assert np.array_equal(dataset.points(got), points)
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_product_equals_matmul(n):
    # a column swap and a sign flip give the matrix product's bits
    rng = np.random.default_rng(n)
    reps = np.stack([oracle.generate(n, 3, rng) for _ in range(2)])
    generic = rng.standard_normal((2, 3, n, 2, 2)) + 1j * rng.standard_normal(
        (2, 3, n, 2, 2)
    )
    gens = oracle.from_pauli("".join(oracle.chain_generators(n)))
    gens = gens.reshape(n, n, 2, 2)
    for factors in (reps, generic):
        assert np.array_equal(
            dataset.points(factors),
            (factors[:, :, None] @ gens).reshape(2, 3 * n, n, 2, 2),
        )
    # point (i, a) of every generated trial is c_i s_a
    points = dataset.points(reps)
    for t in range(2):
        for i in range(3):
            for a in range(n):
                assert np.array_equal(points[t, i * n + a],
                                      reps[t, i] @ gens[a])
