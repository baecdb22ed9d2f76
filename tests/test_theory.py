import numpy as np
import pytest

from cosetkernel import dataset, kernel, noise, theory

import oracle


def uniform_alphas(m, value):
    a = np.full((m, m), value)
    np.fill_diagonal(a, 1.0)
    return a


def multiset_moments(counts, alphas):
    """Brute-force oracle: enumerate the off-diagonal kernel-value multiset
    {1 x n_i (n_i - 1) per coset} + {alpha_ij x n_i n_j per ordered pair
    i != j} and average."""
    values = []
    for i, n_i in enumerate(counts):
        values.extend([1.0] * (n_i * (n_i - 1)))
        for j, n_j in enumerate(counts):
            if j != i:
                values.extend([alphas[i][j]] * (n_i * n_j))
    values = np.array(values)
    return values.mean(), values.var()


def random_alphas(m, rng):
    alphas = uniform_alphas(m, 0.0)
    iu = np.triu_indices(m, k=1)
    vals = rng.uniform(0, 1, size=len(iu[0]))
    alphas[iu] = vals
    alphas.T[iu] = vals
    return alphas


def test_expectation_all_alpha_zero():
    mean, _ = theory.offdiag_moments([3] * 2, uniform_alphas(2, 0.0))
    assert mean == pytest.approx(0.4)


def test_expectation_all_alpha_one():
    mean, variance = theory.offdiag_moments([4] * 3, uniform_alphas(3, 1.0))
    assert mean == pytest.approx(1.0)
    assert variance == pytest.approx(0.0, abs=1e-14)


def test_expectation_large_n_approaches_inverse_m():
    for m in (2, 3, 4, 5):
        val, _ = theory.offdiag_moments([10_000] * m, uniform_alphas(m, 2.0**-30))
        assert val == pytest.approx(1 / m, abs=1e-3)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 4), (3, 5), (5, 3)])
def test_moments_match_enumeration_oracle(m, n):
    alphas = random_alphas(m, np.random.default_rng(m * 10 + n))
    mean, var = multiset_moments([n] * m, alphas)
    got_mean, got_var = theory.offdiag_moments([n] * m, alphas)
    assert got_mean == pytest.approx(mean, abs=1e-12)
    assert got_var == pytest.approx(var, abs=1e-12)


@pytest.mark.parametrize("m", range(2, 6))
def test_uneven_counts_match_enumeration_oracle(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(20):
        counts = rng.integers(1, 7, size=m).tolist()
        alphas = random_alphas(m, rng)
        mean, var = multiset_moments(counts, alphas)
        got_mean, got_var = theory.offdiag_moments(counts, alphas)
        assert got_mean == pytest.approx(mean, abs=1e-12)
        assert got_var == pytest.approx(var, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, "N", 1000, "uneven"])
def test_shared_alpha_matches_the_matrix_bit_for_bit(n):
    # 2^-N and its square are exact, and so is every sum of the one-pass
    # form, so one alpha and its matrix give the same bits
    rng = np.random.default_rng(7)
    for m in range(2, 9):
        for n_qubits in range(2, 129):
            if n == "uneven":
                counts = rng.integers(1, 130, size=m).tolist()
            else:
                counts = [n_qubits if n == "N" else n] * m
            a = 2.0**-n_qubits
            scalar = theory.offdiag_moments(counts, a)
            assert all(type(v) is float for v in scalar)
            matrix = theory.offdiag_moments(counts, uniform_alphas(m, a))
            assert [v.hex() for v in scalar] == [v.hex() for v in matrix]


def test_equal_counts_match_the_factored_forms():
    # n points in each of m cosets with alpha = 2^-N: the one-pass sums are
    # the factored large-N forms of the mean and variance
    for m in range(2, 9):
        for n in range(1, 129):
            for n_qubits in range(2, 129):
                a = 2.0**-n_qubits
                mean, variance = theory.offdiag_moments([n] * m, a)
                want_mean = ((n - 1) + n * (m - 1) * a) / (m * n - 1)
                want_variance = (n * (n - 1) * (m - 1) * (1 - a) ** 2
                                 / (m * n - 1) ** 2)
                assert abs(mean - want_mean) <= 1e-15
                assert abs(variance - want_variance) <= 1e-15


def asymptotic_variance(m, n, n_qubits):
    """The factored large-N form of the variance at alpha = 2^-N."""
    return n * (n - 1) * (m - 1) / (m * n - 1) ** 2 * (1 - 2.0**-n_qubits) ** 2


def test_variance_close_to_asymptotic_form():
    _, exact = theory.offdiag_moments([10] * 2, uniform_alphas(2, 1 / 1024))
    asym = asymptotic_variance(2, 10, 10)
    assert abs(exact - asym) / asym < 1e-3


def test_exact_converges_to_asymptotic():
    for n_qubits in (8, 9, 10):
        for m in (2, 3, 4, 5):
            _, exact = theory.offdiag_moments(
                [n_qubits] * m, uniform_alphas(m, 2.0**-n_qubits)
            )
            asym = asymptotic_variance(m, n_qubits, n_qubits)
            assert abs(exact - asym) / asym < 0.01


def test_rejects_fewer_than_two_cosets_or_an_empty_one():
    for counts in ([3], [3, 0], []):
        with pytest.raises(ValueError, match="need m >= 2 and n >= 1"):
            theory.offdiag_moments(counts, 0.25)
    with pytest.raises(ValueError, match="alphas must be 3x3"):
        theory.offdiag_moments([2, 2, 2], uniform_alphas(2, 0.25))


def test_limits():
    assert theory.limit_variance(2) == pytest.approx(0.25)
    assert theory.limit_variance(5) == pytest.approx(0.16)
    for m in (2, 3, 4, 5):
        assert theory.limit_expectation(m) == pytest.approx(1 / m)


def test_limit_variance_decreasing_in_m():
    vals = [theory.limit_variance(m) for m in range(2, 50)]
    assert vals[0] == max(vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def two_groups(k, labels, alpha):
    """The (mean, population variance) pairs of gamma = 1 - kappa over the
    off-diagonal same-coset entries of `k` and of delta = kappa - alpha
    over its cross-coset ones."""
    same = ~np.eye(len(k), dtype=bool) & (labels[:, None] == labels)
    gammas = 1 - k[same]
    deltas = k[labels[:, None] != labels] - alpha
    return (gammas.mean(), gammas.var()), (deltas.mean(), deltas.var())


def test_noisy_formulas_zero_stats():
    m, n = 3, 4
    mean, variance = theory.offdiag_moments([n] * m, uniform_alphas(m, 0.25))
    got = theory.two_group_moments(m, n, 0.25, (0.0, 0.0), (0.0, 0.0))
    assert got == pytest.approx((mean, variance))


def test_noisy_constant_kernel():
    alpha = 0.3
    mean, variance = theory.two_group_moments(2, 5, alpha, (1 - alpha, 0.0),
                                              (0.0, 0.0))
    assert mean == pytest.approx(alpha)
    assert variance == pytest.approx(0.0, abs=1e-14)


def test_extract_stats_ideal_kernel():
    # an ideal kernel is 1 within a coset and alpha across: no deviation
    rng = np.random.default_rng(0)
    reps = oracle.generate(3, 2, rng)
    kmat = kernel.kernel_matrix(dataset.points(reps))
    labels = dataset.coset_labels(3, 2)
    same = ~np.eye(len(kmat), dtype=bool) & (labels[:, None] == labels)
    assert kmat[same] == pytest.approx(1.0, abs=1e-12)
    cross = kmat[labels[:, None] != labels]
    assert cross == pytest.approx(kernel.alpha_matrix(reps)[0, 1], abs=1e-10)


def test_extract_stats_gamma_nonnegative():
    # selection noise only lowers a same-coset entry below 1
    rng = oracle.trial_rng(1, 4, 2, 0)
    _, _, k = oracle.build_kernel(
        4, 2, noise.NoiseConfig("selection", 0.05), rng, surface="full"
    )
    labels = dataset.coset_labels(4, 2)
    same = ~np.eye(len(k), dtype=bool) & (labels[:, None] == labels)
    assert np.all(1 - k[same] >= -1e-10)


@pytest.mark.parametrize(
    "n_qubits,m,variant", [(4, 2, "fiducial"), (4, 3, "selection"), (5, 2, "fiducial"), (6, 2, "selection")]
)
def test_noisy_variance_is_exact_decomposition(n_qubits, m, variant):
    # the two-group decomposition reproduces the population variance of the
    # full off-diagonal multiset for any reference alpha
    rng = oracle.trial_rng(2, n_qubits, m, 0)
    _, _, kmat = oracle.build_kernel(
        n_qubits, m, noise.NoiseConfig(variant, 0.05), rng, surface="full"
    )
    labels = dataset.coset_labels(n_qubits, m)
    empirical_var, empirical_mean = kernel.trial_stats(
        kmat, np.ones(len(kmat), dtype=int), labels
    )[:2]
    for alpha_used in (2.0**-n_qubits, 0.123):
        gamma, delta = two_groups(kmat, labels, alpha_used)
        mean, variance = theory.two_group_moments(m, n_qubits, alpha_used,
                                                  gamma, delta)
        assert variance == pytest.approx(empirical_var, abs=1e-9)
        assert mean == pytest.approx(empirical_mean, abs=1e-9)
