import numpy as np
import pytest

from cosetkernel import dataset, kernel, noise, theory

import oracle


def uniform_alphas(m, value):
    a = np.full((m, m), value)
    np.fill_diagonal(a, 1.0)
    return a


def multiset_moments(m, n, alphas):
    """Brute-force oracle: enumerate the off-diagonal kernel-value multiset
    {1 x m(n^2 - n)} + {alpha_ij x 2 n^2 per unordered pair} and average."""
    values = [1.0] * (m * (n**2 - n))
    for i in range(m):
        for j in range(i + 1, m):
            values.extend([alphas[i][j]] * (2 * n**2))
    values = np.array(values)
    return values.mean(), values.var()


def test_expectation_all_alpha_zero():
    assert theory.exact_expectation(2, 3, uniform_alphas(2, 0.0)) == pytest.approx(0.4)


def test_expectation_all_alpha_one():
    assert theory.exact_expectation(3, 4, uniform_alphas(3, 1.0)) == pytest.approx(1.0)
    assert theory.exact_variance(3, 4, uniform_alphas(3, 1.0)) == pytest.approx(0.0, abs=1e-14)


def test_expectation_large_n_approaches_inverse_m():
    for m in (2, 3, 4, 5):
        val = theory.exact_expectation(m, 10_000, uniform_alphas(m, 2.0**-30))
        assert val == pytest.approx(1 / m, abs=1e-3)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 4), (3, 5), (5, 3)])
def test_moments_match_enumeration_oracle(m, n):
    rng = np.random.default_rng(m * 10 + n)
    alphas = uniform_alphas(m, 0.0)
    iu = np.triu_indices(m, k=1)
    vals = rng.uniform(0, 1, size=len(iu[0]))
    alphas[iu] = vals
    alphas.T[iu] = vals
    mean, var = multiset_moments(m, n, alphas)
    assert theory.exact_expectation(m, n, alphas) == pytest.approx(mean, abs=1e-12)
    assert theory.exact_variance(m, n, alphas) == pytest.approx(var, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, "N", 1000])
def test_shared_alpha_matches_the_matrix_bit_for_bit(n):
    # 2^-N and its square are exact, so C(m, 2) a and C(m, 2) a^2 are the
    # sums over the pairs of the matrix, and the forms keep their bits
    for m in range(2, 9):
        for n_qubits in range(2, 129):
            points = n_qubits if n == "N" else n
            a = 2.0**-n_qubits
            for form in (theory.exact_expectation, theory.exact_variance):
                scalar = form(m, points, a)
                assert type(scalar) is float
                matrix = form(m, points, uniform_alphas(m, a))
                assert scalar.hex() == matrix.hex()


def test_variance_close_to_asymptotic_form():
    exact = theory.exact_variance(2, 10, uniform_alphas(2, 1 / 1024))
    asym = theory.asymptotic_variance(2, 10, 10)
    assert abs(exact - asym) / asym < 1e-3


def test_limits():
    assert theory.limit_variance(2) == pytest.approx(0.25)
    assert theory.limit_variance(5) == pytest.approx(0.16)
    for m in (2, 3, 4, 5):
        assert theory.limit_expectation(m) == pytest.approx(1 / m)


def test_limit_variance_decreasing_in_m():
    vals = [theory.limit_variance(m) for m in range(2, 50)]
    assert vals[0] == max(vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_exact_converges_to_asymptotic():
    for n_qubits in (8, 9, 10):
        for m in (2, 3, 4, 5):
            exact = theory.exact_variance(
                m, n_qubits, uniform_alphas(m, 2.0**-n_qubits)
            )
            asym = theory.asymptotic_variance(m, n_qubits, n_qubits)
            assert abs(exact - asym) / asym < 0.01


def test_noisy_formulas_zero_stats():
    stats = theory.NoiseDeviationStats(0.0, 0.0, 0.0, 0.0, 0.25)
    m, n = 3, 4
    assert theory.noisy_expectation(m, n, stats) == pytest.approx(
        theory.exact_expectation(m, n, uniform_alphas(m, 0.25))
    )
    assert theory.noisy_variance(m, n, stats) == pytest.approx(
        theory.exact_variance(m, n, uniform_alphas(m, 0.25))
    )


def test_noisy_constant_kernel():
    alpha = 0.3
    stats = theory.NoiseDeviationStats(1 - alpha, 0.0, 0.0, 0.0, alpha)
    assert theory.noisy_expectation(2, 5, stats) == pytest.approx(alpha)
    assert theory.noisy_variance(2, 5, stats) == pytest.approx(0.0, abs=1e-14)


def test_extract_stats_ideal_kernel():
    rng = np.random.default_rng(0)
    reps = oracle.generate(3, 2, rng)
    kmat = kernel.kernel_matrix(dataset.points(reps))
    alphas = kernel.alpha_matrix(reps)
    stats = theory.extract_deviation_stats(kmat, dataset.coset_labels(3, 2),
                                           alphas[0, 1])
    assert stats.mean_gamma == pytest.approx(0.0, abs=1e-12)
    assert stats.var_gamma == pytest.approx(0.0, abs=1e-12)
    assert stats.mean_delta == pytest.approx(0.0, abs=1e-10)


def test_extract_stats_gamma_nonnegative():
    rng = oracle.trial_rng(1, 4, 2, 0)
    _, _, k = oracle.build_kernel(
        4, 2, noise.NoiseConfig("selection", 0.05), rng, surface="full"
    )
    labels = dataset.coset_labels(4, 2)
    stats = theory.extract_deviation_stats(k, labels, 2.0**-4)
    same = (~np.eye(k.shape[0], dtype=bool)) & (labels[:, None] == labels[None, :])
    assert np.all(1 - k[same] >= -1e-10)
    assert stats.mean_gamma >= -1e-10


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
        kmat, ~np.eye(len(kmat), dtype=bool), labels
    )[:2]
    for alpha_used in (2.0**-n_qubits, 0.123):
        stats = theory.extract_deviation_stats(kmat, labels, alpha_used)
        n = n_qubits
        assert theory.noisy_variance(m, n, stats) == pytest.approx(
            empirical_var, abs=1e-9
        )
        assert theory.noisy_expectation(m, n, stats) == pytest.approx(
            empirical_mean, abs=1e-9
        )
