import itertools
import json

import numpy as np
import pytest

from cosetkernel import experiment, group, kernel, noise
from cosetkernel.statevector import operator_norm, ry


def test_offsets_zero_epsilon():
    rng = np.random.default_rng(0)
    assert np.all(noise.sample_fiducial_offsets(5, 0.0, rng) == 0)
    assert np.all(noise.sample_element_perturbation(5, 0.0, rng) == 0)


def test_offsets_within_budget():
    rng = np.random.default_rng(1)
    offs = noise.sample_fiducial_offsets(10, 0.9, rng)
    assert np.all(np.abs(offs) <= 0.18)
    tri = noise.sample_element_perturbation(10, 0.9, rng)
    assert tri.shape == (10, 3)
    assert np.all(np.abs(tri) <= 2 * 0.9 / (np.sqrt(5) * 10) + 1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.9])
def test_sampled_norms_respect_epsilon(eps):
    # scaled-down version of the budget sweep; the full 1000-sample sweep
    # over N in 2..8 runs in the acceptance suite
    rng = np.random.default_rng(2)
    for n in (2, 5, 8):
        ideal = group.fiducial_operator(group.fiducial_preparation(n))
        for _ in range(20):
            offs = noise.sample_fiducial_offsets(n, eps, rng)
            w = group.fiducial_operator(group.fiducial_preparation(n, offs))
            assert operator_norm(ideal - w) <= eps + 1e-6
            tri = noise.sample_element_perturbation(n, eps, rng)
            de = group.dense(noise.perturbation_element(tri))
            assert operator_norm(de - np.eye(2**n)) <= eps + 1e-6


def test_bounds_zero_epsilon():
    for fn in (noise.bounds_fiducial, noise.bounds_selection):
        b = fn(0.3, 0.0)
        assert b.same_coset_lower == 1.0
        assert b.cross_coset_lower == pytest.approx(0.3)
        assert b.cross_coset_upper == pytest.approx(0.3)


def test_bounds_fiducial_values():
    eps = 0.05
    shift = 2 * eps + eps**2
    b = noise.bounds_fiducial(1 / 1024, eps)
    assert b.same_coset_lower == pytest.approx(1 - 4 * eps + 2 * eps**2 + 4 * eps**3 + eps**4)
    assert b.cross_coset_upper == pytest.approx((np.sqrt(1 / 1024) + shift) ** 2)
    # sqrt(alpha) below the amplitude shift: lower bound clamps to zero
    assert b.cross_coset_lower == 0.0
    # at larger alpha the cross bounds are exactly the square of
    # sqrt(alpha) -+ shift, i.e. the quartic polynomials in eps
    alpha = 0.25
    b = noise.bounds_fiducial(alpha, eps)
    assert b.cross_coset_lower == pytest.approx((np.sqrt(alpha) - shift) ** 2)
    assert b.cross_coset_lower == pytest.approx(
        alpha
        - 4 * np.sqrt(alpha) * eps
        + 2 * (2 - np.sqrt(alpha)) * eps**2
        + 4 * eps**3
        + eps**4
    )
    assert b.cross_coset_upper == pytest.approx(
        alpha
        + 4 * np.sqrt(alpha) * eps
        + 2 * (2 + np.sqrt(alpha)) * eps**2
        + 4 * eps**3
        + eps**4
    )


def test_bounds_fiducial_alpha_to_zero():
    eps = 0.1
    b = noise.bounds_fiducial(0.0, eps)
    assert b.cross_coset_lower == 0.0
    assert b.cross_coset_upper == pytest.approx(4 * eps**2 + 4 * eps**3 + eps**4)


def test_bounds_selection_values():
    b = noise.bounds_selection(0.25, 0.1)
    assert b.cross_coset_lower == pytest.approx(0.09)
    assert b.cross_coset_upper == pytest.approx(0.49)
    eps = 0.1
    assert b.same_coset_lower == pytest.approx(1 - eps**2 + eps**4 / 4)
    assert b.same_coset_lower == pytest.approx((1 - eps**2 / 2) ** 2)


def test_bounds_representation_equals_fiducial():
    for alpha in (1 / 256, 0.3, 0.9):
        for eps in (0.01, 0.05, 0.5):
            assert noise.bounds_representation(alpha, eps) == noise.bounds_fiducial(
                alpha, eps
            )


def test_bounds_reject_bad_alpha():
    with pytest.raises(ValueError):
        noise.bounds_fiducial(1.5, 0.1)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        noise.NoiseConfig("thermal", 0.1)
    with pytest.raises(ValueError):
        noise.NoiseConfig("fiducial", -0.1)


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_zero_epsilon_reproduces_ideal_kernel(variant):
    rng_clean = experiment.trial_rng(3, 4, 2, 0)
    _, _, clean = experiment.build_trial_kernel(
        4, 2, noise.NoiseConfig(), rng_clean, surface="full"
    )
    rng_noisy = experiment.trial_rng(3, 4, 2, 0)
    _, _, noisy = experiment.build_trial_kernel(
        4, 2, noise.NoiseConfig(variant, 0.0), rng_noisy, surface="full"
    )
    np.testing.assert_allclose(noisy.entries, clean.entries, atol=1e-12)


def _max_singular_from_eigs(factors):
    # per-factor eigenvalues multiply; sigma^2 of (U - I) is 1 + |lam|^2 - 2 Re lam
    eigs = [np.linalg.eigvals(f) for f in factors]
    best = 0.0
    for combo in itertools.product(*eigs):
        lam = np.prod(combo)
        best = max(best, 1 + abs(lam) ** 2 - 2 * lam.real)
    return np.sqrt(best)


def test_max_singular_value_formula():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        # Ry offsets variant
        thetas = noise.sample_fiducial_offsets(n, 0.9, rng)
        factors = np.stack([ry(-t) for t in thetas])
        dense = group.dense(group.GroupElement(factors))
        svd_norm = operator_norm(dense - np.eye(2**n))
        assert abs(svd_norm - _max_singular_from_eigs(factors)) < 1e-10
        # XZX perturbation variant
        de = noise.perturbation_element(
            noise.sample_element_perturbation(n, 0.9, rng)
        )
        svd_norm = operator_norm(group.dense(de) - np.eye(2**n))
        assert abs(svd_norm - _max_singular_from_eigs(de.factors)) < 1e-10


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_small_epsilon_entries_inside_envelope(variant):
    # spot check at N=4; the full sweep over N in 2..8 runs in acceptance
    from cosetkernel.cli import count_envelope_violations

    eps = 0.05
    for t in range(5):
        rng = experiment.trial_rng(5, 4, 2, t)
        ds, _, kmat = experiment.build_trial_kernel(
            4, 2, noise.NoiseConfig(variant, eps), rng, surface="full"
        )
        alphas = kernel.alpha_matrix(ds)
        violations, checked = count_envelope_violations(kmat, alphas, variant, eps)
        assert violations == 0
        assert checked == kmat.size * (kmat.size - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--noise", "selection", "--epsilon", "nan"],
        ["simulate", "--noise", "fiducial", "--epsilon", "inf"],
        ["simulate", "--noise", "none", "--epsilon", "0.5"],
        ["verify-bounds", "--epsilon", "nan"],
    ],
)
def test_cli_rejects_bad_epsilon(argv, capsys):
    from cosetkernel.cli import main

    code = main(argv + ["--qubits", "2..2", "--trials", "1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "epsilon" in err["message"]


def _loop_violations(kmat, alphas, variant, eps, tol=1e-9):
    """Entry-by-entry reference for cli.count_envelope_violations."""
    violations = checked = 0
    labels = kmat.coset_labels
    for r in range(kmat.size):
        for c in range(kmat.size):
            if r == c:
                continue
            value = kmat.entries[r, c]
            i, j = labels[r], labels[c]
            b = noise.bounds_for(variant, alphas[i, j], eps)
            checked += 1
            if i == j:
                violations += value < b.same_coset_lower - tol
            else:
                violations += not (
                    b.cross_coset_lower - tol <= value <= b.cross_coset_upper + tol
                )
    return violations, checked


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_envelope_count_matches_loop_oracle(variant):
    from cosetkernel.cli import count_envelope_violations

    eps = 0.3
    for t in range(3):
        rng = experiment.trial_rng(6, 3, 3, t)
        ds, _, kmat = experiment.build_trial_kernel(
            3, 3, noise.NoiseConfig(variant, eps), rng, surface="full"
        )
        alphas = kernel.alpha_matrix(ds)
        labels = kmat.coset_labels
        same = np.flatnonzero(labels == labels[0])[1]
        cross = np.flatnonzero(labels != labels[0])[0]
        same_b = noise.bounds_for(variant, alphas[labels[0], labels[0]], eps)
        cross_b = noise.bounds_for(variant, alphas[labels[0], labels[cross]], eps)
        # (entry edits, how many of them are violations)
        planted = [
            ({}, 0),
            ({(0, same): same_b.same_coset_lower - 1e-6}, 1),
            ({(0, cross): cross_b.cross_coset_upper + 1e-6}, 1),
            ({(cross, 0): cross_b.cross_coset_lower - 1e-6}, 1),
            ({(0, 0): -1.0}, 0),  # the diagonal is never checked
            ({(same, 0): 0.0, (0, cross): 1.5, (cross, 0): -1.0}, 3),
        ]
        for edits, planted_violations in planted:
            entries = kmat.entries.copy()
            for rc, v in edits.items():
                entries[rc] = v
            edited = kernel.KernelMatrix(entries, labels, kmat.subgroup_indices)
            expected = _loop_violations(edited, alphas, variant, eps)
            got = count_envelope_violations(edited, alphas, variant, eps)
            assert got == expected
            assert got[0] >= planted_violations
