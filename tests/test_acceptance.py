"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Statistical criteria use fixed seeds so the suite is deterministic.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
from scipy import stats as scipy_stats

import cosetkernel
from cosetkernel import dataset, kernel, noise, theory
from cosetkernel.noise import count_envelope_violations

import oracle
from oracle import ry
from test_opnorm_lemmas import product_distance_to_identity

SEED = 42


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def trial_variances(n_qubits, m, cfg_noise, trials, surface):
    out = []
    for t in range(trials):
        rng = oracle.trial_rng(SEED, n_qubits, m, t)
        out.append(
            oracle.run_trial(
                n_qubits, m, cfg_noise, rng, trial_index=t, surface=surface
            )["empirical_variance"]
        )
    return np.array(out)


def test_criterion_1_noiseless_asymptote():
    ok = True
    details = []
    for m in (2, 3, 4, 5):
        empirical = []
        predicted = []
        for t in range(100):
            rng = oracle.trial_rng(SEED, 10, m, t)
            reps, _, kmat = oracle.build_kernel(
                10, m, noise.NoiseConfig(), rng, surface="full"
            )
            stats = kernel.trial_stats(kmat, np.ones(len(kmat), dtype=int),
                                       dataset.coset_labels(10, m))
            empirical.append(stats[0])
            predicted.append(
                theory.offdiag_moments([10] * m, kernel.alpha_matrix(reps))[1]
            )
        empirical = np.array(empirical)
        predicted = np.array(predicted)
        se = empirical.std() / np.sqrt(len(empirical))
        close_to_theory = abs(empirical.mean() - predicted.mean()) <= max(3 * se, 1e-12)
        limit_gap = abs(empirical.mean() - theory.limit_variance(m))
        ok = ok and close_to_theory and limit_gap < 0.03
        details.append(f"m={m} mean={empirical.mean():.4f} gap={limit_gap:.4f}")
    report(1, ok, "; ".join(details))


def test_criterion_2_finite_size_curve():
    ok = True
    gaps = {}
    details = []
    for n_qubits in (4, 6, 8, 10):
        vs = trial_variances(n_qubits, 2, noise.NoiseConfig(), 100, "train")
        _, th = theory.offdiag_moments([n_qubits] * 2, 2.0**-n_qubits)
        gap = abs(vs.mean() - th)
        gaps[n_qubits] = gap
        ok = ok and gap <= 3 * vs.std()
        details.append(f"N={n_qubits} gap={gap:.4f} (3sd={3 * vs.std():.4f})")
    # monotone approach beyond N = 6: at least as close as at N = 6
    ok = ok and gaps[8] <= gaps[6] and gaps[10] <= gaps[6]
    report(2, ok, "; ".join(details))


def test_criterion_3_kernel_multiset_counts():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        kmat = kernel.kernel_matrix(dataset.points(oracle.generate(n, m, rng)))
        off_mask = ~np.eye(len(kmat), dtype=bool)
        ones = np.sum(np.abs(kmat[off_mask] - 1) < 1e-9)
        ok = ok and ones == m * (n**2 - n)
        labels = dataset.coset_labels(n, m)
        for i, j in itertools.combinations(range(m), 2):
            pair_mask = ((labels[:, None] == i) & (labels[None, :] == j)) | (
                (labels[:, None] == j) & (labels[None, :] == i)
            )
            vals = kmat[pair_mask]
            ok = ok and len(vals) == 2 * n**2
            ok = ok and np.ptp(vals) < 1e-10
    report(3, ok, "50 datasets, exact multiset counts")


def test_criterion_4_haar_overlap_law():
    rng = np.random.default_rng(SEED)
    ok = True
    details = []
    for n_qubits in range(1, 9):
        dim = 2**n_qubits
        a = rng.standard_normal((10_000, dim)) + 1j * rng.standard_normal((10_000, dim))
        b = rng.standard_normal((10_000, dim)) + 1j * rng.standard_normal((10_000, dim))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        overlaps = np.abs(np.einsum("ij,ij->i", a.conj(), b)) ** 2
        se = overlaps.std() / np.sqrt(len(overlaps))
        ok = ok and abs(overlaps.mean() - 1 / dim) <= 3 * se
        if n_qubits == 1:
            pvalue = scipy_stats.kstest(overlaps, "uniform").pvalue
            ok = ok and pvalue > 0.01
            details.append(f"N=1 KS p={pvalue:.3f}")
    report(4, ok, "mean 2^-N over N=1..8; " + "; ".join(details))


def test_criterion_5_noise_budgets():
    # Norms from per-qubit eigenphases (test_opnorm_lemmas checks the helper
    # against the dense SVD). For the preparations V = CZ R and W = CZ R',
    # ||V - W|| = ||R - R'|| = ||I - R^dag R'||, with R^dag R' the product of
    # Ry(-offset_j).
    rng = np.random.default_rng(SEED)
    violations = 0
    for n in range(2, 9):
        for eps in (0.05, 0.9):
            for _ in range(1000):
                offs = oracle.attached("fiducial", eps, n, rng)[0]
                if product_distance_to_identity(ry(-offs)) > eps + 1e-6:
                    violations += 1
                de = oracle.attached("selection", eps, n, rng)[0]
                if product_distance_to_identity(de) > eps + 1e-6:
                    violations += 1
    report(5, violations == 0, f"violations={violations} over 28000 samples")


def test_criterion_6_bound_envelopes():
    eps = 0.05
    violations = 0
    checked = 0
    for variant in ("fiducial", "selection", "representation"):
        for n_qubits in range(2, 9):
            for t in range(20):
                rng = oracle.trial_rng(SEED, n_qubits, 2, t)
                reps, _, kmat = oracle.build_kernel(
                    n_qubits, 2, noise.NoiseConfig(variant, eps), rng, surface="full"
                )
                alphas = kernel.alpha_matrix(reps)
                v, c = count_envelope_violations(
                    kmat[None], np.ones(len(kmat), dtype=int),
                    dataset.coset_labels(n_qubits, 2), alphas, (variant,), eps
                )
                violations += v
                checked += c
    report(6, violations == 0, f"violations={violations} of {checked} entries")


def test_criterion_7_non_concentration_heavy_noise():
    means = {}
    for variant in ("fiducial", "selection"):
        for n_qubits in (9, 10):
            vs = trial_variances(
                n_qubits, 2, noise.NoiseConfig(variant, 0.9), 100, "train"
            )
            means[variant, n_qubits] = vs.mean()
    ok = (
        means["fiducial", 10] > 0.02
        and means["selection", 10] > 0.02
        and abs(means["fiducial", 9] - means["fiducial", 10]) < 0.02
        and abs(means["selection", 9] - means["selection", 10]) < 0.02
        and means["fiducial", 10] < means["selection", 10]
    )
    detail = ", ".join(f"{k[0]}@N={k[1]}: {v:.4f}" for k, v in means.items())
    report(7, ok, detail)


def test_criterion_8_oracle_equivalence(monkeypatch):
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        points = dataset.points(oracle.generate(n, 2, rng))
        idx = rng.integers(0, len(points), size=2)
        chain = kernel.kernel_matrix(points[idx])[0, 1]
        dense = oracle.kernel_matrix(points[idx])[0, 1]
        ok = ok and abs(chain - dense) < 1e-10

    # end-to-end trial pipelines at N = 4, once as they are and once with
    # every kernel built by the dense oracle: the noisy ones by its kernel
    # matrix, the noiseless ones from its alpha matrices
    def trials():
        out = []
        for variant, eps in (("none", 0.0), ("fiducial", 0.1), ("selection", 0.1)):
            cfg_noise = noise.NoiseConfig(variant, eps)
            for t in range(5):
                rng = oracle.trial_rng(SEED, 4, 2, t)
                out.append(oracle.run_trial(4, 2, cfg_noise, rng))
        return out

    chain_reports = trials()
    monkeypatch.setattr(kernel, "kernel_matrix", oracle.kernel_matrix)
    monkeypatch.setattr(kernel, "alpha_matrix", oracle.alpha_matrix)
    dense_reports = trials()
    ok = ok and len(chain_reports) == len(dense_reports) == 15
    for rc, rd in zip(chain_reports, dense_reports):
        for field in (
            "empirical_variance",
            "empirical_mean",
            "alphas_min",
            "alphas_mean",
            "alphas_max",
        ):
            ok = ok and abs(rc[field] - rd[field]) < 1e-10
    report(8, ok, "100 entries + 15 end-to-end trials, chain vs dense")


def test_criterion_9_operator_norm_lemmas():
    from test_opnorm_lemmas import (
        test_close_unitaries_large_overlap,
        test_matrix_element_perturbation,
        test_norm_dominates_matrix_element,
        test_norm_stability,
        test_product_perturbation,
        test_two_approximations_are_close,
    )

    for check in (
        test_two_approximations_are_close,
        test_product_perturbation,
        test_norm_stability,
        test_norm_dominates_matrix_element,
        test_matrix_element_perturbation,
        test_close_unitaries_large_overlap,
    ):
        check()
    report(9, True, "6 lemmas x 200 instances at tolerance 1e-9")


def test_criterion_10_byte_identical_output(tmp_path):
    args = [
        "simulate",
        "--qubits", "2..4",
        "--cosets", "2,3",
        "--trials", "5",
        "--seed", "7",
    ]
    # the child imports the same package as this process, also when pytest
    # put its source directory on sys.path rather than PYTHONPATH
    source_dir = os.path.dirname(os.path.dirname(cosetkernel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_dir, env.get("PYTHONPATH")))
    )
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = subprocess.run(
            [sys.executable, "-m", "cosetkernel.cli", *args, "--out", str(path)],
            env=env,
        ).returncode
        assert code == 0
        outputs.append(path.read_bytes())
    report(10, outputs[0] == outputs[1], f"{len(outputs[0])} bytes each")
