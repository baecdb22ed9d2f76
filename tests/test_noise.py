import itertools
import json

import numpy as np
import pytest

from cosetkernel import dataset, experiment, kernel, noise

import oracle
from oracle import rx, ry, rz


def test_offsets_zero_epsilon():
    rng = np.random.default_rng(0)
    assert np.all(noise.fiducial_offsets(5, 0.0, [rng]) == 0)
    assert np.all(noise.element_angles(1, 5, 0.0, [rng]) == 0)


def test_offsets_within_budget():
    rng = np.random.default_rng(1)
    offs = noise.fiducial_offsets(10, 0.9, [rng])
    assert np.all(np.abs(offs) <= 0.18)
    tri = noise.element_angles(1, 10, 0.9, [rng])[0, 0]
    assert tri.shape == (10, 3)
    assert np.all(np.abs(tri) <= 2 * 0.9 / (np.sqrt(5) * 10) + 1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.9])
def test_sampled_norms_respect_epsilon(eps):
    # scaled-down version of the budget sweep; the full 1000-sample sweep
    # over N in 2..8 runs in the acceptance suite
    rng = np.random.default_rng(2)
    for n in (2, 5, 8):
        ideal = oracle.fiducial_operator(np.zeros(n))
        for _ in range(20):
            offs = noise.fiducial_offsets(n, eps, [rng])[0, 0]
            w = oracle.fiducial_operator(offs)
            assert oracle.operator_norm(ideal - w) <= eps + 1e-6
            tri = noise.element_angles(1, n, eps, [rng])[0, 0]
            de = oracle.dense(noise.from_euler(tri))
            assert oracle.operator_norm(de - np.eye(2**n)) <= eps + 1e-6


def test_batched_perturbations_match_per_point_loop():
    # one (P, N, 3) draw and one from_euler call reproduce, bit for bit, a
    # draw and a from_euler call per point and qubit, and leave the stream
    # in the same state; each factor is Rx Rz Rx to rounding
    for n in range(2, 9):
        for points in (4, 15):
            batched_rng = np.random.default_rng(100 * n + points)
            loop_rng = np.random.default_rng(100 * n + points)
            factors = noise.from_euler(
                noise.element_angles(points, n, 0.3, [batched_rng])[0]
            )
            bound = 2 * 0.3 / (np.sqrt(5) * n)
            triples = [loop_rng.uniform(-bound, bound, size=(n, 3))
                       for _ in range(points)]
            expected = np.array([
                [noise.from_euler(t[None])[0] for t in point]
                for point in triples
            ])
            assert np.array_equal(factors, expected)
            assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
            products = np.array([
                [rx(t1) @ rz(t2) @ rx(t3) for t1, t2, t3 in point]
                for point in triples
            ])
            np.testing.assert_allclose(factors, products, rtol=0, atol=1e-15)


def test_fold_matches_the_matrix_product_per_point():
    # the elementwise fold gives every point the bits of its own fold, on
    # the side of D_x its variant names, and the 2x2 product to rounding
    rng = np.random.default_rng(8)
    errors = noise.from_euler(rng.uniform(-0.3, 0.3, (3, 7, 4, 3)))
    factors = oracle.haar_random_su2(rng, (3, 7, 4))
    for variant, product in (("selection", errors @ factors),
                             ("representation", factors @ errors)):
        folded = noise.fold(variant, errors, factors)
        np.testing.assert_allclose(folded, product, rtol=0, atol=1e-15)
        for t in range(3):
            for p in range(7):
                assert np.array_equal(
                    folded[t, p], noise.fold(variant, errors[t, p], factors[t, p])
                )


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
    assert b.same_coset_lower == pytest.approx(1 - 4 * eps**2 + 4 * eps**4)
    assert b.same_coset_lower == pytest.approx((1 - 2 * eps**2) ** 2)
    # the same-coset amplitude bound 1 - 2 eps^2 reaches 0 at eps = sqrt(1/2)
    assert noise.bounds_selection(0.25, 0.7).same_coset_lower == pytest.approx(
        0.0004
    )
    assert noise.bounds_selection(0.25, 0.75).same_coset_lower == 0.0


def test_bounds_representation_equals_selection():
    for alpha in (1 / 256, 0.3, 0.9):
        for eps in (0.01, 0.05, 0.5):
            assert noise.bounds_for("representation", alpha, eps) == (
                noise.bounds_selection(alpha, eps)
            )


def test_bounds_reject_bad_alpha():
    with pytest.raises(ValueError):
        noise.bounds_fiducial(1.5, 0.1)
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError):
            noise.bounds_selection(np.array([[0.5, bad], [0.2, 1.0]]), 0.1)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        noise.NoiseConfig("thermal", 0.1)
    with pytest.raises(ValueError):
        noise.NoiseConfig("fiducial", -0.1)
    for bad in (True, np.bool_(True), "0.1", None, [0.1], 0.1j):
        with pytest.raises(ValueError, match="epsilon must be a real number"):
            noise.NoiseConfig("fiducial", bad)
    for good in (1, np.float32(0.25), np.int64(0)):
        assert noise.NoiseConfig("fiducial", good).epsilon == good
    for huge in (1e308, np.finfo(float).max):
        with pytest.raises(ValueError, match="epsilon"):
            noise.NoiseConfig("selection", huge)
    assert noise.NoiseConfig("fiducial", 8e307).epsilon == 8e307


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_zero_epsilon_reproduces_ideal_kernel(variant):
    # with no budget the attached noise leaves the chain's inputs ideal, bit
    # for bit, so `experiment.noisy_kernels` may gather those kernels from
    # the alphas instead, and draw no noise
    rngs = [oracle.trial_rng(3, 4, 2, t) for t in range(3)]
    reps, _ = experiment.draw_trials(4, 2, rngs, "full")
    points = dataset.points(reps)
    clean = kernel.kernel_matrix(points)
    noisy, offsets = noise.attach(variant, 0.0, points, rngs)
    assert np.array_equal(kernel.kernel_matrix(noisy, None, offsets), clean)
    gathered = experiment.noisy_kernels(reps, None, variant, 0.0, rngs)
    np.testing.assert_allclose(gathered, clean, rtol=0, atol=1e-12)


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
        thetas = noise.fiducial_offsets(n, 0.9, [rng])[0, 0]
        factors = np.stack([ry(-t) for t in thetas])
        dense = oracle.dense(factors)
        svd_norm = oracle.operator_norm(dense - np.eye(2**n))
        assert abs(svd_norm - _max_singular_from_eigs(factors)) < 1e-10
        # XZX perturbation variant
        de = noise.from_euler(
            noise.element_angles(1, n, 0.9, [rng])[0, 0]
        )
        svd_norm = oracle.operator_norm(oracle.dense(de) - np.eye(2**n))
        assert abs(svd_norm - _max_singular_from_eigs(de)) < 1e-10


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_small_epsilon_entries_inside_envelope(variant):
    # spot check at N=4; the full sweep over N in 2..8 runs in acceptance
    eps = 0.05
    for t in range(5):
        rng = oracle.trial_rng(5, 4, 2, t)
        reps, _, kmat = oracle.build_kernel(
            4, 2, noise.NoiseConfig(variant, eps), rng, surface="full"
        )
        violations, checked = noise.count_envelope_violations(
            kmat, dataset.coset_labels(4, 2), kernel.alpha_matrix(reps),
            variant, eps
        )
        assert violations == 0
        assert checked == len(kmat) * (len(kmat) - 1)


@pytest.mark.parametrize("variant", noise.VARIANTS)
def test_attach_reads_a_fixed_number_of_draws(variant):
    # 2N uniforms for fiducial errors, 3PN for selection and representation
    # errors and none for `none`, each stream its own trial's
    for n_qubits, m in ((2, 2), (5, 3)):
        rngs = [oracle.trial_rng(8, n_qubits, m, t) for t in range(3)]
        reps, _ = experiment.draw_trials(n_qubits, m, rngs)
        direct = [oracle.trial_rng(8, n_qubits, m, t) for t in range(3)]
        experiment.draw_trials(n_qubits, m, direct)
        eps = 0.0 if variant == "none" else 0.2
        noise.attach(variant, eps, dataset.points(reps), rngs)
        draws = {"none": 0, "fiducial": 2 * n_qubits}.get(
            variant, 3 * (m * n_qubits) * n_qubits
        )
        for rng, ref in zip(rngs, direct):
            ref.random(draws)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_representation_and_selection_kernels_differ():
    # the same draws, folded on the two sides of D_x
    for n_qubits in (2, 4):
        kmats = {}
        for variant in ("selection", "representation"):
            rngs = [oracle.trial_rng(9, n_qubits, 2, t) for t in range(2)]
            reps, _ = experiment.draw_trials(n_qubits, 2, rngs)
            kmats[variant] = experiment.noisy_kernels(reps, None, variant,
                                                      0.3, rngs)
        off = ~np.eye(kmats["selection"].shape[-1], dtype=bool)
        diff = np.abs(kmats["selection"] - kmats["representation"])[:, off]
        assert np.all(diff.max(axis=-1) > 1e-3)


def _cornered(monkeypatch, name, box):
    """Make batch sampler `name` return the corner of its box, half-width
    box(N, eps), that has the signs of the draws it still reads. Both
    samplers end in (N, eps, rngs)."""
    sampler = getattr(noise, name)

    def cornered(*args):
        draws = sampler(*args)
        n_qubits, epsilon = args[-3:-1]
        return np.where(draws < 0, -1.0, 1.0) * box(n_qubits, epsilon)

    monkeypatch.setattr(noise, name, cornered)


@pytest.mark.parametrize("variant", noise.VARIANTS[1:])
def test_envelopes_hold_at_the_corners_of_the_budget(variant, monkeypatch):
    # adversarial draws: every angle at the edge of the sampler's box,
    # which still keeps each perturbation within eps of the identity
    _cornered(monkeypatch, "fiducial_offsets", lambda n, eps: 2 * eps / n)
    _cornered(monkeypatch, "element_angles",
              lambda n, eps: 2 * eps / (np.sqrt(5) * n))
    for eps in (0.1, 0.3, 0.6):
        for n_qubits in (2, 3, 4):
            for m in (2, 3):
                rngs = [oracle.trial_rng(12, n_qubits, m, t)
                        for t in range(10)]
                reps, _ = experiment.draw_trials(n_qubits, m, rngs)
                kmats = experiment.noisy_kernels(reps, None, variant, eps,
                                                 rngs)
                violations, _ = noise.count_envelope_violations(
                    kmats, dataset.coset_labels(n_qubits, m),
                    kernel.alpha_matrix(reps), variant, eps
                )
                assert violations == 0, (eps, n_qubits, m)


@pytest.mark.parametrize("eps", [1.0000001, 1.5, 1e100, 8e307])
@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_bounds_past_epsilon_one_are_the_trivial_envelope(variant, eps):
    # from eps = 1 on every envelope is trivial, so the bounds are clamped
    # there: no square of eps overflows or warns
    alphas = np.linspace(0.0, 1.0, 101)
    with np.errstate(all="raise"):
        got = noise.bounds_for(variant, alphas, eps)
        ref = noise.bounds_for(variant, alphas, 1.0)
    assert got.same_coset_lower == ref.same_coset_lower == 0.0
    assert np.array_equal(got.cross_coset_lower, ref.cross_coset_lower)
    assert np.array_equal(got.cross_coset_upper, ref.cross_coset_upper)
    assert np.all(ref.cross_coset_lower == 0.0)
    assert np.all(ref.cross_coset_upper == 1.0)


def test_verify_bounds_at_the_largest_epsilon(capsys):
    from cosetkernel.cli import main

    argv = ["verify-bounds", "--epsilon", "8e307", "--qubits", "2..3",
            "--cosets", "2", "--trials", "1"]
    assert main(argv) == 0
    # 3 variants, one trial, P = 4 and 6 points
    checked = 3 * (4 * 3 + 6 * 5)
    out = capsys.readouterr().out
    assert out.endswith(f"entries checked: {checked}, violations: 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--noise", "selection", "--epsilon", "nan"],
        ["simulate", "--noise", "fiducial", "--epsilon", "inf"],
        ["simulate", "--noise", "none", "--epsilon", "0.5"],
        ["verify-bounds", "--epsilon", "nan"],
        # finite, but the sampling box 2 * epsilon is not
        ["simulate", "--noise", "fiducial", "--epsilon", "1e308"],
        ["verify-bounds", "--epsilon", "1e308"],
    ],
)
def test_cli_rejects_bad_epsilon(argv, capsys):
    from cosetkernel.cli import main

    code = main(argv + ["--qubits", "2..2", "--trials", "1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "epsilon" in err["message"]


@pytest.mark.parametrize("sign", [1, -1])
def test_config_rejects_an_integer_epsilon_past_float(sign, tmp_path,
                                                      capsys):
    # a JSON integer is exact, so 10**400 reaches NoiseConfig as an int that
    # no float holds
    from cosetkernel.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"qubit_range": [2, 2], "coset_counts": [2], "trials": 1,
         "noise": {"variant": "fiducial", "epsilon": sign * 10**400}}))
    out = tmp_path / "r.json"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "epsilon" in err["message"]
    assert not out.exists()


def _loop_violations(kmat, labels, alphas, variant, eps):
    """Entry-by-entry reference for noise.count_envelope_violations."""
    tol = noise.ENVELOPE_TOL
    violations = checked = 0
    for r in range(len(kmat)):
        for c in range(len(kmat)):
            if r == c:
                continue
            value = kmat[r, c]
            i, j = labels[r], labels[c]
            b = noise.bounds_for(variant, alphas[i, j], eps)
            checked += 1
            if not np.isfinite(value):
                violations += 1
            elif i == j:
                violations += value < b.same_coset_lower - tol
            else:
                violations += not (
                    b.cross_coset_lower - tol <= value <= b.cross_coset_upper + tol
                )
    return violations, checked


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_envelope_count_matches_loop_oracle(variant):
    eps = 0.3
    rngs = [oracle.trial_rng(6, 3, 3, t) for t in range(3)]
    reps, _ = experiment.draw_trials(3, 3, rngs)
    kmats = experiment.noisy_kernels(reps, None, variant, eps, rngs)
    batch_alphas = kernel.alpha_matrix(reps)
    labels = dataset.coset_labels(3, 3)
    for t in range(3):
        alphas = batch_alphas[t]
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
            # the edits go into trial t of the batch, and into its matrix
            # alone for the one-matrix call
            batch = kmats.copy()
            for rc, v in edits.items():
                batch[(t, *rc)] = v
            edited = batch[t]
            expected = _loop_violations(edited, labels, alphas, variant, eps)
            got = noise.count_envelope_violations(edited, labels, alphas,
                                                  variant, eps)
            assert got == expected
            assert got[0] >= planted_violations
            per_trial = [
                _loop_violations(batch[s], labels, batch_alphas[s], variant,
                                 eps)
                for s in range(3)
            ]
            # the batch's labels once for every trial, or one row per trial
            for batch_labels in (labels, np.tile(labels, (3, 1))):
                assert noise.count_envelope_violations(
                    batch, batch_labels, batch_alphas, variant, eps
                ) == tuple(np.sum(per_trial, axis=0))


def _planted_count(variant, value, row, col):
    """The count for a 4-point kernel (N = 2, m = 2, alpha 0.25) whose
    entries all lie inside their envelopes at eps 0.1 but for `value`,
    planted at (row, col) and its mirror."""
    labels = np.array([0, 0, 1, 1])
    alphas = np.array([[1.0, 0.25], [0.25, 1.0]])
    kmat = alphas[labels[:, None], labels[None, :]]
    kmat[row, col] = kmat[col, row] = value
    return noise.count_envelope_violations(kmat, labels, alphas, variant, 0.1)


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_nan_same_coset_entry_is_a_violation(variant):
    # `values < lower` is False for NaN, which must not pass the check
    assert _planted_count(variant, 1.0, 0, 1) == (0, 12)
    assert _planted_count(variant, np.nan, 0, 1) == (2, 12)


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_nan_cross_coset_entry_is_a_violation(variant):
    assert _planted_count(variant, 0.25, 0, 2) == (0, 12)
    assert _planted_count(variant, np.nan, 0, 2) == (2, 12)


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_infinite_entries_are_violations(variant):
    # in either class and with either sign; +inf clears a same-coset
    # lower bound, which must not pass the check either
    for row, col in ((0, 1), (0, 2)):
        for value in (np.inf, -np.inf):
            assert _planted_count(variant, value, row, col) == (2, 12)


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.45, 0.6, 1.5])
@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_array_bounds_match_scalar_bounds(variant, eps):
    # eps = 0.45 puts the fiducial shift past 1, eps = 0.6 the selection
    # and representation one, and eps = 1.5 their same-coset bound at 0
    shift = 2 * eps + eps**2 if variant == "fiducial" else 2 * eps
    alphas = np.array([[0.0, 1.0, 0.37], [shift**2, 1e-3, 0.9]])
    alphas[alphas > 1] = 0.5
    table = noise.bounds_for(variant, alphas, eps)
    for idx, alpha in np.ndenumerate(alphas):
        b = noise.bounds_for(variant, float(alpha), eps)
        assert table.same_coset_lower == b.same_coset_lower
        assert table.cross_coset_lower[idx] == b.cross_coset_lower
        assert table.cross_coset_upper[idx] == b.cross_coset_upper
        if np.sqrt(alpha) <= shift:
            assert b.cross_coset_lower == 0.0
        assert 0.0 <= b.cross_coset_lower <= alpha <= b.cross_coset_upper <= 1.0
    if shift > 1 if variant == "fiducial" else 2 * eps**2 > 1:
        assert table.same_coset_lower == 0.0
    assert noise.bounds_for(variant, 1.0, eps).cross_coset_upper == 1.0
