import itertools
import json

import numpy as np
import pytest

from cosetkernel import dataset, experiment, kernel, noise

import oracle
from oracle import rx, ry, rz


def test_offsets_zero_epsilon():
    rng = np.random.default_rng(0)
    assert np.all(oracle.attached("fiducial", 0.0, 5, rng) == 0)
    assert np.array_equal(oracle.attached("selection", 0.0, 5, rng)[0],
                          np.broadcast_to(oracle.I2, (5, 2, 2)))


def test_offsets_within_budget():
    # `attach` builds its noise from the angles that
    # `Generator.uniform(-b, b)` reads from the same stream
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    offs = oracle.attached("fiducial", 0.9, 10, rng)
    assert offs.shape == (2, 10)
    assert np.all(np.abs(offs) <= 0.18)
    assert np.array_equal(offs, oracle.fiducial_offsets(10, 0.9, ref))
    errors = oracle.attached("selection", 0.9, 10, rng)[0]
    tri = oracle.element_angles(1, 10, 0.9, ref)[0]
    assert tri.shape == (10, 3)
    assert np.all(np.abs(tri) <= 2 * 0.9 / (np.sqrt(5) * 10) + 1e-12)
    assert np.array_equal(errors, noise.from_euler(tri))


@pytest.mark.parametrize("eps", [0.05, 0.9])
def test_sampled_norms_respect_epsilon(eps):
    # scaled-down version of the budget sweep; the full 1000-sample sweep
    # over N in 2..8 runs in the acceptance suite
    rng = np.random.default_rng(2)
    for n in (2, 5, 8):
        ideal = oracle.fiducial_operator(np.zeros(n))
        for _ in range(20):
            offs = oracle.attached("fiducial", eps, n, rng)[0]
            w = oracle.fiducial_operator(offs)
            assert oracle.operator_norm(ideal - w) <= eps + 1e-6
            de = oracle.dense(oracle.attached("selection", eps, n, rng)[0])
            assert oracle.operator_norm(de - np.eye(2**n)) <= eps + 1e-6


def test_batched_perturbations_match_per_point_loop():
    # one (P, N, 3) row of uniforms and one from_euler call reproduce, bit
    # for bit, a `Generator.uniform` draw and a from_euler call per point
    # and qubit, and leave the stream in the same state; each factor is
    # Rx Rz Rx to rounding
    for n in range(2, 9):
        for points in (4, 15):
            batched_rng = np.random.default_rng(100 * n + points)
            loop_rng = np.random.default_rng(100 * n + points)
            factors = oracle.attached("selection", 0.3, n, batched_rng,
                                      points)
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


def _pair_table(alpha):
    """The (..., 2, 2) alpha tables of two cosets whose pair has `alpha`:
    the same-coset interval of `noise.bounds_for` lands on the diagonal,
    the cross-coset one at (0, 1) and (1, 0)."""
    alpha = np.asarray(alpha, dtype=float)
    table = np.ones(alpha.shape + (2, 2))
    table[..., 0, 1] = table[..., 1, 0] = alpha
    return table


def _pair_bounds(variant, alpha, eps):
    """(same-coset lower, cross-coset lower, cross-coset upper) of one
    pair, read off `noise.bounds_for` of its 2x2 table, whose same-coset
    upper bound is the overlap of two unit vectors' 1."""
    lower, upper = noise.bounds_for(variant, _pair_table(alpha), eps)
    assert np.array_equal(np.diag(upper), [1.0, 1.0])
    assert lower[0, 0] == lower[1, 1]
    assert (lower[1, 0], upper[1, 0]) == (lower[0, 1], upper[0, 1])
    return lower[0, 0], lower[0, 1], upper[0, 1]


def test_bounds_zero_epsilon():
    for variant in ("fiducial", "selection"):
        same, lower, upper = _pair_bounds(variant, 0.3, 0.0)
        assert same == 1.0
        assert lower == pytest.approx(0.3)
        assert upper == pytest.approx(0.3)


def test_bounds_fiducial_values():
    eps = 0.05
    shift = 2 * eps + eps**2
    same, lower, upper = _pair_bounds("fiducial", 1 / 1024, eps)
    assert same == pytest.approx(1 - 4 * eps + 2 * eps**2 + 4 * eps**3 + eps**4)
    assert upper == pytest.approx((np.sqrt(1 / 1024) + shift) ** 2)
    # sqrt(alpha) below the amplitude shift: lower bound clamps to zero
    assert lower == 0.0
    # at larger alpha the cross bounds are exactly the square of
    # sqrt(alpha) -+ shift, i.e. the quartic polynomials in eps
    alpha = 0.25
    _, lower, upper = _pair_bounds("fiducial", alpha, eps)
    assert lower == pytest.approx((np.sqrt(alpha) - shift) ** 2)
    assert lower == pytest.approx(
        alpha
        - 4 * np.sqrt(alpha) * eps
        + 2 * (2 - np.sqrt(alpha)) * eps**2
        + 4 * eps**3
        + eps**4
    )
    assert upper == pytest.approx(
        alpha
        + 4 * np.sqrt(alpha) * eps
        + 2 * (2 + np.sqrt(alpha)) * eps**2
        + 4 * eps**3
        + eps**4
    )


def test_bounds_fiducial_alpha_to_zero():
    eps = 0.1
    _, lower, upper = _pair_bounds("fiducial", 0.0, eps)
    assert lower == 0.0
    assert upper == pytest.approx(4 * eps**2 + 4 * eps**3 + eps**4)


def test_bounds_selection_values():
    same, lower, upper = _pair_bounds("selection", 0.25, 0.1)
    assert lower == pytest.approx(0.09)
    assert upper == pytest.approx(0.49)
    eps = 0.1
    assert same == pytest.approx(1 - 4 * eps**2 + 4 * eps**4)
    assert same == pytest.approx((1 - 2 * eps**2) ** 2)
    # the same-coset amplitude bound 1 - 2 eps^2 reaches 0 at eps = sqrt(1/2)
    assert _pair_bounds("selection", 0.25, 0.7)[0] == pytest.approx(0.0004)
    assert _pair_bounds("selection", 0.25, 0.75)[0] == 0.0


def test_bounds_representation_equals_selection():
    for alpha in (1 / 256, 0.3, 0.9):
        for eps in (0.01, 0.05, 0.5):
            for got, want in zip(
                    noise.bounds_for("representation", _pair_table(alpha),
                                     eps),
                    noise.bounds_for("selection", _pair_table(alpha), eps)):
                assert np.array_equal(got, want)


def test_bounds_reject_bad_alpha():
    with pytest.raises(ValueError):
        noise.bounds_for("fiducial", _pair_table(1.5), 0.1)
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError):
            noise.bounds_for("selection", np.array([[0.5, bad], [0.2, 1.0]]),
                             0.1)


@pytest.mark.parametrize("variant", ["none", "thermal"])
def test_bounds_reject_a_variant_without_an_envelope(variant):
    for alpha in (_pair_table(0.3), _pair_table([0.3, 0.7])):
        with pytest.raises(ValueError, match="no bounds for variant"):
            noise.bounds_for(variant, alpha, 0.1)


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
    # for bit, so `experiment.kernel_tables` may take the alphas as those
    # kernels' table, one coset per row, and draw no noise
    def streams():
        return [oracle.trial_rng(3, 4, 2, t) for t in range(3)]

    reps, _, uniforms = experiment.draw_trials(4, 2, streams(), "full",
                                               (variant,))
    points = dataset.points(reps)
    clean = kernel.kernel_matrix(points)
    noisy, offsets = noise.attach((variant,), 0.0, points, uniforms)
    assert np.array_equal(kernel.kernel_matrix(noisy, offsets)[0], clean)
    table_reps, (values,), counts, _ = experiment.kernel_tables(
        4, 2, streams(), "full", (variant,), 0.0)
    assert np.array_equal(table_reps, reps)
    gathered = kernel.gather_alphas(values, np.repeat(np.arange(2), counts))
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
        thetas = oracle.attached("fiducial", 0.9, n, rng)[0]
        factors = np.stack([ry(-t) for t in thetas])
        dense = oracle.dense(factors)
        svd_norm = oracle.operator_norm(dense - np.eye(2**n))
        assert abs(svd_norm - _max_singular_from_eigs(factors)) < 1e-10
        # XZX perturbation variant
        de = oracle.attached("selection", 0.9, n, rng)[0]
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
            kmat[None], np.ones(len(kmat), dtype=int),
            dataset.coset_labels(4, 2), kernel.alpha_matrix(reps), (variant,),
            eps
        )
        assert violations == 0
        assert checked == len(kmat) * (len(kmat) - 1)


@pytest.mark.parametrize("variant", noise.VARIANTS)
def test_attach_reads_a_fixed_number_of_draws(variant):
    # 2N uniforms for fiducial errors, 3PN for selection and representation
    # errors and none for `none`, each row its own trial's: `draw_trials`
    # reads that many after the split, and `attach` reads that prefix of
    # each row, whatever follows it
    for n_qubits, m in ((2, 2), (5, 3)):
        p = m * n_qubits
        rngs = [oracle.trial_rng(8, n_qubits, m, t) for t in range(3)]
        reps, _, uniforms = experiment.draw_trials(n_qubits, m, rngs,
                                                   variants=(variant,))
        draws = {"none": 0, "fiducial": 2 * n_qubits}.get(
            variant, 3 * p * n_qubits
        )
        assert noise.draws((variant,), p, n_qubits) == draws
        assert uniforms.shape == (3, draws)
        for t, rng in enumerate(rngs):
            ref = oracle.trial_rng(8, n_qubits, m, t)
            ref.standard_normal(4 * p)
            ref.random(p + m + draws)
            assert rng.bit_generator.state == ref.bit_generator.state
        eps = 0.0 if variant == "none" else 0.2
        points = dataset.points(reps)
        got = noise.attach((variant,), eps, points, uniforms)
        longer = np.hstack([uniforms, np.random.default_rng(0).random((3, 7))])
        for want, more in zip(got, noise.attach((variant,), eps, points,
                                                longer)):
            assert np.array_equal(want, more)
        for t in range(3):
            factors, offsets = noise.attach((variant,), eps, points[t:t + 1],
                                            uniforms[t:t + 1])
            assert np.array_equal(factors[:, 0], got[0][:, t])
            assert np.array_equal(offsets[:, :, 0], got[1][:, :, t])


@pytest.mark.parametrize("variants", [("none",), ("fiducial",),
                                      ("selection",), ("representation",),
                                      noise.NOISY_VARIANTS],
                         ids="-".join)
def test_attach_noises_only_the_kept_points(variants, monkeypatch):
    # with a train split, `attach` folds errors into the K kept points of
    # each trial and no other: each kept point reads its own triples from
    # its place in the row, so the result is the kept slice of every point
    # noised, bit for bit, while the triples of the other points (but for
    # the fiducial offsets' 2N) and every uniform past `draws` may be NaN
    angles = []
    euler = noise.from_euler

    def recorded(a):
        angles.append(a.shape)
        return euler(a)

    monkeypatch.setattr(noise, "from_euler", recorded)
    folded = {"selection", "representation"} & set(variants)
    for n_qubits, m in ((2, 2), (3, 3), (5, 2), (8, 5)):
        p, trials = m * n_qubits, 4
        rngs = experiment.trial_rngs(47, n_qubits, m, range(trials))
        reps, train, uniforms = experiment.draw_trials(n_qubits, m, rngs,
                                                       "train", variants)
        assert uniforms.shape[1] == noise.draws(variants, p, n_qubits)
        points = dataset.points(reps)
        every = noise.attach(variants, 0.3, points, uniforms)
        masked = np.hstack([uniforms, np.full((trials, 5), np.nan)])
        if folded:
            kept = np.zeros((trials, p), dtype=bool)
            np.put_along_axis(kept, train, True, 1)
            masked[:, :3 * p * n_qubits].reshape(trials, p, -1)[~kept] = np.nan
            if "fiducial" in variants:  # its offsets read the first 2N
                masked[:, :2 * n_qubits] = uniforms[:, :2 * n_qubits]
        angles.clear()
        factors, offsets = noise.attach(variants, 0.3, points, masked, train)
        k = train.shape[1]
        assert factors.shape == (len(variants), trials, k, n_qubits, 2, 2)
        assert angles == ([(trials, k, n_qubits, 3)] if folded else [])
        assert np.array_equal(factors, oracle.train_points(every[0], train))
        assert np.array_equal(offsets, every[1])


def test_representation_and_selection_kernels_differ():
    # the same draws, folded on the two sides of D_x
    for n_qubits in (2, 4):
        kmats = {}
        for variant in ("selection", "representation"):
            rngs = [oracle.trial_rng(9, n_qubits, 2, t) for t in range(2)]
            kmats[variant] = experiment.kernel_tables(
                n_qubits, 2, rngs, "full", (variant,), 0.3)[1][0]
        off = ~np.eye(kmats["selection"].shape[-1], dtype=bool)
        diff = np.abs(kmats["selection"] - kmats["representation"])[:, off]
        assert np.all(diff.max(axis=-1) > 1e-3)


def _cornered(uniforms):
    """Noise uniforms moved to 0 or 1, which puts each angle -b + 2 b u at
    the corner of its box, -b or b, that has the sign of the draw it
    replaces."""
    return np.where(uniforms < 0.5, 0.0, 1.0)


@pytest.mark.parametrize("variant", noise.VARIANTS[1:])
def test_envelopes_hold_at_the_corners_of_the_budget(variant):
    # adversarial draws: every angle at the edge of the sampler's box,
    # which still keeps each perturbation within eps of the identity
    for eps in (0.1, 0.3, 0.6):
        for n_qubits in (2, 3, 4):
            for m in (2, 3):
                rngs = [oracle.trial_rng(12, n_qubits, m, t)
                        for t in range(10)]
                reps, _, uniforms = experiment.draw_trials(
                    n_qubits, m, rngs, variants=(variant,))
                factors, offsets = noise.attach((variant,), eps,
                                                dataset.points(reps),
                                                _cornered(uniforms))
                if variant == "fiducial":
                    assert np.all(np.abs(offsets) == 2 * eps / n_qubits)
                kmats = kernel.kernel_matrix(factors, offsets)
                violations, _ = noise.count_envelope_violations(
                    kmats, np.ones(m * n_qubits, dtype=int),
                    dataset.coset_labels(n_qubits, m),
                    kernel.alpha_matrix(reps), (variant,), eps
                )
                assert violations == 0, (eps, n_qubits, m)


@pytest.mark.parametrize("eps", [1.0000001, 1.5, 1e100, 8e307])
@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_bounds_past_epsilon_one_are_the_trivial_envelope(variant, eps):
    # from eps = 1 on every envelope is trivial, so the bounds are clamped
    # there: no square of eps overflows or warns. The trivial envelope is
    # [0, 1] within one coset and across two
    alphas = _pair_table(np.linspace(0.0, 1.0, 101))
    with np.errstate(all="raise"):
        got = noise.bounds_for(variant, alphas, eps)
        ref = noise.bounds_for(variant, alphas, 1.0)
    for got_table, ref_table in zip(got, ref):
        assert np.array_equal(got_table, ref_table)
    lower, upper = ref
    assert np.all(lower == 0.0)
    assert np.all(upper == 1.0)


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
            same, lower, upper = _pair_bounds(variant, alphas[i, j], eps)
            checked += 1
            if not np.isfinite(value):
                violations += 1
            elif i == j:
                # the overlap of two unit vectors is at most 1
                violations += not (same - tol <= value <= 1 + tol)
            else:
                violations += not (lower - tol <= value <= upper + tol)
    return violations, checked


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_envelope_count_matches_loop_oracle(variant):
    eps = 0.3
    rngs = [oracle.trial_rng(6, 3, 3, t) for t in range(3)]
    reps, (kmats,), counts, labels = experiment.kernel_tables(
        3, 3, rngs, "full", (variant,), eps)
    batch_alphas = kernel.alpha_matrix(reps)
    for t in range(3):
        alphas = batch_alphas[t]
        same = np.flatnonzero(labels == labels[0])[1]
        cross = np.flatnonzero(labels != labels[0])[0]
        i, j = labels[0], labels[cross]
        lower, upper = noise.bounds_for(variant, alphas, eps)
        # (entry edits, how many of them are violations)
        planted = [
            ({}, 0),
            ({(0, same): lower[i, i] - 1e-6}, 1),
            ({(same, 0): 1 + 1e-6}, 1),
            ({(0, cross): upper[i, j] + 1e-6}, 1),
            ({(cross, 0): lower[j, i] - 1e-6}, 1),
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
            got = noise.count_envelope_violations(edited[None], counts,
                                                  labels, alphas, (variant,),
                                                  eps)
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
                    batch[None], counts, batch_labels, batch_alphas,
                    (variant,), eps
                ) == tuple(np.sum(per_trial, axis=0))


def test_envelope_count_evaluates_each_distinct_envelope_once(monkeypatch):
    # planted violations in every slice of a verify-bounds stack; selection
    # and representation share one envelope, so two bounds_for calls check
    # the three slices, with the counts of the entry-by-entry loop
    eps, variants = 0.3, noise.NOISY_VARIANTS
    rngs = [oracle.trial_rng(8, 3, 3, t) for t in range(3)]
    reps, kmats, counts, labels = experiment.kernel_tables(
        3, 3, rngs, "full", variants, eps)
    alphas = kernel.alpha_matrix(reps)
    kmats = kmats.copy()
    same = np.flatnonzero(labels == labels[0])[1]
    cross = np.flatnonzero(labels != labels[0])
    for v in range(len(variants)):
        for t in range(3):
            # v + 1 cross entries of row 0 of trial t pushed above 1, and a
            # same-coset 0.5: inside the fiducial envelope (lower bound
            # 0.31^2), below selection's (0.82^2), so a wrong envelope moves
            # the count
            kmats[v, t, 0, cross[:v + 1]] = 1.5
            kmats[v, t, 0, same] = 0.5
    expected = np.sum([
        _loop_violations(kmats[v, t], labels, alphas[t], name, eps)
        for v, name in enumerate(variants) for t in range(3)], axis=0)
    assert expected[0] >= 3 * (1 + 2 + 3) + 3 * 2
    calls = []
    bounds_for = noise.bounds_for

    def counted(*args):
        calls.append(args[0])
        return bounds_for(*args)

    monkeypatch.setattr(noise, "bounds_for", counted)
    assert noise.count_envelope_violations(
        kmats, counts, labels, alphas, variants, eps) == tuple(expected)
    assert calls == ["fiducial", "selection"]


@pytest.mark.parametrize("surface", ["full", "train"])
@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_table_counts_match_the_expanded_kernel(variant, surface):
    # an entry of a zero-budget table, one coset per row, counts once per
    # point pair it stands for: as checked, and as violated when it leaves
    # its envelope. The counts are those of the table spread over the
    # points, one point per row
    for n_qubits, m in ((2, 2), (3, 3), (5, 4)):
        rngs = [oracle.trial_rng(14, n_qubits, m, t) for t in range(3)]
        reps, (values,), counts, labels = experiment.kernel_tables(
            n_qubits, m, rngs, surface, (variant,), 0.0)
        alphas = kernel.alpha_matrix(reps)
        planted = values.copy()
        planted[0, 0, 1] = 1.5
        planted[1, 1, 1] = np.nan
        planted[2, 0, 0] = 0.5
        for table in (values, planted):
            kmats, point_labels = oracle.expand_tables(table, counts, labels)
            want = noise.count_envelope_violations(
                kmats[None], np.ones(kmats.shape[-1], dtype=int),
                point_labels, alphas, (variant,), 0.0)
            got = noise.count_envelope_violations(table[None], counts, labels,
                                                  alphas, (variant,), 0.0)
            assert got == want
            assert (got[0] > 0) == (table is planted)


def _planted_count(variant, value, row, col):
    """The count for a 4-point kernel (N = 2, m = 2, alpha 0.25) whose
    entries all lie inside their envelopes at eps 0.1 but for `value`,
    planted at (row, col) and its mirror."""
    labels = np.array([0, 0, 1, 1])
    alphas = np.array([[1.0, 0.25], [0.25, 1.0]])
    kmat = alphas[labels[:, None], labels[None, :]]
    kmat[row, col] = kmat[col, row] = value
    return noise.count_envelope_violations(kmat[None], np.ones(4, dtype=int),
                                           labels, alphas, (variant,), 0.1)


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_nan_same_coset_entry_is_a_violation(variant):
    # `values < lower` is False for NaN, which must not pass the check
    assert _planted_count(variant, 1.0, 0, 1) == (0, 12)
    assert _planted_count(variant, np.nan, 0, 1) == (2, 12)


@pytest.mark.parametrize("variant", ["fiducial", "selection", "representation"])
def test_same_coset_entry_above_one_is_a_violation(variant):
    # no overlap of two unit vectors exceeds 1, whatever the noise
    assert _planted_count(variant, 1 + 1e-6, 0, 1) == (2, 12)
    assert _planted_count(variant, 1.5, 0, 1) == (2, 12)
    assert _planted_count(variant, 1 + 1e-10, 0, 1) == (0, 12)


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
    # every entry of a (T, m, m) table has the bounds of its alpha alone,
    # read off its own 2x2 table: no entry's interval depends on another's
    # alpha. eps = 0.45 puts the fiducial shift past 1, eps = 0.6 the
    # selection and representation one, and eps = 1.5 their same-coset
    # bound at 0
    shift = 2 * eps + eps**2 if variant == "fiducial" else 2 * eps
    alphas = np.random.default_rng(35).uniform(size=(3, 4, 4))
    alphas[0, 0, 1], alphas[1, 2, 3] = 0.0, 1.0
    alphas[2, 3, 0] = shift**2 if shift <= 1 else 1e-3
    lower, upper = noise.bounds_for(variant, alphas, eps)
    for t, i, j in np.ndindex(alphas.shape):
        alpha = alphas[t, i, j]
        same, pair_lower, pair_upper = _pair_bounds(variant, alpha, eps)
        if i == j:
            assert (lower[t, i, j], upper[t, i, j]) == (same, 1.0)
            continue
        assert (lower[t, i, j], upper[t, i, j]) == (pair_lower, pair_upper)
        if np.sqrt(alpha) <= shift:
            assert pair_lower == 0.0
        assert 0.0 <= pair_lower <= alpha <= pair_upper <= 1.0
    if shift > 1 if variant == "fiducial" else 2 * eps**2 > 1:
        assert np.all(np.diagonal(lower, axis1=1, axis2=2) == 0.0)
    assert upper[1, 2, 3] == 1.0


@pytest.mark.parametrize(
    "variants",
    ["fiducial", ("bogus",), ["selection"], ("none", "Fiducial"), None],
    ids=["bare-name", "unknown-name", "list", "misspelt", "none"])
def test_a_variants_argument_not_a_tuple_of_names_is_rejected(variants):
    # a bare name would be read letter by letter and an unknown one as no
    # noise, with a row sized as for selection noise: each function that
    # takes variants rejects the argument, naming it, also at budget 0
    def streams():
        return experiment.trial_rngs(1, 3, 2, range(2))

    reps, _, uniforms = experiment.draw_trials(3, 2, streams(), "full",
                                               noise.NOISY_VARIANTS)
    _, values, counts, labels = experiment.kernel_tables(
        3, 2, streams(), "full", ("fiducial",), 0.3)
    calls = [
        lambda: noise.draws(variants, 6, 3),
        lambda: noise.attach(variants, 0.3, dataset.points(reps), uniforms),
        lambda: noise.count_envelope_violations(
            values, counts, labels, kernel.alpha_matrix(reps), variants, 0.3),
        lambda: experiment.kernel_tables(3, 2, streams(), "full", variants,
                                         0.3),
        lambda: experiment.kernel_tables(3, 2, streams(), "train", variants,
                                         0.0),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).endswith(f", got {variants!r}")
    # the empty tuple, `draw_trials`' default, is no noise
    assert noise.draws((), 6, 3) == 0


@pytest.mark.parametrize("variants", [("fiducial",),
                                      noise.NOISY_VARIANTS + ("fiducial",)],
                         ids=["shorter", "longer"])
def test_envelope_check_rejects_variants_not_one_per_table(variants):
    # zipped with the (3, 2, 6, 6) tables, a shorter tuple checked fewer
    # slices than it counted: ("fiducial",) returned (0, 180) for 60 entries
    reps, values, counts, labels = experiment.kernel_tables(
        3, 2, experiment.trial_rngs(1, 3, 2, range(2)), "full",
        noise.NOISY_VARIANTS, 0.3)
    assert values.shape == (3, 2, 6, 6)
    with pytest.raises(ValueError, match=f"^{len(variants)} variants for 3 "
                                         "kernel tables$"):
        noise.count_envelope_violations(values, counts, labels,
                                        kernel.alpha_matrix(reps), variants,
                                        0.3)
    assert noise.count_envelope_violations(
        values, counts, labels, kernel.alpha_matrix(reps),
        noise.NOISY_VARIANTS, 0.3) == (0, 180)
