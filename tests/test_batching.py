"""Trials computed together along a trial axis give, bit for bit, what one
trial at a time gives, whatever the chunking.

The one-trial reference below runs each stage on one stream at a time, in
the order every trial reads its own stream: the representatives' normals,
the split, then the noise. A batched path that reorders those draws, or lets trials share a
stream, fails the comparison.
"""

from dataclasses import replace

import numpy as np
import pytest

from cosetkernel import cli, dataset, experiment, kernel, noise

import oracle

VARIANTS = [("none", 0.0), ("fiducial", 0.3), ("selection", 0.3),
            ("representation", 0.3)]
SURFACES = ("train", "full")


def one_trial_kernel(n_qubits, m, cfg_noise, rng, surface):
    """Representatives, split, noise and kernel of one trial from one
    stream, and the coset labels of the kernel's points. With no noise
    budget the kernel is the one-trial gather of the trial's alpha matrix,
    which the transfer chain matches to rounding (`test_kernel`)."""
    reps = oracle.generate(n_qubits, m, rng)
    all_labels = dataset.coset_labels(n_qubits, m)
    sp = oracle.split(all_labels, m, rng)
    indices = sp if surface == "train" else None
    labels = all_labels if indices is None else all_labels[indices]
    eps = cfg_noise.epsilon
    if eps == 0:
        alphas = kernel.alpha_matrix(reps)
        return reps, sp, kernel.gather_alphas(alphas[None], labels)[0], labels
    factors, offsets = dataset.points(reps), None
    if cfg_noise.variant == "fiducial":
        offsets = noise.fiducial_offsets(n_qubits, eps, [rng])[:, 0]
    elif cfg_noise.variant != "none":
        errors = noise.from_euler(
            noise.element_angles(len(all_labels), n_qubits, eps, [rng])[0]
        )
        factors = noise.fold(cfg_noise.variant, errors, factors)
    return reps, sp, kernel.kernel_matrix(factors, indices, offsets), labels


def small_config(variant, eps, surface, trials=6):
    return experiment.ExperimentConfig(
        qubit_range=(2, 5),
        coset_counts=(2, 3),
        trials=trials,
        noise=noise.NoiseConfig(variant, eps),
        seed=23,
        variance_surface=surface,
    )


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant,eps", VARIANTS)
def test_batched_kernels_match_one_trial_loop(variant, eps, surface):
    cfg_noise = noise.NoiseConfig(variant, eps)
    for n_qubits, m in ((2, 2), (3, 3), (5, 2), (4, 5)):
        trials = range(7)
        rngs = [oracle.trial_rng(4, n_qubits, m, t) for t in trials]
        reps, splits = experiment.draw_trials(n_qubits, m, rngs)
        kmats = experiment.noisy_kernels(
            reps, splits if surface == "train" else None, variant, eps, rngs
        )
        alphas = kernel.alpha_matrix(reps)
        points = dataset.points(reps)
        for t in trials:
            rng = oracle.trial_rng(4, n_qubits, m, t)
            ref_reps, ref_sp, ref, _ = one_trial_kernel(n_qubits, m, cfg_noise,
                                                        rng, surface)
            assert np.array_equal(reps[t], ref_reps)
            assert np.array_equal(points[t], dataset.points(ref_reps))
            assert np.array_equal(splits[t], ref_sp)
            assert np.array_equal(kmats[t], ref)
            assert np.array_equal(alphas[t], kernel.alpha_matrix(ref_reps))


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant,eps", VARIANTS)
def test_batched_reports_match_one_trial_loop(variant, eps, surface):
    cfg = small_config(variant, eps, surface)
    looped = [
        oracle.run_trial(
            n_qubits, m, cfg.noise,
            oracle.trial_rng(cfg.seed, n_qubits, m, t),
            trial_index=t, surface=surface,
            digest=f"{cfg.seed}:{n_qubits}:{m}:{t}",
        )
        for n_qubits in cfg.qubit_values()
        for m in cfg.coset_counts
        for t in range(cfg.trials)
    ]
    assert experiment.run_experiment(cfg)["trials"] == looped


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant,eps", VARIANTS)
def test_report_statistics_match_plain_reductions(variant, eps, surface):
    # each trial's five numbers from its own matrix, with 1-D reductions
    cfg = small_config(variant, eps, surface)
    expected = []
    for n_qubits in cfg.qubit_values():
        for m in cfg.coset_counts:
            for t in range(cfg.trials):
                rng = oracle.trial_rng(cfg.seed, n_qubits, m, t)
                _, _, ref, labels = one_trial_kernel(n_qubits, m, cfg.noise,
                                                     rng, surface)
                off = ref[~np.eye(len(ref), dtype=bool)]
                cross = ref[labels[:, None] != labels[None, :]]
                expected.append((off.var(), off.mean(), cross.min(),
                                 cross.mean(), cross.max()))
    fields = ("empirical_variance", "empirical_mean", "alphas_min",
              "alphas_mean", "alphas_max")
    got = [tuple(r[f] for f in fields)
           for r in experiment.run_experiment(cfg)["trials"]]
    # weighted sums over the whole block differ from the 1-D reductions in
    # the last bits; the extremes are exact
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
    assert [g[2::2] for g in got] == [e[2::2] for e in expected]


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant,eps", VARIANTS)
def test_reports_do_not_depend_on_chunking(variant, eps, surface, monkeypatch):
    cfg = small_config(variant, eps, surface, trials=9)
    # one trial per chunk, chunks of mixed sizes, and each cell in one chunk
    budgets = {1: [range(t, t + 1) for t in range(9)],
               3000: None,
               2**40: [range(9)]}
    reports = []
    for budget, chunks in budgets.items():
        monkeypatch.setattr(kernel, "CHUNK_ENTRIES", budget)
        if chunks is not None:
            assert experiment.trial_chunks(5, 3, 9, surface) == chunks
        reports.append(experiment.run_experiment(cfg))
    assert reports[0] == reports[1] == reports[2]


def test_verify_bounds_does_not_depend_on_chunking(monkeypatch, capsys):
    argv = ["verify-bounds", "--epsilon", "0.1", "--qubits", "4..6",
            "--cosets", "3", "--trials", "4", "--seed", "17"]
    chains = _counted(monkeypatch, kernel, "transfer_amplitudes")
    outputs, batches = [], []
    for budget in (kernel.CHUNK_ENTRIES, 1, 2**40):
        monkeypatch.setattr(kernel, "CHUNK_ENTRIES", budget)
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
        # (kernels, points) of every chain call
        batches.append([args[0].shape[:2] for args in chains])
        chains.clear()
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].endswith("violations: 0\n")
    # per N, the alpha chain over 4 trials' 3 representatives, then one
    # stack of 3 variants x 4 trials over the 3 N points; at budget 1 one
    # trial per chunk, and every kernel of its stack one chain call
    whole = [b for n in (4, 5, 6) for b in ((4, 3), (12, 3 * n))]
    single = [b for n in (4, 5, 6) for _ in range(4)
              for b in ((1, 3), (1, 3 * n), (1, 3 * n), (1, 3 * n))]
    assert batches == [whole, single, whole]


def _strict_bounds(monkeypatch):
    """Give every envelope a same-coset lower bound of 1, which makes every
    noisy same-coset entry a violation."""
    bounds_for = noise.bounds_for

    def strict(variant, alpha, epsilon):
        return replace(bounds_for(variant, alpha, epsilon), same_coset_lower=1.0)

    monkeypatch.setattr(noise, "bounds_for", strict)


def test_verify_bounds_violations_do_not_depend_on_chunking(monkeypatch,
                                                            capsys):
    # strict bounds put violations in every chunk of every budget
    _strict_bounds(monkeypatch)
    argv = ["verify-bounds", "--epsilon", "0.1", "--qubits", "2..8",
            "--cosets", "3", "--trials", "4", "--seed", "236"]
    assert experiment.trial_chunks(2, 3, 4, "full") == [range(4)]
    outputs = []
    for budget in (kernel.CHUNK_ENTRIES, 1, 2**40):
        monkeypatch.setattr(kernel, "CHUNK_ENTRIES", budget)
        assert cli.main(argv) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    # every off-diagonal same-coset entry: 3 N (N - 1) per trial and variant
    same = 3 * 4 * sum(3 * n * (n - 1) for n in range(2, 9))
    assert same == 6048
    assert outputs[0].endswith(f"entries checked: 20664, violations: {same}\n")


def _counted(monkeypatch, module, name):
    """Replace module.name with a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_statistics_run_once_per_chunk(monkeypatch):
    cfg = small_config("selection", 0.3, "train", trials=9)
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", 3000)
    stats = _counted(monkeypatch, kernel, "trial_stats")
    experiment.run_experiment(cfg)
    chunks = [
        chunk
        for n_qubits in cfg.qubit_values()
        for m in cfg.coset_counts
        for chunk in experiment.trial_chunks(n_qubits, m, 9, "train")
    ]
    assert len(chunks) < 9 * len(cfg.qubit_values()) * len(cfg.coset_counts)
    assert len(stats) == len(chunks)
    assert [len(args[0]) for args in stats] == [len(c) for c in chunks]


def _refuse_points(monkeypatch):
    """Make `dataset.points` raise, so a run that builds point factors
    fails."""
    def refused(reps):
        raise AssertionError("point factors built")

    monkeypatch.setattr(dataset, "points", refused)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant", ["none", "fiducial"])
def test_noiseless_runs_build_no_point_factors(variant, surface, monkeypatch):
    # with no noise budget every kernel is gathered from the alpha matrices,
    # which need the representatives only
    _refuse_points(monkeypatch)
    cfg = small_config(variant, 0.0, surface)
    report = experiment.run_experiment(cfg)
    assert len(report["trials"]) == 6 * 4 * 2


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant", ["none", "fiducial"])
def test_noiseless_trials_build_no_kernel_over_points(variant, surface,
                                                      monkeypatch):
    # their statistics are read from the (m, m) alpha matrices, the ideal
    # kernels over the representatives, with pair counts as weights
    def refused(*args, **kwargs):
        raise AssertionError("kernel over points built")

    monkeypatch.setattr(kernel, "gather_alphas", refused)
    monkeypatch.setattr(kernel, "kernel_matrix", refused)
    alphas = _counted(monkeypatch, kernel, "alpha_matrix")
    cfg = small_config(variant, 0.0, surface)
    report = experiment.run_experiment(cfg)
    assert len(report["trials"]) == 6 * 4 * 2
    assert len(alphas) == 4 * 2


@pytest.mark.parametrize("surface", SURFACES)
def test_noiseless_heatmap_builds_no_point_factors(surface, monkeypatch,
                                                   tmp_path, capsys):
    _refuse_points(monkeypatch)
    heat = tmp_path / "heat.csv"
    argv = ["simulate", "--qubits", "2..4", "--cosets", "2,3", "--trials",
            "3", "--surface", surface, "--heatmap", str(heat)]
    assert cli.main(argv) == 0
    assert len(heat.read_text().splitlines()) == 1 + 2 * 4


def split_path_stats(n_qubits, m, rngs, surface):
    """Reference for noiseless `run_trials`: the representatives and the
    whole split drawn, and each coset's count read off the labels of the
    kernel's points."""
    reps, train = experiment.draw_trials(n_qubits, m, rngs, surface)
    labels = dataset.coset_labels(n_qubits, m)
    if train is not None:
        labels = labels[train]
    cosets = np.arange(m)
    counts = np.count_nonzero(labels[..., :, None] == cosets, axis=-2)
    pairs = counts[..., :, None] * counts[..., None, :]
    pairs[..., cosets, cosets] -= counts
    return kernel.trial_stats(kernel.alpha_matrix(reps), pairs, cosets)


@pytest.mark.parametrize("seed", [0, 1, 2**64 + 5])
def test_count_draw_matches_the_split(seed):
    # the m count uniforms are the split's first draws, so the counts are
    # those of the split that the same stream would build
    chunk = range(3)
    for n_qubits in range(2, 10):
        for m in range(2, 8):
            labels = dataset.coset_labels(n_qubits, m)
            fresh = experiment.trial_rngs(seed, n_qubits, m, chunk)
            ref = [oracle.trial_rng(seed, n_qubits, m, t) for t in chunk]
            counts = dataset.train_counts((n_qubits,) * m, fresh)
            train = dataset.split_trials(labels, m, ref)
            assert np.array_equal(
                counts, [np.bincount(labels[t], minlength=m) for t in train]
            )
            for surface in SURFACES:
                got = experiment.run_trials(
                    n_qubits, m, noise.NoiseConfig(),
                    experiment.trial_rngs(seed, n_qubits, m, chunk), surface)
                want = split_path_stats(
                    n_qubits, m,
                    [oracle.trial_rng(seed, n_qubits, m, t) for t in chunk],
                    surface)
                assert got.tobytes() == want.tobytes(), (n_qubits, m, surface)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant", ["none", "fiducial", "selection",
                                     "representation"])
def test_noiseless_trials_read_normals_and_counts_only(variant, surface):
    # 4 m N normals, then m count uniforms on the train surface only
    chunk = range(2, 6)
    for n_qubits, m in ((2, 2), (5, 3), (9, 7), (128, 2)):
        rngs = experiment.trial_rngs(13, n_qubits, m, chunk)
        experiment.run_trials(n_qubits, m, noise.NoiseConfig(variant, 0.0),
                              rngs, surface)
        for t, rng in zip(chunk, rngs):
            ref = oracle.trial_rng(13, n_qubits, m, t)
            ref.standard_normal(4 * m * n_qubits)
            if surface == "train":
                ref.random(m)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_noiseless_runs_build_no_split(monkeypatch, tmp_path, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("split built")

    monkeypatch.setattr(dataset, "split_trials", refused)
    for surface in SURFACES:
        for variant in ("none", "fiducial", "selection", "representation"):
            report = experiment.run_experiment(small_config(variant, 0.0,
                                                            surface))
            assert len(report["trials"]) == 6 * 4 * 2
        argv = ["simulate", "--qubits", "2..4", "--cosets", "2,3",
                "--trials", "3", "--surface", surface, "--out",
                str(tmp_path / "r.json"), "--heatmap", str(tmp_path / "h.csv")]
        assert cli.main(argv) == 0


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant,eps", VARIANTS[1:])
def test_noisy_chunks_build_point_factors_once(variant, eps, surface,
                                               monkeypatch):
    cfg = small_config(variant, eps, surface, trials=9)
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", 3000)
    built = _counted(monkeypatch, dataset, "points")
    experiment.run_experiment(cfg)
    chunks = [
        chunk
        for n_qubits in cfg.qubit_values()
        for m in cfg.coset_counts
        for chunk in experiment.trial_chunks(n_qubits, m, 9, surface)
    ]
    assert len(built) == len(chunks)
    assert [len(args[0]) for args in built] == [len(c) for c in chunks]


def test_verify_bounds_evaluates_bounds_once_per_chunk(monkeypatch, capsys):
    bounds = _counted(monkeypatch, noise, "bounds_for")
    argv = ["verify-bounds", "--epsilon", "0.1", "--qubits", "4..6",
            "--cosets", "3", "--trials", "4", "--seed", "17"]
    assert cli.main(argv) == 0
    chunks = sum(len(experiment.trial_chunks(n, 3, 4, "full"))
                 for n in range(4, 7))
    # one call per chunk and variant, not one per trial or coset pair
    assert len(bounds) == 3 * chunks == 9


def test_verify_bounds_draws_once_per_chunk(monkeypatch, capsys):
    generated = _counted(monkeypatch, dataset, "generate_trials")
    splits = _counted(monkeypatch, dataset, "split_trials")
    alphas = _counted(monkeypatch, kernel, "alpha_matrix")
    built = _counted(monkeypatch, dataset, "points")
    euler = _counted(monkeypatch, noise, "from_euler")
    kernels = _counted(monkeypatch, kernel, "kernel_matrix")
    checks = _counted(monkeypatch, cli, "count_envelope_violations")
    argv = ["verify-bounds", "--epsilon", "0.1", "--qubits", "4..6",
            "--cosets", "3", "--trials", "4", "--seed", "17"]
    assert cli.main(argv) == 0
    chunks = [len(chunk) for n in range(4, 7)
              for chunk in experiment.trial_chunks(n, 3, 4, "full")]
    # the three variants share each chunk's datasets, alphas, points and
    # Euler draws, and run as one stack through one kernel_matrix call and
    # one envelope check. The full surface reads no split, so none is
    # built
    assert len(generated) == len(alphas) == len(chunks)
    assert len(built) == len(euler) == len(checks) == len(chunks)
    assert splits == []
    assert [len(args[2]) for args in generated] == chunks
    assert sum(chunks) == 12
    assert [args[0].shape[:2] for args in kernels] == [(3, c) for c in chunks]
    assert [args[0].shape[:2] for args in checks] == [(3, c) for c in chunks]


@pytest.mark.parametrize("chunk", [range(3, 7), [9]])
@pytest.mark.parametrize("variant,eps", VARIANTS[1:])
def test_full_surface_skips_exactly_the_split_draws(variant, eps, chunk):
    # the full surface builds no split; each stream must still end where a
    # split drawn first would leave it, so the noise reads the same draws
    for n_qubits in range(2, 7):
        for m in (2, 3):
            rngs = experiment.trial_rngs(31, n_qubits, m, chunk)
            reps, splits = experiment.draw_trials(n_qubits, m, rngs, "full")
            assert splits is None
            ref_rngs = [oracle.trial_rng(31, n_qubits, m, t) for t in chunk]
            ref_reps = dataset.generate_trials(n_qubits, m, ref_rngs)
            dataset.split_trials(dataset.coset_labels(n_qubits, m), m,
                                 ref_rngs)
            for rng, ref_rng in zip(rngs, ref_rngs):
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            kmats = experiment.noisy_kernels(reps, None, variant, eps, rngs)
            ref = experiment.noisy_kernels(ref_reps, None, variant, eps,
                                           ref_rngs)
            assert np.array_equal(kmats, ref)


@pytest.mark.parametrize("budget", [kernel.CHUNK_ENTRIES, 1])
@pytest.mark.parametrize("m", [2, 3])
def test_verify_bounds_variants_see_fresh_draws(m, budget, monkeypatch,
                                                capsys):
    # every variant's kernels, drawn from streams restored to their state
    # after the split, are those of a build on new streams
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", budget)
    seen = []
    count = cli.count_envelope_violations

    def recorded(kmats, labels, alphas, variants, epsilon):
        seen.append((kmats, labels, alphas, variants))
        return count(kmats, labels, alphas, variants, epsilon)

    monkeypatch.setattr(cli, "count_envelope_violations", recorded)
    trials, seed, eps = 5, 29, 0.3
    argv = ["verify-bounds", "--epsilon", str(eps), "--qubits", "2..6",
            "--cosets", str(m), "--trials", str(trials), "--seed", str(seed)]
    assert cli.main(argv) in (0, 1)
    assert capsys.readouterr().err == ""
    expected = []
    for n_qubits in range(2, 7):
        for chunk in experiment.trial_chunks(n_qubits, m, trials, "full"):
            refs = []
            for variant in ("fiducial", "selection", "representation"):
                rngs = [oracle.trial_rng(seed, n_qubits, m, t)
                        for t in chunk]
                reps, _ = experiment.draw_trials(n_qubits, m, rngs)
                refs.append(experiment.noisy_kernels(reps, None, variant,
                                                     eps, rngs))
            # the full surface's points are every point, coset-major
            labels = np.repeat(np.arange(m), n_qubits)
            expected.append((refs, labels, kernel.alpha_matrix(reps)))
    assert len(seen) == len(expected)
    for (kmats, labels, alphas, variants), (refs, ref_labels,
                                           ref_alphas) in zip(seen, expected):
        assert variants == ("fiducial", "selection", "representation")
        assert kmats.shape[0] == 3
        for got, want in zip(kmats, refs):
            assert np.array_equal(got, want)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(alphas, ref_alphas)


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.6])
def test_variant_kernels_match_noisy_kernels(eps):
    # the one stacked build, bit for bit the kernels of one build per
    # variant on streams restored to where `draw_trials` left them
    cases = [(n, m) for n in (*range(2, 10), 33) for m in (2, 3, 5)]
    for n_qubits, m in cases:
        rngs = experiment.trial_rngs(41, n_qubits, m, range(3))
        reps, _ = experiment.draw_trials(n_qubits, m, rngs, "full")
        states = [rng.bit_generator.state for rng in rngs]
        stacked = experiment.noisy_kernels(reps, None, noise.NOISY_VARIANTS,
                                           eps, rngs)
        p = m * n_qubits
        assert stacked.shape == (3, 3, p, p)
        for variant, got in zip(noise.NOISY_VARIANTS, stacked):
            for rng, state in zip(rngs, states):
                rng.bit_generator.state = state
            want = experiment.noisy_kernels(reps, None, variant, eps, rngs)
            assert np.array_equal(got, want), (variant, n_qubits, m)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variants", [("representation", "fiducial"),
                                      ("selection",),
                                      ("selection", "selection", "fiducial"),
                                      ("none", "representation", "selection")])
def test_variant_tuples_match_single_builds(variants, surface):
    # any order or subset of names, repeats included: each slice of the
    # stack, bit for bit the kernels of its name alone on streams restored
    # to where `draw_trials` left them, over the train indices on the train
    # surface
    for n_qubits, m in ((2, 2), (3, 3), (6, 2)):
        rngs = experiment.trial_rngs(43, n_qubits, m, range(3))
        reps, train = experiment.draw_trials(n_qubits, m, rngs, surface)
        states = [rng.bit_generator.state for rng in rngs]
        stacked = experiment.noisy_kernels(reps, train, variants, 0.3, rngs)
        k = m * n_qubits if train is None else train.shape[-1]
        assert stacked.shape == (len(variants), 3, k, k)
        for variant, got in zip(variants, stacked):
            for rng, state in zip(rngs, states):
                rng.bit_generator.state = state
            want = experiment.noisy_kernels(reps, train, variant, 0.3, rngs)
            assert np.array_equal(got, want), (variant, n_qubits, m)


@pytest.mark.parametrize("strict", [False, True])
def test_stacked_envelope_counts_are_per_variant_sums(strict, monkeypatch):
    # kernels drawn at eps 0.3 and checked at 0.05 leave cross-coset
    # entries outside their envelopes; strict bounds add every same-coset
    # entry. One call over the (3, T, P, P) stack counts what one call per
    # variant does
    if strict:
        _strict_bounds(monkeypatch)
    found = 0
    for n_qubits, m in ((2, 2), (4, 3), (6, 5)):
        rngs = experiment.trial_rngs(7, n_qubits, m, range(4))
        reps, _ = experiment.draw_trials(n_qubits, m, rngs, "full")
        alphas = kernel.alpha_matrix(reps)
        stacked = experiment.noisy_kernels(reps, None, noise.NOISY_VARIANTS,
                                           0.3, rngs)
        labels = dataset.coset_labels(n_qubits, m)
        for check_eps in (0.05, 0.01):
            got = noise.count_envelope_violations(
                stacked, labels, alphas, noise.NOISY_VARIANTS, check_eps)
            per_variant = [
                noise.count_envelope_violations(kmats, labels, alphas,
                                                variant, check_eps)
                for variant, kmats in zip(noise.NOISY_VARIANTS, stacked)
            ]
            assert got == tuple(np.sum(per_variant, axis=0))
            found += got[0]
    assert found > 0


def test_verify_bounds_at_zero_epsilon_runs_no_chain(monkeypatch, capsys):
    # without a budget one gather of the alpha matrices serves all three
    # variants; no kernel over the points is built
    def refuse(*args, **kwargs):
        raise AssertionError("kernel_matrix called at eps 0")

    monkeypatch.setattr(kernel, "kernel_matrix", refuse)
    gathered = _counted(monkeypatch, kernel, "gather_alphas")
    argv = ["verify-bounds", "--epsilon", "0", "--qubits", "2..6",
            "--cosets", "3", "--trials", "4", "--seed", "5"]
    assert cli.main(argv) == 0
    checked = 3 * 4 * sum(3 * n * (3 * n - 1) for n in range(2, 7))
    assert capsys.readouterr().out.endswith(
        f"entries checked: {checked}, violations: 0\n")
    assert len(gathered) == 5


def test_chunk_sizing(monkeypatch):
    # large N runs one trial at a time
    assert experiment.trial_chunks(128, 3, 4, "full") == [
        range(0, 1), range(1, 2), range(2, 3), range(3, 4)
    ]
    # every cell of a 40-trial train-surface sweep over N = 2..5, m = 2..5
    # is one chunk
    for n_qubits in range(2, 6):
        for m in range(2, 6):
            assert experiment.trial_chunks(n_qubits, m, 40, "train") == [
                range(40)
            ]
    # a chunk is the largest that keeps within the budget, or one trial
    budget = kernel.CHUNK_ENTRIES
    for n_qubits in (2, 5, 10, 32, 128):
        for m in (2, 3, 5):
            for surface, points in (("full", m * n_qubits),
                                    ("train", m * n_qubits // 2)):
                chunks = experiment.trial_chunks(n_qubits, m, 10_000, surface)
                size = len(chunks[0])
                assert size == 1 or size * (2 * points) ** 2 <= budget
                assert (size + 1) * (2 * points) ** 2 > budget
                # the chunks cover the trials in order, each once
                assert [t for c in chunks for t in c] == list(range(10_000))
    # noiseless chunks run the alpha chain alone and are sized by each
    # trial's 4 m N representative entries, on either surface
    for n_qubits in (2, 5, 10, 32, 128):
        for m in (2, 3, 5, 7):
            entries = 4 * m * n_qubits
            for surface in ("full", "train"):
                chunks = experiment.trial_chunks(n_qubits, m, 10_000, surface,
                                                 noiseless=True)
                size = len(chunks[0])
                assert size == 1 or size * entries <= budget
                assert (size + 1) * entries > budget
                assert [t for c in chunks for t in c] == list(range(10_000))
    # the chain runs a stack of kernels, verify-bounds' 3 T of a chunk, in
    # slices, in order, of max(1, budget // (2P)^2) kernels, the last one
    # what is left
    stacks = []

    def stub(left, right, offsets_left, offsets_right):
        stacks.append(len(left))
        p = left.shape[-4]
        return np.zeros((len(left), p, p), complex)

    monkeypatch.setattr(kernel, "transfer_amplitudes", stub)
    for n_qubits in (2, 5, 10, 32, 128):
        for m in (2, 3, 5):
            points = m * n_qubits
            chunk = experiment.trial_chunks(n_qubits, m, 40, "full")[0]
            rngs = experiment.trial_rngs(3, n_qubits, m, chunk)
            reps, _ = experiment.draw_trials(n_qubits, m, rngs, "full")
            stacks.clear()
            experiment.noisy_kernels(reps, None, noise.NOISY_VARIANTS, 0.1,
                                     rngs)
            step = max(1, budget // (2 * points) ** 2)
            stack = 3 * len(chunk)
            assert stacks == [min(step, stack - lo)
                              for lo in range(0, stack, step)]


def test_noiseless_chunks_at_128_qubits(monkeypatch, tmp_path):
    # 25 trials of 4 m N = 2560 entries each fit the budget: 8 chunks for
    # 200 trials, and a report with the bits of one trial per chunk
    cfg = experiment.ExperimentConfig(qubit_range=(128, 128),
                                      coset_counts=(5,), trials=200, seed=1)
    alphas = _counted(monkeypatch, kernel, "alpha_matrix")
    experiment.export_report(experiment.run_experiment(cfg),
                             tmp_path / "chunked.json")
    assert [len(args[0]) for args in alphas] == [25] * 8
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", 1)
    experiment.export_report(experiment.run_experiment(cfg),
                             tmp_path / "single.json")
    assert len(alphas) == 8 + 200
    assert ((tmp_path / "chunked.json").read_bytes()
            == (tmp_path / "single.json").read_bytes())
