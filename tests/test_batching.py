"""Trials computed together along a trial axis give, bit for bit, what one
trial at a time gives, whatever the chunking.

The one-trial reference below runs each stage on one stream at a time, in
the order every trial reads its own stream: the representatives' normals,
the split, then the noise. A batched path that reorders those draws, or lets trials share a
stream, fails the comparison.
"""

import json
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
    sp = oracle.split(n_qubits, m, rng)
    indices = sp if surface == "train" else None
    labels = all_labels if indices is None else all_labels[indices]
    eps = cfg_noise.epsilon
    if eps == 0:
        alphas = kernel.alpha_matrix(reps)
        return reps, sp, kernel.gather_alphas(alphas[None], labels)[0], labels
    factors, offsets = dataset.points(reps), None
    if cfg_noise.variant == "fiducial":
        offsets = oracle.fiducial_offsets(n_qubits, eps, rng)
    elif cfg_noise.variant != "none":
        errors = noise.from_euler(
            oracle.element_angles(len(all_labels), n_qubits, eps, rng)
        )
        factors = noise.fold(cfg_noise.variant, errors, factors)
    if indices is not None:
        factors = factors[indices]
    return reps, sp, kernel.kernel_matrix(factors, offsets), labels


def small_config(variant, eps, surface, trials=6):
    return experiment.ExperimentConfig(
        qubit_range=(2, 5),
        coset_counts=(2, 3),
        trials=trials,
        noise=noise.NoiseConfig(variant, eps),
        seed=23,
        variance_surface=surface,
    )


def sweep_chunks(cfg):
    """(N, m, trial indices) of every chunk `experiment.sweep` yields, in
    order, the indices counted from each cell's first trial by the chunks'
    numbers of streams (`test_chunk_sizing` checks the streams)."""
    chunks = []
    for n_qubits, m, streams in experiment.sweep(cfg):
        start = 0
        for rngs in streams:
            chunks.append((n_qubits, m, range(start, start + len(rngs))))
            start += len(rngs)
    return chunks


def full_config(qubits, m, trials, seed, eps):
    """The config whose sweep `verify-bounds --epsilon eps --qubits qubits
    --cosets m --trials trials --seed seed` walks."""
    return experiment.ExperimentConfig(
        qubit_range=qubits, coset_counts=(m,), trials=trials, seed=seed,
        noise=noise.NoiseConfig("fiducial", eps), variance_surface="full")


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant,eps", VARIANTS)
def test_batched_kernels_match_one_trial_loop(variant, eps, surface):
    cfg_noise = noise.NoiseConfig(variant, eps)
    for n_qubits, m in ((2, 2), (3, 3), (5, 2), (4, 5)):
        trials = range(7)

        def streams():
            return [oracle.trial_rng(4, n_qubits, m, t) for t in trials]

        splits = experiment.draw_trials(n_qubits, m, streams())[1]
        reps, (values,), counts, labels = experiment.kernel_tables(
            n_qubits, m, streams(), surface, (variant,), eps)
        kmats, labels = oracle.expand_tables(values, counts, labels)
        alphas = kernel.alpha_matrix(reps)
        points = dataset.points(reps)
        for t in trials:
            rng = oracle.trial_rng(4, n_qubits, m, t)
            ref_reps, ref_sp, ref, ref_labels = one_trial_kernel(
                n_qubits, m, cfg_noise, rng, surface)
            assert np.array_equal(reps[t], ref_reps)
            assert np.array_equal(points[t], dataset.points(ref_reps))
            assert np.array_equal(splits[t], ref_sp)
            assert np.array_equal(kmats[t], ref)
            assert np.array_equal(labels[t], ref_labels)
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
        for n_qubits, m, _ in experiment.sweep(cfg)
        for t in range(cfg.trials)
    ]
    assert experiment.run_experiment(cfg)["trials"] == looped


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variant,eps", VARIANTS)
def test_report_statistics_match_plain_reductions(variant, eps, surface):
    # each trial's five numbers from its own matrix, with 1-D reductions
    cfg = small_config(variant, eps, surface)
    expected = []
    for n_qubits, m, _ in experiment.sweep(cfg):
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
            cell = replace(cfg, qubit_range=(5, 5), coset_counts=(3,))
            assert [c for _, _, c in sweep_chunks(cell)] == chunks
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
    # per N, one stack of 3 variants x 4 trials over the 3 N points, then
    # the alpha chain over 4 trials' 3 representatives; at budget 1 one
    # trial per chunk, and every kernel of its stack one chain call
    whole = [b for n in (4, 5, 6) for b in ((12, 3 * n), (4, 3))]
    single = [b for n in (4, 5, 6) for _ in range(4)
              for b in ((1, 3 * n), (1, 3 * n), (1, 3 * n), (1, 3))]
    assert batches == [whole, single, whole]


def _strict_bounds(monkeypatch):
    """Give every envelope a same-coset lower bound of 1, which makes every
    noisy same-coset entry a violation."""
    bounds_for = noise.bounds_for

    def strict(variant, alphas, epsilon):
        lower, upper = bounds_for(variant, alphas, epsilon)
        same = np.eye(alphas.shape[-1], dtype=bool)
        return np.where(same, 1.0, lower), upper

    monkeypatch.setattr(noise, "bounds_for", strict)


def test_verify_bounds_violations_do_not_depend_on_chunking(monkeypatch,
                                                            capsys):
    # strict bounds put violations in every chunk of every budget
    _strict_bounds(monkeypatch)
    argv = ["verify-bounds", "--epsilon", "0.1", "--qubits", "2..8",
            "--cosets", "3", "--trials", "4", "--seed", "236"]
    assert sweep_chunks(full_config((2, 2), 3, 4, 236, 0.1)) == [
        (2, 3, range(4))]
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
    chunks = [chunk for _, _, chunk in sweep_chunks(cfg)]
    assert len(chunks) < 9 * len(list(experiment.sweep(cfg)))
    assert len(stats) == len(chunks)
    assert [len(args[0]) for args in stats] == [len(c) for c in chunks]


def _only_alpha_kernels(kernels, alphas):
    """Whether the `_counted` calls of `kernel.kernel_matrix` are those that
    `kernel.alpha_matrix` made, one on each of its representatives."""
    return (len(kernels) == len(alphas)
            and all(k[0] is a[0] for k, a in zip(kernels, alphas)))


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
    kernels = _counted(monkeypatch, kernel, "kernel_matrix")
    alphas = _counted(monkeypatch, kernel, "alpha_matrix")
    cfg = small_config(variant, 0.0, surface)
    report = experiment.run_experiment(cfg)
    assert len(report["trials"]) == 6 * 4 * 2
    assert len(alphas) == 4 * 2
    # the only kernels built are alpha_matrix's, over the representatives
    assert _only_alpha_kernels(kernels, alphas)


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
    """Reference for the statistics of zero-budget `kernel_tables`: the
    representatives and the whole split drawn, and each coset's count read
    off the labels of the kernel's points."""
    reps, train, _ = experiment.draw_trials(n_qubits, m, rngs, surface)
    labels = dataset.coset_labels(n_qubits, m)
    if train is not None:
        labels = labels[train]
    cosets = np.arange(m)
    counts = np.count_nonzero(labels[..., :, None] == cosets, axis=-2)
    return kernel.trial_stats(kernel.alpha_matrix(reps), counts, cosets)


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
            counts = dataset.train_counts(
                n_qubits, m, np.stack([rng.random(m) for rng in fresh]))
            train = dataset.split_trials(n_qubits, m, np.stack(
                [rng.random(len(labels) + m) for rng in ref]))
            assert np.array_equal(
                counts, [np.bincount(labels[t], minlength=m) for t in train]
            )
            for surface in SURFACES:
                (values,), counts, labels = experiment.kernel_tables(
                    n_qubits, m,
                    experiment.trial_rngs(seed, n_qubits, m, chunk), surface,
                    ("none",), 0.0)[1:]
                got = kernel.trial_stats(values, counts, labels)
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
        experiment.kernel_tables(n_qubits, m, rngs, surface, (variant,),
                                 0.0)
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
    chunks = [chunk for _, _, chunk in sweep_chunks(cfg)]
    assert len(built) == len(chunks)
    assert [len(args[0]) for args in built] == [len(c) for c in chunks]


def test_verify_bounds_evaluates_bounds_once_per_chunk(monkeypatch, capsys):
    bounds = _counted(monkeypatch, noise, "bounds_for")
    argv = ["verify-bounds", "--epsilon", "0.1", "--qubits", "4..6",
            "--cosets", "3", "--trials", "4", "--seed", "17"]
    assert cli.main(argv) == 0
    chunks = [len(chunk)
              for _, _, chunk in sweep_chunks(
                  full_config((4, 6), 3, 4, 17, 0.1))]
    # one call per chunk and variant, not one per trial or coset pair, each
    # on the chunk's (T, m, m) alphas rather than a (T, K, K) gather
    assert len(bounds) == 3 * len(chunks) == 9
    assert [args[1].shape for args in bounds] == [
        (t, 3, 3) for t in chunks for _ in range(3)]


def test_verify_bounds_draws_once_per_chunk(monkeypatch, capsys):
    generated = _counted(monkeypatch, experiment, "_read_streams")
    splits = _counted(monkeypatch, dataset, "split_trials")
    alphas = _counted(monkeypatch, kernel, "alpha_matrix")
    built = _counted(monkeypatch, dataset, "points")
    euler = _counted(monkeypatch, noise, "from_euler")
    kernels = _counted(monkeypatch, kernel, "kernel_matrix")
    checks = _counted(monkeypatch, cli, "count_envelope_violations")
    argv = ["verify-bounds", "--epsilon", "0.1", "--qubits", "4..6",
            "--cosets", "3", "--trials", "4", "--seed", "17"]
    assert cli.main(argv) == 0
    chunks = [len(chunk)
              for _, _, chunk in sweep_chunks(
                  full_config((4, 6), 3, 4, 17, 0.1))]
    # the three variants share each chunk's datasets, alphas, points and
    # Euler draws, and run as one stack through one kernel_matrix call and
    # one envelope check; the chunk's other kernel_matrix call is the alpha
    # matrix's, over its representatives. The full surface builds no split,
    # so none is built; each stream's one read of uniforms covers the
    # split's P + m and the longest variant's 3PN
    assert len(generated) == len(alphas) == len(chunks)
    assert len(built) == len(euler) == len(checks) == len(chunks)
    assert splits == []
    assert [len(args[2]) for args in generated] == chunks
    assert [args[3] for args in generated] == [
        3 * n + 3 + 3 * (3 * n) * n
        for n, _, _ in sweep_chunks(full_config((4, 6), 3, 4, 17, 0.1))]
    assert sum(chunks) == 12
    assert [args[0].shape[:2] for args in kernels] == [
        shape for c in chunks for shape in ((3, c), (c, 3))]
    assert [args[0].shape[:2] for args in checks] == [(3, c) for c in chunks]


@pytest.mark.parametrize("chunk", [range(3, 7), [9]])
@pytest.mark.parametrize("variant,eps", VARIANTS[1:])
def test_full_surface_skips_exactly_the_split_draws(variant, eps, chunk):
    # the full surface builds no split; its noise row must still start where
    # a split drawn first leaves each stream, so the noise reads the same
    # draws, and each stream ends where those reads leave it
    for n_qubits in range(2, 7):
        for m in (2, 3):
            rngs = experiment.trial_rngs(31, n_qubits, m, chunk)
            reps, splits, uniforms = experiment.draw_trials(
                n_qubits, m, rngs, "full", (variant,))
            assert splits is None
            ref_rngs = [oracle.trial_rng(31, n_qubits, m, t) for t in chunk]
            ref_reps = np.stack([oracle.generate(n_qubits, m, rng)
                                 for rng in ref_rngs])
            for rng in ref_rngs:
                oracle.split(n_qubits, m, rng)
            draws = noise.draws((variant,), m * n_qubits, n_qubits)
            ref_uniforms = np.stack([rng.random(draws) for rng in ref_rngs])
            assert np.array_equal(uniforms, ref_uniforms)
            for rng, ref_rng in zip(rngs, ref_rngs):
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            kmats = experiment.kernel_tables(
                n_qubits, m, experiment.trial_rngs(31, n_qubits, m, chunk),
                "full", (variant,), eps)[1]
            factors, offsets = noise.attach((variant,), eps,
                                            dataset.points(ref_reps),
                                            ref_uniforms)
            ref = kernel.kernel_matrix(factors, offsets)
            assert np.array_equal(kmats, ref)


def _assert_sequential_layout(n_qubits, m, seed, chunk, surface, variants,
                              eps):
    """`draw_trials` and `noise.attach` on a chunk of streams give each
    trial, bit for bit, the draws and noisy inputs of
    `oracle.sequential_draws` on its own stream, and leave each stream
    where those reads leave it."""
    rngs = experiment.trial_rngs(seed, n_qubits, m, chunk)
    reps, train, uniforms = experiment.draw_trials(n_qubits, m, rngs, surface,
                                                   variants)
    factors, offsets = noise.attach(variants, eps, dataset.points(reps),
                                    uniforms)
    assert (train is None) == (surface == "full")
    for i, (t, rng) in enumerate(zip(chunk, rngs)):
        ref = oracle.trial_rng(seed, n_qubits, m, t)
        ref_reps, ref_train, ref_factors, ref_offsets = (
            oracle.sequential_draws(n_qubits, m, ref, surface, variants, eps))
        assert np.array_equal(reps[i], ref_reps)
        if train is not None:
            assert np.array_equal(train[i], ref_train)
        assert np.array_equal(factors[:, i], ref_factors)
        assert np.array_equal(offsets[:, :, i], ref_offsets)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("chunk", [range(3), range(5, 8), [9]])
@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize(
    "variants", [*((v,) for v in noise.VARIANTS), noise.NOISY_VARIANTS],
    ids=lambda v: v[0] if len(v) == 1 else None)
def test_draw_trials_reads_the_sequential_layout(variants, surface, chunk):
    # one read of normals and one of uniforms per stream give the bits of
    # the pieces read one at a time: normals, m count uniforms, P rank
    # uniforms, then each variant's `Generator.uniform(-b, b)` from where
    # the split left the stream, on chunks that start anywhere
    for n_qubits, m in ((2, 2), (3, 3), (5, 2)):
        _assert_sequential_layout(n_qubits, m, 53, chunk, surface, variants,
                                  0.3)


@pytest.mark.parametrize("eps", [np.finfo(float).max / 2, 1.0, 5e-324])
def test_noise_angles_match_generator_uniform_at_extreme_budgets(eps):
    # -b + 2 b u has the bits of `Generator.uniform(-b, b)` on the same
    # draw: at N = 2 the fiducial box is [-eps, eps], the widest that
    # `NoiseConfig` accepts at its largest epsilon, and at eps = 5e-324 the
    # boxes are subnormal
    for surface in SURFACES:
        _assert_sequential_layout(2, 2, 59, range(4), surface,
                                  noise.NOISY_VARIANTS, eps)


@pytest.mark.parametrize("budget", [kernel.CHUNK_ENTRIES, 1])
@pytest.mark.parametrize("m", [2, 3])
def test_verify_bounds_variants_see_fresh_draws(m, budget, monkeypatch,
                                                capsys):
    # every variant's kernels, built from the start of the one noise row
    # that the three share, are those of a build for that variant alone on
    # new streams
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", budget)
    seen = []
    count = cli.count_envelope_violations

    def recorded(kmats, counts, labels, alphas, variants, epsilon):
        seen.append((kmats, counts, labels, alphas, variants))
        return count(kmats, counts, labels, alphas, variants, epsilon)

    monkeypatch.setattr(cli, "count_envelope_violations", recorded)
    trials, seed, eps = 5, 29, 0.3
    argv = ["verify-bounds", "--epsilon", str(eps), "--qubits", "2..6",
            "--cosets", str(m), "--trials", str(trials), "--seed", str(seed)]
    assert cli.main(argv) in (0, 1)
    assert capsys.readouterr().err == ""
    expected = []
    for n_qubits, _, chunk in sweep_chunks(full_config((2, 6), m, trials,
                                                       seed, eps)):
        refs = []
        for variant in ("fiducial", "selection", "representation"):
            rngs = [oracle.trial_rng(seed, n_qubits, m, t) for t in chunk]
            reps, (kmats,), _, _ = experiment.kernel_tables(
                n_qubits, m, rngs, "full", (variant,), eps)
            refs.append(kmats)
        # the full surface's points are every point, coset-major
        labels = np.repeat(np.arange(m), n_qubits)
        expected.append((refs, labels, kernel.alpha_matrix(reps)))
    assert len(seen) == len(expected)
    for (kmats, counts, labels, alphas, variants), (
            refs, ref_labels, ref_alphas) in zip(seen, expected):
        assert variants == ("fiducial", "selection", "representation")
        assert np.array_equal(counts, np.ones(len(ref_labels), dtype=int))
        assert kmats.shape[0] == 3
        for got, want in zip(kmats, refs):
            assert np.array_equal(got, want)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(alphas, ref_alphas)


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.6])
def test_variant_kernels_match_noisy_kernels(eps):
    # the one stacked build, bit for bit the kernels of one build per
    # variant on the uniforms that `draw_trials` reads for that variant
    # alone from new streams: a prefix of the stack's noise row
    cases = [(n, m) for n in (*range(2, 10), 33) for m in (2, 3, 5)]
    for n_qubits, m in cases:
        def streams():
            return experiment.trial_rngs(41, n_qubits, m, range(3))

        uniforms = experiment.draw_trials(n_qubits, m, streams(), "full",
                                          noise.NOISY_VARIANTS)[2]
        stacked = experiment.kernel_tables(n_qubits, m, streams(), "full",
                                           noise.NOISY_VARIANTS, eps)[1]
        p = m * n_qubits
        assert stacked.shape == (3, 3, p, p)
        for variant, got in zip(noise.NOISY_VARIANTS, stacked):
            own = experiment.draw_trials(n_qubits, m, streams(), "full",
                                         (variant,))[2]
            assert np.array_equal(own, uniforms[:, :own.shape[1]])
            want = experiment.kernel_tables(n_qubits, m, streams(), "full",
                                            (variant,), eps)[1][0]
            assert np.array_equal(got, want), (variant, n_qubits, m)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("variants", [("representation", "fiducial"),
                                      ("selection",),
                                      ("selection", "selection", "fiducial"),
                                      ("none", "representation", "selection")])
def test_variant_tuples_match_single_builds(variants, surface):
    # any order or subset of names, repeats included: each slice of the
    # stack, bit for bit the kernels of its name alone on the uniforms that
    # `draw_trials` reads for it from new streams, over the train indices
    # on the train surface
    for n_qubits, m in ((2, 2), (3, 3), (6, 2)):
        def streams():
            return experiment.trial_rngs(43, n_qubits, m, range(3))

        train = experiment.draw_trials(n_qubits, m, streams(), surface,
                                       variants)[1]
        _, stacked, counts, labels = experiment.kernel_tables(
            n_qubits, m, streams(), surface, variants, 0.3)
        all_labels = dataset.coset_labels(n_qubits, m)
        assert np.array_equal(
            labels, all_labels if train is None else all_labels[train])
        k = m * n_qubits if train is None else train.shape[-1]
        assert np.array_equal(counts, np.ones(k, dtype=int))
        assert stacked.shape == (len(variants), 3, k, k)
        for variant, got in zip(variants, stacked):
            own_train = experiment.draw_trials(n_qubits, m, streams(),
                                               surface, (variant,))[1]
            assert np.array_equal(own_train, train)
            want = experiment.kernel_tables(n_qubits, m, streams(), surface,
                                            (variant,), 0.3)[1][0]
            assert np.array_equal(got, want), (variant, n_qubits, m)


@pytest.mark.parametrize("variants", [("fiducial",), ("selection",),
                                      ("representation",),
                                      noise.NOISY_VARIANTS],
                         ids="-".join)
def test_train_tables_match_noising_every_point(variants):
    # `kernel_tables` noises only a train split's points; its kernels are,
    # bit for bit, those of every point noised and the train points then
    # compared (a sub-block of the full surface's kernel would not do: the
    # chain's bits depend on the number of points it runs over)
    for n_qubits in range(2, 7):
        for m in (2, 3, 5):
            def streams():
                return experiment.trial_rngs(67, n_qubits, m, range(3))

            got = experiment.kernel_tables(n_qubits, m, streams(), "train",
                                           variants, 0.3)[1]
            want = oracle.train_tables_from_all_points(n_qubits, m,
                                                       streams(), variants,
                                                       0.3)
            k = m * n_qubits // 2
            assert got.shape == want.shape == (len(variants), 3, k, k)
            assert got.tobytes() == want.tobytes(), (n_qubits, m)


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
        reps, stacked, counts, labels = experiment.kernel_tables(
            n_qubits, m, rngs, "full", noise.NOISY_VARIANTS, 0.3)
        alphas = kernel.alpha_matrix(reps)
        for check_eps in (0.05, 0.01):
            got = noise.count_envelope_violations(
                stacked, counts, labels, alphas, noise.NOISY_VARIANTS,
                check_eps)
            per_variant = [
                noise.count_envelope_violations(kmats[None], counts, labels,
                                                alphas, (variant,), check_eps)
                for variant, kmats in zip(noise.NOISY_VARIANTS, stacked)
            ]
            assert got == tuple(np.sum(per_variant, axis=0))
            found += got[0]
    assert found > 0


def test_verify_bounds_at_zero_epsilon_runs_no_chain(monkeypatch, capsys):
    # without a budget each chunk's alpha matrices are the table that all
    # three variants check, one coset per row; no kernel over the points is
    # built or gathered
    def refuse(*args, **kwargs):
        raise AssertionError("kernel over points built at eps 0")

    monkeypatch.setattr(kernel, "gather_alphas", refuse)
    kernels = _counted(monkeypatch, kernel, "kernel_matrix")
    alphas = _counted(monkeypatch, kernel, "alpha_matrix")
    generated = _counted(monkeypatch, experiment, "_read_streams")
    argv = ["verify-bounds", "--epsilon", "0", "--qubits", "2..6",
            "--cosets", "3", "--trials", "4", "--seed", "5"]
    assert cli.main(argv) == 0
    checked = 3 * 4 * sum(3 * n * (3 * n - 1) for n in range(2, 7))
    assert capsys.readouterr().out.endswith(
        f"entries checked: {checked}, violations: 0\n")
    # one chunk per N: its table, then the envelope's alphas
    assert [len(args[0]) for args in alphas] == [4] * 10
    assert _only_alpha_kernels(kernels, alphas)
    # each full-surface stream reads its 4 m N normals and no uniform
    assert [(len(args[2]), args[3]) for args in generated] == [(4, 0)] * 5


def test_heatmap_at_zero_epsilon_reads_no_noise_row(monkeypatch, tmp_path):
    generated = _counted(monkeypatch, experiment, "_read_streams")
    argv = ["simulate", "--noise", "fiducial", "--epsilon", "0",
            "--qubits", "2..4", "--cosets", "2,3", "--trials", "3",
            "--out", str(tmp_path / "r.json"),
            "--heatmap", str(tmp_path / "h.csv")]
    assert cli.main(argv) == 0
    # the sweep's streams read their m count uniforms; the heat map, trial
    # 0's alpha table at N = 4 and m = 2, is the sweep's and reads none
    assert [args[3] for args in generated] == [2, 3] * 3


def _reference_kernel(n_qubits, m, seed, trial, surface, variant, eps):
    """One trial's alpha matrix, kernel labels and kernel from its own
    stream, built apart from `experiment.kernel_tables`: the gather of its
    alpha matrix without a budget, the chain on `noise.attach`'s inputs
    with one."""
    rng = oracle.trial_rng(seed, n_qubits, m, trial)
    reps, train, uniforms = experiment.draw_trials(n_qubits, m, [rng],
                                                   surface, (variant,))
    alphas = kernel.alpha_matrix(reps)
    labels = dataset.coset_labels(n_qubits, m)
    if train is not None:
        labels = labels[train[0]]
    if eps == 0:
        return alphas, labels, kernel.gather_alphas(alphas, labels)[0]
    factors, offsets = noise.attach((variant,), eps, dataset.points(reps),
                                    uniforms)
    if train is not None:
        factors = oracle.train_points(factors, train)
    return alphas, labels, kernel.kernel_matrix(factors, offsets)[0, 0]


@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_chunked_verify_bounds_prints_the_one_trial_counts(eps, monkeypatch,
                                                           capsys):
    # cross-coset upper bounds at alpha itself and same-coset lower bounds
    # at 1: a noisy entry on the wrong side of either is a violation, so the
    # count depends on every entry's value
    bounds_for = noise.bounds_for

    def tight(variant, alphas, epsilon):
        lower, _ = bounds_for(variant, alphas, epsilon)
        same = np.eye(alphas.shape[-1], dtype=bool)
        return np.where(same, 1.0, lower), np.where(same, 1.0, alphas)

    monkeypatch.setattr(noise, "bounds_for", tight)
    # without a budget a trial takes 4 m N entries rather than (2 P)^2
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", 2**10 if eps else 2**6)
    m, trials, seed = 3, 20, 37
    # every cell runs in more than one chunk
    assert all(len(chunk) < trials for _, _, chunk in sweep_chunks(
        full_config((2, 5), m, trials, seed, eps)))
    violations = checked = 0
    for n_qubits in range(2, 6):
        for t in range(trials):
            for variant in noise.NOISY_VARIANTS:
                alphas, labels, kmat = _reference_kernel(
                    n_qubits, m, seed, t, "full", variant, eps)
                v, c = noise.count_envelope_violations(
                    kmat[None], np.ones(len(kmat), dtype=int), labels, alphas,
                    (variant,), eps)
                violations += v
                checked += c
    assert (violations > 0) == (eps > 0)
    argv = ["verify-bounds", "--epsilon", str(eps), "--qubits", "2..5",
            "--cosets", str(m), "--trials", str(trials), "--seed", str(seed)]
    assert cli.main(argv) == (1 if violations else 0)
    assert capsys.readouterr().out == "".join(
        f"{variant}: checked through N=5\n"
        for variant in noise.NOISY_VARIANTS
    ) + f"entries checked: {checked}, violations: {violations}\n"


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_chunked_simulate_prints_the_one_trial_statistics(eps, surface,
                                                          monkeypatch, capsys,
                                                          tmp_path):
    # the aggregates on stdout and the heat map, under a budget that splits
    # cells into several chunks, against kernels built one trial at a time.
    # Without a budget the sweep takes the alpha matrices' weighted
    # statistics, which match the gathered kernels' to rounding
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", 2**10)
    variant, trials, seed = "selection", 20, 19
    cfg = experiment.ExperimentConfig(
        qubit_range=(2, 5), coset_counts=(2, 3), trials=trials,
        noise=noise.NoiseConfig(variant, eps), variance_surface=surface)
    assert any(len(chunk) < trials for _, _, chunk in sweep_chunks(cfg))
    heat = tmp_path / "heat.csv"
    argv = ["simulate", "--qubits", "2..5", "--cosets", "2,3", "--trials",
            str(trials), "--noise", variant, "--epsilon", str(eps),
            "--surface", surface, "--seed", str(seed), "--heatmap", str(heat)]
    assert cli.main(argv) == 0
    aggregates = json.loads(capsys.readouterr().out)
    want = []
    for n_qubits in range(2, 6):
        for m in (2, 3):
            variances = []
            for t in range(trials):
                _, labels, kmat = _reference_kernel(n_qubits, m, seed, t,
                                                    surface, variant, eps)
                variances.append(kernel.trial_stats(
                    kmat, np.ones(len(kmat), dtype=int), labels)[0])
            variances = np.array(variances)
            want.append((n_qubits, m, variances.mean(), variances.std()))
    got = [(a["num_qubits"], a["num_cosets"], a["mean_variance"],
            a["std_dev_variance"]) for a in aggregates]
    assert [g[:2] for g in got] == [w[:2] for w in want]
    np.testing.assert_allclose([g[2:] for g in got], [w[2:] for w in want],
                               rtol=0, atol=0 if eps else 1e-15)
    # the heat map: trial 0 at N = 5 and m = 2, over every point
    kmat = _reference_kernel(5, 2, seed, 0, "full", variant, eps)[2]
    kernel.export_heatmap(kmat, dataset.point_names(5, 2), tmp_path / "ref.csv")
    assert heat.read_text() == (tmp_path / "ref.csv").read_text()


@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_verify_bounds_checks_the_trials_simulate_reports(eps, monkeypatch,
                                                          capsys, tmp_path):
    # under a budget that splits cells into several chunks, verify-bounds
    # builds its kernels from the cells, chunks and streams, in order, from
    # which a full-surface simulate on the same trials builds its own, with
    # or without a noise budget
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", 2**10)
    calls = []
    build = experiment.kernel_tables

    def recorded(n_qubits, m, rngs, *args):
        calls.append((n_qubits, m, [rng.bit_generator.state for rng in rngs]))
        return build(n_qubits, m, rngs, *args)

    monkeypatch.setattr(experiment, "kernel_tables", recorded)
    trials = ["--epsilon", str(eps), "--qubits", "2..5", "--cosets", "3",
              "--trials", "20", "--seed", "41"]
    assert cli.main(["simulate", "--surface", "full", "--noise", "selection",
                     "--out", str(tmp_path / "r.json"), *trials]) == 0
    simulated = calls[:]
    calls.clear()
    assert cli.main(["verify-bounds", *trials]) in (0, 1)
    assert capsys.readouterr().err == ""
    assert calls == simulated
    # with a budget, chunks of 7, 7 and 6 trials at N = 2, of 3 trials and
    # 2 at N = 3, and of one trial at N = 4 and 5; without one, a trial's
    # 4 m N entries fit 20 trials in a chunk at N = 2..4, and 17 at N = 5
    assert [len(states) for _, _, states in calls] == (
        [7, 7, 6] + [3] * 6 + [2] + [1] * 40 if eps else [20] * 3 + [17, 3])


def _swept_states(cfg):
    """Each cell `experiment.sweep` yields, as (N, m, the bit-generator
    states of each chunk's streams)."""
    return [(n_qubits, m, [[rng.bit_generator.state for rng in rngs]
                           for rngs in streams])
            for n_qubits, m, streams in experiment.sweep(cfg)]


def _one_trial_states(seed, n_qubits, m, trials):
    """The state of each trial's stream, built as a one-trial chunk."""
    return [experiment.trial_rngs(seed, n_qubits, m, [t])[0]
            .bit_generator.state for t in range(trials)]


def test_chunk_sizing(monkeypatch):
    # large N runs one trial at a time, each stream its own trial's
    seed = 3
    assert _swept_states(full_config((128, 128), 3, 4, seed, 0.1)) == [
        (128, 3, [[state] for state in _one_trial_states(seed, 128, 3, 4)])
    ]
    # every cell of a 40-trial train-surface sweep over N = 2..5, m = 2..5
    # is one chunk; the cells come N outer, and each trial once, in order
    cfg = experiment.ExperimentConfig(qubit_range=(2, 5),
                                      coset_counts=(2, 3, 4, 5), trials=40,
                                      seed=seed)
    assert _swept_states(cfg) == [
        (n_qubits, m, [_one_trial_states(seed, n_qubits, m, 40)])
        for n_qubits in range(2, 6) for m in range(2, 6)
    ]
    # the chain runs a stack of kernels, verify-bounds' 3 T of a chunk, in
    # slices, in order, of max(1, budget // (2P)^2) kernels, the last one
    # what is left
    budget = kernel.CHUNK_ENTRIES
    stacks = []

    def stub(left, right, offsets_left, offsets_right):
        stacks.append(len(left))
        p = left.shape[-4]
        return np.zeros((len(left), p, p), complex)

    monkeypatch.setattr(kernel, "transfer_amplitudes", stub)
    for n_qubits in (2, 5, 10, 32, 128):
        for m in (2, 3, 5):
            points = m * n_qubits
            cell = full_config((n_qubits, n_qubits), m, 40, seed, 0.1)
            rngs = next(next(experiment.sweep(cell))[2])
            stacks.clear()
            experiment.kernel_tables(n_qubits, m, rngs, "full",
                                     noise.NOISY_VARIANTS, 0.1)
            step = max(1, budget // (2 * points) ** 2)
            stack = 3 * len(rngs)
            assert stacks == [min(step, stack - lo)
                              for lo in range(0, stack, step)]
    # a chunk is the largest that keeps within the budget, or one trial.
    # The sweep builds every stream, so the cells hold 100 trials under a
    # budget of 2**10 entries, where a chunk holds at most 64
    budget = 2**10
    monkeypatch.setattr(kernel, "CHUNK_ENTRIES", budget)
    for noiseless in (False, True):
        for n_qubits in (2, 5, 10, 32, 128):
            for m in (2, 3, 5, 7) if noiseless else (2, 3, 5):
                for surface, points in (("full", m * n_qubits),
                                        ("train", m * n_qubits // 2)):
                    # without noise only the 4 m N entries of a trial's
                    # representatives run through the chain
                    entries = (4 * m * n_qubits if noiseless
                               else (2 * points) ** 2)
                    cell = replace(
                        full_config((n_qubits, n_qubits), m, 100, seed,
                                    0.0 if noiseless else 0.1),
                        variance_surface=surface)
                    ((_, _, chunks),) = _swept_states(cell)
                    size = len(chunks[0])
                    assert size == 1 or size * entries <= budget
                    assert (size + 1) * entries > budget
                    assert all(len(c) == size for c in chunks[:-1])
                    # the chunks cover the trials in order, each once
                    assert [state for c in chunks for state in c] == (
                        _one_trial_states(seed, n_qubits, m, 100))


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
