import ctypes
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cosetkernel import cli, dataset, experiment, kernel, noise, theory
from cosetkernel.experiment import ExperimentConfig

import oracle


def small_config(**overrides):
    base = dict(
        qubit_range=(2, 3),
        coset_counts=(2,),
        trials=3,
        noise=noise.NoiseConfig(),
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    for path in (1, True, ["a"]):
        with pytest.raises(ValueError, match="output_path must be a string"):
            ExperimentConfig(output_path=path)
    assert ExperimentConfig(output_path="r.json").output_path == "r.json"
    with pytest.raises(ValueError):
        ExperimentConfig(qubit_range=(2, experiment.MAX_QUBITS + 1))
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(variance_surface="test")
    with pytest.raises(ValueError, match="output_format must be 'json' or 'csv'"):
        ExperimentConfig(output_format="xml")
    for counts in ((), (1, 2), (3, 2, 3)):
        with pytest.raises(ValueError, match="coset counts"):
            ExperimentConfig(coset_counts=counts)
    with pytest.raises(ValueError, match="coset counts"):
        experiment.config_from_dict({"coset_counts": [2, 0]})


def test_two_point_train_kernel_has_zero_variance():
    # N=2, m=2 train split holds one point per coset; the two ordered
    # off-diagonal entries are equal
    rng = oracle.trial_rng(0, 2, 2, 0)
    report = oracle.run_trial(2, 2, noise.NoiseConfig(), rng)
    assert report["empirical_variance"] == pytest.approx(0.0, abs=1e-15)


def test_full_surface_variance_matches_theory():
    rng = oracle.trial_rng(1, 10, 2, 0)
    reps, _, kmat = oracle.build_kernel(
        10, 2, noise.NoiseConfig(), rng, surface="full"
    )
    var = kernel.trial_stats(kmat, np.ones(len(kmat), dtype=int),
                             np.repeat(np.arange(2), 10))[0]
    _, expected = theory.offdiag_moments([10] * 2, kernel.alpha_matrix(reps))
    assert var == pytest.approx(expected, abs=1e-12)


def test_trial_determinism():
    r1 = oracle.run_trial(3, 2, noise.NoiseConfig(), oracle.trial_rng(5, 3, 2, 0))
    r2 = oracle.run_trial(3, 2, noise.NoiseConfig(), oracle.trial_rng(5, 3, 2, 0))
    assert r1 == r2


def test_trial_streams_independent_of_order():
    # derive the streams in reversed order; each report is unchanged
    forward = [
        oracle.run_trial(
            3, 2, noise.NoiseConfig(), oracle.trial_rng(5, 3, 2, t), trial_index=t
        )
        for t in range(4)
    ]
    backward = [
        oracle.run_trial(
            3, 2, noise.NoiseConfig(), oracle.trial_rng(5, 3, 2, t), trial_index=t
        )
        for t in reversed(range(4))
    ]
    assert forward == list(reversed(backward))


SEEDS = [0, 1, 9, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7,
         12345678901234567890123456789012345678901234567890]


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_streams_match_the_reference_stream(seed):
    # a chunk's indices start anywhere; each stream is its trial's own
    cells = [(2, 2), (3, 5), (5, 4), (17, 3), (128, 2)]
    ranges = [range(0, 3), range(7, 12), range(113, 150), [294, 4, 0]]
    for (n_qubits, m), trials in zip(cells, ranges * 2):
        rngs = experiment.trial_rngs(seed, n_qubits, m, trials)
        assert len(rngs) == len(trials)
        for t, rng in zip(trials, rngs):
            want = oracle.trial_rng(seed, n_qubits, m, t)
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.random(3).tolist() == want.random(3).tolist()


def _run_fresh(code):
    """stdout of `code` run in a fresh interpreter that imports this
    checkout's package."""
    source_dir = os.path.dirname(os.path.dirname(experiment.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_dir, env.get("PYTHONPATH")))
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_import_leaves_numpy_random_unloaded():
    # `trial_rngs` loads numpy.random on first use, so the CLI's start-up
    # does not pay for it; nor does it build the CLI's parser, nor set the
    # allocator policy that `main` sets
    code = ("import sys, cosetkernel.cli as cli; "
            "print('numpy.random' in sys.modules, "
            "cli._build_parser.cache_info().currsize, "
            "cli._keep_freed_memory.cache_info().currsize)")
    assert _run_fresh(code) == "False 0 0\n"


@pytest.fixture
def fresh_allocator_policy():
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


THEORY = ["theory", "--m", "2", "--n", "3", "--N", "4"]


def test_cli_pins_the_allocator_thresholds_once(fresh_allocator_policy,
                                                monkeypatch, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def cdll(name):
        assert name is None
        return SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.main(THEORY) == 0
    assert cli.main(THEORY) == 0
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def _no_libc(name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: SimpleNamespace()],
                         ids=["no-libc", "no-mallopt"])
def test_cli_runs_where_libc_has_no_mallopt(cdll, fresh_allocator_policy,
                                           monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.main(THEORY) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 4


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's mallopt")
def test_a_repeated_verify_bounds_call_faults_in_no_chunk_buffers():
    # without the policy, glibc trims each chunk's freed buffers and the next
    # chunk faults them in again: about 886 minor faults per call
    code = (
        "import contextlib, io, resource\n"
        "from cosetkernel import cli\n"
        "argv = ('verify-bounds --epsilon 0.1 --qubits 4..8 --cosets 3 '\n"
        "        '--trials 5 --seed 1').split()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(argv) == 0\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert cli.main(argv) == 0\n"
        "    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "print(after - before)\n"
    )
    assert int(_run_fresh(code)) < 100


def test_zero_epsilon_aggregate_matches_noiseless():
    clean = experiment.run_experiment(small_config())
    for variant in ("fiducial", "selection", "representation"):
        noisy = experiment.run_experiment(
            small_config(noise=noise.NoiseConfig(variant, 0.0))
        )
        assert noisy["aggregates"] == clean["aggregates"]
        for a, b in zip(noisy["trials"], clean["trials"]):
            assert a["empirical_variance"] == b["empirical_variance"]


def test_report_round_trip(tmp_path):
    report = experiment.run_experiment(small_config())
    path = tmp_path / "report.json"
    experiment.export_report(report, path)
    assert json.loads(path.read_text()) == report


def test_numpy_scalars_in_the_config_export_as_python_values(tmp_path):
    # each numpy scalar a config field may hold is taken as its Python
    # value: the run exports, and its report is byte for byte that of the
    # config spelled in Python values
    cases = [
        ({"qubit_range": (np.int64(2), np.int64(3))}, {"qubit_range": (2, 3)}),
        ({"coset_counts": (np.int64(2), np.int32(3))},
         {"coset_counts": (2, 3)}),
        ({"trials": np.int64(3)}, {"trials": 3}),
        ({"seed": np.uint32(11)}, {"seed": 11}),
        ({"noise": noise.NoiseConfig("fiducial", np.float32(0.25))},
         {"noise": noise.NoiseConfig("fiducial", 0.25)}),
    ]
    for given, plain in cases:
        paths = []
        for overrides in (given, plain):
            path = tmp_path / f"report{len(paths)}.json"
            experiment.export_report(
                experiment.run_experiment(small_config(**overrides)), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes(), given



def test_a_list_built_config_is_the_tuple_built_one():
    # the config stores its sequences as tuples, so one built from lists
    # equals and hashes like one built from tuples, and so does the config
    # a file's lists describe
    lists = ExperimentConfig(qubit_range=[2, 3], coset_counts=[3, 2])
    tuples = ExperimentConfig(qubit_range=(2, 3), coset_counts=(3, 2))
    assert lists == tuples
    assert hash(lists) == hash(tuples)
    assert type(lists.qubit_range) is type(lists.coset_counts) is tuple
    assert experiment.config_from_dict(
        {"qubit_range": [2, 3], "coset_counts": [3, 2]}) == tuples

def _synthetic_report():
    """Report whose strings hold JSON punctuation, escapes and non-ASCII
    text, and whose floats need json's special spellings; its 70 records
    span more than one slice of the report writer."""
    report = experiment.run_experiment(small_config(qubit_range=(2, 2),
                                                    trials=1))
    record = report["trials"][0]
    texts = ["}", "{", ",", "},\n      {", 'say "hi"', "back\\slash",
             "line\nbreak", "caf\u00e9 \u2603"]
    floats = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-300,
              0.1, -2.5, 1e300]
    report["trials"] = [
        dict(record, trial_index=t, noise_draws_digest=texts[t % len(texts)],
             empirical_variance=floats[t % len(floats)])
        for t in range(70)
    ]
    return report


@pytest.mark.parametrize("which", ["sweep", "one_trial", "synthetic"])
def test_export_report_bytes_match_indented_dumps(which, tmp_path):
    if which == "sweep":
        report = experiment.run_experiment(small_config(
            qubit_range=(2, 5), coset_counts=(2, 3, 4, 5), trials=40, seed=9))
    elif which == "one_trial":
        report = experiment.run_experiment(small_config(qubit_range=(2, 2),
                                                        trials=1))
    else:
        report = _synthetic_report()
    path = tmp_path / "report.json"
    experiment.export_report(report, path)
    want = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


def test_export_refuses_empty(tmp_path):
    path = tmp_path / "empty.json"
    with pytest.raises(ValueError):
        experiment.export_report({"config": {}, "aggregates": [], "trials": []}, path)
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device on which every write fails")
def test_a_write_that_fails_names_its_path(tmp_path, capsys):
    # the report and the heat map each name the file they could not write,
    # in the exception and in the CLI's error record
    report = experiment.run_experiment(small_config())
    with pytest.raises(OSError, match="failed to write report to /dev/full"):
        experiment.export_report(report, "/dev/full")
    with pytest.raises(OSError, match="failed to write heat map to /dev/full"):
        kernel.export_heatmap(np.eye(2), ["c0s0", "c1s0"], "/dev/full")
    args = ["simulate", "--qubits", "2..3", "--cosets", "2", "--trials", "2",
            "--seed", "1"]
    for outputs in (["--out", "/dev/full"],
                    ["--out", str(tmp_path / "r.json"), "--heatmap",
                     "/dev/full"]):
        assert cli.main(args + outputs) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err.splitlines()[-1])
        assert record["error"] == "OSError"
        assert "/dev/full" in record["message"]


def test_csv_export(tmp_path):
    report = experiment.run_experiment(small_config())
    path = tmp_path / "report.csv"
    experiment.export_report(report, path, fmt="csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("num_qubits,num_cosets,mean_variance")
    assert len(lines) == 1 + len(report["aggregates"])
    # every data field parses as a plain number (not, say, the repr of a
    # numpy scalar) and reads back as the aggregate it was written from
    cols = lines[0].split(",")
    for line, agg in zip(lines[1:], report["aggregates"]):
        cells = line.split(",")
        assert len(cells) == len(cols) == 7
        assert [int(v) for v in cells[:2]] == [agg[c] for c in cols[:2]]
        assert [float(v) for v in cells[2:]] == [agg[c] for c in cols[2:]]


def test_aggregate_fields():
    report = experiment.run_experiment(small_config())
    for agg in report["aggregates"]:
        assert agg["std_dev_variance"] >= 0
        m, n = agg["num_cosets"], agg["num_qubits"]
        assert agg["theory_limit"] == theory.limit_variance(m)
        _, overlay = theory.offdiag_moments([n] * m, 2.0**-n)
        assert agg["theory_exact"] == agg["theory_asymptotic"] == overlay


def test_cli_parse_helpers():
    assert cli.parse_range("2..10") == (2, 10)
    assert cli.parse_range("4") == (4, 4)
    assert cli.parse_int_list("2,3,5") == (2, 3, 5)


def test_cli_simulate(tmp_path):
    out = tmp_path / "report.json"
    heat = tmp_path / "heat.csv"
    code = cli.main(
        [
            "simulate",
            "--qubits", "2..3",
            "--cosets", "2",
            "--trials", "2",
            "--seed", "1",
            "--out", str(out),
            "--heatmap", str(heat),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["trials"]) == 4
    header = heat.read_text().split("\n", 1)[0]
    assert header == ",c0s0,c0s1,c0s2,c1s0,c1s1,c1s2"


@pytest.mark.parametrize("via", ["flag", "config"])
def test_cli_simulate_prints_csv_without_out(via, tmp_path, capsys):
    # with no output path, --format csv (or the config's output_format)
    # prints the text the CSV export writes
    args = ["simulate", "--qubits", "2..3", "--cosets", "2", "--trials", "2",
            "--seed", "1"]
    out = tmp_path / "report.csv"
    assert cli.main(args + ["--format", "csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    if via == "flag":
        extra = ["--format", "csv"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"output_format": "csv"}))
        extra = ["--config", str(cfg_path)]
    assert cli.main(args + extra) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == out.read_bytes()
    assert captured.out.startswith("num_qubits,num_cosets,mean_variance,")


def test_cli_heatmap_choice_on_stderr(tmp_path, capsys):
    # the heat map's choice of kernel goes to stderr; stdout is unchanged
    args = ["simulate", "--qubits", "2..3", "--cosets", "3,2", "--trials", "1",
            "--seed", "2"]
    assert cli.main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert cli.main(args + ["--heatmap", str(tmp_path / "heat.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert captured.err == (
        "heatmap: trial 0 at the largest N=3 and the first m=3, full surface\n"
    )


def _read_heatmap(path):
    """The entries of a heat-map CSV as a float array."""
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")[1:]] for row in rows])


@pytest.mark.parametrize("surface", ["full", "train"])
def test_heatmap_builds_a_kernel_only_on_a_noisy_train_run(surface, tmp_path,
                                                            monkeypatch):
    # the heat map is trial 0's kernel over every point at the largest N and
    # the first m: a full-surface sweep has built it and the heat map takes
    # it from there; a train-surface sweep has built the train points'
    # kernel only, so the heat map builds trial 0's once more
    builds = []
    build = kernel.kernel_matrix

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(kernel, "kernel_matrix", counted)
    out, heat = tmp_path / "report.json", tmp_path / "heat.csv"
    args = ["simulate", "--qubits", "2..4", "--cosets", "3,2", "--trials", "3",
            "--noise", "selection", "--epsilon", "0.2", "--seed", "5",
            "--surface", surface, "--out", str(out), "--heatmap", str(heat)]
    assert cli.main(args) == 0
    cfg = experiment.ExperimentConfig(
        qubit_range=(2, 4), coset_counts=(3, 2), trials=3,
        noise=noise.NoiseConfig("selection", 0.2), variance_surface=surface)
    chunks = sum(len(list(streams))
                 for _, _, streams in experiment.sweep(cfg))
    assert len(builds) == chunks + (surface == "train")
    monkeypatch.undo()
    # the CSV is that kernel, built on its own
    rng = oracle.trial_rng(5, 4, 3, 0)
    _, _, kmat = oracle.build_kernel(
        4, 3, noise.NoiseConfig("selection", 0.2), rng, surface="full"
    )
    names = [f"c{i}s{a}" for i in range(3) for a in range(4)]
    kernel.export_heatmap(kmat, names, tmp_path / "ref.csv")
    assert heat.read_text() == (tmp_path / "ref.csv").read_text()
    if surface == "full":
        # and it has the statistics of report record (4, 3, 0), bit for bit
        (record,) = [r for r in json.loads(out.read_text())["trials"]
                     if (r["num_qubits"], r["num_cosets"], r["trial_index"])
                     == (4, 3, 0)]
        entries = _read_heatmap(heat)
        stats = kernel.trial_stats(entries, np.ones(len(entries), dtype=int),
                                   np.repeat(np.arange(3), 4))
        assert stats.tolist() == [record[f] for f in experiment.TRIAL_FIELDS[3:8]]


@pytest.mark.parametrize("variant", ["none", "selection"])
def test_zero_budget_train_heatmap_is_the_full_surface_kernel(variant,
                                                              tmp_path):
    # without a budget the train-surface sweep's tables are alpha tables,
    # one coset per row; the heat map spreads trial 0's over every point
    heat = tmp_path / "heat.csv"
    args = ["simulate", "--qubits", "2..4", "--cosets", "3,2", "--trials", "3",
            "--noise", variant, "--epsilon", "0", "--seed", "5",
            "--surface", "train", "--heatmap", str(heat)]
    assert cli.main(args) == 0
    # the chain over the points, on trial 0's own stream, to rounding
    rng = oracle.trial_rng(5, 4, 3, 0)
    reps, _, kmat = oracle.build_kernel(4, 3, noise.NoiseConfig(variant, 0.0),
                                        rng, surface="full")
    np.testing.assert_allclose(_read_heatmap(heat), kmat, rtol=0, atol=1e-12)
    # and, text for text, its alpha matrix gathered at the points' cosets
    labels = dataset.coset_labels(4, 3)
    kernel.export_heatmap(
        kernel.gather_alphas(kernel.alpha_matrix(reps[None]), labels)[0],
        dataset.point_names(4, 3), tmp_path / "ref.csv")
    assert heat.read_text() == (tmp_path / "ref.csv").read_text()


@pytest.mark.parametrize("surface", ["full", "train"])
@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_run_experiment_heatmap_is_a_kernel_and_its_point_names(surface, eps):
    # trial 0's kernel over every point at the largest N and the first m,
    # whatever the surface and budget, with the names of its points
    cfg = small_config(qubit_range=(2, 4), coset_counts=(3, 2),
                       noise=noise.NoiseConfig("selection", eps),
                       variance_surface=surface)
    report, (kmat, names) = experiment.run_experiment(cfg, heatmap=True)
    assert report == experiment.run_experiment(cfg)
    assert kmat.shape == (12, 12)
    assert np.array_equal(kmat, kmat.T)
    np.testing.assert_allclose(np.diag(kmat), 1, rtol=0, atol=1e-12)
    assert names == dataset.point_names(4, 3)

def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "qubit_range": [2, 2],
                "coset_counts": [2],
                "trials": 5,
                "seed": 3,
                "noise": {"variant": "selection", "epsilon": 0.1},
            }
        )
    )
    out = tmp_path / "r.json"
    code = cli.main(
        ["simulate", "--config", str(cfg_path), "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["trials"] == 2
    assert report["config"]["noise"]["variant"] == "selection"


def test_cli_theory(capsys):
    assert cli.main(["theory", "--m", "2", "--n", "10", "--N", "10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["limit_variance"] == 0.25
    mean, variance = theory.offdiag_moments([10] * 2, 2.0**-10)
    assert data["asymptotic_variance"] == pytest.approx(variance)
    assert data["exact_variance"] == data["asymptotic_variance"]
    assert data["exact_expectation"] == data["asymptotic_expectation"] == mean


def test_cli_theory_builds_no_m_by_m_matrix(capsys):
    # one alpha, 2^-N, is shared by every coset pair; at m = 3000 an m x m
    # matrix of it would take 69 MiB
    tracemalloc.start()
    try:
        code = cli.main(["theory", "--m", "3000", "--n", "4", "--N", "6"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["m"] == 3000
    assert peak < 2**20


@pytest.mark.parametrize("n_qubits", ["-1", "0", "1"])
def test_cli_theory_rejects_fewer_than_two_qubits(n_qubits, capsys):
    assert cli.main(["theory", "--m", "2", "--n", "3", "--N", n_qubits]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": "need at least 2 qubits"
    }


def test_cli_verify_bounds():
    code = cli.main(
        ["verify-bounds", "--epsilon", "0.05", "--qubits", "2..3", "--trials", "2"]
    )
    assert code == 0


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
def test_cli_rejects_fewer_than_one_trial(command, trials, capsys):
    code = cli.main(
        [command, "--qubits", "2..2", "--cosets", "2", "--trials", trials]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": "need at least one trial"
    }


def test_trials_are_capped_at_the_seedable_count():
    # `trial_rngs` hashes each trial index as one uint32 word, so indices
    # 0..2**32 - 1 are the most a cell can seed; the config is only built
    assert ExperimentConfig(trials=2**32).trials == 2**32
    with pytest.raises(ValueError, match="trials must be at most 2"):
        ExperimentConfig(trials=2**32 + 1)


@pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
def test_cli_rejects_more_trials_than_seeds(command, capsys):
    code = cli.main([command, "--qubits", "2..2", "--cosets", "2",
                     "--trials", str(10**400)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "ValueError"
    assert record["message"].startswith("trials must be at most 2**32")


def _coset_error(argv, capsys):
    """The message of the ValueError record that `argv`, on N = 2..3 with
    one trial, fails with."""
    assert cli.main([*argv, "--qubits", "2..3", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    return err["message"]


BAD_COSETS = [("0", "[0]"), ("-2", "[-2]"), ("1", "[1]")]


# both commands validate their counts through ExperimentConfig; verify-bounds
# takes one count, so "2,2" is no value of its flag
@pytest.mark.parametrize(
    "command,cosets,got",
    [pytest.param("simulate", c, g, id=f"{c}-{g}")
     for c, g in [*BAD_COSETS, ("2,2", "[2, 2]")]]
    + [pytest.param("verify-bounds", c, g, id=f"verify-bounds-{c}-{g}")
       for c, g in BAD_COSETS],
)
def test_cli_simulate_rejects_bad_coset_counts(command, cosets, got, capsys):
    message = _coset_error([command, "--cosets", cosets], capsys)
    assert message == f"coset counts must be distinct and at least 2, got {got}"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--trials", "abc"],
         "argument --trials: invalid int value: 'abc'"),
        (["simulate", "--qubits", "x"],
         "argument --qubits: invalid parse_range value: 'x'"),
        # the list of choices that follows is worded by argparse
        (["simulate", "--noise", "foo"],
         "argument --noise: invalid choice: 'foo'"),
        (["verify-bounds", "--cosets", "2.5"],
         "argument --cosets: invalid int value: '2.5'"),
        (["simulate", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["theory", "--m", "3", "--n", "2"],
         "the following arguments are required: --N"),
    ],
    ids=["trials-abc", "qubits-x", "noise-foo", "cosets-2.5", "unknown-flag",
         "missing-N"],
)
def test_cli_reports_a_malformed_command_line_as_an_error_record(
        argv, message, capsys):
    assert cli.main(argv) == 1
    record = _error_record(capsys)
    assert record.keys() == {"error", "message"}
    assert record["error"] == "ValueError"
    assert record["message"].startswith(message)
    if argv[1] != "--noise":
        assert record["message"] == message


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--qubits" in capsys.readouterr().out


def test_cli_parser_is_built_once_and_reused(capsys):
    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    good = ["simulate", "--qubits", "2..3", "--cosets", "2", "--trials", "2",
            "--seed", "1"]
    argvs = [good, ["simulate", "--trials", "abc"], ["simulate", "--help"],
             good]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert [code for code, _, _ in fresh] == [0, 1, 0, 0]
    assert [call(argv) for argv in argvs] == fresh
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
def test_cli_rejects_qubits_past_capacity(command, capsys):
    n = experiment.MAX_QUBITS + 1
    code = cli.main(
        [command, "--qubits", f"{n}..{n}", "--cosets", "2", "--trials", "1"]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert f"2..{experiment.MAX_QUBITS}" in err["message"]


def _error_record(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--qubits", "5..3", "--cosets", "2", "--trials", "1"],
     ["verify-bounds", "--qubits", "5..3"],
     ["simulate", "--config", "reversed.json", "--trials", "1"]],
    ids=["simulate", "verify-bounds", "config"])
def test_cli_names_a_reversed_qubit_range(argv, tmp_path, monkeypatch,
                                          capsys):
    # 5 and 3 both lie within capacity: the error is their order
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reversed.json").write_text(json.dumps({"qubit_range": [5, 3]}))
    assert cli.main(argv) == 1
    assert _error_record(capsys) == {
        "error": "ValueError",
        "message": "qubit range [lo, hi] needs lo <= hi, got [5, 3]"}


@pytest.mark.parametrize(
    "values,message",
    [
        ({"seed": True}, "seed must be a non-negative integer, got True"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 3.0}, "seed must be a non-negative integer, got 3.0"),
        ({"seed": "3"}, "seed must be a non-negative integer, got '3'"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"qubit_range": [2.0, 3]},
         "qubit range bounds must be integers, got [2.0, 3]"),
        ({"qubit_range": [2, True]},
         "qubit range bounds must be integers, got [2, True]"),
        ({"coset_counts": [2, 2.5]}, "coset counts must be integers, got [2, 2.5]"),
        ({"coset_counts": [True, 3]},
         "coset counts must be integers, got [True, 3]"),
        ({"qubit_range": [[2], 3]},
         "qubit range bounds must be integers, got [[2], 3]"),
    ],
)
def test_cli_simulate_rejects_non_integer_config_values(tmp_path, capsys,
                                                        values, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"qubit_range": [2, 2], "coset_counts": [2], "trials": 1, **values}))
    out = tmp_path / "r.json"
    code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert _error_record(capsys) == {"error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "values,message",
    [
        ({"qubit_range": [2, 3, 4]},
         "qubit_range must be a pair [lo, hi], got [2, 3, 4]"),
        ({"qubit_range": 3}, "qubit_range must be a pair [lo, hi], got 3"),
        ({"coset_counts": 2}, "coset_counts must be a list of integers, got 2"),
        ({"noise": 5}, "noise must be a JSON object, got 5"),
        ({"noise": "selection"},
         "noise must be a JSON object, got 'selection'"),
        ({"noise": {"variant": "fiducial", "epsilon": True}},
         "epsilon must be a real number, got True"),
        ({"noise": {"variant": "fiducial", "epsilon": "0.1"}},
         "epsilon must be a real number, got '0.1'"),
        ({"output_format": "xml"}, "output_format must be 'json' or 'csv'"),
    ],
)
def test_cli_simulate_names_the_config_key_of_a_malformed_value(
        tmp_path, capsys, values, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"qubit_range": [2, 2], "coset_counts": [2], "trials": 1, **values}))
    out = tmp_path / "r.json"
    code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert _error_record(capsys) == {"error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("path", [1, True, ["a"]])
def test_cli_rejects_an_output_path_that_is_not_a_string(tmp_path, path):
    # in a child process: the integer 1 would otherwise be opened as file
    # descriptor 1, and closing that closes stdout
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"qubit_range": [2, 2], "coset_counts": [2],
                                    "trials": 1, "output_path": path}))
    source_dir = os.path.dirname(os.path.dirname(experiment.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_dir, env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-m", "cosetkernel.cli", "simulate", "--config",
         str(cfg_path)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "error": "ValueError",
        "message": f"output_path must be a string, got {path!r}",
    }


def test_cli_rejects_a_config_file_that_is_not_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[2, 3]")
    code = cli.main(["simulate", "--config", str(cfg_path), "--trials", "1"])
    assert code == 1
    assert _error_record(capsys) == {
        "error": "ValueError",
        "message": "a config must be a JSON object, got [2, 3]",
    }


def test_cli_flags_override_the_config_file_key_by_key(tmp_path):
    # a file that is invalid on its own is completed by the flags
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"qubit_range": [2, 500], "noise": {"epsilon": 0.1}, "seed": 3}))
    args = cli._build_parser().parse_args(
        ["simulate", "--config", str(cfg_path), "--qubits", "2..3",
         "--noise", "selection"])
    cfg = cli._simulate_config(args)
    assert cfg.qubit_range == (2, 3)
    assert cfg.noise == noise.NoiseConfig("selection", 0.1)
    assert cfg.seed == 3


@pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
def test_cli_rejects_a_negative_seed_before_drawing(command, capsys,
                                                    monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew trials for a bad seed")

    monkeypatch.setattr(experiment, "trial_rngs", no_draws)
    code = cli.main([command, "--qubits", "2..3", "--cosets", "2",
                     "--trials", "1", "--seed", "-1"])
    assert code == 1
    assert _error_record(capsys) == {
        "error": "ValueError",
        "message": "seed must be a non-negative integer, got -1",
    }


def test_cli_error_record(tmp_path, capsys):
    code = cli.main(
        [
            "simulate",
            "--qubits", "2..2",
            "--cosets", "2",
            "--trials", "1",
            "--out", str(tmp_path / "missing" / "out.json"),
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err


def _bad_destinations(tmp_path):
    """A path whose parent directory is missing, an existing directory and
    an empty path, with the error record each gives."""
    (tmp_path / "dir").mkdir()
    missing = tmp_path / "missing" / "out"
    return [
        (str(missing), {"error": "FileNotFoundError",
                        "message": f"no such directory: {str(missing.parent)!r}"}),
        (str(tmp_path / "dir"), {
            "error": "IsADirectoryError",
            "message": f"output path is a directory: {str(tmp_path / 'dir')!r}"}),
        ("", {"error": "ValueError", "message": "an output path is empty"}),
    ]


@pytest.mark.parametrize("where", ["--out", "--heatmap", "output_path"])
def test_cli_checks_destinations_before_the_sweep(where, tmp_path, capsys,
                                                  monkeypatch):
    def no_sweep(cfg):
        raise AssertionError("ran the sweep for a bad destination")

    monkeypatch.setattr(experiment, "run_experiment", no_sweep)
    for path, record in _bad_destinations(tmp_path):
        argv = ["simulate", "--qubits", "2..3", "--cosets", "2",
                "--trials", "1"]
        if where == "output_path":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"output_path": path}))
            argv += ["--config", str(cfg_path)]
        else:
            argv += [where, path]
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == 1
        assert _error_record(capsys) == record
        assert sorted(tmp_path.rglob("*")) == before


def test_cli_rejects_one_path_for_the_report_and_the_heat_map(
        tmp_path, capsys, monkeypatch):
    def no_sweep(cfg):
        raise AssertionError("ran the sweep with one path for two files")

    monkeypatch.setattr(experiment, "run_experiment", no_sweep)
    (tmp_path / "sub").mkdir()
    report = str(tmp_path / "r.json")
    # the same file under another spelling, and through a config file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output_path": report}))
    heatmap = str(tmp_path / "sub" / ".." / "r.json")
    for where in (["--out", report], ["--config", str(cfg_path)]):
        argv = ["simulate", "--qubits", "2..3", "--cosets", "2",
                "--trials", "1", *where, "--heatmap", heatmap]
        assert cli.main(argv) == 1
        assert _error_record(capsys) == {
            "error": "ValueError",
            "message": "the report and the heat map share one path: "
                       f"{heatmap!r}",
        }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]


@pytest.mark.parametrize("flag", ["--out", "--heatmap"])
def test_cli_bad_destination_leaves_stdout_empty_in_a_child_process(
        flag, tmp_path):
    source_dir = os.path.dirname(os.path.dirname(experiment.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_dir, env.get("PYTHONPATH")))
    )
    for path, record in _bad_destinations(tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "cosetkernel.cli", "simulate", "--qubits",
             "2..3", "--cosets", "2", "--trials", "1", flag, path],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert json.loads(result.stderr) == record
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize(
    "values",
    [
        {"trails": 1, "qubit_range": [2, 2], "coset_counts": [2]},
        {"qubit_range": [2, 2], "coset_counts": [2],
         "noise": {"variant": "selection", "epsilom": 0.1}},
    ],
)
def test_cli_rejects_unknown_config_keys(tmp_path, capsys, values):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    out = tmp_path / "r.json"
    code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "unknown" in err["message"]
    assert not out.exists()


def test_config_round_trip_keeps_every_key():
    cfg = experiment.ExperimentConfig(
        qubit_range=(3, 4), trials=2, noise=noise.NoiseConfig("fiducial", 0.1)
    )
    assert experiment.config_from_dict(experiment.config_to_dict(cfg)) == cfg


def test_config_defaults_come_from_the_dataclasses():
    assert experiment.config_from_dict({}) == ExperimentConfig()
    cfg = experiment.config_from_dict({"noise": {"variant": "fiducial"}})
    assert cfg.noise == noise.NoiseConfig("fiducial")
    assert cfg.noise.epsilon == noise.NoiseConfig().epsilon
