import json

import numpy as np
import pytest

from cosetkernel import cli, experiment, kernel, noise, theory
from cosetkernel.experiment import ExperimentConfig


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
    with pytest.raises(ValueError):
        ExperimentConfig(qubit_range=(2, 13))
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(variance_surface="test")


def test_two_point_train_kernel_has_zero_variance():
    # N=2, m=2 train split holds one point per coset; the two ordered
    # off-diagonal entries are equal
    rng = experiment.trial_rng(0, 2, 2, 0)
    report = experiment.run_trial(2, 2, noise.NoiseConfig(), rng)
    assert report.empirical_variance == pytest.approx(0.0, abs=1e-15)


def test_full_surface_variance_matches_theory():
    rng = experiment.trial_rng(1, 10, 2, 0)
    ds, _, kmat = experiment.build_trial_kernel(
        10, 2, noise.NoiseConfig(), rng, surface="full"
    )
    _, var = kernel.offdiag_stats(kmat)
    expected = theory.exact_variance(2, 10, kernel.alpha_matrix(ds))
    assert var == pytest.approx(expected, abs=1e-12)


def test_trial_determinism():
    r1 = experiment.run_trial(3, 2, noise.NoiseConfig(), experiment.trial_rng(5, 3, 2, 0))
    r2 = experiment.run_trial(3, 2, noise.NoiseConfig(), experiment.trial_rng(5, 3, 2, 0))
    assert r1 == r2


def test_trial_streams_independent_of_order():
    # derive the streams in reversed order; each report is unchanged
    forward = [
        experiment.run_trial(
            3, 2, noise.NoiseConfig(), experiment.trial_rng(5, 3, 2, t), trial_index=t
        )
        for t in range(4)
    ]
    backward = [
        experiment.run_trial(
            3, 2, noise.NoiseConfig(), experiment.trial_rng(5, 3, 2, t), trial_index=t
        )
        for t in reversed(range(4))
    ]
    assert forward == list(reversed(backward))


def test_zero_epsilon_aggregate_matches_noiseless():
    clean = experiment.run_experiment(small_config())
    for variant in ("fiducial", "selection", "representation"):
        noisy = experiment.run_experiment(
            small_config(noise=noise.NoiseConfig(variant, 0.0))
        )
        assert noisy["aggregates"] == clean["aggregates"]
        for a, b in zip(noisy["trials"], clean["trials"]):
            assert a["empirical_variance"] == b["empirical_variance"]


def test_capacity_guard():
    with pytest.raises(ValueError):
        experiment.run_trial(13, 2, noise.NoiseConfig(), np.random.default_rng(0))


def test_report_round_trip(tmp_path):
    report = experiment.run_experiment(small_config())
    path = tmp_path / "report.json"
    experiment.export_report(report, path)
    assert experiment.load_report(path) == report


def test_export_refuses_empty(tmp_path):
    path = tmp_path / "empty.json"
    with pytest.raises(ValueError):
        experiment.export_report({"config": {}, "aggregates": [], "trials": []}, path)
    assert not path.exists()


def test_csv_export(tmp_path):
    report = experiment.run_experiment(small_config())
    path = tmp_path / "report.csv"
    experiment.export_report(report, path, fmt="csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("num_qubits,num_cosets,mean_variance")
    assert len(lines) == 1 + len(report["aggregates"])


def test_aggregate_fields():
    report = experiment.run_experiment(small_config())
    for agg in report["aggregates"]:
        assert agg["std_dev_variance"] >= 0
        m, n = agg["num_cosets"], agg["num_qubits"]
        assert agg["theory_limit"] == theory.limit_variance(m)
        assert agg["theory_asymptotic"] == theory.asymptotic_variance(m, n, n)


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
    assert data["asymptotic_variance"] == pytest.approx(
        theory.asymptotic_variance(2, 10, 10)
    )


def test_cli_verify_bounds():
    code = cli.main(
        ["verify-bounds", "--epsilon", "0.05", "--qubits", "2..3", "--trials", "2"]
    )
    assert code == 0


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
