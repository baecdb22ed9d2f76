"""Monte-Carlo trial orchestration: per-trial dataset generation, noise
attachment, kernel construction, and aggregation of empirical variances
against the closed-form predictions.

Every trial draws from a random stream derived from (master seed, N, m,
trial index), so results are independent of execution order and the whole
experiment is a pure function of its config.
"""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dataset, kernel, theory
from . import noise as noise_models

MAX_QUBITS = 12


@dataclass(frozen=True)
class ExperimentConfig:
    qubit_range: tuple = (2, 10)  # inclusive
    coset_counts: tuple = (2, 3, 4, 5)
    trials: int = 100
    noise: noise_models.NoiseConfig = field(default_factory=noise_models.NoiseConfig)
    seed: int = 0
    variance_surface: str = "train"
    output_path: str = None
    output_format: str = "json"

    def __post_init__(self):
        lo, hi = self.qubit_range
        if not (2 <= lo <= hi <= MAX_QUBITS):
            raise ValueError(f"qubit range must lie within 2..{MAX_QUBITS}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.variance_surface not in ("train", "full"):
            raise ValueError("variance_surface must be 'train' or 'full'")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be 'json' or 'csv'")

    def qubit_values(self):
        return list(range(self.qubit_range[0], self.qubit_range[1] + 1))


@dataclass(frozen=True)
class TrialReport:
    num_qubits: int
    num_cosets: int
    trial_index: int
    empirical_variance: float
    empirical_mean: float
    alphas_min: float
    alphas_mean: float
    alphas_max: float
    noise_draws_digest: str


def trial_rng(seed, n_qubits, m, trial_index):
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(n_qubits, m, trial_index))
    )


def build_trial_kernel(n_qubits, m, cfg_noise, rng, surface="train",
                       method="gate"):
    """Dataset + split + noise draws + kernel on the requested surface."""
    ds = dataset.generate(n_qubits, m, rng)
    sp = dataset.split(ds, rng)
    points = list(ds.points)
    offsets_l = offsets_r = perturbations = None
    if cfg_noise.variant == "fiducial":
        offsets_l = noise_models.sample_fiducial_offsets(n_qubits, cfg_noise.epsilon, rng)
        offsets_r = noise_models.sample_fiducial_offsets(n_qubits, cfg_noise.epsilon, rng)
    elif cfg_noise.variant in ("selection", "representation"):
        perturbations = [
            noise_models.perturbation_element(
                noise_models.sample_element_perturbation(n_qubits, cfg_noise.epsilon, rng)
            )
            for _ in points
        ]
    if surface == "train":
        points = [points[i] for i in sp.train]
        if perturbations is not None:
            perturbations = [perturbations[i] for i in sp.train]
    kmat = kernel.kernel_matrix(
        points,
        n_qubits,
        offsets_left=offsets_l,
        offsets_right=offsets_r,
        perturbations=perturbations,
        method=method,
    )
    return ds, sp, kmat


def run_trial(n_qubits, m, cfg_noise, rng, *, trial_index=0, surface="train",
              method="gate", digest=""):
    """One Monte-Carlo trial; statistics exclude the diagonal."""
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"simulator capacity is {MAX_QUBITS} qubits")
    _, _, kmat = build_trial_kernel(n_qubits, m, cfg_noise, rng, surface, method)
    mean, var = kernel.offdiag_stats(kmat)
    cross = kernel.cross_coset_values(kmat)
    return TrialReport(
        n_qubits,
        m,
        trial_index,
        var,
        mean,
        float(cross.min()),
        float(cross.mean()),
        float(cross.max()),
        digest,
    )


def run_experiment(cfg, method="gate"):
    """All (N, m, trial) combinations, with theory overlays per (N, m)."""
    trials = []
    aggregates = []
    for n_qubits in cfg.qubit_values():
        for m in cfg.coset_counts:
            reports = []
            for t in range(cfg.trials):
                rng = trial_rng(cfg.seed, n_qubits, m, t)
                reports.append(
                    run_trial(
                        n_qubits,
                        m,
                        cfg.noise,
                        rng,
                        trial_index=t,
                        surface=cfg.variance_surface,
                        method=method,
                        digest=f"{cfg.seed}:{n_qubits}:{m}:{t}",
                    )
                )
            variances = np.array([r.empirical_variance for r in reports])
            n = n_qubits
            uniform = np.full((m, m), 2.0**-n_qubits)
            np.fill_diagonal(uniform, 1.0)
            aggregates.append(
                {
                    "num_qubits": n_qubits,
                    "num_cosets": m,
                    "mean_variance": float(variances.mean()),
                    "std_dev_variance": float(variances.std()),
                    "theory_exact": theory.exact_variance(m, n, uniform),
                    "theory_asymptotic": theory.asymptotic_variance(m, n, n_qubits),
                    "theory_limit": theory.limit_variance(m),
                }
            )
            trials.extend(reports)
    return {
        "config": config_to_dict(cfg),
        "aggregates": aggregates,
        "trials": [asdict(r) for r in trials],
    }


def config_to_dict(cfg):
    d = asdict(cfg)
    d["qubit_range"] = list(cfg.qubit_range)
    d["coset_counts"] = list(cfg.coset_counts)
    # where the report is written is not part of the experiment, so the
    # serialized config stays identical across output destinations
    d.pop("output_path")
    d.pop("output_format")
    return d


def _reject_unknown(d, config_class, where):
    unknown = sorted(set(d) - {f.name for f in fields(config_class)})
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")


def config_from_dict(d):
    d = dict(d)
    noise_d = d.pop("noise", {})
    _reject_unknown(d, ExperimentConfig, "config")
    _reject_unknown(noise_d, noise_models.NoiseConfig, "noise config")
    return ExperimentConfig(
        qubit_range=tuple(d.get("qubit_range", (2, 10))),
        coset_counts=tuple(d.get("coset_counts", (2, 3, 4, 5))),
        trials=d.get("trials", 100),
        noise=noise_models.NoiseConfig(
            noise_d.get("variant", "none"), noise_d.get("epsilon", 0.0)
        ),
        seed=d.get("seed", 0),
        variance_surface=d.get("variance_surface", "train"),
        output_path=d.get("output_path"),
        output_format=d.get("output_format", "json"),
    )


def export_report(report, path, fmt="json"):
    """Persist a report; byte-stable given identical inputs."""
    if not report.get("trials"):
        raise ValueError("refusing to export a report with no trials")
    try:
        if fmt == "json":
            with open(path, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif fmt == "csv":
            cols = [
                "num_qubits",
                "num_cosets",
                "mean_variance",
                "std_dev_variance",
                "theory_exact",
                "theory_asymptotic",
                "theory_limit",
            ]
            lines = [",".join(cols)]
            for row in report["aggregates"]:
                lines.append(",".join(repr(row[c]) for c in cols))
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


export_heatmap = kernel.export_heatmap
