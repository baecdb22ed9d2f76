"""Monte-Carlo trial orchestration: per-trial dataset generation, noise
attachment, kernel construction, and aggregation of empirical variances
against the closed-form predictions.

Every trial draws from a random stream derived from (master seed, N, m,
trial index), so results are independent of execution order and the whole
experiment is a pure function of its config.

The trials of one (N, m) cell run in chunks along a leading trial axis. Only
the draws stay per trial, each on its trial's own stream in a fixed order
and of a fixed size: the dataset's 4 m N normals, the split's P + m
uniforms, then the noise. The Haar build, the point product, the split, the
noise fold and the transfer chain then run once per chunk, on
(T, P, N, 2, 2) stacks that give (T, P, P) kernels (and, in
`verify-bounds`, (T, m, m) alpha matrices), and so do the statistics and
the envelope check. The build has two stages: `draw_trials` (datasets and
splits) and `noisy_kernels` (`noise.attach`, then the kernels);
`run_trials` runs one after the other. `verify-bounds` runs the first stage
and the alpha matrices once per chunk and, for each noise variant, restores
every stream to its state after the split and runs only the second, so each
variant reads the draws of a fresh build. One trial is a chunk of one
stream, `[rng]`, and `.trial(0)` of what comes back.

Chunks are sized so that their (T, 2P, 2P) transfer matrices hold at most
`CHUNK_ENTRIES` complex entries, which keeps large-N runs at one trial per
chunk. A report does not depend on the chunking: each trial's numbers are
the same, bit for bit, as those of a one-trial call.
"""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import dataset, kernel, theory
from . import noise as noise_models

MAX_QUBITS = 128
# complex entries of one chunk's (T, 2P, 2P) transfer matrices. Past about
# twice this, a batch runs slower than one trial at a time, and the chain's
# working set (two such arrays) grows with it.
CHUNK_ENTRIES = 2**16


def check_qubit_range(lo, hi):
    if not 2 <= lo <= hi <= MAX_QUBITS:
        raise ValueError(f"qubit range must lie within 2..{MAX_QUBITS}")


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
        check_qubit_range(*self.qubit_range)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        counts = self.coset_counts
        if not counts or min(counts) < 2 or len(set(counts)) != len(counts):
            raise ValueError(
                f"coset counts must be distinct and at least 2, got {list(counts)}"
            )
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


def trial_chunks(n_qubits, m, trials, surface):
    """The trial indices 0..trials-1 of one (N, m) cell, in chunks of as
    many trials as keep their (2P x 2P) transfer matrices within
    CHUNK_ENTRIES, and at least one; P is the surface's point count."""
    points = m * n_qubits if surface == "full" else m * n_qubits // 2
    step = max(1, CHUNK_ENTRIES // (2 * points) ** 2)
    return [range(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


def draw_trials(n_qubits, m, rngs):
    """The draws that come before the noise, for a batch of trials, one
    stream each: the datasets and the splits (both batched, leading trial
    axis). Each stream is left where its noise draws begin."""
    ds = dataset.generate_trials(n_qubits, m, rngs)
    return ds, dataset.split_trials(ds, rngs)


def noisy_kernels(ds, splits, cfg_noise, rngs, surface="train"):
    """The variant's noise, read from each stream where `draw_trials` left
    it and attached by `noise.attach`, and the batched kernel matrix on the
    requested surface."""
    ds, offsets = noise_models.attach(cfg_noise, ds, rngs)
    return kernel.kernel_matrix(
        ds, splits.train if surface == "train" else None, offsets
    )


def run_trials(n_qubits, m, cfg_noise, rngs, *, trial_indices, digests,
               surface="train"):
    """Monte-Carlo trials built as one batch, `draw_trials` then
    `noisy_kernels`, with the statistics of all of them taken at once; they
    exclude the diagonal. Returns the reports and the batched kernel
    matrix."""
    ds, splits = draw_trials(n_qubits, m, rngs)
    kmats = noisy_kernels(ds, splits, cfg_noise, rngs, surface)
    means, variances = kernel.offdiag_stats(kmats)
    stats = np.stack([variances, means, *kernel.cross_coset_stats(kmats)], -1)
    reports = [TrialReport(n_qubits, m, t, *row, digest)
               for t, row, digest in zip(trial_indices, stats.tolist(), digests)]
    return reports, kmats


def run_experiment(cfg, keep=None):
    """All (N, m, trial) combinations, with theory overlays per (N, m).

    With `keep` an (N, m) cell of the sweep, returns (report, kernel matrix
    of that cell's trial 0), so a caller that needs that kernel does not
    build it again."""
    trials = []
    aggregates = []
    kept = None
    surface = cfg.variance_surface
    for n_qubits in cfg.qubit_values():
        for m in cfg.coset_counts:
            reports = []
            for chunk in trial_chunks(n_qubits, m, cfg.trials, surface):
                chunk_reports, kmats = run_trials(
                    n_qubits,
                    m,
                    cfg.noise,
                    [trial_rng(cfg.seed, n_qubits, m, t) for t in chunk],
                    trial_indices=chunk,
                    digests=[f"{cfg.seed}:{n_qubits}:{m}:{t}" for t in chunk],
                    surface=surface,
                )
                reports += chunk_reports
                if (n_qubits, m) == keep and chunk[0] == 0:
                    kept = kmats.trial(0)
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
    report = {
        "config": config_to_dict(cfg),
        "aggregates": aggregates,
        # the fields are flat values, so a shallow copy is a full one
        "trials": [dict(vars(r)) for r in trials],
    }
    return report if keep is None else (report, kept)


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
    """The config a dict describes; a missing key takes the dataclass
    default, an unknown one is an error."""
    d = dict(d)
    noise_d = d.pop("noise", {})
    _reject_unknown(d, ExperimentConfig, "config")
    _reject_unknown(noise_d, noise_models.NoiseConfig, "noise config")
    for key in ("qubit_range", "coset_counts"):
        if key in d:
            d[key] = tuple(d[key])
    return ExperimentConfig(**d, noise=noise_models.NoiseConfig(**noise_d))


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
