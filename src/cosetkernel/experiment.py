"""Monte-Carlo trial orchestration: per-trial datasets and noise, their
kernels, and the kernels' statistics against the closed-form predictions.

Every trial draws from its own stream, the one
`default_rng(SeedSequence(seed, spawn_key=(N, m, t)))` gives, so an
experiment is a pure function of its config whatever the order of its
trials; `trial_rngs` builds a chunk's streams in one pass. What a stream
holds, in what order, is stated where it is read: the representatives and
the split in `dataset`, the noise in `noise`.

The trials of one (N, m) cell run in chunks along a leading trial axis
(`trial_chunks`, under `kernel.CHUNK_ENTRIES`), and each trial's numbers are
the same, bit for bit, as those of a one-trial chunk `[rng]`. `draw_trials`
reads what comes before the noise (the full surface reads no split and
skips it); `noisy_kernels` builds the kernels under one noise variant or a
tuple of them; `run_trials` takes their (T, 5) statistics
(`kernel.trial_stats`), and `run_experiment` makes each trial a flat record
of `TRIAL_FIELDS`.

With no noise budget (epsilon 0, which the `none` variant implies) every
variant attaches the ideal inputs bit for bit, so no kernel over the points
and no split is built: a trial's statistics are those of its (m, m) alpha
matrix, entry (i, j) weighted by how often it occurs among the kernel's
off-diagonal entries, n_i n_j - delta_ij n_i for the n_i points of coset i
(N, or the split's train counts, `dataset.train_counts`), and
`noisy_kernels` gathers the kernels from it (`kernel.gather_alphas`) for the
heat map and `verify-bounds`. No stream is read after its noise draws, so
the draws this skips change nothing else.

`export_report` writes the bytes of `json.dumps(report, indent=2,
sort_keys=True)` (see `_report_json_pieces`).
"""

import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import dataset, kernel, theory
from . import noise as noise_models

MAX_QUBITS = 128


def _is_integer(value):
    # bool is an int subclass, but `true` in a config is no count or seed
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        bounds = self.qubit_range
        if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
            # a tuple field is shown as the list its config file spells
            shown = list(bounds) if isinstance(bounds, tuple) else bounds
            raise ValueError(f"qubit_range must be a pair [lo, hi], got {shown!r}")
        if not all(_is_integer(b) for b in bounds):
            raise ValueError(f"qubit range bounds must be integers, got {list(bounds)}")
        if not 2 <= bounds[0] <= bounds[1] <= MAX_QUBITS:
            raise ValueError(f"qubit range must lie within 2..{MAX_QUBITS}")
        if not _is_integer(self.trials):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        # `trial_rngs` hashes each trial index as one 32-bit word
        if self.trials > 2**32:
            raise ValueError(f"trials must be at most 2**32, got {self.trials}")
        counts = self.coset_counts
        if not isinstance(counts, (tuple, list)):
            raise ValueError(
                f"coset_counts must be a list of integers, got {counts!r}"
            )
        if not all(_is_integer(c) for c in counts):
            raise ValueError(f"coset counts must be integers, got {list(counts)}")
        if not counts or min(counts) < 2 or len(set(counts)) != len(counts):
            raise ValueError(
                f"coset counts must be distinct and at least 2, got {list(counts)}"
            )
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.variance_surface not in ("train", "full"):
            raise ValueError("variance_surface must be 'train' or 'full'")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(
                f"output_path must be a string, got {self.output_path!r}"
            )
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be 'json' or 'csv'")

    def qubit_values(self):
        return list(range(self.qubit_range[0], self.qubit_range[1] + 1))


# a trial record's keys: its cell, its index, `run_trials`' five statistics
TRIAL_FIELDS = ("num_qubits", "num_cosets", "trial_index",
                "empirical_variance", "empirical_mean", "alphas_min",
                "alphas_mean", "alphas_max", "noise_draws_digest")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(value):
    """How many 32-bit words numpy's SeedSequence makes of a non-negative
    integer (zero is one word)."""
    return max(1, -(-int(value).bit_length() // 32))


def _fold(value):
    """SeedSequence's last hashing step: xor the high half into the low."""
    return value ^ (value >> np.uint32(16))


class _StateWords:
    """A seed sequence whose `generate_state` output is already known: a
    `PCG64` built on it reads exactly these words."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


@lru_cache(maxsize=8)
def _hash_constants(words_before):
    """The hash constants init * mult**k mod 2**32 that the trial word's
    mixing and the state words read, once the cell has mixed `words_before`
    words: each hash xors with one and multiplies by the next. Built on
    first use (arrays at import add to peak RSS) and read-only, as every
    call with the same word count shares them."""
    first = 4 * words_before
    consts_a = np.array([_INIT_A * pow(_MULT_A, first + k, 2**32) % 2**32
                         for k in range(_POOL_SIZE + 1)], dtype=np.uint32)
    consts_b = np.array([_INIT_B * pow(_MULT_B, k, 2**32) % 2**32
                         for k in range(2 * _POOL_SIZE + 1)], dtype=np.uint32)
    # the 8 state words hash the pool's 4 words twice over: (2, 4) planes
    consts = (consts_a[:-1], consts_a[1:],
              consts_b[:-1].reshape(2, _POOL_SIZE),
              consts_b[1:].reshape(2, _POOL_SIZE))
    for c in consts:
        c.flags.writeable = False
    return consts


def trial_rngs(seed, n_qubits, m, trial_indices):
    """One generator per trial index, each in the state of
    `default_rng(SeedSequence(seed, spawn_key=(n_qubits, m, t)))`.

    numpy's own `SeedSequence(seed, spawn_key=(n_qubits, m))` validates the
    seed and mixes every word before the trial's into its 4-word pool; the
    hash constant it has reached depends only on how many words those were.
    The trial word's mixing into the pool is then one (T, 4) pass and the 8
    words of `generate_state(4, uint64)` one (T, 2, 4) pass, in wrapping
    uint32 arithmetic with the hash constants' successive powers as
    vectors (array arithmetic on integers wraps without a warning)."""
    # `np.random` loads here, on first use, so importing the package does
    # not load it; registering again is a no-op
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    cell = np.random.SeedSequence(seed, spawn_key=(n_qubits, m))
    # the pool's first 4 words take 4 + 12 hashes and each later word 4,
    # and the seed is padded to at least 4 words when a spawn key follows
    words_before = (max(_POOL_SIZE, _uint32_words(seed))
                    + _uint32_words(n_qubits) + _uint32_words(m))
    xor_a, mult_a, xor_b, mult_b = _hash_constants(words_before)
    trial_words = np.asarray(trial_indices, dtype=np.uint32)[:, None]
    hashed = _fold((trial_words ^ xor_a) * mult_a)
    pool = _fold(np.uint32(_MIX_MULT_L) * cell.pool
                 - np.uint32(_MIX_MULT_R) * hashed)
    state = _fold((pool[:, None, :] ^ xor_b) * mult_b)
    words = state.astype("<u4").reshape(len(pool), -1).view("<u8")
    return [np.random.Generator(np.random.PCG64(_StateWords(row)))
            for row in words.astype(np.uint64)]


def trial_chunks(n_qubits, m, trials, surface, noiseless=False):
    """One (N, m) cell's trial indices 0..trials-1 in `kernel.chunks`, each
    trial counted by the (2P x 2P) transfer matrix of its kernel (P points)
    or, if `noiseless`, by the 4 m N entries of its representatives, which
    alone run through the chain."""
    points = m * n_qubits if surface == "full" else m * n_qubits // 2
    return kernel.chunks(trials,
                         4 * m * n_qubits if noiseless else (2 * points) ** 2)


def draw_trials(n_qubits, m, rngs, surface="train"):
    """The draws that come before the noise, for a batch of trials, one
    stream each: the (T, m, N, 2, 2) representatives and, on the train
    surface, the (T, K) train indices. The full surface reads no split and
    gets None; its streams skip the split's P + m uniforms, one PCG64 output
    each, by advancing. Each stream is left where its noise draws begin."""
    reps = dataset.generate_trials(n_qubits, m, rngs)
    if surface == "train":
        labels = dataset.coset_labels(n_qubits, m)
        return reps, dataset.split_trials(labels, m, rngs)
    for rng in rngs:
        rng.bit_generator.advance(m * n_qubits + m)
    return reps, None


def noisy_kernels(reps, train, variants, epsilon, rngs):
    """The kernels of the points of a batch of trials' (T, m, N, 2, 2)
    representatives under the noise `noise.attach` gives `variants`, a name
    or a tuple of V names, at `epsilon`, read from each stream where
    `draw_trials` left it: (T, K, K) over the (T, K) `train` indices, or
    (T, P, P) over every point when `train` is None; (V, T, ...) for a tuple.
    Without a budget they are gathered once from the alpha matrices (module
    docstring) and broadcast over the variants."""
    if epsilon == 0:
        m, n_qubits = reps.shape[-4:-2]
        labels = dataset.coset_labels(n_qubits, m)
        kmats = kernel.gather_alphas(kernel.alpha_matrix(reps),
                                     labels if train is None else labels[train])
        if isinstance(variants, str):
            return kmats
        return np.broadcast_to(kmats, (len(variants), *kmats.shape))
    factors, offsets = noise_models.attach(variants, epsilon,
                                           dataset.points(reps), rngs)
    return kernel.kernel_matrix(factors, train, offsets)


def run_trials(n_qubits, m, cfg_noise, rngs, surface="train"):
    """Monte-Carlo trials built as one batch, and the (T, 5) statistics of
    their kernels' off-diagonal entries, in the order of `TRIAL_FIELDS[3:8]`,
    all taken at once by `kernel.trial_stats`. With no noise budget they are
    those of the (T, m, m) alpha matrices, weighted by the pair counts of the
    kernel's points; otherwise those of the `noisy_kernels`, with unit
    off-diagonal weights."""
    if cfg_noise.epsilon == 0:
        reps = dataset.generate_trials(n_qubits, m, rngs)
        counts = (dataset.train_counts((n_qubits,) * m, rngs)
                  if surface == "train" else np.full(m, n_qubits))
        cosets = np.arange(m)
        pairs = counts[..., :, None] * counts[..., None, :]
        pairs[..., cosets, cosets] -= counts
        return kernel.trial_stats(kernel.alpha_matrix(reps), pairs, cosets)
    reps, train = draw_trials(n_qubits, m, rngs, surface)
    labels = dataset.coset_labels(n_qubits, m)
    kmats = noisy_kernels(reps, train, cfg_noise.variant, cfg_noise.epsilon,
                          rngs)
    return kernel.trial_stats(kmats, ~np.eye(kmats.shape[-1], dtype=bool),
                              labels if train is None else labels[train])


def run_experiment(cfg):
    """All (N, m, trial) combinations, with theory overlays per (N, m)."""
    trials = []
    aggregates = []
    surface = cfg.variance_surface
    for n_qubits in cfg.qubit_values():
        for m in cfg.coset_counts:
            stats = np.concatenate([
                run_trials(n_qubits, m, cfg.noise,
                           trial_rngs(cfg.seed, n_qubits, m, chunk), surface)
                for chunk in trial_chunks(n_qubits, m, cfg.trials, surface,
                                          cfg.noise.epsilon == 0)
            ])
            variances = stats[:, 0]
            # the plug-in overlay: n = N points per coset, alpha = 2^-N
            _, overlay = theory.offdiag_moments([n_qubits] * m, 2.0**-n_qubits)
            aggregates.append(
                {
                    "num_qubits": n_qubits,
                    "num_cosets": m,
                    "mean_variance": float(variances.mean()),
                    "std_dev_variance": float(variances.std()),
                    "theory_exact": overlay,
                    "theory_asymptotic": overlay,
                    "theory_limit": theory.limit_variance(m),
                }
            )
            trials += [
                dict(zip(TRIAL_FIELDS, (n_qubits, m, t, *row,
                                        f"{cfg.seed}:{n_qubits}:{m}:{t}")))
                for t, row in enumerate(stats.tolist())
            ]
    report = {
        "config": config_to_dict(cfg),
        "aggregates": aggregates,
        "trials": trials,
    }
    return report


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


def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def config_from_dict(*layers):
    """The config the dicts describe, each later one overriding the keys it
    holds (those of the noise object one by one); a missing key takes the
    dataclass default, an unknown one is an error."""
    d, noise_d = {}, {}
    for layer in layers:
        layer = _object(layer, "a config")
        noise_d.update(_object(layer.get("noise", {}), "noise"))
        d.update(layer)
    d.pop("noise", None)
    _reject_unknown(d, ExperimentConfig, "config")
    _reject_unknown(noise_d, noise_models.NoiseConfig, "noise config")
    for key in ("qubit_range", "coset_counts"):
        if isinstance(d.get(key), list):
            d[key] = tuple(d[key])
    return ExperimentConfig(**d, noise=noise_models.NoiseConfig(**noise_d))


# `indent=2` puts a trial record's fields at depth 3 and its braces at depth 2
_FIELD_SEP = ",\n      "
_RECORD_SEAM = "}" + _FIELD_SEP + "{"
_INDENTED_SEAM = "\n    },\n    {\n      "
# trial records per C-encoder call, which holds its output pieces until it
# joins them (about 1.7 KiB a record), so a large report is not held twice
_RECORDS_PER_WRITE = 64


def _report_json_pieces(report):
    """`json.dumps(report, indent=2, sort_keys=True) + "\n"`, in pieces.

    `indent` selects json's pure-Python encoder, which is slow on thousands
    of trial records. So the records go through the C encoder, a slice at a
    time, with `_FIELD_SEP` as the separator between items: each field
    lands on its own line at its indented place, and only the seams between
    records and the list's two ends need rewriting. That is exact because
    the records are flat and the C encoder escapes every newline inside a
    string, so a raw newline in its output comes from a separator. The small
    config and aggregates keep `indent=2`, shifted one level down."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(_FIELD_SEP, ": "))
    opening = "{\n  "
    for key in sorted(report):
        yield f"{opening}{json.dumps(key)}: "
        opening = ",\n  "
        if key != "trials":
            text = json.dumps(report[key], indent=2, sort_keys=True)
            yield text.replace("\n", "\n  ")
            continue
        records = report[key]
        seam = "[\n    {\n      "
        for lo in range(0, len(records), _RECORDS_PER_WRITE):
            text = encoder.encode(records[lo:lo + _RECORDS_PER_WRITE])
            yield seam + text[2:-2].replace(_RECORD_SEAM, _INDENTED_SEAM)
            seam = _INDENTED_SEAM
        yield "\n    }\n  ]"
    yield "\n}\n"


def report_csv(report):
    """The report's aggregates as CSV text, one row per (N, m) cell."""
    cols = ["num_qubits", "num_cosets", "mean_variance", "std_dev_variance",
            "theory_exact", "theory_asymptotic", "theory_limit"]
    lines = [",".join(cols)]
    for row in report["aggregates"]:
        lines.append(",".join(repr(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def export_report(report, path, fmt="json"):
    """Persist a report; byte-stable given identical inputs."""
    if not report.get("trials"):
        raise ValueError("refusing to export a report with no trials")
    try:
        if fmt == "json":
            with open(path, "w") as fh:
                fh.writelines(_report_json_pieces(report))
        elif fmt == "csv":
            with open(path, "w") as fh:
                fh.write(report_csv(report))
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed to write report to {path}: {exc}") from exc
