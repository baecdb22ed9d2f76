"""Monte-Carlo trial orchestration: per-trial datasets and noise, their
kernels, and the kernels' statistics against the closed-form predictions.

Every trial draws from its own stream, the one
`default_rng(SeedSequence(seed, spawn_key=(N, m, t)))` gives, so an
experiment is a pure function of its config whatever the order of its
trials; `trial_rngs` builds a chunk's streams in one pass, and
`draw_trials`' docstring states a stream's layout. `dataset` and `noise`
build from arrays.

`sweep` walks a config's (N, m) cells and each cell's trials in chunks along
a leading trial axis (under `kernel.CHUNK_ENTRIES`), with each chunk's
streams, for `run_experiment` and `verify-bounds`; each trial's numbers are,
bit for bit, those of a one-trial chunk. `kernel_tables` builds a chunk's
kernels under a tuple of noise variants, one slice each (`run_experiment`
passes its config's one variant as a tuple of one), as tables whose rows
each stand for a count of points of one coset. On the train surface the
noise goes into the train points only, and the kernel compares those.
Every consumer weighs a table's entries by `kernel.pair_counts`, so none of
them tests the budget: `kernel.trial_stats` takes a chunk's (T, 5)
statistics, and `run_experiment` makes each trial a flat record of
`TRIAL_FIELDS`.

`export_report` writes the bytes of `json.dumps(report, indent=2,
sort_keys=True)` (see `_report_json_pieces`).
"""

import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache, partial

import numpy as np

from . import dataset, kernel, theory
from . import noise as noise_models

MAX_QUBITS = 128


def _is_integer(value):
    # bool is an int subclass, but `true` in a config is no count or seed
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _plain(value, sequence=tuple):
    """A numpy scalar as its Python value, which json can write, also inside
    a list or a tuple; a list or a tuple as a `sequence`, the tuple that a
    config stores, and one inside it as the type it has (so an error shows
    it as its config file spells it); any other value as it is."""
    if isinstance(value, (tuple, list)):
        return sequence(_plain(v, type(v)) for v in value)
    return value.item() if isinstance(value, np.generic) else value


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
        for name in ("qubit_range", "coset_counts", "trials", "seed"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        bounds = self.qubit_range
        if not isinstance(bounds, tuple) or len(bounds) != 2:
            # a tuple field is shown as the list its config file spells
            shown = list(bounds) if isinstance(bounds, tuple) else bounds
            raise ValueError(f"qubit_range must be a pair [lo, hi], got {shown!r}")
        if not all(_is_integer(b) for b in bounds):
            raise ValueError(f"qubit range bounds must be integers, got {list(bounds)}")
        if bounds[0] > bounds[1]:
            raise ValueError("qubit range [lo, hi] needs lo <= hi, "
                             f"got {list(bounds)}")
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
        if not isinstance(counts, tuple):
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


# a trial record's keys: cell, index and `kernel.trial_stats`' statistics
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


def sweep(cfg):
    """Each (N, m) cell of `cfg`, N outer, as `(n_qubits, m, streams)`, where
    `streams` yields each chunk's `trial_rngs`, the trials in order. A trial
    counts in `kernel.chunks` by what `kernel_tables` runs through the chain
    for it: the (2P x 2P) transfer matrix of its kernel (P points on
    `cfg.variance_surface`) or, at `cfg.noise.epsilon` 0, the 4 m N entries
    of its representatives."""
    for n_qubits in range(cfg.qubit_range[0], cfg.qubit_range[1] + 1):
        for m in cfg.coset_counts:
            points = (m * n_qubits if cfg.variance_surface == "full"
                      else m * n_qubits // 2)
            per_trial = (4 * m * n_qubits if cfg.noise.epsilon == 0
                         else (2 * points) ** 2)
            yield n_qubits, m, map(partial(trial_rngs, cfg.seed, n_qubits, m),
                                   kernel.chunks(cfg.trials, per_trial))


def _read_streams(n_qubits, m, rngs, k):
    """The (T, m, N, 2, 2) representatives and a (T, k) array of uniforms,
    from each stream in turn: 4 m N normals in C order, then k uniforms in
    one read."""
    if n_qubits < 2 or m < 2:
        raise ValueError("need at least 2 qubits and 2 cosets, got "
                         f"{n_qubits} qubits and {m} cosets")
    normals = np.empty((len(rngs), m, n_qubits, 4))
    uniforms = np.empty((len(rngs), k))
    for rng, trial_normals, row in zip(rngs, normals, uniforms):
        rng.standard_normal(out=trial_normals)
        rng.random(out=row)
    return dataset.su2_from_normals(normals), uniforms


def draw_trials(n_qubits, m, rngs, surface="train", variants=()):
    """Everything a batch of trials draws, one stream each, for a tuple of
    noise `variants` (none by default): the (T, m, N, 2, 2)
    representatives, the (T, K) train indices on the train surface (None on
    the full one) and the (T, `noise.draws`) noise uniforms, from which
    `kernel_tables` builds its kernels.

    The layout of each stream, of which the zero-budget `kernel_tables`
    reads a prefix, is: the 4 m N normals of the m x N Haar draw
    (`dataset.su2_from_normals`), in C order; then one read of uniforms, the
    split's P + m (its m per-coset train counts, then its P ranks;
    `dataset.split_trials`) and after them the noise row that `noise.attach`
    reads from its start. The full surface builds no split, but its noise
    row starts at the same place."""
    points = m * n_qubits
    reps, uniforms = _read_streams(
        n_qubits, m, rngs,
        points + m + noise_models.draws(variants, points, n_qubits))
    train = None
    if surface == "train":
        train = dataset.split_trials(n_qubits, m, uniforms[:, :points + m])
    return reps, train, uniforms[:, points + m:]


def kernel_tables(n_qubits, m, rngs, surface, variants, epsilon):
    """A batch of trials drawn from the streams `rngs` and their kernels as
    tables: `(reps, values, counts, labels)`, the (T, m, N, 2, 2)
    representatives and (V, T, A, A) values, one (T, A, A) slice for each
    of a tuple of V `variants`, whose row a stands for `counts[..., a]`
    points of the coset `labels[..., a]`; `kernel.pair_counts` weighs the
    entries.

    With a budget a row is a point, counted once: the kernels over every
    point on the full surface or the train points on the train one, under
    the noise `noise.attach` gives `variants` at `epsilon`, which it folds
    into those points only. At epsilon 0 every variant attaches the ideal
    inputs bit for bit, so an entry is the alpha of the points' cosets
    (`kernel` module docstring) and a row is a coset: the (T, m, m) alpha
    matrices, with N points each on the full surface or the (T, m)
    `dataset.train_counts` on the train one. Only each stream's normals and
    at most the split's m count uniforms are read, a prefix that leaves
    every other number as it is."""
    noise_models.check_variants(variants)
    if epsilon == 0:
        split = surface == "train"
        reps, uniforms = _read_streams(n_qubits, m, rngs, m if split else 0)
        counts = (dataset.train_counts(n_qubits, m, uniforms) if split
                  else np.full(m, n_qubits))
        values = kernel.alpha_matrix(reps)
        values = np.broadcast_to(values, (len(variants), *values.shape))
        return reps, values, counts, np.arange(m)
    reps, train, uniforms = draw_trials(n_qubits, m, rngs, surface, variants)
    labels = dataset.coset_labels(n_qubits, m)
    if train is not None:
        labels = labels[train]
    factors, offsets = noise_models.attach(
        variants, epsilon, dataset.points(reps), uniforms, train)
    values = kernel.kernel_matrix(factors, offsets)
    return reps, values, np.ones(labels.shape[-1], dtype=int), labels


def _heatmap_table(cfg, n_qubits, m, values):
    """Trial 0's (P, P) kernel over every point of the cell (N, m), and the
    points' names (`dataset.point_names`), for `kernel.export_heatmap`.
    `values` are the tables the sweep built for the cell's first chunk, and
    trial 0's is that kernel whenever the sweep's surface is full or its
    budget 0 (then the alpha table, one coset of N points per row, which is
    spread over the points). Only a train-surface sweep with a budget
    builds it once more, with one `kernel_tables` call on trial 0's stream.
    The kernel is a copy, so the chunk's tables can go."""
    if cfg.variance_surface == "train" and cfg.noise.epsilon != 0:
        values = kernel_tables(n_qubits, m,
                               trial_rngs(cfg.seed, n_qubits, m, [0]), "full",
                               (cfg.noise.variant,), cfg.noise.epsilon)[1][0]
    rows = np.repeat(np.arange(values.shape[-1]),
                     n_qubits if cfg.noise.epsilon == 0 else 1)
    return (kernel.gather_alphas(values[:1], rows)[0],
            dataset.point_names(n_qubits, m))


def run_experiment(cfg, heatmap=False):
    """All (N, m, trial) combinations, with theory overlays per (N, m). With
    `heatmap`, `(report, (kernel, names))`: also trial 0's kernel at the
    largest N and the first m, over every point, and the points' names
    (`_heatmap_table`)."""
    trials = []
    aggregates = []
    heat_cell = (cfg.qubit_range[1], cfg.coset_counts[0]) if heatmap else None
    heat = None
    for n_qubits, m, streams in sweep(cfg):
        stats = []
        for rngs in streams:
            _, (values,), counts, labels = kernel_tables(
                n_qubits, m, rngs, cfg.variance_surface, (cfg.noise.variant,),
                cfg.noise.epsilon)
            if heat is None and (n_qubits, m) == heat_cell:
                heat = _heatmap_table(cfg, n_qubits, m, values)
            stats.append(kernel.trial_stats(values, counts, labels))
            del values  # a chunk's tables go before the next chunk's are built
        stats = np.concatenate(stats)
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
    return (report, heat) if heatmap else report


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
    of trial records. So the report is dumped with `indent=2` once with no
    trial records: "trials" sorts last among its keys, so the text ends in
    that key's empty list, `[]\n}`, and the records are spliced in before
    its `]`. They go through the C encoder, a slice at a time, with
    `_FIELD_SEP` as the separator between items: each field lands on its
    own line at its indented place, and only the seams between records and
    the list's two ends need rewriting. That is exact because the records
    are flat and the C encoder escapes every newline inside a string, so a
    raw newline in its output comes from a separator."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(_FIELD_SEP, ": "))
    head = json.dumps({**report, "trials": []}, indent=2, sort_keys=True)
    yield head[:-len("]\n}")]
    records = report["trials"]
    seam = "\n    {\n      "
    for lo in range(0, len(records), _RECORDS_PER_WRITE):
        text = encoder.encode(records[lo:lo + _RECORDS_PER_WRITE])
        yield seam + text[2:-2].replace(_RECORD_SEAM, _INDENTED_SEAM)
        seam = _INDENTED_SEAM
    yield "\n    }\n  ]\n}\n"


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
