"""The benchmark's workloads and the checks applied to their outputs.

A workload is one `cosetkernel` command line, run in repeated rounds; each
round gets its own seed, drawn from the workload seed. The checks read only
what the CLI writes (the JSON report, the CSV heat map and stdout) and test
properties the method must have. None of them compares against a stored copy
of earlier output.
"""

import csv
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

TOL = 1e-12

# sweep_large_n: 2^N statevector work at the simulator's qubit cap.
LARGE_QUBITS = (10, 12)
LARGE_COSETS = (2, 3)
LARGE_TRIALS = 1

# sweep_small_n: per-point Python overhead, on the default train surface.
SMALL_QUBITS = (2, 5)
SMALL_COSETS = (2, 3, 4, 5)
SMALL_TRIALS = 40

# verify_bounds: all three noise variants against their envelopes. N starts
# at 4: at N = 2 and 3 random selection draws fall below the same-coset
# bound on some seeds (about 1 trial in 60 at N = 2, 1 in 10^4 at N = 3),
# which would make the share of failed rounds depend on the seed.
VERIFY_EPSILON = 0.1
VERIFY_QUBITS = (4, 8)
VERIFY_COSETS = 3
VERIFY_TRIALS = 5
VERIFY_VARIANTS = ("fiducial", "selection", "representation")


@dataclass(frozen=True)
class Workload:
    argv: Callable  # (round seed, output stem without suffix) -> CLI args
    check: Callable  # round record -> failure messages, empty if it passed


def round_seeds(workload, seed):
    """Endless, reproducible sequence of per-round CLI seeds."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(2**31)


def _span(lo_hi):
    return f"{lo_hi[0]}..{lo_hi[1]}"


def _ints(values):
    return ",".join(str(v) for v in values)


def _argv_large(seed, stem):
    return ["simulate", "--qubits", _span(LARGE_QUBITS),
            "--cosets", _ints(LARGE_COSETS), "--trials", str(LARGE_TRIALS),
            "--surface", "full", "--seed", str(seed),
            "--out", f"{stem}.json", "--heatmap", f"{stem}.csv"]


def _argv_small(seed, stem):
    return ["simulate", "--qubits", _span(SMALL_QUBITS),
            "--cosets", _ints(SMALL_COSETS), "--trials", str(SMALL_TRIALS),
            "--seed", str(seed), "--out", f"{stem}.json"]


def _argv_verify(seed, stem):
    return ["verify-bounds", "--epsilon", repr(VERIFY_EPSILON),
            "--qubits", _span(VERIFY_QUBITS), "--cosets", str(VERIFY_COSETS),
            "--trials", str(VERIFY_TRIALS), "--seed", str(seed)]


# ---------------------------------------------------------------- checks


def _close(a, b):
    return abs(a - b) <= TOL


def _population_variance(weighted):
    """Variance of a multiset given as (value, count) pairs."""
    total = sum(c for _, c in weighted)
    mean = sum(v * c for v, c in weighted) / total
    return sum(c * (v - mean) ** 2 for v, c in weighted) / total


def _check_sweep_report(report, qubits, cosets, trials):
    """Checks shared by both sweeps; returns (messages, records by key)."""
    errs = []
    recs = {}
    for r in report["trials"]:
        key = (r["num_qubits"], r["num_cosets"], r["trial_index"])
        if key in recs:
            errs.append(f"duplicate record {key}")
        recs[key] = r
    want = set(itertools.product(range(qubits[0], qubits[1] + 1), cosets,
                                 range(trials)))
    if set(recs) != want:
        errs.append(f"records cover {len(recs)} of {len(want)} requested "
                    "(N, m, trial) triples, or others")
    for key, r in recs.items():
        lo, mean, hi = r["alphas_min"], r["alphas_mean"], r["alphas_max"]
        if not (0 <= lo <= mean + TOL and mean <= hi + TOL and hi < 1):
            errs.append(f"{key}: alphas out of order: {lo}, {mean}, {hi}")
    aggs = {(a["num_qubits"], a["num_cosets"]): a for a in report["aggregates"]}
    if len(aggs) != len(report["aggregates"]) or set(aggs) != {
        k[:2] for k in want
    }:
        errs.append("aggregates do not match the requested (N, m) pairs")
    for (n, m), agg in aggs.items():
        variances = [recs[(n, m, t)]["empirical_variance"]
                     for t in range(trials) if (n, m, t) in recs]
        if variances and not _close(agg["mean_variance"],
                                    sum(variances) / len(variances)):
            errs.append(f"({n}, {m}): mean_variance is not the mean of its "
                        "trials' variances")
    return errs, recs


def _full_surface_moments(n, m, rec):
    """Mean and variance the full-surface record must have, rebuilt from its
    alpha summary: m N (N-1) same-coset ones and 2 N^2 copies of each
    coset pair's alpha."""
    if m == 2:
        alphas = [rec["alphas_mean"]]
    elif m == 3:
        lo, hi = rec["alphas_min"], rec["alphas_max"]
        alphas = [lo, 3 * rec["alphas_mean"] - lo - hi, hi]
    else:
        raise ValueError("alpha multiset is only recoverable for m <= 3")
    pairs = m * n * (m * n - 1)
    mean = (m * n * (n - 1) + n * n * m * (m - 1) * rec["alphas_mean"]) / pairs
    weighted = [(1.0, m * n * (n - 1))] + [(a, 2 * n * n) for a in alphas]
    return mean, _population_variance(weighted)


def _read_heatmap(path):
    """(coset labels, rows) of a heat-map CSV, after checking its labels."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0][1:]
    if [r[0] for r in rows[1:]] != header:
        raise ValueError("row labels differ from column labels")
    labels = []
    for lab in header:
        match = re.fullmatch(r"c(\d+)s(\d+)", lab)
        if match is None:
            raise ValueError(f"bad point label {lab!r}")
        labels.append(int(match.group(1)))
    values = [[float(v) for v in r[1:]] for r in rows[1:]]
    if any(len(r) != len(header) for r in values):
        raise ValueError("heat map is not square")
    return labels, values


def _check_heatmap(path, n, m, rec):
    labels, k = _read_heatmap(path)
    errs = []
    size = len(labels)
    if size != m * n or sorted(set(labels)) != list(range(m)):
        errs.append(f"heat map has {size} points over cosets {set(labels)}")
    blocks = {}
    off = []
    for r, c in itertools.product(range(size), repeat=2):
        v = k[r][c]
        if not -TOL <= v <= 1 + TOL:
            errs.append(f"heat map entry ({r}, {c}) = {v} outside [0, 1]")
        if not _close(v, k[c][r]):
            errs.append(f"heat map not symmetric at ({r}, {c})")
        if r == c:
            if not _close(v, 1.0):
                errs.append(f"heat map diagonal ({r}) = {v}")
            continue
        off.append(v)
        if labels[r] == labels[c] and not _close(v, 1.0):
            errs.append(f"same-coset entry ({r}, {c}) = {v}")
        blocks.setdefault((labels[r], labels[c]), []).append(v)
    for (i, j), vals in blocks.items():
        if i != j and max(vals) - min(vals) > TOL:
            errs.append(f"cross-coset block ({i}, {j}) is not constant")
    if off:
        mean = sum(off) / len(off)
        var = sum((v - mean) ** 2 for v in off) / len(off)
        if not (_close(mean, rec["empirical_mean"])
                and _close(var, rec["empirical_variance"])):
            errs.append("heat map statistics differ from its report record")
    return errs


def _load_report(rnd):
    with open(rnd["stem"] + ".json") as fh:
        return json.load(fh)


def _check_large(rnd):
    report = _load_report(rnd)
    errs, recs = _check_sweep_report(report, LARGE_QUBITS, LARGE_COSETS,
                                     LARGE_TRIALS)
    for (n, m, t), rec in recs.items():
        mean, var = _full_surface_moments(n, m, rec)
        if not _close(mean, rec["empirical_mean"]):
            errs.append(f"{(n, m, t)}: mean {rec['empirical_mean']} is not "
                        f"the full-surface mean {mean}")
        if not _close(var, rec["empirical_variance"]):
            errs.append(f"{(n, m, t)}: variance {rec['empirical_variance']} "
                        f"is not the full-surface variance {var}")
    # the heat map is trial 0 at the largest N and the first coset count
    key = (LARGE_QUBITS[1], LARGE_COSETS[0], 0)
    if key in recs:
        errs += _check_heatmap(rnd["stem"] + ".csv", key[0], key[1], recs[key])
    return errs


def _two_coset_train(n, rec):
    """For m = 2 on the train surface (P = N points, n0 + n1 = N, both
    cosets present), pick the admissible same-coset count that explains the
    mean and return the mean and variance it implies."""
    pairs = n * (n - 1)
    alpha = rec["alphas_mean"]
    moments = []
    for n0 in range(1, n):
        p = (n0 * (n0 - 1) + (n - n0) * (n - n0 - 1)) / pairs
        moments.append((p + (1 - p) * alpha, p * (1 - p) * (1 - alpha) ** 2))
    return min(moments, key=lambda mv: abs(mv[0] - rec["empirical_mean"]))


def _check_small(rnd):
    report = _load_report(rnd)
    errs, recs = _check_sweep_report(report, SMALL_QUBITS, SMALL_COSETS,
                                     SMALL_TRIALS)
    for (n, m, t), rec in recs.items():
        mean, var = rec["empirical_mean"], rec["empirical_variance"]
        # Bhatia-Davis: every value lies in [alphas_min, 1]
        if var > (1 - mean) * (mean - rec["alphas_min"]) + TOL:
            errs.append(f"{(n, m, t)}: variance {var} above the "
                        "Bhatia-Davis bound")
        if m == 2:
            want_mean, want_var = _two_coset_train(n, rec)
            if not (_close(mean, want_mean) and _close(var, want_var)):
                errs.append(f"{(n, m, t)}: no admissible same-coset count "
                            "gives this mean and variance")
    return errs


def _check_verify(rnd):
    lines = rnd["stdout"].splitlines()
    errs = []
    want_lines = [f"{v}: checked through N={VERIFY_QUBITS[1]}"
                  for v in VERIFY_VARIANTS]
    if lines[:-1] != want_lines:
        errs.append(f"unexpected variant lines: {lines[:-1]}")
    match = re.fullmatch(r"entries checked: (\d+), violations: (\d+)",
                         lines[-1] if lines else "")
    if match is None:
        return errs + ["no summary line"]
    checked, violations = int(match.group(1)), int(match.group(2))
    want = len(VERIFY_VARIANTS) * VERIFY_TRIALS * sum(
        VERIFY_COSETS * n * (VERIFY_COSETS * n - 1)
        for n in range(VERIFY_QUBITS[0], VERIFY_QUBITS[1] + 1)
    )
    if violations != 0:
        errs.append(f"{violations} envelope violations")
    if checked != want:
        errs.append(f"{checked} entries checked, expected {want}")
    return errs


WORKLOADS = {
    "sweep_large_n": Workload(_argv_large, _check_large),
    "sweep_small_n": Workload(_argv_small, _check_small),
    "verify_bounds": Workload(_argv_verify, _check_verify),
}


def check_round(workload, rnd):
    """Messages for one round; a round whose outputs are missing or
    malformed fails like one whose values are wrong."""
    if rnd["rc"] != 0:
        return [f"exit status {rnd['rc']}"]
    try:
        return workload.check(rnd)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]
