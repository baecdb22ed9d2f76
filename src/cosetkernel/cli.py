"""Command-line entry points: `simulate`, `theory`, and `verify-bounds`.

`verify-bounds` checks each noise variant but "none" on the trials that
`experiment.sweep` walks for `simulate --surface full`, with one
`experiment.kernel_tables` and one `count_envelope_violations` call per
chunk of trials; the heat map of `simulate` is the kernel and point names
that `experiment.run_experiment` returns with the report.

A JSON config file can mirror all simulate flags; explicit flags override
file values. On failure, a malformed flag included, a machine-readable error
record is printed to stderr and the exit code is 1.

Only this module writes files: `_write` takes the text of
`experiment.report_json`, `experiment.report_csv` or `kernel.heatmap_csv`,
and a write that fails names its file in the error record.
"""

import argparse
import ctypes
import functools
import json
import os
import sys
from dataclasses import fields

from . import experiment, kernel, noise, theory
from .noise import count_envelope_violations


def parse_range(text):
    """'2..10' -> (2, 10); a single integer is a one-element range."""
    if ".." in text:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    v = int(text)
    return v, v


def parse_int_list(text):
    return tuple(int(v) for v in text.split(","))


class _Parser(argparse.ArgumentParser):
    """A malformed command line raises a ValueError, for the error record."""

    def error(self, message):
        raise ValueError(message)


# built on first use and reused by later `main` calls; a parse leaves it as is
@functools.cache
def _build_parser():
    parser = _Parser(
        prog="cosetkernel",
        description="Covariant-kernel variance simulations and theory oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run Monte-Carlo kernel-variance trials")
    # each config flag's dest is its config key, `_simulate_config` reads it
    sim.add_argument("--qubits", dest="qubit_range", type=parse_range,
                     default=None, metavar="LO..HI")
    sim.add_argument("--cosets", dest="coset_counts", type=parse_int_list,
                     default=None, metavar="M1,M2,...")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--noise", dest="variant", choices=noise.VARIANTS,
                     default=None)
    sim.add_argument("--epsilon", type=float, default=None)
    sim.add_argument("--surface", dest="variance_surface",
                     choices=("train", "full"), default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", dest="output_path", default=None)
    sim.add_argument("--format", dest="output_format", choices=("json", "csv"),
                     default=None)
    sim.add_argument("--heatmap", default=None,
                     help="also export one full-dataset kernel heat map (CSV)")
    sim.add_argument("--config", default=None, help="JSON config file")

    th = sub.add_parser("theory", help="print closed-form predictions")
    th.add_argument("--m", type=int, required=True)
    th.add_argument("--n", type=int, required=True)
    th.add_argument("--N", type=int, required=True)

    vb = sub.add_parser("verify-bounds",
                        help="check noisy kernels against their envelopes")
    vb.add_argument("--epsilon", type=float, default=0.05)
    vb.add_argument("--qubits", type=parse_range, default=(2, 8),
                    metavar="LO..HI")
    vb.add_argument("--cosets", type=int, default=2)
    vb.add_argument("--trials", type=int, default=20)
    vb.add_argument("--seed", type=int, default=0)
    return parser


def _simulate_config(args):
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = json.load(fh)
    given = {key: v for key, v in vars(args).items() if v is not None}
    flags = {f.name: given[f.name] for f in fields(experiment.ExperimentConfig)
             if f.name in given}
    flags["noise"] = {f.name: given[f.name] for f in fields(noise.NoiseConfig)
                      if f.name in given}
    return experiment.config_from_dict(values, flags)


def cmd_simulate(args):
    cfg = _simulate_config(args)
    paths = [p for p in (cfg.output_path, args.heatmap) if p is not None]
    if "" in paths:
        raise ValueError("an output path is empty")
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise ValueError("the report and the heat map share one path: "
                         f"{args.heatmap!r}")
    for path in paths:
        parent = os.path.dirname(path) or "."  # before the sweep, not after
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path!r}")
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"no such directory: {parent!r}")
    if args.heatmap:
        report, heat = experiment.run_experiment(cfg, heatmap=True)
    else:
        report = experiment.run_experiment(cfg)
    if cfg.output_path:
        _write(cfg.output_path, "report",
               experiment.report_json(report) if cfg.output_format == "json"
               else [experiment.report_csv(report)])
    elif cfg.output_format == "csv":
        sys.stdout.write(experiment.report_csv(report))
    else:
        json.dump(report["aggregates"], sys.stdout, indent=2, sort_keys=True)
        print()
    if args.heatmap:
        n_qubits, m = cfg.qubit_range[1], cfg.coset_counts[0]
        print(f"heatmap: trial 0 at the largest N={n_qubits} and the first "
              f"m={m}, full surface", file=sys.stderr)
        _write(args.heatmap, "heat map", [kernel.heatmap_csv(*heat)])
    return 0


def _write(path, what, pieces):
    """Write the text `pieces` to `path`; a failure names the file."""
    try:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise OSError(f"failed to write {what} to {path}: {exc}") from exc


def cmd_theory(args):
    m, n, n_qubits = args.m, args.n, args.N
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    mean, variance = theory.offdiag_moments([n] * m, 2.0**-n_qubits)
    print(
        json.dumps(
            {
                "m": m,
                "n": n,
                "N": n_qubits,
                "exact_expectation": mean,
                "exact_variance": variance,
                "asymptotic_expectation": mean,
                "asymptotic_variance": variance,
                "limit_expectation": theory.limit_expectation(m),
                "limit_variance": theory.limit_variance(m),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_verify_bounds(args):
    variants = noise.NOISY_VARIANTS
    cfg = experiment.ExperimentConfig(
        qubit_range=args.qubits, coset_counts=(args.cosets,),
        trials=args.trials, seed=args.seed, variance_surface="full",
        noise=noise.NoiseConfig(variants[0], args.epsilon),
    )
    violations = checked = 0
    for n_qubits, m, streams in experiment.sweep(cfg):
        for rngs in streams:
            reps, values, counts, labels = experiment.kernel_tables(
                n_qubits, m, rngs, cfg.variance_surface, variants,
                cfg.noise.epsilon)
            v, c = count_envelope_violations(
                values, counts, labels, kernel.alpha_matrix(reps), variants,
                cfg.noise.epsilon)
            del values  # a chunk's tables go before the next chunk's are built
            violations += v
            checked += c
    for variant in variants:
        print(f"{variant}: checked through N={cfg.qubit_range[1]}")
    print(f"entries checked: {checked}, violations: {violations}")
    return 0 if violations == 0 else 1


@functools.cache
def _keep_freed_memory():
    """Pin glibc's malloc thresholds, once per process. A noisy chunk's
    temporaries (0.1-9 MB) lie above glibc's adaptive thresholds, so freeing
    them trims the heap and the next chunk faults the pages in again; pinned,
    they are reused. Where libc has no `mallopt`, nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD at 32 MiB, the ceiling of glibc's adaptive threshold
    # on 64-bit, and M_TRIM_THRESHOLD at twice it, the ratio its rule keeps
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def main(argv=None):
    _keep_freed_memory()
    handlers = {
        "simulate": cmd_simulate,
        "theory": cmd_theory,
        "verify-bounds": cmd_verify_bounds,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
