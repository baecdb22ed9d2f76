"""Command-line entry points: `simulate`, `theory`, and `verify-bounds`.

`verify-bounds` checks each noise variant but "none" on the same trials of
a full-surface `ExperimentConfig`. Each chunk of trials draws its
representatives once, builds the three variants' kernels as one stack
(`experiment.noisy_kernels` with the tuple `noise.NOISY_VARIANTS`) and
checks them in one `count_envelope_violations` call.

A JSON config file can mirror all simulate flags; explicit flags override
file values. On failure, a malformed flag included, a machine-readable error
record is printed to stderr and the exit code is 1.
"""

import argparse
import functools
import json
import os
import sys

from . import dataset, experiment, kernel, noise, theory
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
    sim.add_argument("--qubits", type=parse_range, default=None,
                     metavar="LO..HI")
    sim.add_argument("--cosets", type=parse_int_list, default=None,
                     metavar="M1,M2,...")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--noise", choices=noise.VARIANTS, default=None)
    sim.add_argument("--epsilon", type=float, default=None)
    sim.add_argument("--surface", choices=("train", "full"), default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=("json", "csv"), default=None)
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
    flag_map = {
        "qubits": "qubit_range",
        "cosets": "coset_counts",
        "trials": "trials",
        "surface": "variance_surface",
        "seed": "seed",
        "out": "output_path",
        "format": "output_format",
    }
    flags = {key: getattr(args, flag) for flag, key in flag_map.items()
             if getattr(args, flag) is not None}
    noise_flags = {"variant": args.noise, "epsilon": args.epsilon}
    flags["noise"] = {k: v for k, v in noise_flags.items() if v is not None}
    return experiment.config_from_dict(values, flags)


def cmd_simulate(args):
    cfg = _simulate_config(args)
    for path in filter(None, (cfg.output_path, args.heatmap)):
        parent = os.path.dirname(path) or "."  # before the sweep, not after
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path!r}")
        if not os.path.isdir(parent):
            raise FileNotFoundError(f"no such directory: {parent!r}")
    report = experiment.run_experiment(cfg)
    if cfg.output_path:
        experiment.export_report(report, cfg.output_path, cfg.output_format)
    elif cfg.output_format == "csv":
        sys.stdout.write(experiment.report_csv(report))
    else:
        json.dump(report["aggregates"], sys.stdout, indent=2, sort_keys=True)
        print()
    if args.heatmap:
        n_qubits, m = cfg.qubit_range[1], cfg.coset_counts[0]
        print(f"heatmap: trial 0 at the largest N={n_qubits} and the first "
              f"m={m}, full surface", file=sys.stderr)
        rngs = experiment.trial_rngs(cfg.seed, n_qubits, m, [0])
        reps, _ = experiment.draw_trials(n_qubits, m, rngs, "full")
        kmat = experiment.noisy_kernels(reps, None, cfg.noise.variant,
                                        cfg.noise.epsilon, rngs)[0]
        kernel.export_heatmap(kmat, dataset.point_names(n_qubits, m),
                              args.heatmap)
    return 0


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
    cfg = experiment.ExperimentConfig(
        qubit_range=args.qubits, coset_counts=(args.cosets,),
        trials=args.trials, seed=args.seed, variance_surface="full",
    )
    m = args.cosets
    variants = noise.NOISY_VARIANTS
    noise.NoiseConfig(variants[0], args.epsilon)  # validates the budget
    violations = 0
    checked = 0
    for n_qubits in cfg.qubit_values():
        labels = dataset.coset_labels(n_qubits, m)
        for chunk in experiment.trial_chunks(n_qubits, m, cfg.trials, "full"):
            rngs = experiment.trial_rngs(cfg.seed, n_qubits, m, chunk)
            reps, _ = experiment.draw_trials(n_qubits, m, rngs, "full")
            alphas = kernel.alpha_matrix(reps)
            # no name holds the kernels, so a chunk's are freed before the
            # next chunk's are built
            v, c = count_envelope_violations(
                experiment.noisy_kernels(reps, None, variants, args.epsilon,
                                         rngs),
                labels, alphas, variants, args.epsilon)
            violations += v
            checked += c
    for variant in variants:
        print(f"{variant}: checked through N={cfg.qubit_range[1]}")
    print(f"entries checked: {checked}, violations: {violations}")
    return 0 if violations == 0 else 1


def main(argv=None):
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
