"""Command-line entry points: `simulate`, `theory`, and `verify-bounds`.

A JSON config file can mirror all simulate flags; explicit flags override
file values. On failure a machine-readable error record is printed to stderr
and the exit code is nonzero.
"""

import argparse
import json
import sys
from dataclasses import astuple

import numpy as np

from . import experiment, kernel, noise, theory
from .experiment import ExperimentConfig


def parse_range(text):
    """'2..10' -> (2, 10); a single integer is a one-element range."""
    if ".." in text:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    v = int(text)
    return v, v


def parse_int_list(text):
    return tuple(int(v) for v in text.split(","))


def _build_parser():
    parser = argparse.ArgumentParser(
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
    for flag, key in flag_map.items():
        v = getattr(args, flag)
        if v is not None:
            values[key] = v
    noise_d = dict(values.get("noise", {}))
    if args.noise is not None:
        noise_d["variant"] = args.noise
    if args.epsilon is not None:
        noise_d["epsilon"] = args.epsilon
    values["noise"] = noise_d
    return experiment.config_from_dict(values)


def cmd_simulate(args):
    cfg = _simulate_config(args)
    report = experiment.run_experiment(cfg)
    if cfg.output_path:
        experiment.export_report(report, cfg.output_path, cfg.output_format)
    else:
        json.dump(report["aggregates"], sys.stdout, indent=2, sort_keys=True)
        print()
    if args.heatmap:
        n_qubits = cfg.qubit_range[1]
        m = cfg.coset_counts[0]
        rng = experiment.trial_rng(cfg.seed, n_qubits, m, 0)
        _, _, kmat = experiment.build_trial_kernel(
            n_qubits, m, cfg.noise, rng, surface="full"
        )
        kernel.export_heatmap(kmat, args.heatmap)
    return 0


def cmd_theory(args):
    m, n, n_qubits = args.m, args.n, args.N
    alphas = np.full((m, m), 2.0**-n_qubits)
    np.fill_diagonal(alphas, 1.0)
    print(
        json.dumps(
            {
                "m": m,
                "n": n,
                "N": n_qubits,
                "exact_expectation": theory.exact_expectation(m, n, alphas),
                "exact_variance": theory.exact_variance(m, n, alphas),
                "asymptotic_expectation": theory.asymptotic_expectation(m, n, n_qubits),
                "asymptotic_variance": theory.asymptotic_variance(m, n, n_qubits),
                "limit_expectation": theory.limit_expectation(m),
                "limit_variance": theory.limit_variance(m),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_verify_bounds(args):
    lo, hi = args.qubits
    violations = 0
    checked = 0
    for variant in ("fiducial", "selection", "representation"):
        cfg_noise = noise.NoiseConfig(variant, args.epsilon)
        for n_qubits in range(lo, hi + 1):
            for t in range(args.trials):
                rng = experiment.trial_rng(args.seed, n_qubits, args.cosets, t)
                ds, _, kmat = experiment.build_trial_kernel(
                    n_qubits, args.cosets, cfg_noise, rng, surface="full"
                )
                alphas = kernel.alpha_matrix(ds)
                v, c = count_envelope_violations(
                    kmat, alphas, variant, args.epsilon
                )
                violations += v
                checked += c
        print(f"{variant}: checked through N={hi}")
    print(f"entries checked: {checked}, violations: {violations}")
    return 0 if violations == 0 else 1


def count_envelope_violations(kmat, alphas, variant, epsilon, tol=1e-9):
    """Count noisy kernel entries outside their per-pair envelope.

    The bounds depend only on the coset pair, so they are evaluated once per
    pair of coset labels present and compared with all entries at once.
    """
    labels = kmat.coset_labels
    cosets, index = np.unique(labels, return_inverse=True)
    table = np.array([
        [astuple(noise.bounds_for(variant, alphas[i, j], epsilon)) for j in cosets]
        for i in cosets
    ])
    same_lower, cross_lower, cross_upper = np.moveaxis(
        table[np.ix_(index, index)], -1, 0
    )
    values = kmat.entries
    same = labels[:, None] == labels[None, :]
    off_diagonal = ~np.eye(kmat.size, dtype=bool)
    outside = np.where(
        same,
        values < same_lower - tol,
        ~((cross_lower - tol <= values) & (values <= cross_upper + tol)),
    )
    return int(np.sum(outside & off_diagonal)), int(np.sum(off_diagonal))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "theory": cmd_theory,
        "verify-bounds": cmd_verify_bounds,
    }
    try:
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
