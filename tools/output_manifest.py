"""Digests of everything the CLI and the demos write, for a fixed command list.

    python3 tools/output_manifest.py [--only NAME ...]
    python3 tools/output_manifest.py --compare REV [--only NAME ...]

Each command of `COMMANDS` runs in a fresh interpreter with one BLAS thread,
in its own empty temporary directory, against the `src/` of the tree it is
given. The command list is: every output-writing command of the CI workflow
(`.github/workflows/tier1.yml`), its error records included; the three
benchmark workloads' command lines (`bench/workloads.py`) at seeds 1-3;
`theory`; and the demos. A run prints one line per output of each command,

    <command> exit <code>
    <command> stdout <sha256>
    <command> stderr <sha256>
    <command> file:<name> <sha256>

one `file:` line for every file the command left in its directory (the
input files it was given excepted), after `#` lines that name the Python,
numpy and BLAS builds and the CPU.

`--compare REV` also runs the list on the tree of the git revision REV,
unpacked with `git archive` into a temporary directory, and prints only the
entries whose values differ, as `<command> <output> <REV's> -> <this
tree's>`; an output only one tree has shows `-` on the other side. A count
of compared and differing entries goes to stderr, and the exit code is 1 if
any entry differs. A change that claims byte-identical outputs shows an
empty `--compare HEAD~1`.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread, as the benchmark pins it (bench/run.py)
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")}


def _cli(*args):
    return ["-m", "cosetkernel.cli", *args]


def _simulate_grid(qubits, cosets, trials, seed, *more):
    return _cli("simulate", "--qubits", qubits, "--cosets", cosets,
                "--trials", str(trials), "--seed", str(seed), *more)


def _verify(epsilon, qubits, cosets, trials, seed=1):
    return _cli("verify-bounds", "--epsilon", epsilon, "--qubits", qubits,
                "--cosets", str(cosets), "--trials", str(trials),
                "--seed", str(seed))


def _commands():
    """(name, argv after the interpreter, input files) for every command,
    in the order they run."""
    cmds = [
        # the CI workflow's commands, in its order
        ("verify_eps0.1", _verify("0.1", "2..8", 3, 600), {}),
        ("verify_eps0.3", _verify("0.3", "2..8", 3, 200), {}),
        ("verify_eps0.6", _verify("0.6", "2..8", 3, 200), {}),
        ("verify_n64", _verify("0.1", "64..64", 3, 5), {}),
        ("verify_n128", _verify("0.3", "128..128", 2, 2), {}),
        ("heatmap_n64", _simulate_grid(
            "64..64", "3", 1, 1, "--noise", "selection", "--epsilon", "0.1",
            "--surface", "full", "--out", "h64.json", "--heatmap", "h64.csv"),
         {}),
        ("heatmap_n128", _simulate_grid(
            "128..128", "3", 1, 1, "--surface", "full", "--out", "h128.json",
            "--heatmap", "h128.csv"), {}),
        ("heatmap_train", _simulate_grid(
            "3..5", "3,2", 4, 1, "--noise", "selection", "--epsilon", "0.2",
            "--out", "t.json", "--heatmap", "t.csv"), {}),
        ("verify_eps8e307", _verify("8e307", "2..3", 2, 1), {}),
        ("verify_eps0_n128", _verify("0", "128..128", 2, 50), {}),
    ]
    grid = ("--qubits", "2..10", "--cosets", "2,3,4,5", "--trials", "300",
            "--seed", "1")
    tiny = ("--qubits", "2..2", "--cosets", "2", "--trials", "1")
    writes = ("--qubits", "2..3", "--cosets", "2", "--trials", "2",
              "--seed", "1")
    errors = [
        ("simulate", "--trials", "abc"),
        ("simulate", "--qubits", "5..3", "--cosets", "2", "--trials", "1"),
        ("verify-bounds", "--qubits", "5..3"),
        ("simulate", "--bogus", "1"),
        ("verify-bounds", "--cosets", "1"),
        ("simulate", *tiny, "--config", "bad_out.json"),
        ("simulate", *grid, "--out", "/nonexistent/r.json"),
        ("simulate", *grid, "--heatmap", "/nonexistent/h.csv"),
        ("simulate", *grid, "--out", "r.json", "--heatmap", "r.json"),
        ("simulate", *tiny, "--out", ""),
        ("simulate", *tiny, "--heatmap", ""),
        ("simulate", *writes, "--out", "/dev/full"),
        ("simulate", *writes, "--out", "/dev/full", "--format", "csv"),
        ("simulate", *writes, "--out", "r.json", "--heatmap", "/dev/full"),
    ]
    inputs = {"bad_out.json": '{"output_path": 1}\n'}
    cmds += [(f"error_{i:02d}", _cli(*args), inputs)
             for i, args in enumerate(errors, 1)]
    config = ('{"qubit_range": [2, 4], "coset_counts": [3, 2], "trials": 3, '
              '"noise": {"variant": "representation", "epsilon": 0.3}}\n')
    cmds += [
        ("report_noiseless", _simulate_grid("2..5", "2,3,4,5", 40, 9,
                                            "--out", "r.json"), {}),
        ("report_noisy", _simulate_grid(
            "2..5", "2,3,5", 20, 9, "--noise", "selection", "--epsilon", "0.3",
            "--out", "r_noisy.json"), {}),
        ("config_merged", _cli("simulate", "--config", "cfg.json", "--trials",
                               "5", "--seed", "4", "--out", "cfg_r.json",
                               "--heatmap", "cfg_h.csv"),
         {"cfg.json": config}),
        ("csv_stdout", _simulate_grid("2..3", "2", 2, 1, "--format", "csv"),
         {}),
        ("theory_m100000", _cli("theory", "--m", "100000", "--n", "4",
                                "--N", "6"), {}),
        ("big_full", _simulate_grid("128..128", "2,3", 200, 1, "--surface",
                                    "full", "--out", "big.json"), {}),
        ("big_train", _simulate_grid("128..128", "2,3,4,5", 200, 1,
                                     "--out", "big_train.json"), {}),
    ]
    for variant in ("fiducial", "selection", "representation"):
        noisy = ("--noise", variant, "--epsilon", "0.3")
        cmds += [
            (f"noisy_{variant}", _simulate_grid(
                "2..8", "2,3,5", 50, 1, *noisy, "--out", "noisy.json"), {}),
            (f"noisy64_{variant}", _simulate_grid(
                "64..64", "3", 3, 1, *noisy, "--out", "noisy64.json"), {}),
        ]
    # the benchmark's workloads (bench/workloads.py), three seeds each
    for seed in (1, 2, 3):
        cmds += [
            (f"sweep_large_n_seed{seed}", _simulate_grid(
                "10..12", "2,3", 1, seed, "--surface", "full",
                "--out", "out.json", "--heatmap", "out.csv"), {}),
            (f"sweep_small_n_seed{seed}", _simulate_grid(
                "2..5", "2,3,4,5", 40, seed, "--out", "out.json"), {}),
            (f"verify_bounds_seed{seed}", _verify("0.1", "4..8", 3, 5, seed),
             {}),
        ]
    cmds += [
        ("theory", _cli("theory", "--m", "2", "--n", "10", "--N", "10"), {}),
        ("theory_small", _cli("theory", "--m", "3", "--n", "4", "--N", "4"),
         {}),
    ]
    cmds += [(f"demo_{path.stem}", [f"demos/{path.name}"], {})
             for path in sorted((ROOT / "demos").glob("*.py"))]
    return cmds


COMMANDS = _commands()


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def run_command(tree, argv, inputs):
    """[(output, value)] of one command run against `tree`: its exit code,
    the digests of its stdout and stderr, and one of each file it wrote."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(tree / "src")
    if argv[0].endswith(".py"):  # a demo, run from the tree it belongs to
        argv = [str(tree / argv[0]), *argv[1:]]
    with tempfile.TemporaryDirectory(prefix="manifest-") as work:
        for name, text in inputs.items():
            Path(work, name).write_text(text)
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        outputs = [("exit", str(proc.returncode)),
                   ("stdout", _digest(proc.stdout)),
                   ("stderr", _digest(proc.stderr))]
        for path in sorted(Path(work).iterdir()):
            if path.name not in inputs:
                outputs.append((f"file:{path.name}",
                                _digest(path.read_bytes())))
    return outputs


def manifest(tree, names=None):
    """{(command, output): value} for the commands named (all by default),
    run against the tree at `tree`."""
    entries = {}
    for name, argv, inputs in COMMANDS:
        if names is None or name in names:
            for output, value in run_command(tree, argv, inputs):
                entries[name, output] = value
    return entries


def environment():
    """`#` lines naming what the digests may depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return [f"# python {platform.python_version()}, numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}",
            f"# cpu {cpu}"]


def _unpack(rev, into):
    """The tree of git revision `rev`, written into the directory `into`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="REV",
                        help="print only the entries that differ from REV's")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only these commands")
    args = parser.parse_args(argv)
    known = {name for name, _, _ in COMMANDS}
    unknown = sorted(set(args.only or ()) - known)
    if unknown:
        parser.error(f"unknown commands: {unknown}")
    here = manifest(ROOT, args.only)
    if args.compare is None:
        print("\n".join(environment()))
        for (name, output), value in here.items():
            print(name, output, value)
        return 0
    with tempfile.TemporaryDirectory(prefix="manifest-rev-") as base:
        _unpack(args.compare, base)
        there = manifest(Path(base), args.only)
    keys = dict.fromkeys([*there, *here])
    differ = 0
    for key in keys:
        old, new = there.get(key, "-"), here.get(key, "-")
        if old != new:
            differ += 1
            print(*key, old, "->", new)
    print(f"# {len(keys)} entries compared with {args.compare}, "
          f"{differ} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
