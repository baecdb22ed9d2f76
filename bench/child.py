"""Runs one workload's rounds in this process and writes what it measured.

run.py starts this script with single-threaded BLAS and `src` on the import
path. Every timer is taken here, around `cosetkernel.cli.main` alone.
Untraced, each round is one timed CLI call followed by one set-up sample: a
fresh interpreter that times its own import of `cosetkernel.cli`. Spreading
the set-up samples over the run exposes them to the same changes in machine
speed as the rounds. Traced, rounds come in pairs with the same seed: one
untraced, then one traced, so that the tracing overhead is measured on
matched work.

Usage: child.py WORKLOAD SEED SECONDS TRACE OUT_DIR
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import tracer
import workloads


def run_round(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - start
    return rc, wall, cpu, buf.getvalue()


SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import cosetkernel.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, cosetkernel.cli.__file__)\n"
)


def setup_sample():
    """(seconds to import cosetkernel.cli, file imported) in a fresh
    interpreter that inherits this process's environment."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    elapsed, path = proc.stdout.split()
    return float(elapsed), os.path.abspath(path)


def main(name, seed, seconds, traced, out_dir):
    from cosetkernel import cli

    workload = workloads.WORKLOADS[name]
    seeds = workloads.round_seeds(name, seed)
    trace = tracer.Tracer()
    rounds = []
    setup = []
    kept_spans = None
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        round_seed = next(seeds)
        for with_trace in ((False, True) if traced else (False,)):
            stem = os.path.join(out_dir, f"r{len(rounds)}")
            argv = workload.argv(round_seed, stem)
            if with_trace:
                trace.reset()
                trace.install()
                try:
                    rc, wall, cpu, out = trace.call(tracer.ROOT, run_round,
                                                    cli, argv)
                finally:
                    trace.uninstall()
            else:
                rc, wall, cpu, out = run_round(cli, argv)
            rnd = {"seed": round_seed, "argv": argv, "stem": stem, "rc": rc,
                   "wall_s": wall, "cpu_s": cpu, "stdout": out,
                   "traced": with_trace}
            if with_trace:
                calls, self_s = trace.summary()
                rnd.update(calls=calls, self_s=self_s,
                           counters=dict(trace.counters))
                if kept_spans is None:
                    kept_spans = trace.spans
            if os.path.exists(stem + ".json"):
                rnd["report_bytes"] = os.path.getsize(stem + ".json")
            rounds.append(rnd)
        if not traced:
            setup.append(setup_sample())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"cosetkernel": os.path.abspath(sys.modules["cosetkernel"].__file__),
              "peak_rss_mb": peak_kib / 1024, "rounds": rounds,
              "setup": setup}
    with open(os.path.join(out_dir, "child.json"), "w") as fh:
        json.dump(result, fh)
    if kept_spans is not None:
        with open(os.path.join(out_dir, "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": kept_spans}, fh)


if __name__ == "__main__":
    wl, sd, secs, tr, out = sys.argv[1:]
    main(wl, int(sd), float(secs), tr == "1", out)
