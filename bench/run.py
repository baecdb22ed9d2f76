"""cosetkernel benchmark: one workload per run, through the public CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; nothing needs installing. The
package is imported from `src/`. Each run

1. starts one child process (child.py) with single-threaded BLAS, which
   repeats the workload's CLI command for S seconds in whole rounds and
   times each call (`wall_s`, median; `peak_rss_mb`). With --trace 0 it
   also starts one fresh interpreter after each round that times its
   import of `cosetkernel.cli` (`setup_s`, median);
2. checks every round's outputs (workloads.py); a round that exits nonzero
   or fails a check counts as failed, and a failed check also sets
   `correct` to false;
3. prints one JSON line: `correct`, `attempted` (rounds), `failed` and the
   metrics, end-to-end with --trace 0 and per-layer with --trace 1.

Outputs of the last run of each workload stay in bench/out/<workload>/,
including the spans of one traced round in spans.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "cosetkernel"

TIME_LIMIT_S = 170

# One BLAS thread: the Gram products are small, so extra threads only add
# synchronisation and make timings depend on what else the two cores run.
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _is_ours(path):
    """True when an imported module file lies in this checkout's src/."""
    return Path(path).resolve().is_relative_to(PACKAGE_DIR)


def run_child(name, seed, seconds, trace, out_dir, deadline):
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed),
           str(seconds), str(trace), str(out_dir)]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise BenchError(f"child exited with status {rc}")
    with open(out_dir / "child.json") as fh:
        result = json.load(fh)
    for path in [result["cosetkernel"]] + [p for _, p in result["setup"]]:
        if not _is_ours(path):
            raise BenchError(f"imported cosetkernel from {path}, not {SRC}")
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result):
    walls = [r["wall_s"] for r in result["rounds"]]
    return {
        "wall_s": _metric(median(walls), "s"),
        "setup_s": _metric(median(t for t, _ in result["setup"]),
                           "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
    }


def per_layer(result):
    """Medians over traced rounds. Counts repeat exactly from round to round;
    median_low keeps them whole numbers."""
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]

    metrics = {}
    for name in tracer.layer_names():
        metrics[f"{name}.calls"] = _metric(
            median_low([r["calls"].get(name, 0) for r in traced]), "count")
        metrics[f"{name}.self_s"] = _metric(
            median([r["self_s"].get(name, 0.0) for r in traced]), "s")
    for counter, unit in (("kernel.feature_states.bytes", "B"),
                          ("kernel.gram.flops", "flop")):
        metrics[counter] = _metric(
            median_low([r["counters"].get(counter, 0) for r in traced]), unit)
    metrics["experiment.report_bytes"] = _metric(
        median_low([r.get("report_bytes", 0) for r in traced]), "B")
    traced_wall = median([r["wall_s"] for r in traced])
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - median([r["wall_s"] for r in plain]), "s")
    # share of each traced round's wall time that named spans account for
    metrics["trace.named_share"] = _metric(median([
        100 * (1 - r["self_s"].get(tracer.ROOT, 0.0) / r["wall_s"])
        for r in traced]), "%")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the finally clauses that stop child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: no cosetkernel sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        result = run_child(args.workload, args.seed, args.seconds, args.trace,
                           out_dir, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workload = workloads.WORKLOADS[args.workload]
    failed = 0
    wrong = 0
    for i, rnd in enumerate(result["rounds"]):
        errs = workloads.check_round(workload, rnd)
        if errs:
            failed += 1
            wrong += rnd["rc"] == 0
            print(f"round {i} (seed {rnd['seed']}) failed: "
                  + "; ".join(errs[:3]), file=sys.stderr)
    metrics = (per_layer(result) if args.trace
               else end_to_end(result))
    print(json.dumps({"correct": wrong == 0,
                      "attempted": len(result["rounds"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
