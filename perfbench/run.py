"""grayfuzz benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload extract-1024 --seed 1 --seconds 30 --trace 0

Run from anywhere; paths resolve against the repository this file sits in.
Each workload runs in fresh subprocesses (perfbench/worker.py), one at a
time, so a run never uses more than one busy process.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` as the median of
SETUP_PROBES fresh set-up processes, and the op figures, ``peak_rss_mb`` and
``psnr_db`` from one untraced closed-loop run.  ``--trace 1`` reports the
per-layer metrics named in BENCHMARK.json from one traced run, whose input
cycles alternate untraced and traced, plus its allocation pass.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every figure by name and unit, with the
error rate and the percentile behind ``op_tail_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("extract-1024", "grid-256", "single-256")
SETUP_PROBES = 11
DEADLINE_S = 170.0  # the whole run, so that it ends within three minutes
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
TAIL_PCT = 95  # the tail percentile of a run with enough ops for it


class BenchError(Exception):
    pass


class Spawner:
    """Runs worker processes one at a time under a shared deadline."""

    def __init__(self, workload, seed, seconds):
        self.base = [workload, str(seed), str(seconds)]
        self.deadline = time.monotonic() + DEADLINE_S
        # Workers import from cached bytecode, as an installed CLI would, and
        # keep that cache out of src/ whatever the caller's environment says.
        # One BLAS thread: grayfuzz makes no BLAS calls, and a pool sized to
        # the machine only adds thread start-up noise to setup_s.
        self.env = dict(
            os.environ,
            PYTHONPYCACHEPREFIX=str(HERE / "_run" / "pycache"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def __call__(self, mode):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the worker could start")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), mode, *self.base],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, but no higher than the nearest-rank
    TAIL_PCT percentile, so that a faster commit, which fits more ops into a
    run, is not read further out in its tail.  A run with too few ops to
    place that percentile above the median reports the median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = min(math.ceil(n * TAIL_PCT / 100), n - TAIL_BEYOND)  # 1-based rank of the reported sample
    if 2 * rank <= n:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def psnr(mses):
    mse = sum(mses) / len(mses)
    return math.inf if mse == 0 else 10.0 * math.log10(255.0 ** 2 / mse)


def end_to_end(spawn):
    setups = [spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn("run")
    times = run["op_times"]
    if not times or not run["mse"]:
        raise BenchError("no op completed:\n" + "\n".join(run["errors"]))
    tail_value, tail_pct, tail_beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "mpix_per_s": (run["pixels_per_op"] * len(times) / sum(times) / 1e6, "Mpix/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "psnr_db": (psnr(run["mse"]), "dB"),
    }
    notes = [
        f"op_tail_s is p{tail_pct:.1f} of {len(times)} ops, {tail_beyond} beyond it",
        f"error_rate {run['failed'] / run['attempted']:.4f} ({run['failed']}/{run['attempted']} ops failed)",
        f"peak_rss_mb is ru_maxrss after two input cycles; {run['end_rss_mb']:.1f} MB at the end of the run",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return run, metrics, notes


def per_layer(spawn, names):
    traced = spawn("trace")
    if not traced["op_times"]:
        raise BenchError("no traced op completed:\n" + "\n".join(traced["errors"]))
    found = traced["metrics"]
    metrics = {name: (found.get(name, 0.0), unit) for name, unit in names.items()}
    module_self = sum(v for k, v in found.items() if k.count(".") == 1 and k.endswith(".self_s"))
    op_mean = sum(traced["op_times"]) / len(traced["op_times"])
    notes = [
        f"module self times sum to {module_self:.4f} s of a {op_mean:.4f} s mean traced op "
        f"({100.0 * (module_self / op_mean - 1.0):+.2f}%)",
    ]
    unlisted = sorted(k for k, v in found.items() if v and k not in names)
    if unlisted:
        notes.append(f"figures not listed in BENCHMARK.json: {unlisted}")
    return traced, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    try:
        if not (ROOT / "src" / "grayfuzz" / "__init__.py").is_file():
            raise BenchError(f"no grayfuzz sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        spawn = Spawner(args.workload, args.seed, args.seconds)
        if args.trace:
            names = {m["name"]: m["unit"] for m in spec["per_layer"]}
            run, metrics, notes = per_layer(spawn, names)
        else:
            run, metrics, notes = end_to_end(spawn)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    for error in run["errors"]:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
