"""One workload in one fresh process; prints one JSON line for run.py.

    python3 perfbench/worker.py <setup|run|trace> <workload> <seed> <seconds>

``setup`` imports grayfuzz, builds the inputs and reports the time taken.
``run`` then drives a closed loop of ops, untraced, for at least
``seconds`` and at least two whole cycles of inputs, checking every output.
``trace`` runs the same loop with span wrappers installed, then one
allocation pass under tracemalloc, and reports per-module figures.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports numpy and grayfuzz: part of set-up)

RUN_DIR = HERE / "_run"
PINS = HERE / "pins.json"
MB = 1024 * 1024


def closed_loop(workload, seed, seconds, call, period):
    """Run ops one at a time until ``seconds`` have passed, at least two
    input cycles are done and the op count is a multiple of ``period``.
    Check each output against its pin (default seed) and against the first
    output for the same input.  ``call(k, op, args)`` runs op k and returns
    (result, seconds).  ``peak_rss_mb`` is read after the first two cycles,
    so that it does not grow with the number of ops a run manages."""
    pins = None
    if seed == workloads.DEFAULT_SEED:
        pins = json.loads(PINS.read_text())[workload.name]
    n = workload.cycle
    first = [None] * n
    sq_err = [None] * n
    times, op_ids, errors = [], [], []
    attempted = failed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    k = 0
    while k < 2 * n or k % period or time.perf_counter() - start < seconds:
        i = k % n
        args = workload.args(i, k)
        attempted += 1
        try:
            result, seconds_taken = call(k, workload.op, args)
            times.append(seconds_taken)
            op_ids.append(k)
            digest, mse = workload.check(i, result, args)
            if first[i] is None:
                first[i], sq_err[i] = digest, mse
            expected = pins[i] if pins else first[i]
            if digest != expected or digest != first[i]:
                raise ValueError(f"output digest {digest[:12]} != expected {expected[:12]}")
        except Exception as exc:  # a failed op is counted, and the loop goes on
            failed += 1
            errors.append(f"op {k} (input {i}): {exc!r}")
        finally:
            workload.cleanup(args)
        k += 1
        if k == 2 * n:
            peak_rss_mb = max_rss_mb()
    return {
        "op_times": times,
        "op_ids": op_ids,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "digests": first,
        "mse": [m for m in sq_err if m is not None],
        "peak_rss_mb": peak_rss_mb,
    }


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_call(k, op, args):
    t0 = time.perf_counter()
    result = op(*args)
    return result, time.perf_counter() - t0


def trace_run(workload, seed, seconds):
    from spans import MODULES, OP_SPAN, Tracer

    pixels = distinct = 0
    for arr in workload.noisy_arrays():
        pixels += arr.size
        distinct += workloads.distinct_pair_count(arr)

    # Whole input cycles alternate untraced and traced, so that the tracing
    # overhead is measured under the same machine load as the traced ops.
    tracer = Tracer()
    n = workload.cycle

    def call(k, op, args):
        if (k // n) % 2 == 0:
            return timed_call(k, op, args)
        tracer.install()
        try:
            return tracer.run_op(k, op, *args)
        finally:
            tracer.uninstall()

    loop = closed_loop(workload, seed, seconds, call, 2 * n)
    traced_ids = [k for k in range(loop["attempted"]) if (k // n) % 2]
    ops = len(traced_ids)
    totals = tracer.self_times(set(traced_ids))
    counts = dict(tracer.counts)
    untraced = [t for k, t in zip(loop["op_ids"], loop["op_times"]) if (k // n) % 2 == 0]
    traced = [t for k, t in zip(loop["op_ids"], loop["op_times"]) if (k // n) % 2]
    loop["op_times"] = traced

    # Allocation pass: one op, outside the timed loop; tracemalloc slows it ~5x.
    alloc_args = workload.args(0, loop["attempted"])
    loop["attempted"] += 1
    tracer.install()
    tracer.start_alloc()
    try:
        result, _ = tracer.run_op(-1, workload.op, *alloc_args)
        tracer.stop_alloc()
        digest, _ = workload.check(0, result, alloc_args)
        if digest != loop["digests"][0]:
            raise ValueError(f"allocation pass digest {digest[:12]} differs")
    except Exception as exc:  # counted like a failed op of the timed loop
        loop["failed"] += 1
        loop["errors"].append(f"allocation pass: {exc!r}")
    finally:
        if tracer.alloc:
            tracer.stop_alloc()
        workload.cleanup(alloc_args)
    tracer.uninstall()
    tracer.write(RUN_DIR / f"spans-{workload.name}-seed{seed}.jsonl")

    metrics = {}
    module_self = 0.0
    for module in MODULES:
        entries = [v for name, v in totals.items() if name.split(".", 1)[0] == module]
        calls = sum(e[0] for e in entries)
        self_s = sum(e[1] for e in entries)
        module_self += self_s
        metrics[f"{module}.calls"] = calls / ops
        metrics[f"{module}.self_s"] = self_s / ops
        metrics[f"{module}.errors"] = sum(e[2] for e in entries) / ops
        metrics[f"{module}.alloc_peak_mb"] = tracer.alloc_peak.get(module, 0) / MB
    for name in tracer.functions:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.self_s"] = self_s / ops

    def ratio(num, den):
        return num / den if den else 0.0

    thresholds = totals.get("thresholding.compute_threshold", (0, 0.0, 0))
    unattributed = totals[OP_SPAN][1]
    metrics.update({
        "pipeline.distinct_pair_frac": ratio(distinct, pixels),
        "pipeline.no_rule_frac": ratio(counts.get("pipeline.no_rule_pixels", 0), counts.get("pipeline.pixels", 0)),
        "fuzzy.rules": ratio(counts.get("fuzzy.rules", 0), counts.get("fuzzy.rule_bases", 0)),
        "fuzzy.rules_per_training_pair": ratio(counts.get("fuzzy.rules", 0), counts.get("fuzzy.training_pairs", 0)),
        "thresholding.converged_frac": ratio(thresholds[0] - thresholds[2], thresholds[0]),
        "trace.unattributed_frac": ratio(unattributed, unattributed + module_self),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    })
    loop["metrics"] = metrics
    return loop


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = workloads.WORKLOADS[name]()
    workdir = RUN_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.setup(workdir, seed)
        out = {"setup_s": time.perf_counter() - T0, "pixels_per_op": workload.pixels_per_op}
        if mode == "run":
            out.update(closed_loop(workload, seed, seconds, timed_call, workload.cycle))
        elif mode == "trace":
            out.update(trace_run(workload, seed, seconds))
        elif mode != "setup":
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["end_rss_mb"] = max_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
