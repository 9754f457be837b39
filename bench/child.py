"""One workload in one fresh process; started by ``bench/run.py``.

The set-up time is that of ``import skewbeta.cli`` plus the workload's
warm-up call, so only the standard library is imported before it.  Timed
passes then repeat the same inputs until ``--seconds`` would be exceeded
(at least two passes).  The run's operations and failures are those of
the first pass; every later pass is checked too and must fail the same
operations for the same reasons, so the counts depend on the seed alone and
not on how many passes fit in the time.  With ``--trace 1`` untraced and
traced passes alternate, starting untraced, at least one of each; the
traced ones feed the layer metrics.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


# The host's speed drifts by tens of percent over seconds to minutes, for
# reasons outside the process (other tenants of the machine), and CPU time
# drifts with it.  A fixed reference kernel, independent of skewbeta, is
# timed before and after every task; each task's time is scaled by
# REFERENCE_S over the mean of the two reference times, i.e. reported at the
# speed at which the kernel takes REFERENCE_S.  Raw times are kept in the
# provenance.  No single kernel tracked every workload: interpreter-bound
# work drifts with small-array numpy calls, large-array work with broadcast
# arithmetic on megabyte arrays.  Each workload names the kind it is
# dominated by; set-up (imports) uses the small-array kernel.
REFERENCE_S = 0.04


def reference_kernel(large_arrays: bool = False) -> float:
    """Time a fixed kernel of small-array calls or of broadcast rational
    sums on large arrays, plus small dense eigenproblems."""
    import numpy as np
    start = time.perf_counter()
    if large_arrays:
        grid = np.linspace(0.0, 1.0, 100_000).reshape(50_000, 2)
        weights, poles, mid = grid + 0.5, grid[::-1] * 0.5, grid + 1.0
        for _ in range(6):
            f = 1.0 - np.sum(weights[:, None, :] / (mid[:, :, None] - poles[:, None, :]),
                             axis=2)
            mid = np.where(f < 0.0, mid * 1.001, mid)
        eig_reps = 60
    else:
        a = np.linspace(0.1, 1.0, 16)
        for _ in range(7000):
            a = np.sqrt(a * a + 0.5) - 0.5
        eig_reps = 300
    m = np.cos(np.add.outer(np.arange(24.0), np.arange(24.0)))
    for _ in range(eig_reps):
        np.linalg.eigvalsh(m + m.T)
    return time.perf_counter() - start


def _timed_pass(workload, seed: int, scratch: str, tracer):
    """Run one pass task by task; returns raw wall time, wall time at
    reference speed and raw outputs.  With a tracer each task is one root
    span ``bench.task``."""
    gen = workload.run(seed, scratch, tracer)
    wall = scaled = 0.0
    before = reference_kernel(workload.large_arrays)
    while True:
        root = tracer.open("bench.task") if tracer is not None else -1
        start = time.perf_counter()
        try:
            next(gen)
            raw, done = None, False
        except StopIteration as stop:
            raw, done = stop.value, True
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
        after = reference_kernel(workload.large_arrays)
        wall += elapsed
        scaled += elapsed * REFERENCE_S / (0.5 * (before + after))
        before = after
        if done:
            return wall, scaled, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up is the import of skewbeta.cli, which CLI users pay on every
    # call and which imports every skewbeta module, plus the warm-up call;
    # the benchmark's own modules are imported between the two, untimed
    t0 = time.perf_counter()
    import skewbeta.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    workload.warmup(args.seed, args.scratch)
    setup_s = import_s + time.perf_counter() - t1

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(skewbeta.cli.__file__).startswith(src):
        sys.stderr.write(f"skewbeta imported from {skewbeta.cli.__file__}, not {src}\n")
        return 2
    reference_kernel()  # first call: cold caches
    reference = statistics.median(reference_kernel() for _ in range(5))
    setup_scaled = setup_s * REFERENCE_S / reference
    if args.setup_only:
        print(json.dumps({"setup_s": setup_scaled, "setup_raw_s": setup_s}))
        return 0

    import spans
    tracer = spans.Tracer() if args.trace else None
    plain: list[float] = []
    plain_raw: list[float] = []
    traced: list[float] = []
    traced_raw: list[float] = []
    layers: list[dict] = []
    # every pass repeats the same inputs, so the run's operations are those of
    # the first pass; a later pass whose failures differ is a defect
    counted: workloads.Outcome | None = None
    spectra = 0
    start = time.perf_counter()
    while True:
        use_tracer = tracer if tracer is not None and len(traced) < len(plain) else None
        if use_tracer is None:
            wall, scaled, raw = _timed_pass(workload, args.seed, args.scratch, None)
            plain_raw.append(wall)
            plain.append(scaled)
        else:
            first = len(tracer.names)
            tracer.counters.clear()
            tracer.install()
            try:
                wall, scaled, raw = _timed_pass(workload, args.seed, args.scratch, tracer)
            finally:
                tracer.uninstall()
            traced_raw.append(wall)
            traced.append(scaled)
            layer = spans.summarize(tracer, first, len(tracer.names), tracer.counters)
            layer["trace.accounted_ratio"] = layer.pop("trace.self_sum_s") / wall
            layer["trace.wall_s"] = wall
            layers.append(layer)
        outcome = workload.check(args.seed, args.scratch, raw)
        del raw
        if counted is None:
            counted = outcome
        elif (outcome.attempted, outcome.reasons) != (counted.attempted, counted.reasons):
            counted.unexpected["a repeated pass's failures differ from the first pass's"] += 1
        if use_tracer is None:
            spectra += outcome.spectra
        spent = time.perf_counter() - start
        passes = len(plain) + len(traced)
        enough = traced if tracer is not None else len(plain) >= 2
        if enough and spent + spent / passes > args.seconds:
            break

    result = {
        "setup_s": setup_scaled,
        "setup_raw_s": setup_s,
        "reference_s": REFERENCE_S,
        "plain_s": plain,
        "plain_raw_s": plain_raw,
        "traced_s": traced,
        "traced_raw_s": traced_raw,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "spectra": spectra,
        "reasons": dict(counted.reasons),
        "unexpected": dict(counted.unexpected),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        mean = {key: statistics.fmean(layer[key] for layer in layers) for key in layers[0]}
        mean["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        result["layers"] = mean
        result["entry_points"] = tracer.entry_points
        spans_path = os.path.join(args.scratch, f"spans-{args.workload}.csv")
        tracer.write_csv(spans_path)
        result["spans_file"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
