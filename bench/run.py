"""Benchmark of the skewbeta package: samplers, spectral map and
verification suites.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-sample --seed 1 --seconds 20 --trace 0

Each run starts the workload in fresh child processes (``bench/child.py``):
several that only set up, for ``setup_s``, and one that also makes the timed
passes.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit, the failure reasons and the provenance.  Spans and a full record of
the run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-sample", "batch-routes", "spectrum-scalar", "verify-all")
SETUP_SAMPLES = 4  # fresh processes per run whose set-up time is measured
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

def _git(root: str) -> dict:
    """Commit and dirty flag, when the checkout is a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                                capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, timeout=30, capture_output=True, text=True,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def _child(args: list[str], env: dict, root: str, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "skewbeta", "__init__.py")):
        sys.stderr.write("src/skewbeta not found: run from the root of a skewbeta checkout\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)  # metric names and units
    scratch = os.path.join(root, ".bench_out")
    os.makedirs(scratch, exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    tol_override = env.pop("SKEWBETA_TOL_OVERRIDE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    common = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", scratch]
    try:
        setups = [_child(common + ["--setup-only"], env, root, 120)
                  for _ in range(SETUP_SAMPLES - 1)]
        res = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, root, args.seconds + 150)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups.append(res)

    if args.trace:
        values = res["layers"]
    else:
        plain = res["plain_s"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(plain),
            "spectra_per_s": res["spectra"] / sum(plain),
            "ok_ratio": 1.0 - res["failed"] / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        sys.stderr.write("measured metrics differ from BENCHMARK.json: "
                         f"{sorted({m['name'] for m in declared} ^ set(values))}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **res["versions"], "nproc": nproc,
        "threads": {var: env[var] for var in THREAD_VARS},
        "SKEWBETA_TOL_OVERRIDE": "removed" if tol_override is not None else "unset",
        **_git(root),
        "reference_s": res["reference_s"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_samples_raw_s": [s["setup_raw_s"] for s in setups],
        "untraced_passes_s": res["plain_s"], "untraced_passes_raw_s": res["plain_raw_s"],
        "traced_passes_s": res["traced_s"], "traced_passes_raw_s": res["traced_raw_s"],
    }
    if args.trace:
        provenance["entry_points"] = res["entry_points"]
        provenance["spans_file"] = os.path.relpath(res["spans_file"], root)
    result = {"correct": not res["unexpected"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(scratch, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": provenance, "reasons": res["reasons"],
                   "unexpected": res["unexpected"]}, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {res['attempted']}  failed {res['failed']}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    for reason, count in sorted(res["reasons"].items()):
        print(f"  failed: {reason} x{count}")
    for reason, count in sorted(res["unexpected"].items()):
        print(f"  INCORRECT: {reason} x{count}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
