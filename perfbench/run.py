"""Benchmark of liegroup-index: cold and warm index sweeps and the check suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined in
``workloads.py``; the seed draws the pointwise coefficients, and the
program sees only the config files written from it.  Each run starts one
worker subprocess (``worker.py``, one BLAS thread), which calls ``cli.main``
in-process after an untimed warm-up, in a closed loop for ``--seconds``
seconds, and checks every output.  The loop times:

* ``index_cold_s``: ``index`` on the workload config with an empty cache;
* ``index_warm_s``: the same run again on the cache the cold run filled;
* ``check_s``: the workload's ``check`` suites back to back;
* ``setup_s``: a fresh interpreter that imports ``liegroup_index.cli``,
  loads the index config and validates it (five per run, spread over it).

``peak_rss_mb`` is the worker's peak resident set.  An output check fails
when the CLI exits 1 or writes no report, a sweep cell is missing, a heat
trace differs from its kernel count by more than 1e-6, the exit code does
not match the verdict, a warm report is not byte-identical to the cold one,
a report differs from the first repetition, or a check row fails;
``wrong_index_cells`` counts the cutoffs whose kernel count differs from
the oracle, which is a property of the program, not a failed check.  The run prints one JSON
line with the full record (every timing as median, the highest percentile
with at least ten samples beyond it, and the sample count; the
closed-form oracle and output-check tallies; the environment), then, as the
last line, the result: with ``--trace 0`` the end-to-end metrics (medians),
with ``--trace 1`` the per-layer metrics of traced cycles (``tracing.py``).

Work files go to ``.perfbench_work/<workload>/`` in the checkout; a traced
run leaves the spans of its last traced cycle there in ``spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1
DEADLINE_S = 170.0            # every run must end within 180 s
PERCENTILES = (99.9, 99.0, 90.0)


def summarize(values: list) -> dict:
    """Median, highest percentile with >= 10 samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n,
           "percentile": None, "percentile_value": None}
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out["percentile"] = p
            out["percentile_value"] = statistics.quantiles(
                ordered, n=1000, method="inclusive")[round(p * 10) - 1]
            break
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIEGROUP_INDEX_CACHE", None)   # the config's cache_dir must count
    # one BLAS thread keeps the load on one core: with two, back-to-back
    # cold SU(2) sweeps ranged 6.5-8.6 s, against 9.3-9.7 s with one
    # (2-vCPU x86_64 VM, OpenBLAS 0.3.31)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def source_identity() -> dict:
    """The commit, when the checkout is a git repository, and a hash of src/."""
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"commit": commit or None, "src_sha256": digest.hexdigest()}


def write_inputs(work: str, spec: dict, prefix: str = ""):
    files = {"spec.json": spec, "index.json": spec["index"]}
    files.update({f"check_{which}.json": cfg for which, cfg in spec["checks"]})
    for name, content in files.items():
        with open(os.path.join(work, prefix + name), "w") as fh:
            json.dump(content, fh)


def run_worker(work: str, env: dict, args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own process group, so that a timeout also stops its set-up probes
    proc = subprocess.Popen(cmd, cwd=work, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=deadline - time.monotonic())
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    with open(os.path.join(work, "result.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "liegroup_index", "cli.py")):
        print(f"error: no liegroup-index sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = workloads.build(args.workload, args.seed)
    write_inputs(work, spec)
    write_inputs(work, workloads.warmup(spec), "warmup_")
    result = run_worker(work, child_env(), args, deadline)

    failed = len(result["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "oracle_index": spec["oracle"],
        "wrong_index_cells": result["wrong_index_cells"],
        "cells": len(spec["index"]["cutoffs"]),
        "failed_ops": failed, "ops_attempted": result["attempted"],
        "failures": result["failures"][:20],
        "peak_rss_mb": result["peak_rss_mb"],
        "timings": {name: summarize(values)
                    for name, values in result["samples"].items()},
        "environment": {**result["environment"], **source_identity()},
        "measured_s": result["measured_s"],
    }
    if args.trace:
        traced_cold = statistics.median(result["traced_samples"]["index_cold_s"])
        layers = dict(result["layers"][0])
        for name in layers:
            if name.endswith("_s"):
                layers[name] = statistics.median(l[name] for l in result["layers"])
        layers["trace_overhead_s"] = (traced_cold
                                      - record["timings"]["index_cold_s"]["median"])
        layers["wrong_index_cells"] = result["wrong_index_cells"]
        record["layers"] = layers
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": record["timings"][name]["median"], "unit": "s"}
                   for name in ("index_cold_s", "index_warm_s", "check_s", "setup_s")}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MiB"}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
