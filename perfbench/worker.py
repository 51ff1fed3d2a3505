"""Run one workload in this process through the shipped CLI's ``main()``.

Started by ``run.py`` in the workload's work directory, which already holds
the config files.  The loop is closed: one client, and each command starts
when the previous one has returned.  A cycle of a smaller copy of the
workload (``workloads.warmup``) runs first as an untimed warm-up.  An
untraced run then interleaves cold sweeps, warm sweeps, check suites and
set-up probes (``fair_share``); a traced run alternates untraced and traced
cycles of cold sweep, warm sweep and check suites.  Every invocation's
output is checked; the result is written to ``result.json`` in the work
directory.

    python3 worker.py --root CHECKOUT --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HEAT_TOL = 1e-6
SETUP_REPEATS = 5            # set-up probes per run


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build record, and its live thread count."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def environment() -> dict:
    import numpy as np
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas_info(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


class Runner:
    """Invokes the CLI, checks each output and keeps the tallies."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []            # (tag, reason) per failed invocation
        self.first_report = {}        # command line -> report bytes of its first run
        self.wrong_index_cells = None
        self.cold_report = None

    def _run(self, tag: str, argv: list, check_body, reference=None) -> tuple:
        """One CLI invocation and its output checks; (report bytes, seconds)."""
        out = os.path.join("out", tag)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv + ["--out", out])
        seconds = time.perf_counter() - start
        self.attempted += 1
        problems = ["exit code 1"] if rc == 1 else []
        path = os.path.join(out, "report.json")
        report = None
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                report = fh.read()
            if report != self.first_report.setdefault(" ".join(argv), report):
                problems.append("report.json differs from the first repetition")
            if reference is not None and report != reference:
                problems.append("warm report.json is not byte-identical to the cold one")
            problems += check_body(json.loads(report), rc)
        else:
            problems.append("no report.json")
        if problems:
            self.failures.append((tag, "; ".join(problems)))
        shutil.rmtree(out, ignore_errors=True)
        return report, seconds

    def _index(self, tag: str, spec: dict, prefix: str, reference=None) -> tuple:
        cfg = spec["index"]

        def check_body(body, rc):
            problems = []
            cells = sorted((row["cutoff"], row["gamma"]) for row in body["rows"])
            wanted = sorted((c, g) for c in cfg["cutoffs"] for g in cfg["gammas"])
            if cells != wanted:
                problems.append(f"sweep cells {cells} != {wanted}")
            for row in body["rows"]:
                heat = row["heat_trace"]
                if (not isinstance(heat, float)
                        or abs(heat - row["kernel_count"]) > HEAT_TOL):
                    problems.append(f"cell {row['cutoff']}/{row['gamma']}: heat "
                                    f"trace {heat} vs kernel count {row['kernel_count']}")
            if rc != (0 if body["verdict"] == "stable" else 2):
                problems.append(f"exit code {rc} with verdict {body['verdict']}")
            if not prefix:                 # the warm-up sweeps one cutoff only
                self.wrong_index_cells = len({row["cutoff"] for row in body["rows"]
                                              if row["kernel_count"] != spec["oracle"]})
            return problems

        return self._run(tag, ["index", "--config", f"{prefix}index.json"],
                         check_body, reference)

    def checks(self, tag: str, spec: dict, prefix: str = "") -> float:
        """The workload's check suites back to back; returns their total time."""
        total = 0.0
        for which, _ in spec["checks"]:
            def check_body(body, rc, which=which):
                failed = [row["name"] for row in body["rows"] if not row["pass"]]
                if failed or not body["pass"] or rc != 0:
                    return [f"check {which} failed rows {failed} (exit {rc})"]
                return []

            _, seconds = self._run(
                f"{tag}-{which}",
                ["check", "--config", f"{prefix}check_{which}.json", "--which", which],
                check_body)
            total += seconds
        return total

    def cold(self, tag: str, spec: dict, prefix: str = "") -> float:
        """A sweep on an empty cache; its report is the warm runs' reference."""
        shutil.rmtree("cache", ignore_errors=True)
        self.cold_report, seconds = self._index(tag, spec, prefix)
        return seconds

    def warm(self, tag: str, spec: dict, prefix: str = "") -> float:
        """The sweep again on the cache the last cold run filled."""
        return self._index(tag, spec, prefix, reference=self.cold_report)[1]

    def cycle(self, tag: str, spec: dict, prefix: str = "") -> dict:
        """Cold sweep, warm sweep, then the check suites; their times."""
        return {"index_cold_s": self.cold(f"{tag}-cold", spec, prefix),
                "index_warm_s": self.warm(f"{tag}-warm", spec, prefix),
                "check_s": self.checks(tag, spec, prefix)}


def time_setup(root: str) -> float:
    """Wall time of a fresh interpreter that imports the CLI and validates
    the index config."""
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        "probe.py"),
           os.path.join(root, "src"), "index.json"]
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms
    # steps; run.py bounds the whole run instead
    subprocess.run(cmd, check=True)
    return time.perf_counter() - start


def fair_share(runner: Runner, spec: dict, root: str, seconds: float) -> dict:
    """Time cold sweeps, warm sweeps, check suites and set-up probes.

    The next command is always of the kind that has used the least time so
    far, so each kind gets about a third of the ``seconds`` and its samples
    are spread over the whole run, which evens out drifts in machine speed.
    Warm sweeps reuse the cache of the last cold sweep, as a user re-running
    a sweep would.  SETUP_REPEATS set-up probes are spread evenly over the
    run.  The loop stops when the next command would overrun; every kind
    runs at least once.
    """
    kinds = {
        "index_cold_s": lambda n: runner.cold(f"cold{n}", spec),
        "index_warm_s": lambda n: runner.warm(f"warm{n}", spec),
        "check_s": lambda n: runner.checks(f"checks{n}", spec),
    }
    time_setup(root)                    # untimed: compiles the probe's imports
    timings = {kind: [] for kind in kinds}
    timings["setup_s"] = []
    spent = dict.fromkeys(kinds, 0.0)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        probes = len(timings["setup_s"])
        if probes < SETUP_REPEATS and elapsed >= probes * seconds / SETUP_REPEATS:
            timings["setup_s"].append(time_setup(root))
            continue
        kind = min(kinds, key=spent.get)
        if timings[kind] and elapsed + timings[kind][-1] > seconds:
            break
        timings[kind].append(kinds[kind](len(timings[kind])))
        spent[kind] += timings[kind][-1]
    while len(timings["setup_s"]) < SETUP_REPEATS:
        timings["setup_s"].append(time_setup(root))
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    from liegroup_index import cli
    from tracing import Tracer

    with open("spec.json") as fh:
        spec = json.load(fh)
    with open("warmup_spec.json") as fh:
        warmup = json.load(fh)
    runner = Runner(cli)
    runner.cycle("warmup", warmup, "warmup_")
    start = time.perf_counter()
    if args.trace:
        # pairs of an untraced and a traced cycle while they fit
        samples, traced, layers = [], [], []
        last = 0.0
        while not samples or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            samples.append(runner.cycle(f"c{len(samples)}", spec))
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(runner.cycle(f"t{len(traced)}", spec))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
            last = time.perf_counter() - began
        with open("spans.json", "w") as fh:    # the last traced cycle's spans
            json.dump(tracer.spans, fh)
        timings = {k: [s[k] for s in samples] for k in samples[0]}
        traced = {k: [s[k] for s in traced] for k in traced[0]}
    else:
        timings = fair_share(runner, spec, args.root, args.seconds)
        traced, layers = {}, []
    measured = time.perf_counter() - start
    shutil.rmtree("cache", ignore_errors=True)

    result = {
        "samples": timings,
        "traced_samples": traced,
        "layers": layers,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "wrong_index_cells": runner.wrong_index_cells,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "measured_s": measured,
    }
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
