"""Benchmark workloads: seeded configs, closed-form oracles and checks.

``BENCHMARK.json`` lists su2-pointwise and checks, which between them reach
every module.  circle-winding and torus2-pointwise run by name only: with
four or three workloads the benchmark's total time left runs too short to
time steadily on a shared 2-vCPU machine, whose speed drifted by 20-50%
over minutes.

A workload is one ``index`` config, the index its operator has in closed
form (the oracle), and a list of ``check`` suites.  Only the pointwise
coefficients depend on the seed: c1 and c2 get a magnitude in [0.2, 0.5]
and a random phase beside c0 = 2, so |c(x)| >= 1 everywhere, the
multiplication operator is invertible for every seed and its index is 0.
The frequency support, cutoffs and gammas are fixed, so every seed does
the same amount of work.
"""

from __future__ import annotations

import cmath
import math
import random

GAMMAS = [0.1, 1.0, 10.0]
C0 = 2.0


def _coefficient(rng: random.Random) -> tuple:
    c = cmath.rect(rng.uniform(0.2, 0.5), rng.uniform(0.0, 2.0 * math.pi))
    return c.real, c.imag


def _torus2_pointwise(rng: random.Random) -> dict:
    (re1, im1), (re2, im2) = _coefficient(rng), _coefficient(rng)
    return {"op": "pointwise", "coefficients": [
        {"freq": [0, 0], "re": C0, "im": 0.0},
        {"freq": [1, 0], "re": re1, "im": im1},
        {"freq": [0, 1], "re": re2, "im": im2}]}


def _su2_pointwise(rng: random.Random) -> dict:
    re1, im1 = _coefficient(rng)
    return {"op": "pointwise", "entries": [
        {"twice_spin": 0, "i": 0, "j": 0, "re": C0, "im": 0.0},
        {"twice_spin": 1, "i": 0, "j": 0, "re": re1, "im": im1}]}


def _index_config(group: dict, operator: dict, cutoffs: list) -> dict:
    # cache_dir is relative: the worker runs in its work directory, so the
    # config (and with it every report's manifest hash) is the same in
    # every checkout
    return {"group": group, "operator": operator, "cutoffs": cutoffs,
            "gammas": GAMMAS, "cache_dir": "cache"}


def _sweep_checks(group: dict, band: int) -> list:
    # the quadrature rule and the Peter-Weyl basis the sweep assembles on,
    # at the sweep's largest band
    cfg = {"group": group, "band": band}
    return [("quadrature", cfg), ("schur", cfg)]


def build(name: str, seed: int) -> dict:
    """{"index": config, "oracle": int, "checks": [(which, config), ...]}."""
    rng = random.Random(f"{name}:{seed}")
    if name == "circle-winding":
        group = {"kind": "torus", "n": 1}
        return {"index": _index_config(group, {"op": "winding", "k": 2},
                                       [32, 64, 128]),
                "oracle": -2, "checks": _sweep_checks(group, 128)}
    if name == "torus2-pointwise":
        group = {"kind": "torus", "n": 2}
        return {"index": _index_config(group, _torus2_pointwise(rng), [4, 8, 10]),
                "oracle": 0, "checks": _sweep_checks(group, 10)}
    if name == "su2-pointwise":
        group = {"kind": "su2"}
        return {"index": _index_config(group, _su2_pointwise(rng), [4, 6, 8]),
                "oracle": 0, "checks": _sweep_checks(group, 8)}
    if name == "checks":
        su2 = {"kind": "su2"}
        torus2 = {"kind": "torus", "n": 2}
        # SU(2) check bands stay <= 16: schur at band 24 needs more than 8 GB
        return {
            # an invariant elliptic multiplier: its sweep assembles only
            # square block-diagonal matrices, so this workload bypasses the
            # rectangular assembly the sweep workloads stress; the cutoffs
            # make it long enough (about 0.7 s) to time steadily
            "index": _index_config(
                su2, {"op": "multiplier", "formula": "laplacian_plus_one"},
                [4, 6, 8]),
            "oracle": 0,
            "checks": [
                ("plancherel", {"group": su2, "band": 16}),
                ("schur", {"group": su2, "band": 16}),
                ("ellipticity", {"group": torus2, "band": 8,
                                 "operator": _torus2_pointwise(rng)}),
                ("trace", {"group": su2}),
                ("quadrature", {"group": {"kind": "su3"}, "quadrature_level": 6}),
            ]}
    raise KeyError(name)


def warmup(spec: dict) -> dict:
    """A small copy of a workload that reaches the same code paths.

    It runs the sweep at its first cutoff only and the checks at small
    bands, so that imports and first-call set-up are done before timing
    without paying for a full cycle.
    """
    index = dict(spec["index"], cutoffs=spec["index"]["cutoffs"][:1])
    checks = []
    for which, cfg in spec["checks"]:
        cfg = dict(cfg)
        if "band" in cfg:
            cfg["band"] = min(cfg["band"], 4)
        if "quadrature_level" in cfg:
            cfg["quadrature_level"] = 2
        checks.append((which, cfg))
    return {"index": index, "oracle": spec["oracle"], "checks": checks}


NAMES = ("circle-winding", "torus2-pointwise", "su2-pointwise", "checks")
