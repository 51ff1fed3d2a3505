"""Command-line harness: experiment orchestration, checks and the cache.

Commands::

    liegroup-index index --config cfg.json [--out DIR]
    liegroup-index check --config cfg.json --which plancherel|schur|ellipticity|trace|quadrature [--out DIR]
    liegroup-index cache --dir DIR --action list|purge|verify

Exit codes: 0 success (stable verdict / all checks pass), 1 error, 2
completed-but-unstable (or failed checks / corrupt cache entries).

Reports are written with a canonical JSON encoder (sorted keys, floats in
17-significant-digit lowercase scientific notation, non-finite values as
the strings "nan"/"inf"/"-inf"), so identical configs and tool version
produce byte-identical report files.  Every output references the
manifest hash, which is the content hash of the canonical config plus the
tool version.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .dual import enumerate_dual, labels_for_band
from .fourier import (FourierCoefficients, SampledFunction, fourier_forward,
                      fourier_inverse_on_rule, l2_norm, plancherel_norm)
from .galerkin import (OperatorCache, PeterWeylBasis, assemble, basis_for_band,
                       gram_blocks, read_cache_entry)
from .groups import (GroupSpec, haar_quadrature, haar_weights, min_level_for_band,
                     torus)
from .index_engine import stabilization_sweep, trace_via_symbol
from .operators import BuiltinOperator, ConfigError, parse_operator
from .symbols import ellipticity_check

SU3_LEVEL_CAP = 6  # level^8 weights: 13 MB at level 6, 46 MB at level 7


# ---------------------------------------------------------------------------
# canonical JSON


def _canonical(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            out.append('"nan"')
        elif math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        else:
            out.append(f"{x:.16e}")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)) + ":")
            _canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonically encode {type(obj)}")


def canonical_json(obj) -> str:
    out: list = []
    _canonical(obj, out)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# configuration


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}, "
                                    f"column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return cfg


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_quadrature_level(cfg: dict):
    """The optional quadrature level override of both commands, or None."""
    level = cfg.get("quadrature_level")
    if level is not None and (not _is_int(level) or level < 1):
        raise ConfigError("config.quadrature_level", "level must be a positive integer")
    return level


def parse_group(cfg: dict, path: str = "config.group") -> GroupSpec:
    node = cfg.get("group")
    if not isinstance(node, dict):
        raise ConfigError(path, "missing group object")
    kind = node.get("kind")
    if kind == "torus":
        n = node.get("n", 1)
        if not _is_int(n) or n < 1:
            raise ConfigError(path + ".n", "torus dimension must be a positive integer")
        return torus(n)
    if kind in ("su2", "su3"):
        return GroupSpec(kind)
    raise ConfigError(path + ".kind", f"unsupported group kind {kind!r}")


def validate_index_config(cfg: dict) -> dict:
    group = parse_group(cfg)
    op = parse_operator(cfg.get("operator"), group, "config.operator")
    cutoffs = cfg.get("cutoffs")
    if (not isinstance(cutoffs, list) or not cutoffs
            or not all(_is_int(c) and c > 0 for c in cutoffs)):
        raise ConfigError("config.cutoffs", "need a nonempty list of positive integers")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ConfigError("config.cutoffs", "cutoffs must be strictly increasing")
    gammas = cfg.get("gammas", [1.0])
    if (not isinstance(gammas, list) or not gammas
            or not all(isinstance(g, (int, float)) and not isinstance(g, bool)
                       and 0 < g <= sys.float_info.max for g in gammas)):
        raise ConfigError("config.gammas",
                          "need a nonempty list of finite positive numbers")
    rel_tol = cfg.get("rel_tol", 1e-10)
    if not isinstance(rel_tol, float) or not 0.0 < rel_tol < 1.0:
        raise ConfigError("config.rel_tol", "rel_tol must be a float in (0, 1)")
    if group.kind == "su3":
        raise ConfigError("config.group", "index sweeps need torus or SU(2) "
                                          "(SU(3) support is quadrature-only)")
    parse_quadrature_level(cfg)
    return {
        "group": group,
        "operator": op,
        "cutoffs": cutoffs,
        "gammas": [float(g) for g in gammas],
        "rel_tol": rel_tol,
        "reduce_order": bool(cfg.get("reduce_order", False)),
    }


def resolve_cache_dir(cfg: dict):
    env = os.environ.get("LIEGROUP_INDEX_CACHE")
    if env:
        return env
    return cfg.get("cache_dir")


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def build_manifest(cfg: dict, command: str, timings: dict, cache_stats: dict) -> dict:
    chash = config_hash(cfg)
    mhash = hashlib.sha256((chash + __version__).encode()).hexdigest()
    return {
        "manifest_hash": mhash,
        "config_hash": chash,
        "tool_version": __version__,
        "command": command,
        "timings": timings,
        "cache": cache_stats,
    }


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# index command


def cmd_index(config_path: str, out_dir: str | None) -> int:
    t0 = time.monotonic()
    cfg = load_config(config_path)
    parsed = validate_index_config(cfg)
    out = out_dir or cfg.get("out_dir") or "liegroup-index-out"
    cache_dir = resolve_cache_dir(cfg)
    cache = OperatorCache(cache_dir) if cache_dir else None
    t1 = time.monotonic()

    op: BuiltinOperator = parsed["operator"]
    report = stabilization_sweep(
        op.symbol, op.adjoint_symbol, parsed["cutoffs"], parsed["gammas"],
        rel_tol=parsed["rel_tol"], operator_desc=op.describe,
        reduce_order=parsed["reduce_order"], cache=cache)
    t2 = time.monotonic()

    timings = {"setup_s": t1 - t0, "sweep_s": t2 - t1}
    stats = {"hits": cache.hits if cache else 0,
             "misses": cache.misses if cache else 0}
    manifest = build_manifest(cfg, "index", timings, stats)
    body = report.to_dict()
    body["manifest_hash"] = manifest["manifest_hash"]
    _write(os.path.join(out, "report.json"), canonical_json(body))
    _write(os.path.join(out, "tables", "index_report.csv"),
           f"# manifest {manifest['manifest_hash']}\n" + report.to_csv())
    _write(os.path.join(out, "manifest.json"), canonical_json(manifest))
    print(f"verdict: {report.verdict}; "
          f"rows: {len(report.rows)}; errors: {len(report.errors)}; "
          f"report: {os.path.join(out, 'report.json')}")
    return 0 if report.verdict == "stable" else 2


# ---------------------------------------------------------------------------
# check command


def _check_rows_plancherel(cfg: dict, group: GroupSpec, band: int, level) -> list:
    rng = np.random.default_rng(2024)
    if group.kind == "su3":
        raise ConfigError("config.group", "plancherel check needs torus or SU(2)")
    level = level or min_level_for_band(group, band)
    rule = haar_quadrature(group, level)
    labels = labels_for_band(group, band)
    coefs = {xi: rng.standard_normal((xi.dim, xi.dim))
             + 1j * rng.standard_normal((xi.dim, xi.dim)) for xi in labels}
    values = fourier_inverse_on_rule(FourierCoefficients(coefs), rule)
    f = SampledFunction(rule, values)
    fhat = fourier_forward(f, labels)
    recon = fourier_inverse_on_rule(fhat, rule)
    rt = float(np.abs(recon - values).max() / max(np.abs(values).max(), 1.0))
    pl = abs(plancherel_norm(fhat) - l2_norm(f)) / max(l2_norm(f), 1.0)
    return [
        {"name": "round_trip_max_error", "error": rt, "tolerance": 1e-8},
        {"name": "plancherel_vs_quadrature", "error": pl, "tolerance": 1e-8},
    ]


def _check_rows_schur(cfg: dict, group: GroupSpec, band: int, level) -> list:
    if group.kind == "su3":
        raise ConfigError("config.group", "schur check needs torus or SU(2)")
    level = level or min_level_for_band(group, band)
    basis = basis_for_band(group, band)
    # G is 0 between modes and every diagonal entry lies in some block, so
    # the blocks' largest |G - I| is the dense one
    blocks = gram_blocks(basis, haar_quadrature(group, level))
    err = max(float(np.abs(g - np.eye(len(rows))).max()) for rows, g in blocks)
    return [{"name": f"schur_band_{band}_level_{level}", "error": err,
             "tolerance": 1e-8}]


def _check_rows_ellipticity(cfg: dict, group: GroupSpec, band: int, level) -> list:
    op = parse_operator(cfg.get("operator"), group, "config.operator")
    level = level or min_level_for_band(group, band)
    rule = haar_quadrature(group, level)
    labels = labels_for_band(group, band)
    rep = ellipticity_check(op.symbol, op.order, labels, rule)
    rows = [{"name": "elliptic", "error": 0.0 if rep.elliptic else 1.0,
             "tolerance": 0.5, "constant": rep.constant}]
    for site in rep.bad_sites[:20]:
        rows.append({"name": "non_invertible_site", "error": 1.0, "tolerance": 0.5,
                     "site": site})
    return rows


def _check_rows_trace(cfg: dict, group: GroupSpec, band: int, level) -> list:
    if group.kind == "su3":
        raise ConfigError("config.group", "trace check needs torus or SU(2)")
    from .symbols import lambda_multiplier
    s = group.manifold_dim + 2
    sigma = lambda_multiplier(group, -float(s))
    labels = enumerate_dual(group, 10.0)
    rule = haar_quadrature(group, level or 3)
    tv = trace_via_symbol(sigma, labels, rule)
    direct = sum(l.dim ** 2 * l.weight ** (-s) for l in labels)
    # the matrix is block diagonal: its trace is a sum over one-label blocks
    blocks = (PeterWeylBasis(group, (xi,)) for xi in labels)
    mat_trace = sum(np.trace(assemble(sigma, b, b).matrix) for b in blocks)
    return [
        {"name": "trace_vs_partial_sum", "error": abs(tv - direct), "tolerance": 1e-8},
        {"name": "trace_vs_matrix_trace", "error": abs(tv - mat_trace), "tolerance": 1e-8},
    ]


def _check_rows_quadrature(cfg: dict, group: GroupSpec, band: int, level) -> list:
    if group.kind == "su3":
        if level is not None and level > SU3_LEVEL_CAP:
            raise ConfigError("config.quadrature_level",
                              f"SU(3) quadrature levels stop at {SU3_LEVEL_CAP}")
        level = level or SU3_LEVEL_CAP
        tol = 1e-6
    else:
        level = level or min_level_for_band(group, max(band, 1))
        tol = 1e-10
    mass_err = abs(float(haar_weights(group, level).sum()) - 1.0)
    return [{"name": f"mass_level_{level}", "error": mass_err, "tolerance": tol}]


CHECKS = {
    "plancherel": _check_rows_plancherel,
    "schur": _check_rows_schur,
    "ellipticity": _check_rows_ellipticity,
    "trace": _check_rows_trace,
    "quadrature": _check_rows_quadrature,
}


def cmd_check(config_path: str, which: str, out_dir: str | None) -> int:
    t0 = time.monotonic()
    cfg = load_config(config_path)
    group = parse_group(cfg)
    if which not in CHECKS:
        raise ConfigError("--which", f"unknown check {which!r}; "
                                     f"known: {sorted(CHECKS)}")
    band = cfg.get("band", 4 if group.kind == "torus" else 6)
    if not _is_int(band) or band < 0:
        raise ConfigError("config.band", "band must be a nonnegative integer")
    level = parse_quadrature_level(cfg)
    rows = CHECKS[which](cfg, group, band, level)
    for row in rows:
        row["pass"] = bool(row["error"] <= row["tolerance"])
    ok = all(row["pass"] for row in rows)
    out = out_dir or cfg.get("out_dir") or "liegroup-index-out"
    timings = {"total_s": time.monotonic() - t0}
    manifest = build_manifest(cfg, f"check:{which}", timings,
                              {"hits": 0, "misses": 0})
    body = {"which": which, "rows": rows, "pass": ok,
            "manifest_hash": manifest["manifest_hash"]}
    _write(os.path.join(out, "report.json"), canonical_json(body))
    csv_lines = [f"# manifest {manifest['manifest_hash']}", "name,error,tolerance,pass"]
    for row in rows:
        csv_lines.append(f"{row['name']},{row['error']:.16e},"
                         f"{row['tolerance']:.16e},{row['pass']}")
    _write(os.path.join(out, "tables", f"check_{which}.csv"),
           "\n".join(csv_lines) + "\n")
    _write(os.path.join(out, "manifest.json"), canonical_json(manifest))
    for row in rows:
        status = "PASS" if row["pass"] else "FAIL"
        print(f"{status} {row['name']}: error {row['error']:.3e} "
              f"(tolerance {row['tolerance']:.3e})")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# cache command


def cmd_cache(directory: str, action: str) -> int:
    if not os.path.isdir(directory):
        print(f"error: cache directory {directory!r} does not exist", file=sys.stderr)
        return 1
    entries = sorted(glob.glob(os.path.join(directory, "*.lgidx")))
    if action == "list":
        print(f"{'key':16s}  {'shape':>12s}  {'level':>5s}  bytes")
        for path in entries:
            try:
                header, _ = read_cache_entry(path, verify_payload=False)
                shape = "x".join(str(v) for v in header["shape"])
                level = header.get("level")
                print(f"{os.path.basename(path)[:16]:16s}  {shape:>12s}  "
                      f"{str(level):>5s}  {os.path.getsize(path)}")
            except ValueError as exc:
                print(f"{os.path.basename(path)[:16]:16s}  UNREADABLE: {exc}")
        print(f"{len(entries)} entries")
        return 0
    if action == "purge":
        for path in entries:
            os.unlink(path)
        print(f"purged {len(entries)} entries")
        return 0
    if action == "verify":
        corrupt = []
        for path in entries:
            try:
                read_cache_entry(path, verify_payload=True)
            except ValueError as exc:
                corrupt.append((path, str(exc)))
        for path, msg in corrupt:
            print(f"CORRUPT {os.path.basename(path)}: {msg}")
        print(f"verified {len(entries)} entries, {len(corrupt)} corrupt")
        return 2 if corrupt else 0
    print(f"error: unknown cache action {action!r}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liegroup-index",
        description="Fredholm index computations for global symbols on "
                    "T^n, SU(2) and SU(3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="run the three-route index sweep")
    p_index.add_argument("--config", required=True)
    p_index.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="run a named invariant suite")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--which", required=True,
                         choices=sorted(CHECKS))
    p_check.add_argument("--out", default=None)

    p_cache = sub.add_parser("cache", help="inspect the operator cache")
    p_cache.add_argument("--dir", required=True)
    p_cache.add_argument("--action", required=True,
                         choices=["list", "purge", "verify"])

    args = parser.parse_args(argv)
    try:
        if args.command == "index":
            return cmd_index(args.config, args.out)
        if args.command == "check":
            return cmd_check(args.config, args.which, args.out)
        return cmd_cache(args.dir, args.action)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface unexpected failures with exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
