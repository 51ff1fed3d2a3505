"""Peter-Weyl bases and rectangular Galerkin assembly.

Basis functions are b = sqrt(d_xi) * xi_ij, ordered by (weight, label, i, j);
they are orthonormal under Haar quadrature at the documented level.  An
operator is assembled label by label: the images of the d_xi^2 domain basis
elements of a label are the entries of sqrt(d_xi) xi(x) sigma(x, xi), which
one batched product evaluates on the grid and one matrix product projects
onto the codomain basis by quadrature.

Square truncations of an index-k operator always have index 0, so index
computations use rectangular truncations: the codomain of a sweep cell is
the domain band extended by the labels actually hit by the operator, minus
"artifact" labels that are reachable only from modes outside the domain
truncation (see ``index_codomain_labels``).  For the circle winding family
this makes the finite-rank index exactly -k at every cutoff.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .dual import IrrepLabel, labels_for_band, rep_matrices_on_rule
from .groups import (GroupMismatchError, GroupSpec, QuadratureRule,
                     haar_quadrature, min_level_for_band)
from .symbols import MatrixSymbol

HIT_ROW_TOL = 1e-9
# part of every cache key; bump when the stored matrix for a key may change
CACHE_FORMAT = 2


class AliasingError(ValueError):
    """The codomain band cannot hold the operator's image without aliasing."""

    def __init__(self, message: str, required_band: Optional[int] = None):
        super().__init__(message)
        self.required_band = required_band


@dataclass(eq=False)
class PeterWeylBasis:
    """Ordered orthonormal family sqrt(d_xi) xi_ij for an explicit label set."""

    group: GroupSpec
    labels: tuple

    def __post_init__(self):
        labels = tuple(sorted(self.labels, key=IrrepLabel.sort_key))
        object.__setattr__(self, "labels", labels)
        entries = []
        for xi in labels:
            for i in range(xi.dim):
                for j in range(xi.dim):
                    entries.append((xi, i, j))
        self.entries = tuple(entries)
        self.offsets = {}
        pos = 0
        for xi in labels:
            self.offsets[xi] = pos
            pos += xi.dim * xi.dim

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def band(self) -> int:
        return max((xi.band for xi in self.labels), default=0)

    def index_of(self, xi: IrrepLabel, i: int, j: int) -> int:
        return self.offsets[xi] + i * xi.dim + j

    def __eq__(self, other):
        return (isinstance(other, PeterWeylBasis)
                and self.group == other.group and self.labels == other.labels)

    def __hash__(self):
        return hash((self.group, self.labels))

    def describe(self) -> dict:
        return {"group": {"kind": self.group.kind, "n": self.group.n},
                "labels": [list(xi.label) for xi in self.labels]}

    def values_on_rule(self, rule: QuadratureRule) -> np.ndarray:
        """All basis functions sampled on the rule, shape (size, n_nodes)."""
        rows = np.empty((self.size, rule.n_nodes), dtype=complex)
        for xi in self.labels:
            reps = rep_matrices_on_rule(xi, rule)
            base = self.offsets[xi]
            scale = math.sqrt(xi.dim)
            for i in range(xi.dim):
                for j in range(xi.dim):
                    rows[base + i * xi.dim + j] = scale * reps[:, i, j]
        return rows

    def positions(self, labels) -> np.ndarray:
        """Positions of the entries whose label is in ``labels``, in order."""
        keep = set(labels)
        return np.array([pos for pos, (xi, _, _) in enumerate(self.entries)
                         if xi in keep], dtype=int)


def basis_for_band(group: GroupSpec, band: int) -> PeterWeylBasis:
    return PeterWeylBasis(group, tuple(labels_for_band(group, band)))


@dataclass(eq=False)
class GalerkinOperator:
    """Rectangular matrix between two Peter-Weyl bases."""

    domain: PeterWeylBasis
    codomain: PeterWeylBasis
    matrix: np.ndarray
    meta: dict

    def __post_init__(self):
        expected = (self.codomain.size, self.domain.size)
        if self.matrix.shape != expected:
            raise ValueError(f"matrix shape {self.matrix.shape} != {expected}")

    @property
    def shape(self):
        return self.matrix.shape


def assembly_level(group: GroupSpec, dom_band: int, cod_band: int,
                   x_bandwidth: int) -> int:
    """Quadrature level resolving <A b_dom, b_cod> without aliasing."""
    if group.kind == "torus":
        return dom_band + x_bandwidth + cod_band + 1
    if group.kind == "su2":
        total = dom_band + x_bandwidth + cod_band
        return max(-(-total // 2), 1)
    return 1


def assemble(sigma: MatrixSymbol, dom: PeterWeylBasis, cod: PeterWeylBasis,
             grid: Optional[QuadratureRule] = None,
             check_aliasing: bool = True) -> GalerkinOperator:
    """Galerkin matrix of the quantized symbol between two bases.

    Invariant symbols are assembled exactly block by block; otherwise the
    columns of each domain label are evaluated together on the grid and
    projected by quadrature.  The grid defaults to the automatically chosen
    resolving level.  When a column's image leaks out of the codomain band
    (its quadrature energy exceeds its captured energy by more than 1e-12 +
    1e-8 of the energy), an AliasingError names the first such column and
    the required band.
    """
    group = sigma.group
    if dom.group != group or cod.group != group:
        raise GroupMismatchError("bases and symbol must share the group")

    w = int(math.ceil(sigma.x_bandwidth))
    if sigma.is_invariant and w == 0:
        mat = np.zeros((cod.size, dom.size), dtype=complex)
        for xi in dom.labels:
            if xi not in cod.offsets:
                if check_aliasing:
                    raise AliasingError(
                        f"codomain misses domain label {xi}", dom.band)
                continue
            block = sigma.evaluate_at_any(xi)
            rb = cod.offsets[xi]
            cb = dom.offsets[xi]
            d = xi.dim
            # <A b_{xi,i,j}, b_{xi,k,l}> = delta_{ik} sigma(xi)[l, j]
            for i in range(d):
                mat[rb + i * d:rb + (i + 1) * d, cb + i * d:cb + (i + 1) * d] = block
        meta = {"level": None, "invariant_fast_path": True,
                "symbol": sigma.describe}
        return GalerkinOperator(dom, cod, mat, meta)

    level = assembly_level(group, dom.band, cod.band, w)
    if grid is None:
        grid = haar_quadrature(group, level)
    elif grid.level < level:
        raise AliasingError(
            f"grid level {grid.level} does not resolve the assembly; "
            f"need level >= {level}", cod.band)

    cod_rows = cod.values_on_rule(grid)          # (cod.size, n_nodes)
    proj = cod_rows.conj() * grid.weights        # row r: integral against b_r
    mat = np.empty((cod.size, dom.size), dtype=complex)
    for xi in dom.labels:
        d = xi.dim
        # column (xi, i, j) is the image of sqrt(d) xi_ij, i.e. the entry
        # sqrt(d) (xi(x) sigma(x, xi))[i, j] of the quantization sum
        vals = math.sqrt(d) * (rep_matrices_on_rule(xi, grid)
                               @ sigma.evaluate_on_rule(grid, xi))
        vals = vals.reshape(grid.n_nodes, d * d)
        cols = proj @ vals
        off = dom.offsets[xi]
        mat[:, off:off + d * d] = cols
        if check_aliasing:
            _check_leak(grid.weights @ np.abs(vals) ** 2,
                        np.sum(np.abs(cols) ** 2, axis=0),
                        np.arange(off, off + d * d), dom.band + w)
    meta = {"level": grid.level, "invariant_fast_path": False,
            "symbol": sigma.describe}
    return GalerkinOperator(dom, cod, mat, meta)


def _check_leak(total: np.ndarray, captured: np.ndarray, positions,
                required_band: int):
    """AliasingError naming the first column whose energy leaks out."""
    leak = total - captured
    bad = np.flatnonzero(leak > 1e-12 + 1e-8 * total)
    if bad.size:
        k = bad[0]
        raise AliasingError(
            f"column {positions[k]} leaks outside the codomain band "
            f"(leak {leak[k]:.3e}); need codomain band >= {required_band}",
            required_band)


def adjoint(g: GalerkinOperator) -> GalerkinOperator:
    """Conjugate transpose with domain and codomain swapped."""
    return GalerkinOperator(g.codomain, g.domain, g.matrix.conj().T,
                            {"adjoint_of": g.meta})


def compose(g1: GalerkinOperator, g2: GalerkinOperator) -> GalerkinOperator:
    """Matrix product g1 @ g2 (apply g2 first)."""
    if g2.codomain != g1.domain:
        raise GroupMismatchError(
            "composition needs g2.codomain == g1.domain")
    return GalerkinOperator(g2.domain, g1.codomain, g1.matrix @ g2.matrix,
                            {"compose": [g1.meta, g2.meta]})


def gram_matrix(basis: PeterWeylBasis, grid: Optional[QuadratureRule] = None) -> np.ndarray:
    if grid is None:
        grid = haar_quadrature(basis.group,
                               min_level_for_band(basis.group, basis.band))
    rows = basis.values_on_rule(grid)
    return (rows * grid.weights) @ rows.conj().T


# ---------------------------------------------------------------------------
# codomain selection for index computations


class OperatorCache:
    """Directory-backed store of assembled operators, keyed by lookup header."""

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def fetch(self, key: str):
        path = os.path.join(self.directory, f"{key}.lgidx")
        if not os.path.isfile(path):
            self.misses += 1
            return None
        try:
            _, matrix = read_cache_entry(path)
        except (ValueError, OSError):
            self.misses += 1
            return None
        self.hits += 1
        return matrix

    def store(self, g: GalerkinOperator) -> str:
        return save_operator(g, self.directory)


def assemble_cached(sigma: MatrixSymbol, dom: PeterWeylBasis,
                    cod: PeterWeylBasis,
                    cache: Optional[OperatorCache] = None) -> GalerkinOperator:
    """assemble() on its own grid with an optional read-through cache."""
    if cache is not None:
        w = int(math.ceil(sigma.x_bandwidth))
        if sigma.is_invariant and w == 0:
            level = None
        else:
            level = assembly_level(sigma.group, dom.band, cod.band, w)
        key = cache_key_for(sigma.describe, dom, cod, level)
        matrix = cache.fetch(key)
        if matrix is not None and matrix.shape == (cod.size, dom.size):
            return GalerkinOperator(dom, cod, matrix,
                                    {"level": level, "symbol": sigma.describe,
                                     "cached": True})
    g = assemble(sigma, dom, cod)
    if cache is not None:
        cache.store(g)
    return g


def _wide_operator(sigma: MatrixSymbol, dom: PeterWeylBasis, w: int,
                   cache: Optional[OperatorCache]) -> GalerkinOperator:
    """The operator from band dom.band + w to band dom.band + 2w."""
    group = sigma.group
    return assemble_cached(sigma, basis_for_band(group, dom.band + w),
                           basis_for_band(group, dom.band + 2 * w), cache=cache)


def index_codomain_labels(sigma: MatrixSymbol, dom: PeterWeylBasis,
                          tol: float = HIT_ROW_TOL,
                          cache: Optional[OperatorCache] = None,
                          wide: Optional[GalerkinOperator] = None) -> list:
    """Codomain label set preserving the operator's finite-rank index.

    Labels hit by the domain are kept, together with the domain labels
    themselves; labels that are reachable only from modes *outside* the
    domain band (truncation artifacts, detected by extending the domain by
    the symbol's x-bandwidth w) are dropped.  For x-independent symbols the
    codomain equals the domain.  ``wide`` is the operator from band
    dom.band + w to dom.band + 2w; it is assembled through ``cache`` when
    not given.
    """
    w = int(math.ceil(sigma.x_bandwidth))
    if w == 0:
        return list(dom.labels)
    if wide is None:
        wide = _wide_operator(sigma, dom, w, cache)
    cod_wide = wide.codomain
    scale = float(np.abs(wide.matrix).max()) or 1.0

    def hit_labels(col_positions):
        hits = set()
        sub = np.abs(wide.matrix[:, col_positions])
        row_max = sub.max(axis=1)
        for xi in cod_wide.labels:
            base = cod_wide.offsets[xi]
            if row_max[base:base + xi.dim ** 2].max() > tol * scale:
                hits.add(xi)
        return hits

    hit = hit_labels(wide.domain.positions(dom.labels))
    hit_plus = hit_labels(np.arange(wide.domain.size))
    artifacts = hit_plus - hit
    keep = (set(dom.labels) | hit) - artifacts
    return sorted(keep, key=IrrepLabel.sort_key)


def index_truncation(sigma: MatrixSymbol, band: int,
                     cache: Optional[OperatorCache] = None) -> GalerkinOperator:
    """Rectangular truncation of the operator used by the index sweeps.

    For x-dependent symbols the matrix is a row/column slice of the wide
    operator that codomain selection assembles, so a cutoff costs one
    assembly and one cache entry.  The slice records the quadrature level
    that assembling it on its own would use, and its codomain is checked
    for aliasing against the energies of the wide matrix's columns.
    """
    group = sigma.group
    dom = basis_for_band(group, band)
    w = int(math.ceil(sigma.x_bandwidth))
    if w == 0:
        return assemble_cached(sigma, dom, dom, cache=cache)
    wide = _wide_operator(sigma, dom, w, cache)
    cod = PeterWeylBasis(group, tuple(
        index_codomain_labels(sigma, dom, cache=cache, wide=wide)))
    columns = wide.matrix[:, wide.domain.positions(dom.labels)]
    mat = columns[wide.codomain.positions(cod.labels)]
    _check_leak(np.sum(np.abs(columns) ** 2, axis=0),
                np.sum(np.abs(mat) ** 2, axis=0), range(dom.size), band + w)
    meta = {"level": assembly_level(group, dom.band, cod.band, w),
            "invariant_fast_path": False, "symbol": sigma.describe}
    return GalerkinOperator(dom, cod, mat, meta)


# ---------------------------------------------------------------------------
# cache file format

_MAGIC = b"LGIX"


def _lookup_header(domain_desc: dict, codomain_desc: dict, level,
                   symbol_desc) -> dict:
    return {"domain": domain_desc, "codomain": codomain_desc,
            "level": level, "symbol": symbol_desc,
            "version": __version__, "format": CACHE_FORMAT}


def cache_key_for(sigma_desc, dom: PeterWeylBasis, cod: PeterWeylBasis,
                  level: Optional[int]) -> str:
    """Content hash of the lookup header; computable before assembly.

    The header covers the bases, the quadrature level, the symbol's
    description (which carries a digest of any tabulated values), the tool
    version and ``CACHE_FORMAT``.
    """
    header = _lookup_header(dom.describe(), cod.describe(), level, sigma_desc)
    return hashlib.sha256(json.dumps(header, sort_keys=True).encode()).hexdigest()


def operator_cache_blob(g: GalerkinOperator) -> tuple:
    """(header_json_bytes, payload_bytes, key) for a Galerkin operator.

    The stored header holds the lookup fields (group/basis descriptors,
    quadrature level, symbol description, tool version, cache format), the
    matrix shape and the payload hash; the cache key is the content hash of
    the lookup fields alone.
    Payload: little-endian float64 pairs (re, im) in column-major order.
    """
    flat = np.asfortranarray(g.matrix).ravel(order="F")
    interleaved = np.empty(flat.size * 2)
    interleaved[0::2] = np.real(flat)
    interleaved[1::2] = np.imag(flat)
    payload = interleaved.astype("<f8").tobytes()
    level, symbol = g.meta.get("level"), g.meta.get("symbol")
    key = cache_key_for(symbol, g.domain, g.codomain, level)
    header = _lookup_header(g.domain.describe(), g.codomain.describe(),
                            level, symbol)
    header["shape"] = list(g.matrix.shape)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return header_bytes, payload, key


def save_operator(g: GalerkinOperator, directory: str) -> str:
    """Persist under <key>.lgidx with an atomic write; returns the path."""
    header_bytes, payload, key = operator_cache_blob(g)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{key}.lgidx")
    blob = _MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + payload
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def read_cache_entry(path: str, verify_payload: bool = True) -> tuple:
    """(header dict, matrix or None) from a cache file.

    Raises ValueError on a corrupt entry: bad magic, a file too short for
    its header, an undecodable header or one missing the shape or payload
    hash, a truncated payload or a payload hash mismatch.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic")
    if len(blob) < 8:
        raise ValueError(f"{path}: truncated header length")
    (hlen,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(blob[8:8 + hlen])
        rows, cols = (int(v) for v in header["shape"])
        expected = header["payload_sha256"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: unreadable header ({exc!r})") from exc
    payload = blob[8 + hlen:]
    if verify_payload and hashlib.sha256(payload).hexdigest() != expected:
        raise ValueError(f"{path}: payload hash mismatch")
    if len(payload) != rows * cols * 16:
        raise ValueError(f"{path}: truncated payload")
    interleaved = np.frombuffer(payload, dtype="<f8")
    flat = interleaved[0::2] + 1j * interleaved[1::2]
    matrix = flat.reshape((rows, cols), order="F")
    return header, matrix
