"""Peter-Weyl bases and rectangular Galerkin assembly.

Basis functions are b = sqrt(d_xi) * xi_ij, ordered by (weight, label, i, j);
they are orthonormal under Haar quadrature at the documented level.
``gram_blocks`` forms their Gram matrix from the plane factors alone
(``dual.rep_factors``): the axis characters are exact roots of unity, so it
is one block per axis mode, never a dense matrix.  An operator is
assembled the same way: the images sqrt(d_xi) xi(x) sigma(x, xi) of each
label's domain entries are evaluated on the grid, one FFT along the axis
splits them into modes, and one matrix product per codomain mode projects
them onto the codomain.  For a pointwise symbol c(x) I the images need no
grid: by the convolution theorem along the axis, an image's modes are its
plane factor times the DFT of c shifted by the entry's mode, so one FFT of
c serves every label.

Square truncations of an index-k operator always have index 0, so index
computations use rectangular truncations: the codomain of a sweep cell is
the domain band extended by the labels actually hit by the operator, minus
"artifact" labels that are reachable only from modes outside the domain
truncation (see ``index_codomain_labels``).  For the circle winding family
this makes the finite-rank index exactly -k at every cutoff.  A sweep
assembles one operator, from band N + w to band N + 2w for its largest
cutoff N and the symbol's x-bandwidth w (``sweep_operator``); the bases
nest, so every cutoff's truncation is a row/column slice of it
(``index_truncation``, which never assembles).  Its hits and its leak check
read per-label tables that reduce that matrix once per sweep
(``GalerkinOperator.label_tables``).  ``assembly_level`` alone
decides that a matrix is block diagonal and needs no quadrature rule: it
returns None for a symbol of x-bandwidth 0 (``is_invariant``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import __version__
from .dual import (IrrepLabel, axis_charges, haar_axis_length, labels_for_band,
                   lie_basis, rep_factors, rep_matrices_on_rule)
from .groups import (GroupMismatchError, GroupSpec, QuadratureRule, flow_rule,
                     haar_quadrature, identity, min_level_for_degree,
                     point_rule)
from .symbols import MatrixSymbol

HIT_ROW_TOL = 1e-9
# part of every cache key; bump when the stored matrix for a key may change
CACHE_FORMAT = 8


class AliasingError(ValueError):
    """The codomain band cannot hold the operator's image without aliasing."""

    def __init__(self, message: str, required_band: Optional[int] = None):
        super().__init__(message)
        self.required_band = required_band


@dataclass
class PeterWeylBasis:
    """Ordered orthonormal family sqrt(d_xi) xi_ij for an explicit label set.

    ``charges`` holds each entry's integer axis charge (``dual.axis_charges``).
    """

    group: GroupSpec
    labels: tuple

    def __post_init__(self):
        labels = tuple(sorted(self.labels, key=IrrepLabel.sort_key))
        object.__setattr__(self, "labels", labels)
        self.sizes = [xi.dim ** 2 for xi in labels]
        self.size = sum(self.sizes)
        self.offsets = dict(zip(labels, np.cumsum([0] + self.sizes[:-1]).tolist()))
        self.band = max((xi.band for xi in labels), default=0)
        self.charges = np.concatenate([np.zeros(0, dtype=int)]
                                      + [axis_charges(xi).ravel() for xi in labels])

    def describe(self) -> dict:
        return {"group": {"kind": self.group.kind, "n": self.group.n},
                "labels": [list(xi.label) for xi in self.labels]}

    def values_on_rule(self, rule: QuadratureRule) -> np.ndarray:
        """All basis functions sampled on the rule, shape (size, n_nodes)."""
        rows = np.empty((self.size, rule.n_nodes), dtype=complex)
        for xi in self.labels:
            d, pos = xi.dim, self.offsets[xi]
            np.multiply(math.sqrt(d), np.moveaxis(rep_matrices_on_rule(xi, rule), 0, -1),
                        out=rows[pos:pos + d * d].reshape(d, d, rule.n_nodes))
        return rows

    def positions(self, labels) -> np.ndarray:
        """Positions of the entries whose label is in ``labels``, in order."""
        keep = set(labels)
        return np.flatnonzero(np.repeat([xi in keep for xi in self.labels],
                                        self.sizes))


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

    @cached_property
    def label_tables(self) -> tuple:
        """(peak, energy), reduced from one |matrix| on first use: the largest
        |entry| of each (codomain label, domain label) block, and each
        codomain label's energy sum |entry|^2 in each column.  The tables
        are kept on this object, so its matrix must not change afterwards
        (``sweep_operator``'s is read-only)."""
        mag, rows = np.abs(self.matrix), list(self.codomain.offsets.values())
        peak = np.maximum.reduceat(np.maximum.reduceat(mag, rows, axis=0),
                                   list(self.domain.offsets.values()), axis=1)
        return peak, np.add.reduceat(np.square(mag, out=mag), rows, axis=0)


def assembly_level(sigma: MatrixSymbol, dom_band: int,
                   cod_band: int) -> Optional[int]:
    """Quadrature level resolving <A b_dom, b_cod> without aliasing
    (``min_level_for_degree``), or None for a symbol of x-bandwidth 0, whose
    matrix is block diagonal and needs no rule.

    This is where assembly, the cache key and the truncation's aliasing check
    decide between the block-diagonal and the quadrature path.
    """
    if sigma.is_invariant:
        return None
    return min_level_for_degree(sigma.group, dom_band + sigma.x_bandwidth + cod_band)


def assemble(sigma: MatrixSymbol, dom: PeterWeylBasis,
             cod: PeterWeylBasis) -> GalerkinOperator:
    """Galerkin matrix of the quantized symbol between two bases.

    When ``assembly_level`` is None (a symbol of x-bandwidth 0) the matrix
    is assembled exactly block by block from sigma on the one-node rule at
    the identity, and a domain label the codomain lacks, or a sigma that
    differs at a generic point, raises AliasingError; otherwise the columns
    of each domain label are evaluated together on the grid, the Haar rule
    at ``assembly_level`` (the level the cache key records), and projected
    by quadrature: one FFT of a label's images along the rule's uniform
    axis, then one plane-weighted product per codomain mode for all columns,
    shared by aliased charges.  A pointwise symbol c(x) I samples no label
    on the grid: at mode m, a column of mode q is its plane factor times
    c-hat at m - q mod n_s, from one FFT of c along the axis; c has axis
    charges within its x-bandwidth w, so only the columns whose mode is
    within w of m (mod n_s) are multiplied and the other entries are 0.
    When a column's image leaks out of the codomain band (its quadrature energy
    over every node exceeds its captured energy by more than 1e-12 + 1e-8
    of the energy), an AliasingError names the first such column and the
    required band.  A pointwise c with a charge beyond its declared w leaks
    the same way, since its energy counts all of c.
    """
    group = sigma.group
    if dom.group != group or cod.group != group:
        raise GroupMismatchError("bases and symbol must share the group")

    w, level = sigma.x_bandwidth, assembly_level(sigma, dom.band, cod.band)
    if level is None:
        mat = np.zeros((cod.size, dom.size), dtype=complex)
        # x-bandwidth 0 is tested: sigma at the identity against a generic point
        origin = point_rule(identity(group))
        probe = flow_rule(origin, sum(
            math.sqrt(k + 2) * y for k, y in enumerate(lie_basis(group))), 0.3)
        for xi in dom.labels:
            if xi not in cod.offsets:
                raise AliasingError(f"codomain misses domain label {xi}", dom.band)
            block = sigma.evaluate_on_rule(origin, xi)[0]
            moved = sigma.evaluate_on_rule(probe, xi)[0]
            if np.abs(moved - block).max() > 1e-12 * max(1.0, np.abs(block).max()):
                raise AliasingError(f"symbol of x-bandwidth 0 varies in x at label {xi}")
            rb, cb, d = cod.offsets[xi], dom.offsets[xi], xi.dim
            # <A b_{xi,i,j}, b_{xi,k,l}> = delta_{ik} sigma(xi)[l, j]
            for i in range(d):
                mat[rb + i * d:rb + (i + 1) * d, cb + i * d:cb + (i + 1) * d] = block
        return GalerkinOperator(dom, cod, mat, {"level": None})

    grid = haar_quadrature(group, level)
    # codomain row r at node a * n_s + c is rows[r, a] times the axis
    # character of mode modes[r], so its quadrature against the images is a
    # plane sum over their DFT along the axis, taken at that mode
    rows, modes, w_plane = _plane_rows(cod, grid)
    proj = rows.conj() * w_plane
    n_plane, n_s = len(w_plane), grid.axis_length
    if sigma.is_pointwise:
        # a column of mode q is plane[col, a] times chi_q at node (a, c), so
        # its image's DFT along the axis at mode m is plane[col, a] times
        # c-hat[a, m - q]: the convolution theorem for c and one character;
        # c-hat is zero, up to rounding, beyond the axis modes |k| <= w
        coef = sigma.coefficient_on_rule(grid).reshape(n_plane, n_s)
        chat = np.fft.fft(coef, axis=1)
        plane, dmodes, _ = _plane_rows(dom, grid)
        mat = np.zeros((cod.size, dom.size), dtype=complex)
        for m in np.unique(modes):
            rows_m = np.flatnonzero(modes == m)
            shift = (m - dmodes) % n_s
            cols = np.flatnonzero(np.minimum(shift, n_s - shift) <= w)
            mat[np.ix_(rows_m, cols)] = proj[rows_m] @ (plane[cols].T
                                                        * chat[:, shift[cols]])
        # every character has modulus 1
        total = np.abs(plane) ** 2 @ (w_plane * np.sum(np.abs(coef) ** 2, axis=1))
    else:
        mat = np.empty((cod.size, dom.size), dtype=complex)
        spec = np.empty((n_plane, n_s, dom.size), dtype=complex)
        total = np.empty(dom.size)
        for xi in dom.labels:
            d, cols = xi.dim, slice(dom.offsets[xi], dom.offsets[xi] + xi.dim ** 2)
            # column (xi, i, j) is the image of sqrt(d) xi_ij, i.e. the entry
            # sqrt(d) (xi(x) sigma(x, xi))[i, j] of the quantization sum
            vals = math.sqrt(d) * (rep_matrices_on_rule(xi, grid)
                                   @ sigma.evaluate_on_rule(grid, xi))
            vals = vals.reshape(grid.n_nodes, d * d)
            total[cols] = grid.weights @ np.abs(vals) ** 2
            spec[:, :, cols] = np.fft.fft(vals.reshape(n_plane, n_s, d * d), axis=1)
        for m in np.unique(modes):
            rows_m = np.flatnonzero(modes == m)
            mat[rows_m] = proj[rows_m] @ spec[:, m, :]
    parts = mat.view(np.float64)   # (re, im) pairs: column energies in place
    _check_leak(total, np.einsum("ij,ij->j", parts, parts).reshape(-1, 2).sum(axis=1),
                dom.band + w)
    return GalerkinOperator(dom, cod, mat, {"level": grid.level})


def _check_leak(total: np.ndarray, captured: np.ndarray, required_band: int):
    """AliasingError naming the first column whose energy leaks out."""
    leak = total - captured
    bad = np.flatnonzero(leak > 1e-12 + 1e-8 * total)
    if bad.size:
        k = bad[0]
        raise AliasingError(
            f"column {k} leaks outside the codomain band "
            f"(leak {leak[k]:.3e}); need codomain band >= {required_band}",
            required_band)


def compose(g1: GalerkinOperator, g2: GalerkinOperator) -> GalerkinOperator:
    """Matrix product g1 @ g2 (apply g2 first)."""
    if g2.codomain != g1.domain:
        raise GroupMismatchError(
            "composition needs g2.codomain == g1.domain")
    return GalerkinOperator(g2.domain, g1.codomain, g1.matrix @ g2.matrix,
                            {"compose": [g1.meta, g2.meta]})


def gram_blocks(basis: PeterWeylBasis, grid: QuadratureRule) -> list:
    """[(rows, Gram block)], one pair per axis mode.

    On a Haar product rule each basis entry is a plane factor times one
    axis character (``dual.rep_factors``).  The characters are exact roots
    of unity, so the axis sum of two of them is n_s on one mode, charge mod
    n_s, and 0 between modes: the Gram matrix is one block
    n_s (plane[rows] w) @ plane[rows]^H per mode, shared by aliased charges
    (Kostelec & Rockmore), and 0 elsewhere.  ``grid`` is the caller's rule;
    one without a uniform axis, or whose weights vary along it, raises
    ValueError.
    """
    plane, modes, w = _plane_rows(basis, grid)
    w = grid.axis_length * w
    blocks = []
    for m in np.unique(modes):
        rows = np.flatnonzero(modes == m)
        blocks.append((rows, (plane[rows] * w) @ plane[rows].conj().T))
    return blocks


def _plane_rows(basis: PeterWeylBasis, grid: QuadratureRule) -> tuple:
    """(rows, modes, plane weights) of a basis on a Haar product rule.

    Entry r of the basis at node a * n_s + c is rows[r, a] times the axis
    character of mode modes[r] = basis.charges[r] mod n_s at c
    (``dual.rep_factors``, scaled by sqrt(d)); the rule's weight at that
    node is the plane weight of a.  A rule without a uniform axis, or whose
    weights vary along it, raises ValueError.
    """
    n_s = haar_axis_length(grid)
    w = grid.weights.reshape(-1, n_s)
    if np.any(w != w[:, :1]):
        raise ValueError("rule weights vary along its uniform axis")
    w = w[:, 0]
    rows = np.empty((basis.size, len(w)), dtype=complex)
    for xi in basis.labels:
        d, pos = xi.dim, slice(basis.offsets[xi], basis.offsets[xi] + xi.dim ** 2)
        plane, _ = rep_factors(xi, grid)
        rows[pos] = math.sqrt(d) * np.moveaxis(plane, 0, -1).reshape(d * d, len(w))
    return rows, basis.charges % n_s, w


# ---------------------------------------------------------------------------
# cached assembly: the operator cache and the one assembly of a sweep


class OperatorCache:
    """Directory-backed store of assembled operators, keyed by lookup header.

    The directory is made when the cache opens, so an unwritable one fails
    before anything is assembled."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def fetch(self, key: str, shape: tuple):
        """The stored matrix of ``key``, or None, counted as a miss, when the
        entry is absent (an OSError), corrupt or not of ``shape``."""
        try:
            _, matrix = read_cache_entry(os.path.join(self.directory, f"{key}.lgidx"))
        except (ValueError, OSError):
            self.misses += 1
            return None
        if matrix.shape != tuple(shape):
            self.misses += 1
            return None
        self.hits += 1
        return matrix

    def store(self, key: str, header: dict, matrix: np.ndarray) -> str:
        """Write ``matrix`` as <key>.lgidx atomically; returns the path.  The
        header is the lookup ``header`` plus shape and payload hash; the payload
        is the matrix's own row-major memory, little-endian float64 (re, im)
        pairs hashed and written as one buffer (no copy of a C-ordered matrix)."""
        payload = np.ascontiguousarray(matrix, dtype="<c16")
        text = json.dumps(dict(header, shape=list(payload.shape),
                               payload_sha256=hashlib.sha256(payload).hexdigest()),
                          sort_keys=True).encode()
        path = os.path.join(self.directory, f"{key}.lgidx")
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC + struct.pack("<I", len(text)) + text)
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path


def assemble_cached(sigma: MatrixSymbol, dom: PeterWeylBasis,
                    cod: PeterWeylBasis,
                    cache: Optional[OperatorCache] = None) -> GalerkinOperator:
    """assemble() on its own grid with an optional read-through cache."""
    if cache is None:
        return assemble(sigma, dom, cod)
    level = assembly_level(sigma, dom.band, cod.band)
    key, header = lookup_key(sigma.describe, dom, cod, level)
    matrix = cache.fetch(key, (cod.size, dom.size))
    if matrix is not None:
        return GalerkinOperator(dom, cod, matrix, {"level": level, "cached": True})
    g = assemble(sigma, dom, cod)
    cache.store(key, header, g.matrix)
    return g


def sweep_operator(sigma: MatrixSymbol, band: int,
                   cache: Optional[OperatorCache] = None) -> GalerkinOperator:
    """The operator from band + w to band + 2w (w the symbol's x-bandwidth).

    Every cutoff up to ``band`` is a slice of it (``index_truncation``),
    since the bases nest; for w = 0 it is the square band-``band`` matrix.
    This is the only assembly of an index sweep, made through ``cache``.
    Its matrix, fetched or assembled, is read-only (``label_tables``).
    """
    group, w = sigma.group, sigma.x_bandwidth
    g = assemble_cached(sigma, basis_for_band(group, band + w),
                        basis_for_band(group, band + 2 * w), cache=cache)
    g.matrix.flags.writeable = False
    return g


# ---------------------------------------------------------------------------
# codomain selection for index computations


def index_codomain_labels(sigma: MatrixSymbol, dom: PeterWeylBasis,
                          wide: GalerkinOperator) -> list:
    """Codomain label set preserving the operator's finite-rank index.

    Labels hit by the domain are kept, together with the domain labels
    themselves; labels that are reachable only from modes *outside* the
    domain band (truncation artifacts, detected by extending the domain by
    the symbol's x-bandwidth w) are dropped.  For x-independent symbols the
    codomain equals the domain.  The hits are read from ``wide``, the
    operator of a sweep whose largest cutoff is at least dom.band
    (``sweep_operator``): its columns of band dom.band + w and its rows of
    band at most dom.band + 2w, the largest of which sets the scale of the
    hit threshold ``HIT_ROW_TOL``.  Both are read from the exact per-label
    peaks that reduce ``wide`` once per sweep (``GalerkinOperator.label_tables``),
    not from the wide matrix itself.
    """
    w = sigma.x_bandwidth
    if w == 0:
        return list(dom.labels)
    band, keep, peak = dom.band, set(dom.labels), wide.label_tables[0]
    in_band = np.array([xi.band <= band + 2 * w for xi in wide.codomain.labels])
    extended = np.array([xi.band <= band + w for xi in wide.domain.labels])
    threshold = HIT_ROW_TOL * (float(peak[np.ix_(in_band, extended)].max()) or 1.0)

    def hit_labels(columns):
        hit = in_band & (peak[:, columns].max(axis=1) > threshold)
        return {xi for xi, h in zip(wide.codomain.labels, hit) if h}

    hit = hit_labels(np.array([xi in keep for xi in wide.domain.labels]))
    artifacts = hit_labels(extended) - hit
    return sorted((keep | hit) - artifacts, key=IrrepLabel.sort_key)


def index_truncation(sigma: MatrixSymbol, band: int,
                     wide: GalerkinOperator) -> GalerkinOperator:
    """Rectangular truncation of the operator used by the index sweeps.

    The matrix is a row/column slice of ``wide``, the operator of a sweep
    whose largest cutoff is at least ``band`` (``sweep_operator``): the
    columns of band ``band`` and the rows of its selected codomain.  Nothing
    is assembled.  The slice records the quadrature level that assembling
    it on its own would use (``assembly_level``).  Its codomain is checked
    for aliasing against the energies of the wide matrix's columns, read
    per codomain label from the table that reduces ``wide`` once per sweep
    (``GalerkinOperator.label_tables``), except when that level is None:
    the matrix is then block diagonal.
    """
    group = sigma.group
    dom = basis_for_band(group, band)
    cod = PeterWeylBasis(group, tuple(index_codomain_labels(sigma, dom, wide)))
    rows = wide.codomain.positions(cod.labels)
    cols = wide.domain.positions(dom.labels)
    level = assembly_level(sigma, dom.band, cod.band)
    if level is not None:
        energy, keep = wide.label_tables[1][:, cols], set(cod.labels)
        captured = np.array([xi in keep for xi in wide.codomain.labels])
        _check_leak(energy.sum(axis=0), energy[captured].sum(axis=0),
                    band + sigma.x_bandwidth)
    return GalerkinOperator(dom, cod, wide.matrix[np.ix_(rows, cols)],
                            {"level": level})


# ---------------------------------------------------------------------------
# cache file format

_MAGIC = b"LGIX"


def lookup_key(sigma_desc, dom: PeterWeylBasis, cod: PeterWeylBasis,
               level: Optional[int]) -> tuple:
    """(key, lookup header) of a cache entry; computable before assembly.

    The header covers the bases, the quadrature level, the symbol's
    description (which carries a digest of any tabulated values), the tool
    version and ``CACHE_FORMAT``; the key is its content hash.
    """
    header = {"domain": dom.describe(), "codomain": cod.describe(),
              "level": level, "symbol": sigma_desc,
              "version": __version__, "format": CACHE_FORMAT}
    key = hashlib.sha256(json.dumps(header, sort_keys=True).encode()).hexdigest()
    return key, header


def read_cache_entry(path: str, verify_payload: bool = True) -> tuple:
    """(header dict, matrix) from a cache file; the matrix is a read-only
    C-ordered array read straight from the row-major payload.

    Raises ValueError on a corrupt entry: bad magic, a file too short for
    its header, an undecodable header or one missing the shape or payload
    hash, a payload whose size is not the shape's (checked against the file
    size before anything is allocated) or a payload hash mismatch.
    """
    with open(path, "rb") as fh:
        size, head = os.fstat(fh.fileno()).st_size, fh.read(8)
        if head[:4] != _MAGIC:
            raise ValueError(f"{path}: bad magic")
        if len(head) < 8:
            raise ValueError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", head[4:8])
        if size < 8 + hlen:
            raise ValueError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen))
            rows, cols = (int(v) for v in header["shape"])
            expected = header["payload_sha256"]
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}: unreadable header ({exc!r})") from exc
        if size - 8 - hlen != rows * cols * 16:
            raise ValueError(f"{path}: payload size does not fit shape {rows}x{cols}")
        matrix = np.empty((rows, cols), dtype="<c16")
        if fh.readinto(matrix) != matrix.nbytes:
            raise ValueError(f"{path}: truncated payload")
    if verify_payload and hashlib.sha256(matrix).hexdigest() != expected:
        raise ValueError(f"{path}: payload hash mismatch")
    matrix.flags.writeable = False
    return header, matrix
