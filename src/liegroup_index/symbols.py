"""Matrix-valued symbols: constructors, quantization and the ellipticity
census.

A symbol assigns to every point x and label xi a d_xi x d_xi matrix
sigma(x, xi), evaluated on whole quadrature rules; a single point is a
one-node rule.  The quantization of sigma is

    A f(x) = sum_xi d_xi Tr( xi(x) sigma(x, xi) fhat(xi) ),

The frozen product, the weighted sum and the pointwise adjoint build the
symbols of operator trees (``operators.parse_operator``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dual import (IrrepLabel, UnsupportedFeatureError, rep_matrices_on_rule,
                   trivial_label)
from .fourier import FourierCoefficients
from .groups import GroupMismatchError, GroupSpec, QuadratureRule

SINGULAR_REL_THRESHOLD = 1e-10


class BandHeadroomError(ValueError):
    """A symbol is evaluated at a label beyond its table or declared band."""


@dataclass(eq=False)
class MatrixSymbol:
    """Evaluator for sigma(x, xi) with declared order and x-bandwidth.

    The one evaluator maps a quadrature rule and a label to sigma at every
    node, shape (n_nodes, d, d); a single point is a one-node rule.
    ``x_bandwidth`` is in band units (torus frequency, SU(2) twice-spin); at
    0 the symbol is x-independent (``is_invariant``).  ``max_band`` bounds
    the labels on which the symbol is defined (None = any label).
    ``is_pointwise`` marks sigma(x, xi) = c(x) I with c independent of xi;
    c is then sigma at the trivial label, shape (n_nodes, 1, 1).  Evaluators
    must be pure.
    """

    group: GroupSpec
    order: float
    x_bandwidth: int
    describe: dict
    _on_rule: Callable[[QuadratureRule, IrrepLabel], np.ndarray]
    max_band: Optional[int] = None
    is_pointwise: bool = False

    @property
    def is_invariant(self) -> bool:
        return self.x_bandwidth == 0

    def evaluate_on_rule(self, rule: QuadratureRule, xi: IrrepLabel) -> np.ndarray:
        """sigma at every node, shape (n_nodes, d, d); ValueError if not finite."""
        if xi.group != self.group:
            raise GroupMismatchError("label group does not match symbol group")
        if self.max_band is not None and xi.band > self.max_band:
            raise BandHeadroomError(
                f"label {xi} beyond the symbol band {self.max_band}")
        try:
            values = np.asarray(self._on_rule(rule, xi), dtype=complex)
            if not np.isfinite(values).all():
                raise OverflowError
        except OverflowError:
            kind = self.describe.get("kind") or self.describe.get("op") or self.describe
            raise ValueError(f"symbol {kind} overflows or is not finite at label {xi}")
        return values

    def coefficient_on_rule(self, rule: QuadratureRule) -> np.ndarray:
        """c at every node of a pointwise symbol c(x) I, shape (n_nodes, 1, 1)."""
        if not self.is_pointwise:
            raise ValueError("symbol is not pointwise")
        return self.evaluate_on_rule(rule, trivial_label(self.group))


def _values_sha256(tables: dict) -> str:
    """SHA-256 of per-label matrices, in label order."""
    digest = hashlib.sha256()
    for xi in sorted(tables, key=IrrepLabel.sort_key):
        digest.update(repr(xi.label).encode())
        digest.update(np.ascontiguousarray(tables[xi], dtype="<c16").tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# builtin symbol constructors


def multiplier_symbol(group: GroupSpec, fn: Callable[[IrrepLabel], np.ndarray],
                      order: float, describe: dict,
                      max_band: Optional[int] = None) -> MatrixSymbol:
    """Invariant symbol g(xi): a d_xi x d_xi matrix, or a scalar acting as
    g(xi) * I, at every node."""

    def on_rule(rule, xi):
        v = np.asarray(fn(xi), dtype=complex)
        if v.ndim == 0:
            v = v * np.eye(xi.dim)
        return np.broadcast_to(v, (rule.n_nodes,) + v.shape)

    return MatrixSymbol(group, order, 0, describe, on_rule, max_band=max_band)


def lambda_multiplier(group: GroupSpec, s: float) -> MatrixSymbol:
    """Symbol <xi>^s I of the Sobolev-scale multiplier."""
    return multiplier_symbol(group, lambda xi: xi.weight ** s,
                             float(s), {"kind": "weight_power", "s": s})


def table_symbol(group: GroupSpec, table: dict, order: float = 0.0) -> MatrixSymbol:
    """Invariant symbol from an explicit label -> matrix table."""
    table = {xi: np.asarray(m, dtype=complex) for xi, m in table.items()}
    max_band = max((xi.band for xi in table), default=0)

    def fn(xi):
        try:
            return table[xi]
        except KeyError:
            raise BandHeadroomError(f"label {xi} not in symbol table")

    # the values digest keeps tables with equal labels apart in cache keys
    describe = {"kind": "table",
                "labels": sorted(str(xi.label) for xi in table),
                "values_sha256": _values_sha256(table)}
    return multiplier_symbol(group, fn, order, describe, max_band=max_band)


def pointwise_symbol(group: GroupSpec,
                     coeff_on_rule: Callable[[QuadratureRule], np.ndarray],
                     x_bandwidth: int, describe: dict) -> MatrixSymbol:
    """Symbol c(x) * I of pointwise multiplication by a band-limited c.

    ``coeff_on_rule`` samples c at every node of a rule.  c(x) does not
    depend on the label, so the samples are memoized on the rule, keyed by
    ``coeff_on_rule``: a census over many labels samples c once.  The
    symbol is marked ``is_pointwise``: assembly and the density route read
    c once, at the trivial label, instead of forming c(x) I per label.
    """

    def on_rule(rule, xi):
        vals = rule._node_cache.get(coeff_on_rule)
        if vals is None:
            vals = rule._node_cache[coeff_on_rule] = coeff_on_rule(rule)
            vals.setflags(write=False)
        return vals[:, None, None] * np.eye(xi.dim)[None, :, :]

    return MatrixSymbol(group, 0.0, int(x_bandwidth), describe, on_rule,
                        is_pointwise=True)


def torus_function(group: GroupSpec, coeffs: dict) -> tuple:
    """Band-limited c(x) = sum_l coeffs[l] exp(2 pi i l.x) on the torus.

    Returns (evaluator over a rule, bandwidth).
    """
    if group.kind != "torus":
        raise GroupMismatchError("torus_function needs a torus group")
    terms = [(np.asarray(l, dtype=float), complex(c)) for l, c in coeffs.items()]
    band = int(max((int(np.abs(l).max()) for l, _ in terms), default=0))

    def on_rule(rule: QuadratureRule) -> np.ndarray:
        out = np.zeros(rule.n_nodes, dtype=complex)
        for l, c in terms:
            out += c * np.exp(2j * np.pi * (rule.charts @ l))
        return out

    return on_rule, band


def su2_function(coeffs: Sequence[tuple]) -> tuple:
    """Band-limited c(x) = sum coef * t_n(x)[i, j] on SU(2).

    coeffs is a sequence of (twice_spin, i, j, coef).  Returns the same
    pair as ``torus_function``.
    """
    from .dual import su2_label
    terms = [(int(n), int(i), int(j), complex(c)) for n, i, j, c in coeffs]
    band = max((n for n, _, _, _ in terms), default=0)

    def on_rule(rule: QuadratureRule) -> np.ndarray:
        out = np.zeros(rule.n_nodes, dtype=complex)
        for n, i, j, c in terms:
            out += c * rep_matrices_on_rule(su2_label(n), rule)[:, i, j]
        return out

    return on_rule, band


def winding_symbol(group: GroupSpec, k: int) -> MatrixSymbol:
    """Circle symbol exp(2 pi i k x) on modes l >= 0 and 1 on l < 0.

    The canonical operator with index -k; order 0, x-bandwidth |k|.
    """
    if group.kind != "torus" or group.n != 1:
        raise UnsupportedFeatureError("winding symbols live on the circle T^1")
    k = int(k)

    def on_rule(rule, xi):
        l = xi.label[0]
        if l >= 0:
            return np.exp(2j * np.pi * k * rule.charts[:, 0])[:, None, None]
        return np.ones((rule.n_nodes, 1, 1), dtype=complex)

    return MatrixSymbol(group, 0.0, abs(k), {"kind": "winding", "k": k}, on_rule)


def winding_adjoint_symbol(group: GroupSpec, k: int) -> MatrixSymbol:
    """Extracted symbol of the adjoint of the winding operator.

    For k > 0 the adjoint kills the modes 0 <= l < k, hence the symbol
    vanishes there; for k < 0 the modes -|k| <= l < 0 pick up an extra
    unit term.  Both follow from sigma(x, l) = e_l(x)^* (A^* e_l)(x):

        sigma(x, l) = exp(-2 pi i k x)        for l >= max(k, 0),
                      0                       for 0 <= l < k,
                      exp(-2 pi i k x) + 1    for k <= l < 0,
                      1                       for l < min(k, 0).
    """
    if group.kind != "torus" or group.n != 1:
        raise UnsupportedFeatureError("winding symbols live on the circle T^1")
    k = int(k)

    def on_rule(rule, xi):
        l = xi.label[0]
        if l >= max(k, 0):
            vals = np.exp(-2j * np.pi * k * rule.charts[:, 0])
        elif l >= 0:
            vals = np.zeros(rule.n_nodes, dtype=complex)
        elif l >= k:
            vals = np.exp(-2j * np.pi * k * rule.charts[:, 0]) + 1.0
        else:
            vals = np.ones(rule.n_nodes, dtype=complex)
        return vals[:, None, None]

    return MatrixSymbol(group, 0.0, abs(k), {"kind": "winding_adjoint", "k": k},
                        on_rule)


def symbol_sum(symbols: Sequence[MatrixSymbol],
               weights: Optional[Sequence[complex]] = None) -> MatrixSymbol:
    symbols = list(symbols)
    if not symbols:
        raise ValueError("empty sum")
    group = symbols[0].group
    if any(s.group != group for s in symbols):
        raise GroupMismatchError("summands live on different groups")
    weights = [1.0] * len(symbols) if weights is None else list(weights)
    finite = [s.max_band for s in symbols if s.max_band is not None]
    max_band = min(finite) if finite else None

    def on_rule(rule, xi):
        return sum(w * s.evaluate_on_rule(rule, xi) for w, s in zip(weights, symbols))

    return MatrixSymbol(
        group,
        max(s.order for s in symbols),
        max(s.x_bandwidth for s in symbols),
        {"kind": "sum", "terms": [s.describe for s in symbols],
         "weights": [repr(w) for w in weights]},
        on_rule, max_band=max_band,
        is_pointwise=all(s.is_pointwise for s in symbols))


def frozen_symbol_product(sigma_a: MatrixSymbol, sigma_b: MatrixSymbol) -> MatrixSymbol:
    """Pointwise product sigma_a(x, xi) sigma_b(x, xi).

    This realizes the frozen-argument composition rule; for operators with
    genuine x-dependence it differs from the symbol of the composed
    operator (see the winding example in the tests).
    """
    if sigma_a.group != sigma_b.group:
        raise GroupMismatchError("factors live on different groups")
    finite = [s.max_band for s in (sigma_a, sigma_b) if s.max_band is not None]
    max_band = min(finite) if finite else None

    def on_rule(rule, xi):
        return np.einsum("kij,kjl->kil", sigma_a.evaluate_on_rule(rule, xi),
                         sigma_b.evaluate_on_rule(rule, xi))

    return MatrixSymbol(
        sigma_a.group,
        sigma_a.order + sigma_b.order,
        sigma_a.x_bandwidth + sigma_b.x_bandwidth,
        {"kind": "product", "factors": [sigma_a.describe, sigma_b.describe]},
        on_rule, max_band=max_band,
        is_pointwise=sigma_a.is_pointwise and sigma_b.is_pointwise)


def conjugate_transpose_symbol(sigma: MatrixSymbol) -> MatrixSymbol:
    """Pointwise sigma(x, xi)^*; equals the adjoint's symbol for invariant
    and pointwise-multiplication operators (not for the winding family)."""

    def on_rule(rule, xi):
        return sigma.evaluate_on_rule(rule, xi).conj().transpose(0, 2, 1)

    return MatrixSymbol(sigma.group, sigma.order, sigma.x_bandwidth,
                        {"kind": "conjugate_transpose", "of": sigma.describe},
                        on_rule, max_band=sigma.max_band,
                        is_pointwise=sigma.is_pointwise)


# ---------------------------------------------------------------------------
# quantization


def quantize_on_rule(sigma: MatrixSymbol, fhat: FourierCoefficients,
                     rule: QuadratureRule) -> np.ndarray:
    """Quantization evaluated at every node of the rule."""
    out = np.zeros(rule.n_nodes, dtype=complex)
    for xi in fhat.labels():
        reps = rep_matrices_on_rule(xi, rule)
        sig = sigma.evaluate_on_rule(rule, xi)
        out += xi.dim * np.einsum("kij,kjl,li->k", reps, sig, fhat[xi])
    return out


# ---------------------------------------------------------------------------
# ellipticity


@dataclass(eq=False)
class EllipticityReport:
    """Singular-value census of sigma over a grid-times-band set."""

    order: float
    constant: float            # max over invertible sites of <xi>^m / s_min
    elliptic: bool
    bad_sites: list            # dicts: node, chart, label, smallest_sv
    bad_labels: list
    doubled_bad_labels: Optional[list]
    threshold: float
    smin_margin: float         # smallest retained singular value


def ellipticity_check(sigma: MatrixSymbol, m: float,
                      dual: Sequence[IrrepLabel],
                      grid: QuadratureRule) -> EllipticityReport:
    """Invertibility census of sigma(x, xi) over grid x band.

    A site is non-invertible when its smallest singular value falls below
    ``SINGULAR_REL_THRESHOLD`` times the largest singular value over the
    whole band.  At a label of dimension 1 the singular value is the modulus
    |sigma|; larger labels take a batched SVD.  The census is one (labels,
    nodes) array of smallest singular values, with each label's largest:
    the band's labels, then those its doubled band adds; a pointwise symbol
    c(x) I has |c(x)| at every label, so its census broadcasts the once-read
    row |c|.  The verdict requires the non-invertible label set to be
    unchanged when the band is doubled once (the finite-scale reading of
    "all but finitely many"), and the fitted constant to be finite.
    """
    modulus = (np.abs(sigma.coefficient_on_rule(grid)[:, 0, 0])
               if sigma.is_pointwise else None)
    labels = list(dual)
    n = len(labels)
    if sigma.max_band is None:
        from .dual import enumerate_dual
        have = {xi.label for xi in labels}
        labels += [xi for xi in enumerate_dual(sigma.group,
                                               2.0 * max(xi.weight for xi in labels))
                   if xi.label not in have]
    if modulus is not None:
        smin = np.broadcast_to(modulus, (len(labels), grid.n_nodes))
        smax = np.full(len(labels), modulus.max())
    else:
        smin, smax = np.empty((len(labels), grid.n_nodes)), np.empty(len(labels))
        for i, xi in enumerate(labels):
            sig = sigma.evaluate_on_rule(grid, xi)
            sv = (np.abs(sig[:, :, 0]) if xi.dim == 1
                  else np.linalg.svd(sig, compute_uv=False))
            smin[i], smax[i] = sv[:, -1], sv[:, 0].max()

    threshold = SINGULAR_REL_THRESHOLD * float(smax[:n].max(initial=0.0))
    bad = smin[:n] <= threshold
    bad_labels = [labels[i].label for i in np.flatnonzero(bad.any(axis=1))]
    bad_sites = [{"node": int(k),
                  "chart": [float(v) for v in grid.charts[k]],
                  "label": list(labels[i].label),
                  "smallest_sv": float(smin[i, k])}
                 for i, k in zip(*np.nonzero(bad))]
    good_min = np.where(bad, math.inf, smin[:n]).min(axis=1)
    constant = max([xi.weight ** m / g for xi, g in zip(labels, good_min.tolist())
                    if g < math.inf], default=0.0)
    margin = float(good_min.min(initial=math.inf))

    doubled_bad = None
    if sigma.max_band is None:
        bad2 = (smin <= SINGULAR_REL_THRESHOLD * float(smax.max())).any(axis=1)
        doubled_bad = [xi.label for xi in sorted(
            (xi for xi, b in zip(labels, bad2) if b), key=IrrepLabel.sort_key)]
    stable = (doubled_bad is None
              or set(map(tuple, doubled_bad)) == set(map(tuple, bad_labels)))
    has_good_sites = math.isfinite(margin)
    elliptic = bool(stable and has_good_sites and math.isfinite(constant))
    return EllipticityReport(m, constant, elliptic, bad_sites,
                             bad_labels, doubled_bad, threshold,
                             margin if has_good_sites else 0.0)
