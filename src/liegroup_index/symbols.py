"""Matrix-valued symbols: extraction, quantization, kernels, difference
operators and ellipticity / symbol-class diagnostics.

A symbol assigns to every point x and label xi a d_xi x d_xi matrix
sigma(x, xi), evaluated on whole quadrature rules; a single point is a
one-node rule.  Extraction from an operator action A uses

    sigma_A(x, xi) = xi(x)^* (A xi)(x)

with A applied entrywise to sampled representation entries, and the
quantization reproducing A is

    A f(x) = sum_xi d_xi Tr( xi(x) sigma_A(x, xi) fhat(xi) ).

The frozen-x right-convolution kernel is R(x, y) = sum_xi d_xi
Tr(xi(y) sigma(x, xi)) over the enumerated band.  Difference operators act
on symbols through multiplication of this kernel by xi0(y)_{ij} - delta_ij;
on the torus this reduces to the exact shift rule
(D_j sigma)(x, l) = sigma(x, l - e_j) - sigma(x, l).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dual import (IrrepLabel, UnsupportedFeatureError,
                   left_invariant_derivative, rep_matrices_on_rule, torus_label)
from .fourier import FourierCoefficients, SampledFunction, fourier_forward
from .groups import (GroupMismatchError, GroupPoint, GroupSpec, QuadratureRule,
                     identity, point_rule)

SINGULAR_REL_THRESHOLD = 1e-10


class BandHeadroomError(ValueError):
    """A symbol operation needs labels beyond the tabulated/declared band."""


@dataclass(eq=False)
class MatrixSymbol:
    """Evaluator for sigma(x, xi) with declared order and x-bandwidth.

    The one evaluator maps a quadrature rule and a label to sigma at every
    node, shape (n_nodes, d, d); a single point is a one-node rule.
    ``x_bandwidth`` is in band units (torus frequency, SU(2) twice-spin); 0
    for x-independent symbols.  ``max_band`` bounds the labels on which the
    symbol is defined (None = any label).  Evaluators must be pure.
    """

    group: GroupSpec
    order: float
    x_bandwidth: int
    is_invariant: bool
    describe: dict
    _on_rule: Callable[[QuadratureRule, IrrepLabel], np.ndarray]
    max_band: Optional[int] = None

    def evaluate_on_rule(self, rule: QuadratureRule, xi: IrrepLabel) -> np.ndarray:
        """sigma at every node, shape (n_nodes, d, d)."""
        if xi.group != self.group:
            raise GroupMismatchError("label group does not match symbol group")
        if self.max_band is not None and xi.band > self.max_band:
            raise BandHeadroomError(
                f"label {xi} beyond the symbol band {self.max_band}")
        return np.asarray(self._on_rule(rule, xi), dtype=complex)

    def evaluate(self, x: GroupPoint, xi: IrrepLabel) -> np.ndarray:
        """sigma(x, xi): the evaluator on the one-node rule at x."""
        return self.evaluate_on_rule(point_rule(x), xi)[0]

    def evaluate_at_any(self, xi: IrrepLabel) -> np.ndarray:
        """Value of an invariant symbol (independent of x)."""
        if not self.is_invariant:
            raise ValueError("symbol is not x-independent")
        return self.evaluate(identity(self.group), xi)


def _values_sha256(tables: dict, *arrays: np.ndarray) -> str:
    """SHA-256 of per-label matrices (in label order) and further arrays."""
    digest = hashlib.sha256()
    for xi in sorted(tables, key=IrrepLabel.sort_key):
        digest.update(repr(xi.label).encode())
        digest.update(np.ascontiguousarray(tables[xi], dtype="<c16").tobytes())
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# builtin symbol constructors


def invariant_symbol(group: GroupSpec, fn: Callable[[IrrepLabel], np.ndarray],
                     order: float, describe: dict,
                     max_band: Optional[int] = None) -> MatrixSymbol:
    def on_rule(rule, xi):
        v = np.asarray(fn(xi), dtype=complex)
        if v.ndim == 0:
            v = v * np.eye(xi.dim)
        return np.broadcast_to(v, (rule.n_nodes,) + v.shape)

    return MatrixSymbol(group, order, 0, True, describe, on_rule, max_band=max_band)


def identity_symbol(group: GroupSpec) -> MatrixSymbol:
    return invariant_symbol(group, lambda xi: np.eye(xi.dim), 0.0,
                            {"kind": "identity"})


def lambda_multiplier(group: GroupSpec, s: float) -> MatrixSymbol:
    """Symbol <xi>^s I of the Sobolev-scale multiplier."""
    return invariant_symbol(group, lambda xi: (xi.weight ** s) * np.eye(xi.dim),
                            float(s), {"kind": "weight_power", "s": s})


def multiplier_symbol(group: GroupSpec, fn: Callable[[IrrepLabel], complex],
                      order: float, describe: dict) -> MatrixSymbol:
    """Scalar multiplier g(xi) acting as g(xi) * I."""
    return invariant_symbol(group, lambda xi: complex(fn(xi)) * np.eye(xi.dim),
                            order, describe)


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
    return invariant_symbol(group, fn, order, describe, max_band=max_band)


def pointwise_symbol(group: GroupSpec,
                     coeff_on_rule: Callable[[QuadratureRule], np.ndarray],
                     x_bandwidth: int, describe: dict) -> MatrixSymbol:
    """Symbol c(x) * I of pointwise multiplication by a band-limited c.

    ``coeff_on_rule`` samples c at every node of a rule.  c(x) does not
    depend on the label, so the samples are memoized on the rule, keyed by
    ``coeff_on_rule``: a census over many labels samples c once.
    """

    def on_rule(rule, xi):
        vals = rule._node_cache.get(coeff_on_rule)
        if vals is None:
            vals = rule._node_cache[coeff_on_rule] = coeff_on_rule(rule)
            vals.setflags(write=False)
        return vals[:, None, None] * np.eye(xi.dim)[None, :, :]

    return MatrixSymbol(group, 0.0, int(x_bandwidth), False, describe, on_rule)


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

    return MatrixSymbol(group, 0.0, abs(k), False, {"kind": "winding", "k": k},
                        on_rule)


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

    return MatrixSymbol(group, 0.0, abs(k), False,
                        {"kind": "winding_adjoint", "k": k}, on_rule)


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
        all(s.is_invariant for s in symbols),
        {"kind": "sum", "terms": [s.describe for s in symbols],
         "weights": [repr(w) for w in weights]},
        on_rule, max_band=max_band)


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
        sigma_a.is_invariant and sigma_b.is_invariant,
        {"kind": "product", "factors": [sigma_a.describe, sigma_b.describe]},
        on_rule, max_band=max_band)


def conjugate_transpose_symbol(sigma: MatrixSymbol) -> MatrixSymbol:
    """Pointwise sigma(x, xi)^*; equals the adjoint's symbol for invariant
    and pointwise-multiplication operators (not for the winding family)."""

    def on_rule(rule, xi):
        return sigma.evaluate_on_rule(rule, xi).conj().transpose(0, 2, 1)

    return MatrixSymbol(sigma.group, sigma.order, sigma.x_bandwidth,
                        sigma.is_invariant,
                        {"kind": "conjugate_transpose", "of": sigma.describe},
                        on_rule, max_band=sigma.max_band)


def tabulated_symbol(group: GroupSpec, grid: QuadratureRule, tables: dict,
                     order: float, x_bandwidth: int, describe: dict,
                     is_invariant: bool = False) -> MatrixSymbol:
    """Symbol stored as per-label arrays of shape (n_nodes, d, d).

    Evaluable only on its grid (or a rule with the same nodes).  The
    describe gains a SHA-256 of the tables and the grid's charts, so
    tabulated symbols with different values get different cache keys.
    """
    max_band = max((xi.band for xi in tables), default=0)

    def on_rule(rule, xi):
        if rule is not grid and not np.array_equal(rule.charts, grid.charts):
            raise ValueError("tabulated symbol evaluated on a different rule")
        try:
            return tables[xi]
        except KeyError:
            raise BandHeadroomError(f"label {xi} not tabulated")

    describe = dict(describe, values_sha256=_values_sha256(tables, grid.charts))
    sym = MatrixSymbol(group, order, x_bandwidth, is_invariant, describe,
                       on_rule, max_band=max_band)
    sym.grid = grid
    return sym


# ---------------------------------------------------------------------------
# extraction / quantization / kernels


def symbol_of_operator(apply: Callable[[SampledFunction], SampledFunction],
                       grid: QuadratureRule, dual: Sequence[IrrepLabel],
                       order: float = 0.0, x_bandwidth: int = 0,
                       describe: Optional[dict] = None) -> MatrixSymbol:
    """Tabulate sigma(x, xi) = xi(x)^* (A xi)(x) on the grid nodes."""
    tables = {}
    for xi in dual:
        reps = rep_matrices_on_rule(xi, grid)
        d = xi.dim
        applied = np.empty_like(reps)
        for i in range(d):
            for j in range(d):
                applied[:, i, j] = apply(SampledFunction(grid, reps[:, i, j])).values
        tables[xi] = np.einsum("kji,kjl->kil", reps.conj(), applied)
    return tabulated_symbol(grid.group, grid, tables, order, x_bandwidth,
                            describe or {"kind": "extracted"})


def quantize_on_rule(sigma: MatrixSymbol, fhat: FourierCoefficients,
                     rule: QuadratureRule) -> np.ndarray:
    """Quantization evaluated at every node of the rule."""
    out = np.zeros(rule.n_nodes, dtype=complex)
    for xi in fhat.labels():
        reps = rep_matrices_on_rule(xi, rule)
        sig = sigma.evaluate_on_rule(rule, xi)
        out += xi.dim * np.einsum("kij,kjl,li->k", reps, sig, fhat[xi])
    return out


def apply_symbol(sigma: MatrixSymbol, f: SampledFunction,
                 dual: Sequence[IrrepLabel]) -> SampledFunction:
    """Operator action on samples: forward transform, multiply, invert."""
    fhat = fourier_forward(f, dual)
    return SampledFunction(f.rule, quantize_on_rule(sigma, fhat, f.rule))


def kernel_table(sigma: MatrixSymbol, rule_x: QuadratureRule,
                 rule_y: QuadratureRule, dual: Sequence[IrrepLabel]) -> np.ndarray:
    """Band-limited right-convolution kernels R(x_k, y_k') = sum_xi d_xi
    Tr(xi(y_k') sigma(x_k, xi)) at frozen x, shape (n_x, n_y)."""
    out = np.zeros((rule_x.n_nodes, rule_y.n_nodes), dtype=complex)
    for xi in dual:
        reps = rep_matrices_on_rule(xi, rule_y)
        sig = sigma.evaluate_on_rule(rule_x, xi)
        out += xi.dim * np.einsum("kij,mji->mk", reps, sig)
    return out


# ---------------------------------------------------------------------------
# difference operators


def difference_apply(sigma: MatrixSymbol, xi0: IrrepLabel,
                     entry: tuple = (0, 0),
                     grid: Optional[QuadratureRule] = None,
                     dual: Optional[Sequence[IrrepLabel]] = None,
                     force_kernel_route: bool = False) -> MatrixSymbol:
    """Difference operator D_{xi0, entry} applied to the symbol.

    The output symbol's frozen-x kernel is (xi0(y)[i,j] - delta_ij) R(x, y);
    its band shrinks by xi0's band.  The torus uses the exact shift rule
    sigma(x, l - l0) - sigma(x, l); other groups (or
    ``force_kernel_route``) recover the output by a forward transform of
    the multiplied kernel, which needs ``grid`` and ``dual``.
    """
    group = sigma.group
    i, j = entry
    if xi0.group != group:
        raise GroupMismatchError("difference label on the wrong group")
    shrink = xi0.band
    if sigma.max_band is not None and sigma.max_band - shrink < 0:
        raise BandHeadroomError("no band headroom left for the difference")

    if group.kind == "torus" and not force_kernel_route:
        if entry != (0, 0):
            raise ValueError("torus characters have a single entry (0, 0)")
        l0 = np.asarray(xi0.label, dtype=int)

        def on_rule(rule, xi):
            shifted = torus_label(group, tuple(np.asarray(xi.label, int) - l0))
            return (sigma.evaluate_on_rule(rule, shifted)
                    - sigma.evaluate_on_rule(rule, xi))

        max_band = None if sigma.max_band is None else sigma.max_band - shrink
        return MatrixSymbol(group, sigma.order - 1.0,
                            sigma.x_bandwidth, sigma.is_invariant,
                            {"kind": "difference", "xi0": list(xi0.label),
                             "entry": [i, j], "of": sigma.describe},
                            on_rule, max_band=max_band)

    # kernel route
    if grid is None or dual is None:
        grid = getattr(sigma, "grid", None) if grid is None else grid
        if grid is None or dual is None:
            raise ValueError("the kernel route needs a grid and a dual band")
    dual = list(dual)
    in_band = max(xi.band for xi in dual)
    out_labels = [xi for xi in dual if xi.band <= in_band - shrink]
    if not out_labels:
        raise BandHeadroomError("no band headroom left for the difference")
    q = rep_matrices_on_rule(xi0, grid)[:, i, j] - (1.0 if i == j else 0.0)
    # a tabulated symbol is evaluated on its own grid
    x_nodes = getattr(sigma, "grid", grid)
    # row k: the multiplied kernel at x_k, weighted for the forward transform
    wq = kernel_table(sigma, x_nodes, grid, dual) * (grid.weights * q)
    tables = {eta: np.einsum("mk,kij->mji", wq, rep_matrices_on_rule(eta, grid).conj())
              for eta in out_labels}
    return tabulated_symbol(group, x_nodes, tables,
                            sigma.order - 1.0, sigma.x_bandwidth,
                            {"kind": "difference_kernel", "xi0": list(xi0.label),
                             "entry": [i, j], "of": sigma.describe},
                            is_invariant=False)


# ---------------------------------------------------------------------------
# ellipticity and symbol-class diagnostics


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
                      dual: Sequence[IrrepLabel], grid: QuadratureRule,
                      rel_threshold: float = SINGULAR_REL_THRESHOLD) -> EllipticityReport:
    """Invertibility census of sigma(x, xi) over grid x band.

    A site is non-invertible when its smallest singular value falls below
    rel_threshold times the largest singular value over the whole band.
    At a label of dimension 1 the singular value is the modulus |sigma|;
    larger labels take a batched SVD.
    The verdict requires the non-invertible label set to be unchanged when
    the band is doubled once (the finite-scale reading of "all but
    finitely many"), and the fitted constant to be finite.
    """
    smin = {}

    def census(labels):
        """Record the smallest singular values; return the largest one."""
        smax = 0.0
        for xi in labels:
            sig = sigma.evaluate_on_rule(grid, xi)
            sv = (np.abs(sig[:, :, 0]) if xi.dim == 1
                  else np.linalg.svd(sig, compute_uv=False))
            smin[xi] = sv[:, -1]
            smax = max(smax, float(sv[:, 0].max()))
        return smax

    dual = list(dual)
    smax_global = census(dual)
    threshold = rel_threshold * smax_global
    bad_sites = []
    bad_labels = []
    constant = 0.0
    margin = math.inf
    for xi in dual:
        sv = smin[xi]
        bad_here = sv <= threshold
        if bad_here.any():
            bad_labels.append(xi.label)
            for k in np.nonzero(bad_here)[0]:
                bad_sites.append({
                    "node": int(k),
                    "chart": [float(v) for v in grid.charts[k]],
                    "label": list(xi.label),
                    "smallest_sv": float(sv[k]),
                })
        good = sv[~bad_here]
        if good.size:
            constant = max(constant, float(xi.weight ** m / good.min()))
            margin = min(margin, float(good.min()))

    doubled_bad = None
    max_weight = max(xi.weight for xi in dual)
    if sigma.max_band is None:
        from .dual import enumerate_dual
        doubled = enumerate_dual(sigma.group, 2.0 * max_weight)
        # the doubled band contains the first: census only the new labels
        smax2 = census([xi for xi in doubled if xi not in smin])
        threshold2 = rel_threshold * max(smax_global, smax2)
        doubled_bad = [xi.label for xi in doubled
                       if (smin[xi] <= threshold2).any()]
    stable = (doubled_bad is None
              or set(map(tuple, doubled_bad)) == set(map(tuple, bad_labels)))
    has_good_sites = math.isfinite(margin)
    elliptic = bool(stable and has_good_sites and math.isfinite(constant))
    return EllipticityReport(m, constant, elliptic, bad_sites,
                             bad_labels, doubled_bad, threshold,
                             margin if has_good_sites else 0.0)


@dataclass(eq=False)
class DiagnosticTable:
    """Symbol-class constants sup |d_x^alpha D^beta sigma| <xi>^(|beta|-m)."""

    order: float
    rows: list  # dicts: alpha, beta, constant

    def constant(self, alpha, beta) -> float:
        for row in self.rows:
            if tuple(row["alpha"]) == tuple(alpha) and tuple(row["beta"]) == tuple(beta):
                return row["constant"]
        raise KeyError((alpha, beta))


def _multi_indices(dim: int, total_max: int):
    if dim == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for tail in _multi_indices(dim - 1, total_max - head):
            yield (head,) + tail


def _x_derivative_sup(sigma: MatrixSymbol, alpha: tuple, xi: IrrepLabel,
                      grid: QuadratureRule, h: float) -> float:
    """sup over grid nodes of the operator norm of d_x^alpha sigma(., xi)."""
    def derivative(f, j):
        return lambda rule: left_invariant_derivative(f, j, rule, h=h)

    # nested central differences of the whole d x d matrices on the whole
    # grid, the first direction outermost
    f = lambda rule: sigma.evaluate_on_rule(rule, xi)
    for j in reversed([j for j, count in enumerate(alpha) for _ in range(count)]):
        f = derivative(f, j)
    return float(np.linalg.norm(f(grid), 2, axis=(1, 2)).max())


def symbol_class_diagnostic(sigma: MatrixSymbol, m: float, alpha_max: int,
                            beta_max: int, grid: QuadratureRule,
                            dual: Sequence[IrrepLabel],
                            h: float = 1e-5) -> DiagnosticTable:
    """Table of constants for the symbol-class inequalities up to the caps.

    Differences (beta) use the torus shift rule, so beta_max > 0 requires a
    torus group; derivatives (alpha) use nested central differences of the
    analytic evaluator.  Fails with BandHeadroomError when the requested
    beta exhausts the band of the dual.
    """
    group = sigma.group
    dim = group.manifold_dim
    if beta_max > 0 and group.kind != "torus":
        raise UnsupportedFeatureError(
            "difference diagnostics beyond beta = 0 are torus-only")
    dual = list(dual)
    rows = []
    for beta in _multi_indices(dim if group.kind == "torus" else 0, beta_max):
        tau = sigma
        shrink = sum(beta)
        for jdir, count in enumerate(beta):
            for _ in range(count):
                unit = [0] * group.n
                unit[jdir] = 1
                tau = difference_apply(tau, torus_label(group, unit))
        labels = [xi for xi in dual
                  if tau.max_band is None or xi.band <= tau.max_band]
        if not labels:
            raise BandHeadroomError("band exhausted by the requested beta")
        for alpha in _multi_indices(dim, alpha_max):
            sup = 0.0
            for xi in labels:
                val = _x_derivative_sup(tau, alpha, xi, grid, h)
                sup = max(sup, val * xi.weight ** (shrink - m))
            rows.append({"alpha": list(alpha), "beta": list(beta) or [0],
                         "constant": sup})
    return DiagnosticTable(m, rows)
