"""Fredholm index computation by three routes.

* heat-trace route:    tr exp(-g M^* M) - tr exp(-g M M^*) for every g, from
  one SVD: the spectra of M^*M and MM^* are the squared singular values
  padded with zeros, so the route equals q - p (the number of columns minus
  the number of rows) at every finite truncation and for every g > 0.  The
  kernel count is q - p as well, so the verdict does not read this route.
* kernel-count route:  dim ker M - dim ker M^* from the singular values of
  M with a relative rank threshold and an audited spectral gap.  They come
  from one SVD per axis charge when M conserves the charge (the entries
  between different charges are below the census's rounding budget), and
  from one SVD of the whole matrix otherwise.
* density route:       quadrature over x of
  sum_xi d_xi Tr[ exp(-g s_*(x,xi) s(x,xi)) - exp(-g s(x,xi) s_*(x,xi)) ],
  the phase-space density built from the frozen symbols of the operator
  and its adjoint.  Square frozen products share their eigenvalues, so the
  density is 0 (or an error when a product is not Hermitian or an
  exponential not finite; only that is computed): the matrix routes report
  -k for the winding family, a documented discrepancy of the frozen-argument
  composition.

Order reduction scales the truncation's rows by <xi>^-m: the multiplier
Lambda_{-m} is diagonal in the Peter-Weyl basis, so Lambda_{-m} A is the
order-zero operator whose index is computed, with no second assembly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dual import IrrepLabel
from .galerkin import GalerkinOperator, index_truncation, sweep_operator
from .groups import (GroupSpec, QuadratureRule, haar_quadrature, identity,
                     min_level_for_band, point_rule)
from .symbols import MatrixSymbol

DEFAULT_REL_TOL = 1e-10
MARGINAL_GAP = 1e3
_EPS = np.finfo(float).eps


class DensityError(ValueError):
    """Non-Hermitian or non-finite input to the density exponentials."""


def _positive_gammas(gammas: Sequence[float]) -> np.ndarray:
    g = np.asarray(gammas, dtype=float)
    if g.ndim != 1 or not g.size or not (np.isfinite(g) & (g > 0)).all():
        raise ValueError("gammas must be a nonempty sequence of finite positive numbers")
    return g


def heat_trace_index(sv: np.ndarray, shape: tuple,
                     gammas: Sequence[float]) -> np.ndarray:
    """tr exp(-g M^* M) - tr exp(-g M M^*) for every g in gammas.

    ``sv`` are the k = min(p, q) singular values s_i of a p x q matrix M
    (``singular_value_census`` returns them): the spectrum of M^*M is s_i^2
    padded with q - k zeros and that of MM^* is s_i^2 padded with p - k
    zeros.
    """
    g = _positive_gammas(gammas)
    p, q = shape
    k = sv.size
    decay = np.exp(-np.outer(g, sv ** 2)).sum(axis=1)
    return (decay + (q - k)) - (decay + (p - k))


def _charge_blocks(mat: np.ndarray, row_charges, col_charges):
    """[(rows, cols)] of every charge on both sides of ``mat``, or None
    unless the entries between different charges have a finite Frobenius
    norm of at most sqrt(k) eps ||M||_F, k = min(p, q)."""
    if row_charges is None or col_charges is None:
        return None
    budget = (math.sqrt(min(mat.shape)) * _EPS * np.linalg.norm(mat)) ** 2
    if not math.isfinite(budget):
        return None
    off = mat[row_charges[:, None] != col_charges[None, :]]
    if not np.vdot(off, off).real <= budget:
        return None
    return [(np.flatnonzero(row_charges == q), np.flatnonzero(col_charges == q))
            for q in np.intersect1d(row_charges, col_charges)]


def singular_value_census(mat: np.ndarray, rel_tol: float,
                          row_charges: Optional[np.ndarray] = None,
                          col_charges: Optional[np.ndarray] = None) -> dict:
    """Rank decision data from the singular values of a p x q matrix M:
    kernel/cokernel dimensions, the spectral gap and the k = min(p, q)
    singular values themselves, in descending order.

    ``row_charges`` and ``col_charges`` are the axis charges of M's rows and
    columns (``PeterWeylBasis.charges``).  When the entries between
    different charges have a finite Frobenius norm of at most
    sqrt(k) eps ||M||_F (eps the float64 epsilon), they are dropped and M
    splits into one SVD per charge; a charge on one side only adds zero
    singular values.  Since ||M||_F <= sqrt(k) ||M||_2, the dropped part has
    norm at most k eps smax, so by Weyl's inequality no singular value moves
    further, which is within the backward error of LAPACK's own SVD.
    Otherwise (no charges given, an operator that does not conserve the
    charge, a non-finite entry) the whole matrix is the one block: the
    singular values are ``np.linalg.svd(mat)``'s.
    """
    p, q = mat.shape
    k = min(p, q)
    blocks = _charge_blocks(mat, row_charges, col_charges) if k else None
    if blocks is None:
        sv = np.linalg.svd(mat, compute_uv=False) if k else np.zeros(0)
    else:
        # the blocks give at most k values; zeros pad them to k
        parts = [np.linalg.svd(mat[np.ix_(rows, cols)], compute_uv=False)
                 for rows, cols in blocks]
        sv = np.sort(np.concatenate(parts + [np.zeros(k)]))[::-1][:k]
    smax = float(sv[0]) if sv.size else 0.0
    if smax == 0.0:
        rank = 0
        retained_min = 0.0
        discarded_max = 0.0
    else:
        keep = sv > rel_tol * smax
        rank = int(np.count_nonzero(keep))
        retained_min = float(sv[keep].min()) if rank else 0.0
        discarded_max = float(sv[~keep].max()) if rank < sv.size else 0.0
    gap = math.inf if discarded_max == 0.0 else retained_min / discarded_max
    return {
        "rank": rank,
        "ker_dim": q - rank,
        "coker_dim": p - rank,
        "smax": smax,
        "retained_min": retained_min,
        "discarded_max": discarded_max,
        "gap": gap,
        "marginal": gap < MARGINAL_GAP,
        "singular_values": sv,
    }


# ---------------------------------------------------------------------------
# density route


def _checked_adjoint(prod: np.ndarray, tag: str) -> np.ndarray:
    """prod^* for a batch of products that must be Hermitian (DensityError)."""
    prod_h = prod.conj().transpose(0, 2, 1)
    defect = np.abs(prod - prod_h).max()
    scale = max(float(np.abs(prod).max()), 1.0)
    if defect > 1e-8 * scale:
        raise DensityError(
            f"{tag}: product is not Hermitian (defect {defect:.3e}); "
            "supply the adjoint symbol consistent with the operator")
    return prod_h


def density_route_index(sigma_a: MatrixSymbol, sigma_astar: MatrixSymbol,
                        gammas: Sequence[float],
                        cutoff_labels: Sequence[IrrepLabel],
                        grid: Optional[QuadratureRule]) -> np.ndarray:
    """Quadrature of the symbol-density integrand, one value per gamma: 0,
    since s*s and s s* share their spectrum, or DensityError when a product
    is not Hermitian or exp(-g l) is not finite (checked at the largest g,
    where it peaks for l < 0).  Invariant pairs are checked on one node and
    ignore ``grid``, which may then be None.  For a pointwise pair, c(x) I
    and c*(x) I, the products are the same c* c at every label: they are
    checked at the first cutoff label only (a band's first label is the
    trivial one, where they are 1x1)."""
    g_max = _positive_gammas(gammas).max()
    if sigma_a.is_invariant and sigma_astar.is_invariant:
        grid = point_rule(identity(sigma_a.group))   # the identity's one node
    labels = list(cutoff_labels)
    if sigma_a.is_pointwise and sigma_astar.is_pointwise:
        labels = labels[:1]
    for xi in labels:
        sa = sigma_a.evaluate_on_rule(grid, xi)
        sstar = sigma_astar.evaluate_on_rule(grid, xi)
        left, tag = sstar @ sa, f"sigma_A* sigma_A at {xi}"
        evals = np.linalg.eigvalsh(0.5 * (left + _checked_adjoint(left, tag)))
        with np.errstate(over="ignore"):
            if not np.isfinite(np.exp(-g_max * evals)).all():
                raise DensityError(f"{tag}: non-finite exponential")
        _checked_adjoint(sa @ sstar, f"sigma_A sigma_A* at {xi}")
    return np.zeros(len(gammas))


# ---------------------------------------------------------------------------
# order reduction and traces


def order_reduce(sigma: MatrixSymbol, band: int,
                 wide: GalerkinOperator) -> GalerkinOperator:
    """Finite-rank realization of the order-zero operator Lambda_{-m} A:
    the rows of ``index_truncation(sigma, band, wide)`` scaled by <xi>^-m,
    the diagonal of Lambda_{-m} on the codomain.  Nothing is assembled; the
    meta records no quadrature level."""
    a = index_truncation(sigma, band, wide)
    cod = a.codomain
    scale = np.repeat([xi.weight ** -sigma.order for xi in cod.labels], cod.sizes)
    return GalerkinOperator(a.domain, cod, scale[:, None] * a.matrix,
                            {"order_reduced": a.meta})


def trace_via_symbol(sigma: MatrixSymbol, cutoff_labels: Sequence[IrrepLabel],
                     grid: QuadratureRule) -> complex:
    """Quadrature over x of sum_xi d_xi Tr sigma(x, xi).

    Intended for orders below -dim(G); outside that range a warning is
    emitted (the band-limited value is still returned).
    """
    dim_g = sigma.group.manifold_dim
    if sigma.order >= -dim_g:
        warnings.warn(
            f"trace formula assumes order < -{dim_g}; declared order "
            f"{sigma.order} may not produce a convergent trace",
            UserWarning, stacklevel=2)
    total = 0.0 + 0.0j
    for xi in cutoff_labels:
        sig = sigma.evaluate_on_rule(grid, xi)
        total += xi.dim * np.sum(grid.weights * np.trace(sig, axis1=1, axis2=2))
    return complex(total)


# ---------------------------------------------------------------------------
# stabilization sweep


@dataclass(eq=False)
class IndexReport:
    """Three-route index table over (cutoff, gamma) cells."""

    operator: dict
    group: GroupSpec
    rows: list = field(default_factory=list)
    verdict: str = "unstable"
    discrepancy: bool = False
    errors: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "group": {"kind": self.group.kind, "n": self.group.n},
            "rows": self.rows,
            "verdict": self.verdict,
            "density_vs_kernel_discrepancy": self.discrepancy,
            "errors": self.errors,
        }


def stabilization_sweep(sigma: MatrixSymbol, sigma_astar: MatrixSymbol,
                        bands: Sequence[int], gammas: Sequence[float],
                        rel_tol: float = DEFAULT_REL_TOL,
                        operator_desc: Optional[dict] = None,
                        reduce_order: bool = False,
                        cache=None) -> IndexReport:
    """Run all three index routes per (band, gamma) cell.

    The sweep assembles one operator, ``sweep_operator``, trying the bands
    from the largest down and keeping the first that assembles (one cache
    entry); each band above it records its own assembly error, and every
    band at or below it is a slice of that one matrix (``index_truncation``).
    Each band's truncation, SVD and density-route checks are computed once
    for all gammas; the SVD splits by axis charge when the truncation
    conserves it (``singular_value_census``).  Verdict "stable" requires
    the kernel count to be the same at the two largest bands; the heat trace
    is reported but not read, since on every p x q truncation it is q - p up
    to rounding, like the kernel count (``heat_trace_index``).  Bands must
    be nonempty and distinct, gammas finite and positive (ValueError).
    Per-band and per-cell failures are recorded without aborting the sweep.
    """
    if not bands:
        raise ValueError("bands must be nonempty")
    bands = sorted(int(b) for b in bands)
    if len(set(bands)) != len(bands):
        raise ValueError(f"bands must be distinct, got {bands}")
    gammas = _positive_gammas(gammas).tolist()
    report = IndexReport(operator_desc or sigma.describe, sigma.group)
    kernel_by_band, failed = {}, {}
    for band in reversed(bands):
        try:
            wide = sweep_operator(sigma, band, cache=cache)
            break
        except Exception as exc:
            failed[band] = str(exc)
    truncate = (order_reduce if reduce_order and sigma.order != 0
                else index_truncation)
    for band in bands:
        if band in failed:
            report.errors.append({"cutoff": band, "error": failed[band]})
            continue
        try:
            trunc = truncate(sigma, band, wide)
            census = singular_value_census(trunc.matrix, rel_tol,
                                           trunc.codomain.charges,
                                           trunc.domain.charges)
            heats = heat_trace_index(census["singular_values"], trunc.matrix.shape,
                                     gammas)
            kcount = census["ker_dim"] - census["coker_dim"]
            kernel_by_band[band] = kcount
            dgrid = None   # an invariant pair is checked on one node
            if not (sigma.is_invariant and sigma_astar.is_invariant):
                dgrid = haar_quadrature(sigma.group, trunc.meta.get("level")
                                        or min_level_for_band(sigma.group, band))
        except Exception as exc:  # recorded per band
            report.errors.append({"cutoff": band, "error": str(exc)})
            continue
        try:
            densities = density_route_index(sigma, sigma_astar, gammas,
                                            trunc.domain.labels, dgrid)
            density_error = None
        except Exception as exc:
            # the density route may be undefined (non-Hermitian frozen
            # products); record it on every cell and keep the matrix routes
            densities = [math.nan] * len(gammas)
            density_error = str(exc)
        for gamma, heat, dens in zip(gammas, heats, densities):
            cell = {"cutoff": band, "gamma": gamma}
            if density_error is not None:
                cell["density_error"] = density_error
                report.errors.append({"cutoff": band, "gamma": gamma,
                                      "error": density_error})
            cell.update({
                "heat_trace": float(heat),
                "kernel_count": kcount,
                "density_route": float(dens),
                "ker_dim": census["ker_dim"],
                "coker_dim": census["coker_dim"],
                "sv_gap": census["gap"],
                "marginal": census["marginal"],
            })
            report.rows.append(cell)
    if len(bands) >= 2 and all(b in kernel_by_band for b in bands[-2:]):
        stable = kernel_by_band[bands[-1]] == kernel_by_band[bands[-2]]
    else:
        stable = len(kernel_by_band) == len(bands) == 1
    report.verdict = "stable" if stable else "unstable"
    report.discrepancy = any(
        abs(row["density_route"] - row["kernel_count"]) > 0.5
        for row in report.rows)
    return report
