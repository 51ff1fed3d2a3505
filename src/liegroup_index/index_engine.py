"""Fredholm index computation by three routes.

* heat-trace route:    tr exp(-g M^* M) - tr exp(-g M M^*) for every g, from
  one SVD: the spectra of M^*M and MM^* are the squared singular values
  padded with zeros, so the route equals q - p (the number of columns minus
  the number of rows) at every finite truncation and for every g > 0.
* kernel-count route:  dim ker M - dim ker M^* from one SVD with a
  relative rank threshold and an audited spectral gap.
* density route:       quadrature over x of
  sum_xi d_xi Tr[ exp(-g s_*(x,xi) s(x,xi)) - exp(-g s(x,xi) s_*(x,xi)) ],
  the phase-space density built from the frozen symbols of the operator
  and its adjoint.  Each label's two frozen products are diagonalized once
  and only the exponentials of their eigenvalues depend on g.  For square
  frozen symbols the two products share their eigenvalues, so the density
  is 0 (or an error when a product is not Hermitian): it vanishes for
  invariant operators and reports 0 for the winding family while the
  matrix routes report -k, a documented discrepancy of the frozen-argument
  composition.

Order reduction composes with the multiplier <xi>^-m to produce the
order-zero operator whose index is computed.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dual import IrrepLabel
from .galerkin import (GalerkinOperator, assemble, compose, index_truncation)
from .groups import (GroupSpec, QuadratureRule, haar_quadrature,
                     min_level_for_band)
from .symbols import MatrixSymbol, lambda_multiplier

DEFAULT_REL_TOL = 1e-10
MARGINAL_GAP = 1e3


class DensityError(ValueError):
    """Non-Hermitian or non-finite input to the density exponentials."""


def _positive_gammas(gammas: Sequence[float]) -> np.ndarray:
    g = np.asarray(gammas, dtype=float)
    if g.ndim != 1 or not g.size or not (g > 0).all():
        raise ValueError("gammas must be a nonempty sequence of positive numbers")
    return g


def heat_trace_index(m: GalerkinOperator | np.ndarray,
                     gammas: Sequence[float]) -> np.ndarray:
    """tr exp(-g M^* M) - tr exp(-g M M^*) for every g in gammas.

    For a p x q matrix with k = min(p, q) singular values s_i, the spectrum
    of M^*M is s_i^2 padded with q - k zeros and that of MM^* is s_i^2
    padded with p - k zeros.
    """
    g = _positive_gammas(gammas)
    mat = m.matrix if isinstance(m, GalerkinOperator) else np.asarray(m)
    p, q = mat.shape
    sv = np.linalg.svd(mat, compute_uv=False) if min(p, q) else np.zeros(0)
    k = sv.size
    decay = np.exp(-np.outer(g, sv ** 2)).sum(axis=1)
    return (decay + (q - k)) - (decay + (p - k))


def singular_value_census(mat: np.ndarray, rel_tol: float) -> dict:
    """Rank decision data: kernel/cokernel dimensions and the spectral gap."""
    p, q = mat.shape
    sv = np.linalg.svd(mat, compute_uv=False) if min(p, q) else np.zeros(0)
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
    }


def kernel_count_index(m: GalerkinOperator | np.ndarray,
                       rel_tol: float = DEFAULT_REL_TOL) -> int:
    """dim ker M - dim ker M^*, from one SVD."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    mat = m.matrix if isinstance(m, GalerkinOperator) else np.asarray(m)
    census = singular_value_census(mat, rel_tol)
    return census["ker_dim"] - census["coker_dim"]


# ---------------------------------------------------------------------------
# density route


def _exp_trace_per_node(prod: np.ndarray, g: np.ndarray, tag: str) -> np.ndarray:
    """Tr exp(-g * prod) for a batch of Hermitian matrices, shape (len(g), n_nodes)."""
    defect = np.abs(prod - prod.conj().transpose(0, 2, 1)).max()
    scale = max(float(np.abs(prod).max()), 1.0)
    if defect > 1e-8 * scale:
        raise DensityError(
            f"{tag}: product is not Hermitian (defect {defect:.3e}); "
            "supply the adjoint symbol consistent with the operator")
    evals = np.linalg.eigvalsh(0.5 * (prod + prod.conj().transpose(0, 2, 1)))
    with np.errstate(over="ignore"):
        decay = np.exp(-g[:, None, None] * evals)
    if not np.isfinite(decay).all():
        raise DensityError(f"{tag}: non-finite exponential")
    return decay.sum(axis=2)


def density_route_index(sigma_a: MatrixSymbol, sigma_astar: MatrixSymbol,
                        gammas: Sequence[float],
                        cutoff_labels: Sequence[IrrepLabel],
                        grid: QuadratureRule) -> np.ndarray:
    """Quadrature of the symbol-density integrand, one value per gamma."""
    g = _positive_gammas(gammas)
    node_trace = np.zeros((g.size, grid.n_nodes))
    for xi in cutoff_labels:
        sa = sigma_a.evaluate_on_rule(grid, xi)
        sstar = sigma_astar.evaluate_on_rule(grid, xi)
        left = _exp_trace_per_node(np.einsum("kij,kjl->kil", sstar, sa), g,
                                   f"sigma_A* sigma_A at {xi}")
        right = _exp_trace_per_node(np.einsum("kij,kjl->kil", sa, sstar), g,
                                    f"sigma_A sigma_A* at {xi}")
        node_trace += xi.dim * (left - right)
    return np.sum(grid.weights * node_trace, axis=1)


# ---------------------------------------------------------------------------
# order reduction and traces


def order_reduce(sigma: MatrixSymbol, band: int, cache=None) -> GalerkinOperator:
    """Finite-rank realization of the order-zero operator Lambda_{-m} A."""
    m = sigma.order
    a = index_truncation(sigma, band, cache=cache)
    lam = assemble(lambda_multiplier(sigma.group, -m), a.codomain, a.codomain)
    return compose(lam, a)


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("cutoff,gamma,heat_trace,kernel_count,density_route,"
                  "ker_dim,coker_dim,sv_gap,marginal\n")
        for row in self.rows:
            gap = row["sv_gap"]
            gap_s = "inf" if math.isinf(gap) else f"{gap:.16e}"
            buf.write(
                f"{row['cutoff']},{row['gamma']:.16e},{row['heat_trace']:.16e},"
                f"{row['kernel_count']},{row['density_route']:.16e},"
                f"{row['ker_dim']},{row['coker_dim']},{gap_s},{row['marginal']}\n")
        return buf.getvalue()


def stabilization_sweep(sigma: MatrixSymbol, sigma_astar: MatrixSymbol,
                        bands: Sequence[int], gammas: Sequence[float],
                        rel_tol: float = DEFAULT_REL_TOL,
                        operator_desc: Optional[dict] = None,
                        reduce_order: bool = False,
                        cache=None) -> IndexReport:
    """Run all three index routes per (band, gamma) cell.

    Each band's truncation, singular values and density eigenvalues are
    computed once for all gammas.  Verdict "stable" requires the kernel
    count to be constant across the two largest bands and the heat trace to
    match it within 1e-6 at every gamma.  Per-band and per-cell failures
    are recorded without aborting the sweep.
    """
    if not bands or not gammas:
        raise ValueError("bands and gammas must be nonempty")
    bands = sorted(int(b) for b in bands)
    gammas = [float(g) for g in gammas]
    report = IndexReport(operator_desc or sigma.describe, sigma.group)
    kernel_by_band = {}
    heat_ok = True
    for band in bands:
        try:
            trunc = (order_reduce(sigma, band, cache=cache)
                     if reduce_order and sigma.order != 0
                     else index_truncation(sigma, band, cache=cache))
            census = singular_value_census(trunc.matrix, rel_tol)
            heats = heat_trace_index(trunc, gammas)
            kcount = census["ker_dim"] - census["coker_dim"]
            kernel_by_band[band] = kcount
            level = trunc.meta.get("level")
            dlabels = [xi for xi in trunc.domain.labels
                       if sigma.max_band is None or xi.band <= sigma.max_band]
            dgrid = haar_quadrature(
                sigma.group, level or min_level_for_band(sigma.group, band))
        except Exception as exc:  # pragma: no cover - aggregated per band
            report.errors.append({"cutoff": band, "error": str(exc)})
            continue
        try:
            densities = density_route_index(sigma, sigma_astar, gammas,
                                            dlabels, dgrid)
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
            if abs(heat - kcount) > 1e-6:
                heat_ok = False
            report.rows.append(cell)
    if len(bands) >= 2 and all(b in kernel_by_band for b in bands[-2:]):
        stable = kernel_by_band[bands[-1]] == kernel_by_band[bands[-2]]
    else:
        stable = len(kernel_by_band) == len(bands) == 1
    report.verdict = "stable" if (stable and heat_ok) else "unstable"
    report.discrepancy = any(
        abs(row["density_route"] - row["kernel_count"]) > 0.5
        for row in report.rows)
    return report
