"""Group Fourier transform, inversion, Plancherel and Sobolev norms.

Forward transform:   fhat(xi) = sum_k w_k f(x_k) xi(x_k)^*
Inversion:           f(x)     = sum_xi d_xi Tr(xi(x) fhat(xi))
Plancherel norm:     ( sum_xi d_xi ||fhat(xi)||_HS^2 )^(1/2)

The quadrature level must resolve the band of f against the requested dual
(see ``groups.min_level_for_band``); the transforms themselves are plain
weighted sums, deterministic in label order.  The torus FFT is used only as
a test oracle, never here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dual import IrrepLabel, rep_matrices_on_rule
from .groups import GroupMismatchError, QuadratureRule


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of a function at the nodes of a quadrature rule."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.rule.n_nodes,):
            raise ValueError(f"expected {self.rule.n_nodes} samples, got {v.shape}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class FourierCoefficients:
    """Map from labels to d_xi x d_xi coefficient matrices."""

    entries: dict  # IrrepLabel -> ndarray
    cutoff: float

    def labels(self) -> list:
        return sorted(self.entries.keys(), key=IrrepLabel.sort_key)

    def __getitem__(self, xi: IrrepLabel) -> np.ndarray:
        return self.entries[xi]

    def scaled(self, factor: Callable[[IrrepLabel], complex]) -> "FourierCoefficients":
        return FourierCoefficients(
            {xi: factor(xi) * m for xi, m in self.entries.items()}, self.cutoff)

    def to_json(self) -> str:
        items = []
        for xi in self.labels():
            m = self.entries[xi]
            items.append({
                "label": list(xi.label),
                "re": np.real(m).tolist(),
                "im": np.imag(m).tolist(),
            })
        return json.dumps({"cutoff": self.cutoff, "entries": items}, sort_keys=True)


def fourier_forward(f: SampledFunction, dual: Sequence[IrrepLabel]) -> FourierCoefficients:
    """Matrix Fourier coefficients of f over the given labels."""
    entries = {}
    wf = f.rule.weights * f.values
    cutoff = 1.0
    for xi in dual:
        if xi.group != f.rule.group:
            raise GroupMismatchError("dual labels and samples belong to different groups")
        reps = rep_matrices_on_rule(xi, f.rule)
        # sum_k wf_k xi(x_k)^*  ->  conjugate-transpose contraction
        entries[xi] = np.einsum("k,kij->ji", wf, reps.conj())
        cutoff = max(cutoff, xi.weight)
    return FourierCoefficients(entries, cutoff)


def fourier_inverse_on_rule(c: FourierCoefficients, rule: QuadratureRule) -> np.ndarray:
    """Inversion evaluated at every node, shape (n_nodes,)."""
    out = np.zeros(rule.n_nodes, dtype=complex)
    for xi in c.labels():
        reps = rep_matrices_on_rule(xi, rule)
        out += xi.dim * np.einsum("kij,ji->k", reps, c.entries[xi])
    return out


def plancherel_norm(c: FourierCoefficients) -> float:
    total = 0.0
    for xi, m in c.entries.items():
        total += xi.dim * float(np.sum(np.abs(m) ** 2))
    return math.sqrt(total)


def sobolev_norm(c: FourierCoefficients, s: float) -> float:
    """Plancherel norm of the <xi>^s-scaled coefficients."""
    if s == 0:
        return plancherel_norm(c)
    return plancherel_norm(c.scaled(lambda xi: xi.weight ** s))


def l2_inner_product(f: SampledFunction, g: SampledFunction) -> complex:
    if f.rule is not g.rule:
        raise ValueError("samples must share a quadrature rule")
    return complex(np.sum(f.rule.weights * f.values * np.conj(g.values)))


def l2_norm(f: SampledFunction) -> float:
    return math.sqrt(max(float(np.sum(f.rule.weights * np.abs(f.values) ** 2)), 0.0))


def spectral_inner_product(c: FourierCoefficients, d: FourierCoefficients) -> complex:
    """sum_xi d_xi Tr(c(xi) d(xi)^*), over labels present in both."""
    total = 0.0 + 0.0j
    for xi, m in c.entries.items():
        other = d.entries.get(xi)
        if other is not None:
            total += xi.dim * np.trace(m @ other.conj().T)
    return complex(total)
