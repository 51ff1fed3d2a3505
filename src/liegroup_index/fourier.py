"""Group Fourier transform, inversion and the Plancherel and L2 norms.

Forward transform:   fhat(xi) = sum_k w_k f(x_k) xi(x_k)^*
Inversion:           f(x)     = sum_xi d_xi Tr(xi(x) fhat(xi))
Plancherel norm:     ( sum_xi d_xi ||fhat(xi)||_HS^2 )^(1/2)
L2 norm:             ( sum_k w_k |f(x_k)|^2 )^(1/2)

The quadrature level must resolve the band of f against the requested dual
(see ``groups.min_level_for_band``).  The rule must be a Haar product rule:
both transforms separate variables, one contraction with the exact axis
characters and one plane contraction per label (``dual.rep_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import IrrepLabel, axis_characters, rep_factors
from .groups import QuadratureRule


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

    def labels(self) -> list:
        return sorted(self.entries.keys(), key=IrrepLabel.sort_key)

    def __getitem__(self, xi: IrrepLabel) -> np.ndarray:
        return self.entries[xi]


def fourier_forward(f: SampledFunction, dual: Sequence[IrrepLabel]) -> FourierCoefficients:
    """Matrix Fourier coefficients of f over the given labels.

    One contraction of the weighted samples with the conjugate axis
    characters along the rule's uniform axis, then one plane contraction
    per label (``dual.rep_factors``); the rule must be a Haar product rule.
    """
    rule = f.rule
    chars = axis_characters(rule)
    # per plane node a and mode m: sum_c w f(a, c) conj(chi_m(c))
    axis = (rule.weights * f.values).reshape(-1, len(chars)) @ chars.conj().T
    entries = {}
    for xi in dual:
        plane, modes = rep_factors(xi, rule)
        entries[xi] = np.einsum("aij,aij->ji", plane.conj(), axis[:, modes])
    return FourierCoefficients(entries)


def fourier_inverse_on_rule(c: FourierCoefficients, rule: QuadratureRule) -> np.ndarray:
    """Inversion evaluated at every node, shape (n_nodes,).

    Per-mode plane sums, then one product with the axis characters; the
    rule must be a Haar product rule.  One grouped reduction per label sums
    its entries per mode, entries that alias to one mode included.
    """
    chars = axis_characters(rule)
    sums = np.zeros((rule.n_nodes // len(chars), len(chars)), dtype=complex)
    for xi in c.labels():
        plane, modes = rep_factors(xi, rule)
        order = np.argsort(modes, axis=None, kind="stable")   # entries by mode
        by_mode = modes.ravel()[order]
        starts = np.flatnonzero(np.diff(by_mode, prepend=-1))  # one run per mode
        terms = np.moveaxis(plane, 0, -1) * (xi.dim * c.entries[xi].T)[:, :, None]
        sums[:, by_mode[starts]] += np.add.reduceat(terms.reshape(xi.dim ** 2, -1)[order], starts).T
    return (sums @ chars).ravel()


def plancherel_norm(c: FourierCoefficients) -> float:
    total = 0.0
    for xi, m in c.entries.items():
        total += xi.dim * float(np.sum(np.abs(m) ** 2))
    return math.sqrt(total)


def l2_norm(f: SampledFunction) -> float:
    return math.sqrt(max(float(np.sum(f.rule.weights * np.abs(f.values) ** 2)), 0.0))
