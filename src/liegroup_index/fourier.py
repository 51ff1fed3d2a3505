"""Group Fourier transform, inversion and the Plancherel and L2 norms.

Forward transform:   fhat(xi) = sum_k w_k f(x_k) xi(x_k)^*
Inversion:           f(x)     = sum_xi d_xi Tr(xi(x) fhat(xi))
Plancherel norm:     ( sum_xi d_xi ||fhat(xi)||_HS^2 )^(1/2)
L2 norm:             ( sum_k w_k |f(x_k)|^2 )^(1/2)

The quadrature level must resolve the band of f against the requested dual
(see ``groups.min_level_for_band``).  The rule must be a Haar product rule:
both transforms separate variables, one FFT along the axis and one product
per diagonal of each label (``dual.rep_factors``, ``dual.diagonal_modes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import IrrepLabel, diagonal_modes, haar_axis_length, rep_factors
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

    One FFT of the weighted samples along the axis, then one product per
    diagonal of each label (``dual.diagonal_modes``); the rule must be a
    Haar product rule.
    """
    rule = f.rule
    wf = (rule.weights * f.values).reshape(-1, haar_axis_length(rule))
    # per mode m and plane node a: sum_c conj(w f(a, c)) chi_m(c), rows contiguous
    axis = np.ascontiguousarray(np.fft.fft(wf, axis=1).T).conj()
    entries = {}
    for xi in dual:
        plane, modes = rep_factors(xi, rule)
        entries[xi] = fhat = np.empty((xi.dim, xi.dim), dtype=complex)
        for q, m in diagonal_modes(modes):    # entry (i, i + q) gives fhat[i + q, i]
            start = max(q, 0) * xi.dim + max(-q, 0)    # fhat's diagonal -q starts here, row-major
            fhat.reshape(-1)[start::xi.dim + 1][:xi.dim - abs(q)] = (
                axis[m] @ plane.diagonal(q, 1, 2)).conj()
    return FourierCoefficients(entries)


def fourier_inverse_on_rule(c: FourierCoefficients, rule: QuadratureRule) -> np.ndarray:
    """Inversion evaluated at every node, shape (n_nodes,).

    Per-mode plane sums, one product per diagonal of each label
    (``dual.diagonal_modes``, aliased ones adding into one mode), then one
    FFT along the axis; the rule must be a Haar product rule.
    """
    n_s = haar_axis_length(rule)
    sums = np.zeros((n_s, rule.n_nodes // n_s), dtype=complex)
    for xi in c.labels():
        plane, modes = rep_factors(xi, rule)
        coef = xi.dim * c.entries[xi]
        for q, m in diagonal_modes(modes):    # entry (i, i + q) pairs with coef[i + q, i]
            sums[m] += plane.diagonal(q, 1, 2) @ coef.diagonal(-q)
    # sum_m sums[m, a] chi_m(c): the unnormalized inverse DFT over m
    return np.fft.ifft(sums, axis=0, norm="forward").T.ravel()


def plancherel_norm(c: FourierCoefficients) -> float:
    return math.sqrt(sum(xi.dim * float(np.sum(np.abs(m) ** 2))
                         for xi, m in c.entries.items()))


def l2_norm(f: SampledFunction) -> float:
    return math.sqrt(max(float(np.sum(f.rule.weights * np.abs(f.values) ** 2)), 0.0))
