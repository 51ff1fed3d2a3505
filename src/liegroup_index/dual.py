"""Unitary dual enumeration, representation matrices and invariant derivatives.

Label conventions:

* torus: l in Z^n, dimension 1, Laplace eigenvalue 4*pi^2*|l|^2 for the
  character exp(2*pi*i*l.x);
* SU(2): twice-spin n = 2l in {0,1,2,...}, dimension n+1, eigenvalue
  l(l+1) = n(n+2)/4;
* SU(3): highest weight (a,b) in N0^2, dimension (a+1)(b+1)(a+b+2)/2,
  eigenvalue (a^2+b^2+ab)/3 + a + b.  Representation matrices for SU(3)
  are not provided.

The SU(2) matrices are built as symmetric powers of the defining
representation acting on homogeneous polynomials of degree n = 2l in two
variables (orthonormal monomial basis).  With the action f -> f(z g) the
twice-spin-1 matrix is the defining matrix itself, the construction is an
exact homomorphism, and no special functions are involved.  The Casimir
conventions above are the ones validated by the finite-difference
Laplacian oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import (GroupMismatchError, GroupPoint, GroupSpec, QuadratureRule,
                     group_mul)


class UnsupportedFeatureError(NotImplementedError):
    """Requested a feature outside the supported scope (e.g. SU(3) matrices)."""


@dataclass(frozen=True, order=False)
class IrrepLabel:
    """A point of the unitary dual with its dimension and Casimir eigenvalue."""

    group: GroupSpec
    label: tuple  # torus: l tuple; su2: (twice_spin,); su3: (a, b)

    @property
    def dim(self) -> int:
        if self.group.kind == "torus":
            return 1
        if self.group.kind == "su2":
            return self.label[0] + 1
        a, b = self.label
        return (a + 1) * (b + 1) * (a + b + 2) // 2

    @property
    def casimir(self) -> float:
        if self.group.kind == "torus":
            return 4.0 * math.pi ** 2 * sum(l * l for l in self.label)
        if self.group.kind == "su2":
            n = self.label[0]
            return n * (n + 2) / 4.0
        a, b = self.label
        return (a * a + b * b + a * b) / 3.0 + a + b

    @property
    def weight(self) -> float:
        # derived, never stored independently: weight^2 - 1 == casimir
        return math.sqrt(1.0 + self.casimir)

    @property
    def band(self) -> int:
        """Band parameter driving quadrature resolvability (|l|_inf or 2l)."""
        if self.group.kind == "torus":
            return max(abs(l) for l in self.label)
        if self.group.kind == "su2":
            return self.label[0]
        return self.label[0] + self.label[1]

    def sort_key(self):
        return (self.weight, self.label)

    def __str__(self):
        if self.group.kind == "su2":
            n = self.label[0]
            return f"l={n // 2}" if n % 2 == 0 else f"l={n}/2"
        return str(self.label)


def torus_label(group: GroupSpec, l: Sequence[int]) -> IrrepLabel:
    l = tuple(int(v) for v in l)
    if group.kind != "torus" or len(l) != group.n:
        raise GroupMismatchError(f"bad torus label {l} for {group}")
    return IrrepLabel(group, l)


def su2_label(twice_spin: int) -> IrrepLabel:
    if twice_spin < 0:
        raise ValueError("twice-spin must be >= 0")
    from .groups import SU2
    return IrrepLabel(SU2, (int(twice_spin),))


def su3_label(a: int, b: int) -> IrrepLabel:
    if a < 0 or b < 0:
        raise ValueError("highest weight components must be >= 0")
    from .groups import SU3
    return IrrepLabel(SU3, (int(a), int(b)))


def trivial_label(group: GroupSpec) -> IrrepLabel:
    if group.kind == "torus":
        return IrrepLabel(group, (0,) * group.n)
    if group.kind == "su2":
        return IrrepLabel(group, (0,))
    return IrrepLabel(group, (0, 0))


def enumerate_dual(group: GroupSpec, cutoff: float) -> list:
    """All labels with weight <= cutoff, sorted by (weight, label)."""
    if cutoff < 1.0:
        raise ValueError("cutoff must be >= 1")
    out = []
    if group.kind == "torus":
        # weight^2 = 1 + 4 pi^2 |l|^2
        lam_max = (cutoff * cutoff - 1.0) / (4.0 * math.pi ** 2)
        lmax = int(math.floor(math.sqrt(lam_max) + 1e-12))
        grids = np.meshgrid(*([np.arange(-lmax, lmax + 1)] * group.n), indexing="ij")
        for idx in zip(*(g.ravel() for g in grids)):
            if sum(v * v for v in idx) <= lam_max + 1e-12:
                out.append(IrrepLabel(group, tuple(int(v) for v in idx)))
    elif group.kind == "su2":
        n = 0
        while True:
            lab = IrrepLabel(group, (n,))
            if lab.weight > cutoff + 1e-12:
                break
            out.append(lab)
            n += 1
    else:
        a = 0
        while IrrepLabel(group, (a, 0)).weight <= cutoff + 1e-12:
            b = 0
            while True:
                lab = IrrepLabel(group, (a, b))
                if lab.weight > cutoff + 1e-12:
                    break
                out.append(lab)
                b += 1
            a += 1
    out.sort(key=IrrepLabel.sort_key)
    return out


def labels_for_band(group: GroupSpec, band: int) -> list:
    """Galerkin truncation family: torus box |l|_inf <= band, SU(2) 2l <= band."""
    if band < 0:
        raise ValueError("band must be >= 0")
    if group.kind == "torus":
        grids = np.meshgrid(*([np.arange(-band, band + 1)] * group.n), indexing="ij")
        labels = [IrrepLabel(group, tuple(int(v) for v in idx))
                  for idx in zip(*(g.ravel() for g in grids))]
    elif group.kind == "su2":
        labels = [IrrepLabel(group, (n,)) for n in range(band + 1)]
    else:
        raise UnsupportedFeatureError("SU(3) Galerkin bases are out of scope")
    labels.sort(key=IrrepLabel.sort_key)
    return labels


# ---------------------------------------------------------------------------
# representation matrices


@lru_cache(maxsize=None)
def _su2_expansion_terms(n: int):
    """Term list for the degree-n symmetric power: entries (j, k, coeff, exponents).

    t(g)[j, k] = sum_a  c(k)/c(j) * C(n-k, a) * C(k, j-a)
                 * g11^(n-k-a) g21^a g12^(k-j+a) g22^(j-a),  c(k) = sqrt(C(n,k)).
    """
    terms = []
    for j in range(n + 1):
        for k in range(n + 1):
            scale = math.sqrt(math.comb(n, k) / math.comb(n, j))
            for a in range(max(0, j - k), min(j, n - k) + 1):
                coeff = scale * math.comb(n - k, a) * math.comb(k, j - a)
                terms.append((j, k, coeff, n - k - a, a, k - j + a, j - a))
    return terms


def su2_rep_matrices(twice_spin: int, g: np.ndarray) -> np.ndarray:
    """Representation matrices for a batch of defining matrices.

    g has shape (..., 2, 2); the result has shape (..., d, d) with
    d = twice_spin + 1.  twice_spin = 1 returns g itself.
    """
    n = twice_spin
    g = np.asarray(g, dtype=complex)
    batch = g.shape[:-2]
    if n == 0:
        return np.ones(batch + (1, 1), dtype=complex)
    entries = [g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]]
    powers = []
    for e in entries:
        p = np.ones((n + 1,) + batch, dtype=complex)
        for q in range(1, n + 1):
            p[q] = p[q - 1] * e
        powers.append(p)
    p11, p12, p21, p22 = powers
    out = np.zeros(batch + (n + 1, n + 1), dtype=complex)
    for j, k, coeff, e11, e21, e12, e22 in _su2_expansion_terms(n):
        out[..., j, k] += coeff * p11[e11] * p21[e21] * p12[e12] * p22[e22]
    return out


def rep_matrix(xi: IrrepLabel, x: GroupPoint) -> np.ndarray:
    """Unitary matrix xi(x); torus characters are 1x1."""
    if xi.group != x.group:
        raise GroupMismatchError("label and point belong to different groups")
    if xi.group.kind == "torus":
        phase = 2.0 * math.pi * sum(l * c for l, c in zip(xi.label, x.chart))
        return np.array([[complex(math.cos(phase), math.sin(phase))]])
    if xi.group.kind == "su2":
        return su2_rep_matrices(xi.label[0], x.matrix)
    raise UnsupportedFeatureError("SU(3) representation matrices are out of scope")


def rep_matrices_on_rule(xi: IrrepLabel, rule: QuadratureRule) -> np.ndarray:
    """xi evaluated at every node of the rule, shape (n_nodes, d, d).

    Results are memoized on the rule object (read-mostly dict; concurrent
    duplicate computation is benign).
    """
    if xi.group != rule.group:
        raise GroupMismatchError("label and rule belong to different groups")
    cache = rule._node_cache.setdefault("_reps", {})
    hit = cache.get(xi.label)
    if hit is not None:
        return hit
    if xi.group.kind == "torus":
        phases = 2.0 * math.pi * (rule.charts @ np.asarray(xi.label, dtype=float))
        mats = np.exp(1j * phases)[:, None, None]
    elif xi.group.kind == "su2":
        mats = su2_rep_matrices(xi.label[0], rule.su2_matrices())
    else:
        raise UnsupportedFeatureError("SU(3) representation matrices are out of scope")
    mats.setflags(write=False)
    cache[xi.label] = mats
    return mats


# ---------------------------------------------------------------------------
# Lie algebra bases and left-invariant derivatives


_PAULI = [np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]

_GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / math.sqrt(3.0),
]


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Anti-Hermitian generators Y_j spanning the Lie algebra.

    The normalizations (-i/2 times Pauli resp. Gell-Mann matrices) are the
    ones under which sum_j d/ds^2 f(x exp(s Y_j)) reproduces the stored
    Casimir eigenvalues.  Torus generators are the coordinate directions.
    """

    group: GroupSpec
    generators: tuple

    def __len__(self):
        return len(self.generators)


def lie_basis(group: GroupSpec) -> LieBasis:
    if group.kind == "torus":
        gens = tuple(np.eye(group.n)[j] for j in range(group.n))
    elif group.kind == "su2":
        gens = tuple(-0.5j * s for s in _PAULI)
    else:
        gens = tuple(-0.5j * s for s in _GELL_MANN)
    return LieBasis(group, gens)


def _expm_antihermitian(a: np.ndarray) -> np.ndarray:
    if a.shape == (2, 2):
        # traceless 2x2: a^2 = -det(a) I, det >= 0 for anti-Hermitian a
        norm2 = float(np.real(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
        norm = math.sqrt(max(norm2, 0.0))
        if norm < 1e-300:
            return np.eye(2, dtype=complex) + a
        return math.cos(norm) * np.eye(2, dtype=complex) + (math.sin(norm) / norm) * a
    evals, vecs = np.linalg.eigh(1j * a)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def flow_point(x: GroupPoint, direction: np.ndarray, s: float) -> GroupPoint:
    """x * exp(s * Y) for a generator Y (torus: chart translation)."""
    if x.group.kind == "torus":
        return group_mul(x, GroupPoint(x.group, tuple(s * direction)))
    return GroupPoint(x.group, None, x.matrix @ _expm_antihermitian(s * direction))


def left_invariant_derivative(
    f: Callable[[GroupPoint], complex],
    j: int,
    x: GroupPoint,
    h: float = 1e-4,
    richardson: bool = False,
    basis: Optional[LieBasis] = None,
) -> complex:
    """Central difference of s -> f(x exp(s Y_j)) at s = 0."""
    if h <= 0:
        raise ValueError("step must be positive")
    basis = basis or lie_basis(x.group)
    y = basis.generators[j]

    def central(step):
        return (f(flow_point(x, y, step)) - f(flow_point(x, y, -step))) / (2.0 * step)

    if not richardson:
        return central(h)
    d1 = central(h)
    d2 = central(0.5 * h)
    return (4.0 * d2 - d1) / 3.0


def left_invariant_second_derivative(
    f: Callable[[GroupPoint], complex],
    j: int,
    x: GroupPoint,
    h: float = 1e-4,
    basis: Optional[LieBasis] = None,
) -> complex:
    """Second central difference of s -> f(x exp(s Y_j)) at s = 0."""
    basis = basis or lie_basis(x.group)
    y = basis.generators[j]
    return (f(flow_point(x, y, h)) - 2.0 * f(x) + f(flow_point(x, y, -h))) / (h * h)


def laplacian_fd(f: Callable[[GroupPoint], complex], x: GroupPoint,
                 h: float = 1e-4) -> complex:
    """Finite-difference group Laplacian sum_j d_j^2 f at x."""
    basis = lie_basis(x.group)
    return sum(left_invariant_second_derivative(f, j, x, h, basis)
               for j in range(len(basis)))
