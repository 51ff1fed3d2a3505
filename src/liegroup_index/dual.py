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
exact homomorphism, and no special functions are involved.  Degree n comes
from degree n - 1 in O(n^2) array operations on its upper half rows, the
lower half being their mirror, so all degrees up to B cost O(B^3) per node.
This one ladder serves every rule, once per rule: on a Haar product rule
every entry is a plane factor times one exact axis character
(``rep_factors``), so it runs on the plane nodes only; on a flowed or
one-node rule it runs on every node.  The Casimir conventions above are the
ones validated by the finite-difference Laplacian oracle in the tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .groups import (SU2, SU3, GroupMismatchError, GroupSpec, QuadratureRule,
                     _su2_matrices, flow_rule)


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


def _label(group: GroupSpec, values, nonnegative: bool) -> IrrepLabel:
    """The label of these integer components (numpy integers pass, 2.7 does not)."""
    try:
        label = tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"label components must be integers, got {list(values)}")
    if nonnegative and min(label) < 0:
        raise ValueError(f"label components must be >= 0, got {label}")
    return IrrepLabel(group, label)


def torus_label(group: GroupSpec, l: Sequence[int]) -> IrrepLabel:
    lab = _label(group, l, nonnegative=False)
    if group.kind != "torus" or len(lab.label) != group.n:
        raise GroupMismatchError(f"bad torus label {lab.label} for {group}")
    return lab


def su2_label(twice_spin: int) -> IrrepLabel:
    return _label(SU2, [twice_spin], nonnegative=True)


def su3_label(a: int, b: int) -> IrrepLabel:
    return _label(SU3, [a, b], nonnegative=True)


def trivial_label(group: GroupSpec) -> IrrepLabel:
    return IrrepLabel(group, (0,) * {"torus": group.n, "su2": 1, "su3": 2}[group.kind])


def _sorted_labels(group: GroupSpec, points: np.ndarray, weight: np.ndarray) -> list:
    """Labels of the integer point rows, sorted by (weight, label) in one
    lexsort; ``weight`` is IrrepLabel.weight's float expression per row."""
    order = np.lexsort((*points.T[::-1], weight))
    return [IrrepLabel(group, tuple(row)) for row in points[order].tolist()]


def _torus_labels(group: GroupSpec, half_width: int, lam_max: float = math.inf) -> list:
    """Torus labels of the box |l|_inf <= half_width with |l|^2 <= lam_max, sorted."""
    axis = np.arange(-half_width, half_width + 1)
    points = np.stack(np.meshgrid(*[axis] * group.n, indexing="ij"), -1).reshape(-1, group.n)
    points = points[(points * points).sum(axis=1) <= lam_max + 1e-12]
    weight = np.sqrt(1.0 + 4.0 * math.pi ** 2 * (points * points).sum(axis=1))
    return _sorted_labels(group, points, weight)


def enumerate_dual(group: GroupSpec, cutoff: float) -> list:
    """All labels with weight <= cutoff, sorted by (weight, label)."""
    if not 1.0 <= cutoff < math.inf:
        raise ValueError(f"cutoff must be finite and >= 1, got {cutoff}")
    if group.kind == "torus":
        # weight^2 = 1 + 4 pi^2 |l|^2
        lam_max = (cutoff * cutoff - 1.0) / (4.0 * math.pi ** 2)
        return _torus_labels(group, int(math.floor(math.sqrt(lam_max) + 1e-12)), lam_max)
    # the Casimir is at least (2l)^2/4, resp. (a+b)^2/4: weight <= cutoff
    # bounds 2l, resp. a and b, by 2*cutoff
    axis = np.arange(int(2 * cutoff) + 1)
    if group.kind == "su2":
        points, casimir = axis[:, None], axis * (axis + 2) / 4.0
    else:
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        a, b = points.T
        casimir = (a * a + b * b + a * b) / 3.0 + a + b
    weight = np.sqrt(1.0 + casimir)
    keep = weight <= cutoff + 1e-12
    return _sorted_labels(group, points[keep], weight[keep])


def labels_for_band(group: GroupSpec, band: int) -> list:
    """Galerkin truncation family: torus box |l|_inf <= band, SU(2) 2l <= band."""
    if operator.index(band) < 0:    # TypeError for 2.5: no half-integer labels
        raise ValueError("band must be >= 0")
    if group.kind == "torus":
        return _torus_labels(group, band)
    if group.kind == "su2":
        return [IrrepLabel(group, (n,)) for n in range(band + 1)]
    raise UnsupportedFeatureError("SU(3) Galerkin bases are out of scope")


# ---------------------------------------------------------------------------
# representation matrices


def _su2_ladder_step(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Degree n = len(t) from t, degree n - 1; entry axes first: t is
    (n, n, ...), g is (2, 2, ...).  Degree n sits isometrically in degree
    n - 1 tensor degree 1, monomial k at c_0(k) (k, 0) + c_1(k) (k - 1, 1)
    with c_0(k) = sqrt((n - k)/n), c_1(k) = sqrt(k/n), so entry (j, k) is
    sum_{s, s'} c_s(j) c_s'(k) g[s, s'] t[j - s, k - s'].  Being an
    isometry, it adds rounding errors up linearly in n.  Only rows j <= n // 2
    are summed: SU(2) has t[n - j, n - k] = (-1)^(j + k) conj t[j, k]."""
    n, h = len(t), len(t) // 2
    c = np.sqrt(np.array([np.arange(n, 0, -1), np.arange(1, n + 1)]) / n)  # k < n, k >= 1
    c = c.reshape((2, n) + (1,) * (t.ndim - 2))
    out = np.zeros((n + 1, n + 1) + t.shape[2:], dtype=complex)
    for s in (0, 1):
        rows = c[s][:h + 1 - s, None] * t[:h + 1 - s]
        for s2 in (0, 1):
            out[s:h + 1, s2:s2 + n] += rows * (c[s2] * g[s, s2])
    low = out[h + 1:]                 # row j of out is row j - h - 1 of low
    np.conjugate(out[n - h - 1::-1, ::-1], out=low)
    low[(h + 1) % 2::2, 1::2] *= -1   # j + k odd: j even, k odd
    low[h % 2::2, ::2] *= -1          # j odd, k even
    return out


def rep_matrices_on_rule(xi: IrrepLabel, rule: QuadratureRule) -> np.ndarray:
    """xi evaluated at every node of the rule, shape (n_nodes, d, d).

    On a Haar product rule these are the plane factors times the exact axis
    characters of their modes (``rep_factors``); on any other rule the SU(2)
    ladder (``_su2_ladder``) and the torus exponential run on every node.
    """
    if xi.group != rule.group:
        raise GroupMismatchError("label and rule belong to different groups")
    if (n_s := rule.axis_length) is not None:
        plane, modes = rep_factors(xi, rule)
        chars = _roots_of_unity(n_s)[(modes[..., None] * np.arange(n_s)) % n_s]  # (d, d, n_s)
        mats = np.moveaxis(plane, 0, -1)[..., None] * chars[:, :, None, :]
        return np.moveaxis(mats.reshape(xi.dim, xi.dim, rule.n_nodes), -1, 0)
    if xi.group.kind == "torus":
        phases = 2.0 * math.pi * (rule.charts @ np.asarray(xi.label, dtype=float))
        return np.exp(1j * phases)[:, None, None]
    if xi.group.kind == "su2":
        return _su2_ladder(rule, xi.label[0])
    raise UnsupportedFeatureError("SU(3) representation matrices are out of scope")


def _su2_ladder(rule: QuadratureRule, twice_spin: int) -> np.ndarray:
    """SU(2) matrices of this twice-spin, shape (nodes, d, d), on the plane
    nodes (axis coordinate 0) of a Haar product rule and on every node of any
    other rule (its ``defining_matrices``).  One degree ladder per rule,
    memoized on it: every degree climbed, and the top one, from which a
    higher degree resumes."""
    degrees = rule._node_cache.setdefault("_su2", {})
    if twice_spin not in degrees:
        n_s = rule.axis_length
        # one assignment replaces the top: concurrent resumptions are benign
        t, g = rule._node_cache.get("_ladder") or (None, np.moveaxis(
            rule.defining_matrices() if n_s is None
            else _su2_matrices(rule.charts[::n_s]), 0, -1))
        while t is None or len(t) <= twice_spin:
            t = (np.ones((1, 1, g.shape[-1]), dtype=complex) if t is None
                 else _su2_ladder_step(t, g))
            t.setflags(write=False)
            degrees[len(t) - 1] = np.moveaxis(t, (0, 1), (-2, -1))
        rule._node_cache["_ladder"] = t, g
    return degrees[twice_spin]


def haar_axis_length(rule: QuadratureRule) -> int:
    """Points on a Haar product rule's uniform axis; other rules raise ValueError."""
    if rule.axis_length is None:
        raise ValueError("the rule has no uniform axis: separating variables "
                         "needs a Haar product rule (haar_quadrature)")
    return rule.axis_length


def _roots_of_unity(n: int) -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(n) / n)


def axis_charges(xi: IrrepLabel) -> np.ndarray:
    """Integer axis charge of each entry of xi, shape (d, d): j - i for SU(2)
    entry (i, j), l[-1] for a torus label.  Entry (i, j) depends on the
    uniform axis of a Haar product rule only through the character of this
    charge (``rep_factors``)."""
    if xi.group.kind == "torus":
        return np.array([[xi.label[-1]]])
    if xi.group.kind == "su2":
        return np.arange(xi.dim)[None, :] - np.arange(xi.dim)[:, None]
    raise UnsupportedFeatureError("SU(3) representation matrices are out of scope")


def diagonal_modes(modes: np.ndarray) -> list:
    """(q, mode) per diagonal q of a label's (d, d) ``rep_factors`` modes:
    the entries (i, i + q) share one ``axis_charges`` charge, so one mode."""
    return [(q, modes[max(-q, 0), max(q, 0)]) for q in range(1 - len(modes), len(modes))]


def rep_factors(xi: IrrepLabel, rule: QuadratureRule) -> tuple:
    """(plane, modes) of xi on a Haar product rule (Kostelec & Rockmore).

    With n_s = rule.axis_length, entry (i, j) of xi at node a * n_s + c is
    plane[a, i, j] * exp(2 pi i ((modes[i, j] c) mod n_s) / n_s), where the
    mode is the entry's ``axis_charges`` mod n_s.  plane is xi on the nodes
    whose axis coordinate is 0: torus characters from the reduced integer
    phase (k.l) mod level, SU(2) from the rule's one degree ladder on
    (level+1)^2 matrices (``_su2_ladder``).  Memoized on the rule.  Any other
    rule raises ValueError (``haar_axis_length``).
    """
    if xi.group != rule.group:
        raise GroupMismatchError("label and rule belong to different groups")
    n_s = haar_axis_length(rule)
    cache = rule._node_cache.setdefault("_factors", {})
    if xi.label not in cache:
        modes = axis_charges(xi) % n_s
        if xi.group.kind == "torus":
            k = np.rint(rule.charts[::n_s] * n_s).astype(int)
            plane = _roots_of_unity(n_s)[(k @ np.asarray(xi.label)) % n_s][:, None, None]
            plane.setflags(write=False)
        else:
            plane = _su2_ladder(rule, xi.label[0])
        cache[xi.label] = plane, modes
    return cache[xi.label]


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


def lie_basis(group: GroupSpec) -> tuple:
    """Anti-Hermitian generators Y_j spanning the Lie algebra.

    The normalizations (-i/2 times Pauli resp. Gell-Mann matrices) are the
    ones under which sum_j d/ds^2 f(x exp(s Y_j)) reproduces the stored
    Casimir eigenvalues.  Torus generators are the coordinate directions.
    """
    if group.kind == "torus":
        return tuple(np.eye(group.n))
    return tuple(-0.5j * s for s in (_PAULI if group.kind == "su2" else _GELL_MANN))


def left_invariant_derivative(
    f: Callable[[QuadratureRule], np.ndarray],
    j: int,
    rule: QuadratureRule,
    h: float = 1e-4,
) -> np.ndarray:
    """Central difference of s -> f(x exp(s Y_j)) at s = 0, at every node.

    f maps a rule to per-node values (first axis the node); a single point
    is ``point_rule(x)``.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    y = lie_basis(rule.group)[j]
    return (f(flow_rule(rule, y, h)) - f(flow_rule(rule, y, -h))) / (2.0 * h)


def left_invariant_second_derivative(
    f: Callable[[QuadratureRule], np.ndarray],
    j: int,
    rule: QuadratureRule,
    h: float = 1e-4,
) -> np.ndarray:
    """Second central difference of s -> f(x exp(s Y_j)) at s = 0, at every node."""
    y = lie_basis(rule.group)[j]
    return (f(flow_rule(rule, y, h)) - 2.0 * f(rule) + f(flow_rule(rule, y, -h))) / (h * h)


def laplacian_fd(f: Callable[[QuadratureRule], np.ndarray], rule: QuadratureRule,
                 h: float = 1e-4) -> np.ndarray:
    """Finite-difference group Laplacian sum_j d_j^2 f at every node."""
    return sum(left_invariant_second_derivative(f, j, rule, h)
               for j in range(rule.group.manifold_dim))
