"""Charts, group operations and normalized-Haar quadrature for T^n, SU(2), SU(3).

Supported groups and their charts:

* ``Torus(n)``  -- coordinates x in [0,1)^n, group law is addition mod 1.
* ``SU(2)``     -- chart (t, nu, s) with |nu| <= sin(t/2), 0 <= t, s <= 2*pi,
  mapped to g = [[x1+i*x2, x3+i*x4], [-x3+i*x4, x1-i*x2]] where
  x1 = cos(t/2), x2 = nu, x3 = sqrt(sin(t/2)^2 - nu^2) cos s,
  x4 = sqrt(sin(t/2)^2 - nu^2) sin s.  Surface density sin(t/2) dt dnu ds,
  total mass 4*pi^2.
* ``SU(3)``     -- Bronzan angles (theta1..3, phi1..5) with
  0 <= theta_i <= pi/2, 0 <= phi_i <= 2*pi and density
  (1/(2*pi^5)) sin(t1) cos(t1)^3 sin(t2) cos(t2) sin(t3) cos(t3).

All quadrature rules integrate against the *normalized* Haar measure: the
weights of every rule sum to 1 up to roundoff, without any a-posteriori
rescaling (the per-axis Gauss rules are exact for the angular densities).
Haar rules record their plane-times-uniform-axis product structure
(``QuadratureRule.axis_length``); flowed and one-node rules do not.  A rule
holds node arrays, never GroupPoints, and every level choice comes from
one exactness rule, ``min_level_for_degree``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss


class GroupMismatchError(ValueError):
    """Two points (or a point and a rule) belong to different groups."""


class ChartDomainError(ValueError):
    """Chart coordinates violate the chart's domain."""


@dataclass(frozen=True)
class GroupSpec:
    """One of the three supported compact groups.

    kind is "torus", "su2" or "su3"; n is the torus dimension (1 for the
    matrix groups).
    """

    kind: str
    n: int = 1

    def __post_init__(self):
        if self.kind not in ("torus", "su2", "su3"):
            raise ValueError(f"unsupported group kind {self.kind!r}")
        if self.kind == "torus" and self.n < 1:
            raise ValueError("torus dimension must be >= 1")
        if self.kind != "torus" and self.n != 1:
            raise ValueError("n is only meaningful for the torus")

    @property
    def manifold_dim(self) -> int:
        return {"torus": self.n, "su2": 3, "su3": 8}[self.kind]

    @property
    def matrix_size(self) -> int:
        if self.kind == "torus":
            raise ValueError("torus points carry no defining matrix")
        return 2 if self.kind == "su2" else 3

    def __str__(self):
        return f"T^{self.n}" if self.kind == "torus" else self.kind.upper().replace("SU", "SU(") + ")"


def torus(n: int) -> GroupSpec:
    return GroupSpec("torus", n)


SU2 = GroupSpec("su2")
SU3 = GroupSpec("su3")


@dataclass(frozen=True, eq=False)
class GroupPoint:
    """A group element: chart coordinates plus, for matrix groups, the matrix.

    After multiplications the chart may be dropped (matrix-only point); it is
    recovered lazily through ``chart`` where a recovery formula exists.
    """

    group: GroupSpec
    _chart: Optional[tuple] = None
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.group.kind == "torus":
            if self._chart is None:
                raise ValueError("torus points need chart coordinates")
            object.__setattr__(self, "_chart", tuple(float(c) % 1.0 for c in self._chart))
        else:
            if self.matrix is None:
                raise ValueError("matrix-group points need the defining matrix")
            m = np.asarray(self.matrix, dtype=complex)
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
            d = self.group.matrix_size
            if m.shape != (d, d):
                raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")

    @property
    def chart(self) -> tuple:
        if self._chart is not None:
            return self._chart
        if self.group.kind == "su2":
            chart = tuple(float(c) for c in _su2_charts(self.matrix[None])[0])
            object.__setattr__(self, "_chart", chart)
            return chart
        raise NotImplementedError("chart recovery is not available for SU(3) points")

    def unitarity_defect(self) -> float:
        if self.group.kind == "torus":
            return 0.0
        m = self.matrix
        return float(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max())

    def det_defect(self) -> float:
        if self.group.kind == "torus":
            return 0.0
        return float(abs(np.linalg.det(self.matrix) - 1.0))


def _su2_matrices(charts: np.ndarray) -> np.ndarray:
    """SU(2) matrices at chart rows (t, nu, s), shape (n, 2, 2)."""
    t = charts[:, 0]
    nu = charts[:, 1]
    s = charts[:, 2]
    x1 = np.cos(0.5 * t)
    rho = np.sqrt(np.maximum(np.sin(0.5 * t) ** 2 - nu ** 2, 0.0))
    x3 = rho * np.cos(s)
    x4 = rho * np.sin(s)
    g = np.empty((len(t), 2, 2), dtype=complex)
    g[:, 0, 0] = x1 + 1j * nu
    g[:, 0, 1] = x3 + 1j * x4
    g[:, 1, 0] = -x3 + 1j * x4
    g[:, 1, 1] = x1 - 1j * nu
    return g


def _su2_charts(g: np.ndarray) -> np.ndarray:
    """Chart rows (t, nu, s) of SU(2) matrices of shape (n, 2, 2)."""
    t = 2.0 * np.arccos(np.clip(g[:, 0, 0].real, -1.0, 1.0))
    s = np.arctan2(g[:, 0, 1].imag, g[:, 0, 1].real) % (2.0 * np.pi)
    return np.stack([t, g[:, 0, 0].imag, s], axis=1)


def _su3_matrices(charts: np.ndarray) -> np.ndarray:
    """SU(3) matrices at Bronzan chart rows (theta1..3, phi1..5), shape (n, 3, 3)."""
    c1, c2, c3 = np.cos(charts[:, :3]).T
    s1, s2, s3 = np.sin(charts[:, :3]).T
    p1, p2, p3, p4, p5 = charts[:, 3:].T
    e = lambda a: np.exp(1j * a)
    u = np.empty((len(charts), 3, 3), dtype=complex)
    u[:, 0, 0] = c1 * c2 * e(p1)
    u[:, 0, 1] = s1 * e(p3)
    u[:, 0, 2] = c1 * s2 * e(p4)
    u[:, 1, 0] = s2 * s3 * e(-p4 - p5) - s1 * c2 * c3 * e(p1 + p2 - p3)
    u[:, 1, 1] = c1 * c3 * e(p2)
    u[:, 1, 2] = -c2 * s3 * e(-p1 - p5) - s1 * s2 * c3 * e(p2 - p3 + p4)
    u[:, 2, 0] = -s1 * c2 * s3 * e(p1 - p3 + p5) - s2 * c3 * e(-p2 - p4)
    u[:, 2, 1] = c1 * s3 * e(p5)
    u[:, 2, 2] = c2 * c3 * e(-p1 - p2) - s1 * s2 * s3 * e(-p3 + p4 + p5)
    return u


def identity(group: GroupSpec) -> GroupPoint:
    """Identity element; its matrix is the identity matrix."""
    if group.kind == "torus":
        return GroupPoint(group, tuple(0.0 for _ in range(group.n)))
    d = group.matrix_size
    chart = (0.0, 0.0, 0.0) if group.kind == "su2" else (0.0,) * 8
    return GroupPoint(group, chart, np.eye(d, dtype=complex))


def torus_point(group: GroupSpec, coords: Sequence[float]) -> GroupPoint:
    if group.kind != "torus":
        raise GroupMismatchError("torus_point needs a torus group")
    coords = tuple(coords)
    if len(coords) != group.n:
        raise ChartDomainError(f"expected {group.n} coordinates, got {len(coords)}")
    return GroupPoint(group, coords)


def su2_point(t: float, nu: float, s: float) -> GroupPoint:
    """SU(2) element from the chart (t, nu, s); rejects |nu| > sin(t/2)."""
    if not (0.0 <= t <= 2.0 * math.pi and 0.0 <= s <= 2.0 * math.pi):
        raise ChartDomainError(f"t and s must lie in [0, 2*pi], got t={t}, s={s}")
    r = math.sin(0.5 * t)
    # tiny negative radicands from roundoff at |nu| = sin(t/2) are clipped
    # by the matrix map
    if abs(nu) > r + 1e-14:
        raise ChartDomainError(f"|nu| = {abs(nu)} exceeds sin(t/2) = {r}")
    g = _su2_matrices(np.array([[t, nu, s]], dtype=float))[0]
    return GroupPoint(SU2, (t, nu, s), g)


def su3_point(thetas: Sequence[float], phis: Sequence[float]) -> GroupPoint:
    """SU(3) element from Bronzan angles (3 thetas in [0,pi/2], 5 phis in [0,2*pi])."""
    t1, t2, t3 = thetas
    p1, p2, p3, p4, p5 = phis
    for t in (t1, t2, t3):
        if not 0.0 <= t <= math.pi / 2 + 1e-14:
            raise ChartDomainError(f"theta = {t} outside [0, pi/2]")
    for p in (p1, p2, p3, p4, p5):
        if not 0.0 <= p <= 2.0 * math.pi + 1e-12:
            raise ChartDomainError(f"phi = {p} outside [0, 2*pi]")
    chart = (t1, t2, t3, p1, p2, p3, p4, p5)
    return GroupPoint(SU3, chart, _su3_matrices(np.array([chart], dtype=float))[0])


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for the normalized Haar measure.

    ``charts`` has one row per node (torus x1..xn; SU(2) t, nu, s; SU(3)
    theta1..theta3, phi1..phi5); ``weights`` are nonnegative and sum to 1
    up to roundoff.  ``matrices``, when given, holds the defining matrices
    at the nodes and replaces the ones rebuilt from the charts.
    ``axis_length`` is set by ``haar_quadrature`` only: such a rule is a
    plane times a uniform innermost axis (torus: the last coordinate; SU(2):
    s; SU(3): phi5) of that many points with weights constant along it, node
    a * axis_length + c sitting at plane node a and axis point c, so that
    Peter-Weyl sums on it separate variables (``dual.rep_factors``).
    ``_node_cache`` holds the tables memoized on the rule.
    """

    group: GroupSpec
    level: int
    charts: np.ndarray
    weights: np.ndarray
    matrices: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    axis_length: Optional[int] = None
    _node_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.charts.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def defining_matrices(self) -> np.ndarray:
        """Defining matrices at all nodes, shape (n_nodes, d, d)."""
        if self.matrices is not None:
            return self.matrices
        if self.group.kind == "su2":
            return _su2_matrices(self.charts)
        if self.group.kind == "su3":
            return _su3_matrices(self.charts)
        raise GroupMismatchError("torus rules carry no defining matrices")


def point_rule(x: GroupPoint) -> QuadratureRule:
    """One-node rule at x with weight 1: a point for batched evaluators.

    Matrix-group rules carry x's own matrix, so evaluators sample x itself
    rather than the matrix rebuilt from its recovered chart.  A matrix-only
    SU(3) point, whose chart cannot be recovered, gets a NaN chart row.
    """
    try:
        chart = x.chart
    except NotImplementedError:
        chart = (math.nan,) * x.group.manifold_dim
    matrices = None if x.group.kind == "torus" else x.matrix[None]
    return QuadratureRule(x.group, 0, np.array([chart], dtype=float),
                          np.ones(1), matrices)


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


def flow_rule(rule: QuadratureRule, direction: np.ndarray, s: float) -> QuadratureRule:
    """The rule with every node x right-translated to x exp(s Y).

    Torus charts shift by s Y mod 1.  Matrix-group rules multiply their
    node matrices by exp(s Y) and carry the products, so evaluators sample
    the flowed nodes themselves; SU(2) charts are recovered from them and
    SU(3) charts, which have no recovery formula, are NaN.
    """
    if rule.group.kind == "torus":
        # the shift is reduced mod 1 first, as torus points store it
        charts = (rule.charts + (s * direction) % 1.0) % 1.0
        return QuadratureRule(rule.group, rule.level, charts, rule.weights)
    mats = rule.defining_matrices() @ _expm_antihermitian(s * direction)
    charts = (_su2_charts(mats) if rule.group.kind == "su2"
              else np.full((len(mats), 8), math.nan))
    return QuadratureRule(rule.group, rule.level, charts, rule.weights, mats)


def _chebyshev_u_rule(n: int):
    """Gauss rule for the weight sqrt(1-u^2) on [-1,1]; weights sum to pi/2."""
    k = np.arange(1, n + 1)
    theta = k * np.pi / (n + 1)
    return np.cos(theta), (np.pi / (n + 1)) * np.sin(theta) ** 2


def _jacobi01_rule(n: int):
    """Gauss rule for the weight u du on [0,1]; weights sum to 1/2.

    Golub-Welsch for the Jacobi weight (1+x) on [-1,1] (alpha = 0,
    beta = 1, mass 2): the nodes are the eigenvalues of the symmetric
    tridiagonal recurrence matrix, the weights 2 times the squared first
    components of its eigenvectors.
    """
    k = np.arange(n)
    diag = 1.0 / ((2 * k + 1) * (2 * k + 3))
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2 * k[1:] + 1)
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), 0.5 * vecs[0] ** 2


def _legendre01_rule(n: int):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _su3_axes(n: int) -> tuple:
    """Per-axis (nodes, weights) of the SU(3) rule: theta through u = cos^2,
    Gauss-Jacobi for sin*cos^3 (mass 1/4), Gauss-Legendre for sin*cos (1/2);
    each phi uniform (2*pi)."""
    (u1, w1), (u2, w2) = _jacobi01_rule(n), _legendre01_rule(n)
    th1, th2 = np.arccos(np.sqrt(u1)), np.arccos(np.sqrt(u2))
    phi = 2.0 * np.pi * np.arange(n) / n
    return ([th1, th2, th2] + [phi] * 5,
            [0.5 * w1, 0.5 * w2, 0.5 * w2] + [np.full(n, 2.0 * np.pi / n)] * 5)


def haar_weights(group: GroupSpec, level: int) -> np.ndarray:
    """The weights of ``haar_quadrature(group, level)``, without its charts:
    the outer product of the per-axis weights (innermost axis last) over the
    density's total mass (SU(2) 4*pi^2, SU(3) 2*pi^5), so they sum to 1 up
    to roundoff exactly when that constant is right."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if group.kind == "torus":
        return np.full(level ** group.n, 1.0 / level ** group.n)
    if group.kind == "su2":
        n_s = 2 * (level + 1)
        axes = [2.0 * _chebyshev_u_rule(level + 1)[1], leggauss(level + 1)[1],
                np.full(n_s, 2.0 * np.pi / n_s)]
        mass = 4.0 * np.pi ** 2
    else:
        axes, mass = _su3_axes(level)[1], 2.0 * np.pi ** 5
    weights = functools.reduce(np.multiply.outer, axes).ravel()
    return np.divide(weights, mass, out=weights)


def haar_quadrature(group: GroupSpec, level: int) -> QuadratureRule:
    """Product quadrature rule for the normalized Haar measure.

    Node counts: torus level^n; SU(2) 2*(level+1)^3; SU(3) level^8.
    Torus rules integrate characters exp(2*pi*i*l.x) exactly for
    |l|_inf < level.  SU(2) rules are exact for any polynomial of total
    degree <= 2*level + 1 in the matrix coordinates (x1..x4); entries of
    t_l have degree 2l, so products from t_l and t_l' resolve whenever
    2(l + l') <= 2*level + 1.  The weights are ``haar_weights``.
    """
    weights = haar_weights(group, level)
    if group.kind == "torus":
        grid = np.arange(level) / level
        mesh = np.meshgrid(*([grid] * group.n), indexing="ij")
        charts = np.stack([m.ravel() for m in mesh], axis=1)
        return QuadratureRule(group, level, charts, weights, axis_length=level)

    if group.kind == "su2":
        # u = cos(t/2) carries the measure factor sqrt(1-u^2) (Chebyshev-II),
        # nu = sin(t/2)*p with p Gauss-Legendre, s uniform (exact for trig
        # polynomials of degree < n_s).  Total mass is exactly
        # 2*(pi/2)*2*(2*pi) / (4*pi^2) = 1.
        n_gauss = level + 1
        n_s = 2 * n_gauss
        u, p = _chebyshev_u_rule(n_gauss)[0], leggauss(n_gauss)[0]
        s = 2.0 * np.pi * np.arange(n_s) / n_s
        t = 2.0 * np.arccos(np.clip(u, -1.0, 1.0))
        r = np.sqrt(np.maximum(1.0 - u ** 2, 0.0))
        shape = (n_gauss, n_gauss, n_s)
        tt = np.broadcast_to(t[:, None, None], shape)
        nn = np.broadcast_to(r[:, None, None] * p[None, :, None], shape)
        ss = np.broadcast_to(s[None, None, :], shape)
        charts = np.stack([tt.ravel(), nn.ravel(), ss.ravel()], axis=1)
        return QuadratureRule(group, level, charts, weights, axis_length=n_s)

    # SU(3): Bronzan angles on the per-axis rules of ``_su3_axes``
    mesh = np.meshgrid(*_su3_axes(level)[0], indexing="ij", sparse=True)
    charts = np.empty((level ** 8, 8))
    for ax, m in enumerate(mesh):
        charts[:, ax] = np.broadcast_to(m, (level,) * 8).ravel()
    return QuadratureRule(group, level, charts, weights, axis_length=level)


def min_level_for_degree(group: GroupSpec, degree: int) -> int:
    """Smallest quadrature level exact for a product of Peter-Weyl entries of
    total degree ``degree`` in band units (torus: frequencies |k|_inf <=
    degree; SU(2): twice-spins summing to degree).

    Torus rules resolve frequencies below the level, so level = degree + 1.
    SU(2): the integrand has polynomial degree ``degree`` in the matrix
    coordinates and the rule is exact through degree 2*level + 1, so
    level = ceil(degree / 2), at least 1.  SU(3): 1.
    """
    if group.kind == "torus":
        return degree + 1
    if group.kind == "su2":
        return max(-(-degree // 2), 1)
    return 1


def min_level_for_band(group: GroupSpec, band: int) -> int:
    """Smallest quadrature level resolving inner products of two band-limited
    factors (torus: |l|_inf <= band; SU(2): twice-spin <= band): the
    products reach degree 2*band (``min_level_for_degree``)."""
    return min_level_for_degree(group, 2 * band)
