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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi


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
            chart = _su2_chart_from_matrix(self.matrix)
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


def _su2_matrix(x1: float, x2: float, x3: float, x4: float) -> np.ndarray:
    return np.array([[x1 + 1j * x2, x3 + 1j * x4],
                     [-x3 + 1j * x4, x1 - 1j * x2]], dtype=complex)


def _su2_chart_from_matrix(m: np.ndarray) -> tuple:
    x1 = float(np.real(m[0, 0]))
    x2 = float(np.imag(m[0, 0]))
    x3 = float(np.real(m[0, 1]))
    x4 = float(np.imag(m[0, 1]))
    t = 2.0 * math.acos(min(1.0, max(-1.0, x1)))
    s = math.atan2(x4, x3) % (2.0 * math.pi)
    return (t, x2, s)


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
    if abs(nu) > r + 1e-14:
        raise ChartDomainError(f"|nu| = {abs(nu)} exceeds sin(t/2) = {r}")
    rho = math.sqrt(max(r * r - nu * nu, 0.0))
    g = _su2_matrix(math.cos(0.5 * t), nu, rho * math.cos(s), rho * math.sin(s))
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
    c1, c2, c3 = math.cos(t1), math.cos(t2), math.cos(t3)
    s1, s2, s3 = math.sin(t1), math.sin(t2), math.sin(t3)
    e = lambda a: complex(math.cos(a), math.sin(a))
    u = np.empty((3, 3), dtype=complex)
    u[0, 0] = c1 * c2 * e(p1)
    u[0, 1] = s1 * e(p3)
    u[0, 2] = c1 * s2 * e(p4)
    u[1, 0] = s2 * s3 * e(-p4 - p5) - s1 * c2 * c3 * e(p1 + p2 - p3)
    u[1, 1] = c1 * c3 * e(p2)
    u[1, 2] = -c2 * s3 * e(-p1 - p5) - s1 * s2 * c3 * e(p2 - p3 + p4)
    u[2, 0] = -s1 * c2 * s3 * e(p1 - p3 + p5) - s2 * c3 * e(-p2 - p4)
    u[2, 1] = c1 * s3 * e(p5)
    u[2, 2] = c2 * c3 * e(-p1 - p2) - s1 * s2 * s3 * e(-p3 + p4 + p5)
    return GroupPoint(SU3, (t1, t2, t3, p1, p2, p3, p4, p5), u)


def group_mul(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """Group product; matrix-group results carry the matrix only."""
    if a.group != b.group:
        raise GroupMismatchError(f"cannot multiply points of {a.group} and {b.group}")
    if a.group.kind == "torus":
        return GroupPoint(a.group, tuple(x + y for x, y in zip(a.chart, b.chart)))
    return GroupPoint(a.group, None, a.matrix @ b.matrix)


def group_inv(a: GroupPoint) -> GroupPoint:
    if a.group.kind == "torus":
        return GroupPoint(a.group, tuple(-x for x in a.chart))
    return GroupPoint(a.group, None, a.matrix.conj().T)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for the normalized Haar measure.

    ``charts`` has one row per node (torus x1..xn; SU(2) t, nu, s; SU(3)
    theta1..theta3, phi1..phi5); ``weights`` are nonnegative and sum to 1
    up to roundoff.  ``matrices``, when given, holds the defining matrices
    at the nodes and replaces the ones rebuilt from the charts.
    GroupPoint objects are materialized lazily.
    """

    group: GroupSpec
    level: int
    charts: np.ndarray
    weights: np.ndarray
    matrices: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _node_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.charts.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def node(self, i: int) -> GroupPoint:
        cached = self._node_cache.get(i)
        if cached is not None:
            return cached
        row = self.charts[i]
        if self.group.kind == "torus":
            p = GroupPoint(self.group, tuple(row))
        elif self.group.kind == "su2":
            p = su2_point(row[0], row[1], row[2])
        else:
            p = su3_point(row[:3], row[3:])
        self._node_cache[i] = p
        return p

    def iter_nodes(self) -> Iterator[GroupPoint]:
        for i in range(self.n_nodes):
            yield self.node(i)

    def su2_matrices(self) -> np.ndarray:
        """Defining matrices at all nodes, shape (n_nodes, 2, 2)."""
        if self.group.kind != "su2":
            raise GroupMismatchError("su2_matrices needs an SU(2) rule")
        if self.matrices is not None:
            return self.matrices
        t = self.charts[:, 0]
        nu = self.charts[:, 1]
        s = self.charts[:, 2]
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
    rule = QuadratureRule(x.group, 0, np.array([chart], dtype=float),
                          np.ones(1), matrices)
    rule._node_cache[0] = x
    return rule


def _chebyshev_u_rule(n: int):
    """Gauss rule for the weight sqrt(1-u^2) on [-1,1]; weights sum to pi/2."""
    k = np.arange(1, n + 1)
    theta = k * np.pi / (n + 1)
    return np.cos(theta), (np.pi / (n + 1)) * np.sin(theta) ** 2


def _jacobi01_rule(n: int):
    """Gauss rule for the weight u du on [0,1]; weights sum to 1/2."""
    x, w = roots_jacobi(n, 0.0, 1.0)  # weight (1+x) on [-1,1]
    return 0.5 * (x + 1.0), 0.25 * w


def _legendre01_rule(n: int):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def haar_quadrature(group: GroupSpec, level: int) -> QuadratureRule:
    """Product quadrature rule for the normalized Haar measure.

    Node counts: torus level^n; SU(2) 2*(level+1)^3; SU(3) level^8.
    Torus rules integrate characters exp(2*pi*i*l.x) exactly for
    |l|_inf < level.  SU(2) rules are exact for any polynomial of total
    degree <= 2*level + 1 in the matrix coordinates (x1..x4); entries of
    t_l have degree 2l, so products from t_l and t_l' resolve whenever
    2(l + l') <= 2*level + 1.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if group.kind == "torus":
        grid = np.arange(level) / level
        mesh = np.meshgrid(*([grid] * group.n), indexing="ij")
        charts = np.stack([m.ravel() for m in mesh], axis=1)
        weights = np.full(charts.shape[0], 1.0 / level ** group.n)
        return QuadratureRule(group, level, charts, weights)

    if group.kind == "su2":
        # u = cos(t/2) carries the measure factor sqrt(1-u^2) (Chebyshev-II),
        # nu = sin(t/2)*p with p Gauss-Legendre, s uniform (exact for trig
        # polynomials of degree < n_s).  Total mass is exactly
        # 2*(pi/2)*2*(2*pi) / (4*pi^2) = 1.
        n_gauss = level + 1
        n_s = 2 * (level + 1)
        u, wu = _chebyshev_u_rule(n_gauss)
        p, wp = leggauss(n_gauss)
        s = 2.0 * np.pi * np.arange(n_s) / n_s
        ws = 2.0 * np.pi / n_s
        t = 2.0 * np.arccos(np.clip(u, -1.0, 1.0))
        r = np.sqrt(np.maximum(1.0 - u ** 2, 0.0))
        shape = (n_gauss, n_gauss, n_s)
        tt = np.broadcast_to(t[:, None, None], shape)
        nn = np.broadcast_to(r[:, None, None] * p[None, :, None], shape)
        ss = np.broadcast_to(s[None, None, :], shape)
        charts = np.stack([tt.ravel(), nn.ravel(), ss.ravel()], axis=1)
        w = (2.0 * wu)[:, None, None] * wp[None, :, None] * ws / (4.0 * np.pi ** 2)
        weights = np.broadcast_to(w, shape).ravel().copy()
        return QuadratureRule(group, level, charts, weights)

    # SU(3): per-theta Gauss rules built through the substitution u = cos^2(theta)
    # (Gauss-Jacobi for the sin*cos^3 axis, Gauss-Legendre for the sin*cos axes),
    # uniform in each phi.  The per-axis masses are exact (1/4, 1/2, 1/2, (2*pi)^5)
    # so multiplying by the density constant 1/(2*pi^5) gives total mass 1 up to
    # roundoff; a wrong constant would show up directly in the weight sum.
    n = level
    u1, w1 = _jacobi01_rule(n)
    u2, w2 = _legendre01_rule(n)
    w1 = 0.5 * w1                   # mass 1/4 = integral of sin*cos^3
    w2 = 0.5 * w2                   # mass 1/2 = integral of sin*cos
    th1 = np.arccos(np.sqrt(u1))
    th2 = np.arccos(np.sqrt(u2))
    phi = 2.0 * np.pi * np.arange(n) / n
    wphi = np.full(n, 2.0 * np.pi / n)
    axes = [th1, th2, th2, phi, phi, phi, phi, phi]
    waxes = [w1, w2, w2, wphi, wphi, wphi, wphi, wphi]
    shape = (n,) * 8
    charts = np.empty((n ** 8, 8))
    weights = np.ones(n ** 8)
    for ax in range(8):
        expand = [1] * 8
        expand[ax] = n
        charts[:, ax] = np.broadcast_to(axes[ax].reshape(expand), shape).ravel()
        weights *= np.broadcast_to(waxes[ax].reshape(expand), shape).ravel()
    weights /= 2.0 * np.pi ** 5
    return QuadratureRule(group, level, charts, weights)


def min_level_for_band(group: GroupSpec, band: int) -> int:
    """Smallest quadrature level resolving inner products of two band-limited
    factors (torus: |l|_inf <= band; SU(2): twice-spin <= band).

    Torus: product frequencies reach 2*band, so level = 2*band + 1.
    SU(2): the integrand has polynomial degree 2*band in the matrix
    coordinates and the rule is exact through degree 2*level + 1, so
    level = band suffices.
    """
    if group.kind == "torus":
        return 2 * band + 1
    if group.kind == "su2":
        return max(band, 1)
    return 1
