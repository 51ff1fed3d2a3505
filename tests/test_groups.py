import itertools

import numpy as np
import pytest

import liegroup_index as li
from conftest import random_su2_point


def test_identity_elements(t1, t2):
    assert li.identity(t2).chart == (0.0, 0.0)
    np.testing.assert_array_equal(li.identity(li.SU2).matrix, np.eye(2))
    np.testing.assert_array_equal(li.identity(li.SU3).matrix, np.eye(3))
    assert li.identity(t1).chart == (0.0,)


def test_su2_point_identity_and_quarter_turn():
    np.testing.assert_allclose(li.su2_point(0.0, 0.0, 0.0).matrix, np.eye(2), atol=1e-15)
    # direct substitution: x1 = cos(pi/2) = 0, x3 = sin(pi/2) = 1
    np.testing.assert_allclose(li.su2_point(np.pi, 0.0, 0.0).matrix,
                               np.array([[0, 1], [-1, 0]]), atol=1e-15)


def test_su2_point_unitary_det(rng):
    worst_u = worst_d = 0.0
    for _ in range(300):
        g = random_su2_point(rng)
        worst_u = max(worst_u, g.unitarity_defect())
        worst_d = max(worst_d, g.det_defect())
    assert worst_u <= 1e-12
    assert worst_d <= 1e-12


def test_su2_point_domain_rejected():
    with pytest.raises(li.ChartDomainError):
        li.su2_point(0.1, 0.9, 0.0)  # |nu| > sin(t/2)
    with pytest.raises(li.ChartDomainError):
        li.su2_point(-0.5, 0.0, 0.0)


def test_su3_point_identity():
    g = li.su3_point((0.0, 0.0, 0.0), (0.0,) * 5)
    np.testing.assert_allclose(g.matrix, np.eye(3), atol=1e-15)


def test_su3_point_unitary_det(rng):
    worst_u = worst_d = 0.0
    for _ in range(300):
        th = rng.uniform(0.0, np.pi / 2, 3)
        ph = rng.uniform(0.0, 2.0 * np.pi, 5)
        g = li.su3_point(th, ph)
        worst_u = max(worst_u, g.unitarity_defect())
        worst_d = max(worst_d, g.det_defect())
    assert worst_u <= 1e-10
    assert worst_d <= 1e-10


def test_su3_point_range_rejected():
    with pytest.raises(li.ChartDomainError):
        li.su3_point((2.0, 0.0, 0.0), (0.0,) * 5)
    with pytest.raises(li.ChartDomainError):
        li.su3_point((0.0, 0.0, 0.0), (7.0, 0.0, 0.0, 0.0, 0.0))


def test_chart_recovery_after_mul(rng):
    a, b = random_su2_point(rng), random_su2_point(rng)
    ab = li.GroupPoint(li.SU2, None, a.matrix @ b.matrix)
    rebuilt = li.su2_point(*ab.chart)
    np.testing.assert_allclose(rebuilt.matrix, ab.matrix, atol=1e-12)


def test_su3_chart_recovery_unavailable(rng):
    th = rng.uniform(0, np.pi / 2, 3)
    ph = rng.uniform(0, 2 * np.pi, 5)
    p = li.su3_point(th, ph)
    prod = li.GroupPoint(li.SU3, None, p.matrix @ p.matrix)
    with pytest.raises(NotImplementedError):
        prod.chart


def test_torus_rule_uniform(t1):
    rule = li.haar_quadrature(t1, 8)
    assert rule.n_nodes == 8
    np.testing.assert_allclose(rule.weights, 1 / 8)


def test_torus_rule_character_exactness(t1):
    # integrates exp(2 pi i l x) to delta_{l,0} for |l| < level
    rule = li.haar_quadrature(t1, 9)
    for l in range(-8, 9):
        val = np.sum(rule.weights * np.exp(2j * np.pi * l * rule.charts[:, 0]))
        np.testing.assert_allclose(val, 1.0 if l == 0 else 0.0, atol=1e-14)


@pytest.mark.parametrize("group,level", [
    ("t", 1), ("t", 6), ("su2", 1), ("su2", 5), ("su3", 2),
])
def test_rule_mass_and_positivity(group, level, t2):
    grp = {"t": t2, "su2": li.SU2, "su3": li.SU3}[group]
    rule = li.haar_quadrature(grp, level)
    assert abs(float(rule.weights.sum()) - 1.0) <= 1e-10
    assert rule.weights.min() >= 0.0


def test_su3_mass_against_printed_density():
    # the weight sum is built from the printed angular density and its
    # 1/(2 pi^5) constant; an incorrect constant would not sum to 1
    rule = li.haar_quadrature(li.SU3, 3)
    assert abs(float(rule.weights.sum()) - 1.0) <= 1e-6


@pytest.mark.parametrize("group, levels", [
    (li.torus(1), [1, 2, 7]), (li.torus(2), [1, 3, 5]), (li.SU2, [1, 2, 6]),
    (li.SU3, [1, 2, 3])], ids=["T1", "T2", "SU2", "SU3"])
def test_haar_weights_are_the_rule_weights(group, levels):
    # one definition: the quadrature check sums these without building charts
    from liegroup_index.groups import haar_weights
    for level in levels:
        weights = haar_weights(group, level)
        rule = li.haar_quadrature(group, level)
        assert weights.shape == rule.weights.shape
        assert weights.dtype == rule.weights.dtype
        assert weights.tobytes() == rule.weights.tobytes()
        # the charts: node order puts the innermost axis last, whose length
        # is the rule's axis_length
        want = _expected_charts(group, level)
        assert rule.charts.shape == want.shape
        assert rule.charts.tobytes() == want.tobytes()
        assert rule.axis_length == {"torus": level, "su2": 2 * (level + 1),
                                    "su3": level}[group.kind]
    with pytest.raises(ValueError):
        haar_weights(group, 0)


@pytest.mark.parametrize("group", [li.torus(2), li.SU2, li.SU3], ids=str)
def test_haar_quadrature_builds_one_axis_table(group, monkeypatch):
    # the charts and the weights come from the same per-axis table
    from liegroup_index import groups
    calls, axes = [], groups._axes
    monkeypatch.setattr(groups, "_axes",
                        lambda *args: calls.append(args) or axes(*args))
    li.haar_quadrature(group, 3)
    assert calls == [(group, 3)]


def _expected_charts(group, level):
    """Chart rows of the Haar rule, node by node, from the per-axis rules."""
    from numpy.polynomial.legendre import leggauss

    from liegroup_index.groups import (_chebyshev_u_rule, _jacobi01_rule,
                                       _legendre01_rule)
    if group.kind == "su2":
        # node (i * n_g + j) * n_s + c sits at (2 arccos u_i, sqrt(1 - u_i^2) p_j,
        # 2 pi c / n_s)
        n_g, n_s = level + 1, 2 * (level + 1)
        u, p = _chebyshev_u_rule(n_g)[0], leggauss(n_g)[0]
        t, r = 2.0 * np.arccos(u), np.sqrt(1.0 - u ** 2)
        charts = np.empty((n_g * n_g * n_s, 3))
        for i, j, c in itertools.product(range(n_g), range(n_g), range(n_s)):
            charts[(i * n_g + j) * n_s + c] = (t[i], r[i] * p[j], 2.0 * np.pi * c / n_s)
        return charts
    if group.kind == "torus":
        axes = [np.arange(level) / level] * group.n
    else:
        th1 = np.arccos(np.sqrt(_jacobi01_rule(level)[0]))
        th2 = np.arccos(np.sqrt(_legendre01_rule(level)[0]))
        axes = [th1, th2, th2] + [2.0 * np.pi * np.arange(level) / level] * 5
    return np.array(list(itertools.product(*axes)), dtype=float)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("norm", [0.0, 1e-300, 1e-8, 1.0, np.pi])
def test_expm_antihermitian_is_unitary_and_the_su2_closed_form(d, norm):
    # one exponential for every matrix group; for traceless 2x2 a,
    # a^2 = -|a|^2 I gives exp(a) = cos|a| I + sin|a|/|a| a
    from liegroup_index.groups import _expm_antihermitian
    gen = np.random.default_rng(d)
    for _ in range(5):
        h = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        h = h + h.conj().T
        h -= np.trace(h) / d * np.eye(d)
        a = 1j * h * (norm / np.abs(np.linalg.eigvalsh(h)).max())
        e = _expm_antihermitian(a)
        assert np.abs(e @ e.conj().T - np.eye(d)).max() <= 1e-14
        if d == 2:
            closed = np.cos(norm) * np.eye(2) + np.sinc(norm / np.pi) * a
            assert np.abs(e - closed).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_jacobi01_rule_exactness(n):
    # Gauss rule for u du on [0, 1]: exact for u^k, k <= 2n - 1
    from liegroup_index.groups import _jacobi01_rule
    u, w = _jacobi01_rule(n)
    for k in range(2 * n):
        assert abs(float(np.sum(w * u ** k)) - 1.0 / (k + 2)) <= 1e-14


def test_node_materialization(rule_su2):
    # a node materialized from its chart is the rule's defining matrix there
    p = li.su2_point(*rule_su2.charts[17])
    assert p.unitarity_defect() <= 1e-12
    np.testing.assert_allclose(p.matrix, rule_su2.defining_matrices()[17],
                               rtol=0, atol=1e-15)


def test_level_validation(t1):
    with pytest.raises(ValueError):
        li.haar_quadrature(t1, 0)


@pytest.mark.parametrize("group", [li.torus(1), li.torus(3), li.SU2, li.SU3], ids=str)
def test_levels_come_from_one_exactness_rule(group):
    # torus degree + 1, SU(2) ceil(degree / 2) but at least 1, SU(3) 1; the
    # band rule is the degree rule at degree 2 * band, and an assembly's level
    # the degree rule at domain band + x-bandwidth + codomain band
    rule = {"torus": lambda d: d + 1, "su2": lambda d: max(-(-d // 2), 1),
            "su3": lambda d: 1}[group.kind]
    for degree in range(30):
        assert li.groups.min_level_for_degree(group, degree) == rule(degree)
    for band in range(12):
        level = li.min_level_for_band(group, band)
        assert type(level) is int
        assert level == li.groups.min_level_for_degree(group, 2 * band)
        assert level == {"torus": 2 * band + 1, "su2": max(band, 1), "su3": 1}[group.kind]
    if group.kind == "su3":
        return
    for w in (1, 2, 3):
        sigma = li.MatrixSymbol(group, 0.0, w, {"kind": "w"}, None)
        for dom, cod in [(0, 0), (2, 3), (4, 4 + w), (7, 7 + 2 * w)]:
            assert li.galerkin.assembly_level(sigma, dom, cod) == rule(dom + w + cod)
