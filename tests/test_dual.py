import numpy as np
import pytest

import liegroup_index as li
from conftest import random_su2_point


def test_enumerate_torus_cutoff_one(t1):
    labels = li.enumerate_dual(t1, 1.0)
    assert [l.label for l in labels] == [(0,)]


def test_enumerate_su2_cutoff_two():
    # <l> = sqrt(1 + l(l+1)): 1, 1.3229, 1.7321 for 2l = 0, 1, 2; 2l = 3 gives 2.179
    labels = li.enumerate_dual(li.SU2, 2.0)
    assert [l.label[0] for l in labels] == [0, 1, 2]


def test_su3_dimension_formula():
    assert li.su3_label(0, 0).dim == 1
    assert li.su3_label(1, 0).dim == 3
    assert li.su3_label(1, 1).dim == 8


def test_enumeration_sorted_and_consistent(t2):
    labels = li.enumerate_dual(t2, 8.0)
    weights = [l.weight for l in labels]
    assert weights == sorted(weights)
    for l in labels:
        assert abs(l.weight ** 2 - 1.0 - l.casimir) <= 1e-12 * (1.0 + l.casimir)
        assert l.dim == 1


def test_casimir_conventions(t2):
    assert li.trivial_label(li.SU2).casimir == 0.0
    assert li.trivial_label(li.SU2).weight == 1.0
    assert li.su2_label(2).casimir == 2.0          # l = 1
    np.testing.assert_allclose(li.torus_label(t2, [1, 0]).casimir, 4 * np.pi ** 2)
    np.testing.assert_allclose(li.su3_label(1, 0).casimir, 4.0 / 3.0)


def test_rep_identity_matrix(t1):
    x = li.identity(li.SU2)
    for n in range(5):
        np.testing.assert_allclose(li.rep_matrix(li.su2_label(n), x),
                                   np.eye(n + 1), atol=1e-14)
    np.testing.assert_allclose(
        li.rep_matrix(li.torus_label(t1, [3]), li.identity(t1)), [[1.0]])


def test_rep_defining_is_matrix_itself(rng):
    g = random_su2_point(rng)
    np.testing.assert_allclose(li.rep_matrix(li.su2_label(1), g), g.matrix, atol=1e-15)


def test_rep_trace_at_identity_is_dimension():
    # character value 2l + 1
    for n in range(7):
        tr = np.trace(li.rep_matrix(li.su2_label(n), li.identity(li.SU2)))
        assert tr == pytest.approx(n + 1)


def test_rep_unitarity(rng):
    for n in range(9):  # l <= 4
        lab = li.su2_label(n)
        for _ in range(10):
            m = li.rep_matrix(lab, random_su2_point(rng))
            defect = np.abs(m @ m.conj().T - np.eye(n + 1)).max()
            assert defect <= 1e-10


def test_rep_homomorphism(rng):
    for n in range(9):
        lab = li.su2_label(n)
        for _ in range(100):
            a, b = random_su2_point(rng), random_su2_point(rng)
            lhs = li.rep_matrix(lab, li.group_mul(a, b))
            rhs = li.rep_matrix(lab, a) @ li.rep_matrix(lab, b)
            assert np.abs(lhs - rhs).max() <= 1e-9


def test_su3_rep_unsupported():
    with pytest.raises(li.UnsupportedFeatureError):
        li.rep_matrix(li.su3_label(1, 0), li.identity(li.SU3))


def test_schur_orthogonality_su2(rule_su2):
    # all entry pairs with l <= 3 at the documented level (6)
    labels = li.labels_for_band(li.SU2, 6)
    rows, meta = [], []
    for lab in labels:
        reps = li.rep_matrices_on_rule(lab, rule_su2)
        for i in range(lab.dim):
            for j in range(lab.dim):
                rows.append(reps[:, i, j])
                meta.append((lab, i, j))
    rows = np.array(rows)
    gram = (rows * rule_su2.weights) @ rows.conj().T
    expected = np.diag([1.0 / lab.dim for lab, _, _ in meta])
    assert np.abs(gram - expected).max() <= 1e-8


def test_left_invariant_derivative_torus_analytic_oracle(t1):
    x = li.torus_point(t1, [0.37])
    for l in (1, 2, 3):
        lab = li.torus_label(t1, [l])
        f = lambda p: li.rep_matrix(lab, p)[0, 0]
        fd = li.left_invariant_derivative(f, 0, x, h=1e-5)
        assert abs(fd - 2j * np.pi * l * f(x)) <= 1e-6


def test_left_invariant_derivative_constant_is_zero():
    x = li.identity(li.SU2)
    for j in range(3):
        assert abs(li.left_invariant_derivative(lambda p: 1.0, j, x)) <= 1e-12


def test_richardson_improves_step_error(t1):
    x = li.torus_point(t1, [0.11])
    lab = li.torus_label(t1, [3])
    f = lambda p: li.rep_matrix(lab, p)[0, 0]
    exact = 2j * np.pi * 3 * f(x)
    plain = abs(li.left_invariant_derivative(f, 0, x, h=1e-3) - exact)
    rich = abs(li.left_invariant_derivative(f, 0, x, h=1e-3, richardson=True) - exact)
    assert rich < plain


def test_fd_casimir_su2(rng):
    # sum_j d_j^2 t_l = -l(l+1) t_l validates the Casimir normalization
    x = random_su2_point(rng)
    for n in (1, 2, 3, 4):  # l <= 2
        lab = li.su2_label(n)
        d = lab.dim
        t = li.rep_matrix(lab, x)
        lap = np.array([[li.laplacian_fd(
            lambda p, i=i, j=j: li.rep_matrix(lab, p)[i, j], x)
            for j in range(d)] for i in range(d)])
        assert np.abs(lap + lab.casimir * t).max() <= 1e-5


def test_fd_casimir_torus(t2):
    x = li.torus_point(t2, [0.2, 0.7])
    lab = li.torus_label(t2, [1, -2])
    f = lambda p: li.rep_matrix(lab, p)[0, 0]
    lap = li.laplacian_fd(f, x, h=1e-4)
    assert abs(lap / f(x) + lab.casimir) <= 1e-4 * lab.casimir


def test_lie_basis_antihermitian_traceless():
    for group in (li.SU2, li.SU3):
        basis = li.lie_basis(group)
        assert len(basis) == group.manifold_dim
        for y in basis.generators:
            np.testing.assert_allclose(y, -y.conj().T, atol=1e-14)
            assert abs(np.trace(y)) <= 1e-14


def test_accessors(t1):
    lab = li.su2_label(2)
    assert lab.casimir == 2.0
    assert lab.weight == pytest.approx(np.sqrt(3.0))


def test_rep_matrices_on_rule_checks_group_on_memo_hit(t1, rule_su2):
    # SU(2) twice-spin 1 and the torus label [1] share the label tuple (1,)
    rule = li.haar_quadrature(li.SU2, rule_su2.level)
    assert li.rep_matrices_on_rule(li.su2_label(1), rule).shape[1:] == (2, 2)
    with pytest.raises(li.GroupMismatchError):
        li.rep_matrices_on_rule(li.torus_label(t1, [1]), rule)
