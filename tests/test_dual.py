import itertools
import math

import numpy as np
import pytest

import liegroup_index as li
from conftest import random_su2_point


def closed_form_rep(n, g):
    """Independent oracle: the degree-n symmetric power summed term by term,

    t(g)[j, k] = sum_a sqrt(C(n,k)/C(n,j)) C(n-k, a) C(k, j-a)
                 g11^(n-k-a) g21^a g12^(k-j+a) g22^(j-a).
    """
    g = np.asarray(g, dtype=complex)
    p11, p12, p21, p22 = (np.stack([g[..., i, j] ** e for e in range(n + 1)])
                          for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    out = np.zeros(g.shape[:-2] + (n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            scale = math.sqrt(math.comb(n, k) / math.comb(n, j))
            for a in range(max(0, j - k), min(j, n - k) + 1):
                coeff = scale * math.comb(n - k, a) * math.comb(k, j - a)
                out[..., j, k] += coeff * p11[n - k - a] * p21[a] * p12[k - j + a] * p22[j - a]
    return out


def random_su2_matrices(seed, count=40):
    rng = np.random.default_rng(seed)
    return np.array([random_su2_point(rng).matrix for _ in range(count)])


def matrix_rule(g):
    """A rule without a uniform axis at the given matrices (NaN charts)."""
    return li.QuadratureRule(li.SU2, 0, np.full((len(g), 3), np.nan),
                             np.full(len(g), 1.0 / len(g)), g)


def rep_at(xi, x):
    """xi(x) from the batched evaluator on a one-node rule."""
    return li.rep_matrices_on_rule(xi, li.point_rule(x))[0]


def test_enumerate_torus_cutoff_one(t1):
    labels = li.enumerate_dual(t1, 1.0)
    assert [l.label for l in labels] == [(0,)]


def test_enumerate_su2_cutoff_two():
    # <l> = sqrt(1 + l(l+1)): 1, 1.3229, 1.7321 for 2l = 0, 1, 2; 2l = 3 gives 2.179
    labels = li.enumerate_dual(li.SU2, 2.0)
    assert [l.label[0] for l in labels] == [0, 1, 2]


def test_enumerate_su3_cutoff_two():
    # <(a,b)> = sqrt(1 + (a^2+b^2+ab)/3 + a + b): 1, 1.5275 for (1,0) and
    # (0,1), 2 for (1,1); (2,0) gives 2.0817.  Ties sort by label
    labels = li.enumerate_dual(li.SU3, 2.0)
    assert [l.label for l in labels] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [l.dim for l in labels] == [1, 3, 3, 8]
    weights = [l.weight for l in labels]
    assert weights == sorted(weights)


@pytest.mark.parametrize("make", [
    lambda: li.su2_label(2.7), lambda: li.su2_label(2.0),
    lambda: li.torus_label(li.torus(1), [1.5]),
    lambda: li.torus_label(li.torus(2), [1, "1"]), lambda: li.su3_label(1, 0.5)],
    ids=["su2-2.7", "su2-2.0", "torus-1.5", "torus-str", "su3-0.5"])
def test_label_constructors_reject_non_integers(make):
    # int() would truncate 2.7 to twice-spin 2
    with pytest.raises(ValueError, match="integers"):
        make()


def test_label_constructors_take_numpy_integers():
    assert li.su2_label(np.int64(3)) == li.su2_label(3)
    assert li.torus_label(li.torus(2), np.array([1, -2])).label == (1, -2)
    assert li.su3_label(np.int32(1), np.uint8(1)).dim == 8


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


def _box(group, half_width):
    return [li.IrrepLabel(group, p)
            for p in itertools.product(range(-half_width, half_width + 1), repeat=group.n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_labels_match_a_brute_force_sort(n):
    # every integer point sorted by IrrepLabel.sort_key, against the
    # builder's one lexsort on the weights of the whole point array
    group = li.torus(n)
    for band in (0, 1, 2, 4):
        want = sorted(_box(group, band), key=li.IrrepLabel.sort_key)
        assert li.labels_for_band(group, band) == want
    for cutoff in (1.0, 6.5, 7.0, 13.5, 20.0, 30.0):
        box = _box(group, math.ceil(cutoff / (2.0 * math.pi)))
        want = sorted((xi for xi in box if xi.weight <= cutoff),
                      key=li.IrrepLabel.sort_key)
        got = li.enumerate_dual(group, cutoff)
        assert got == want
        # the array expression the builder sorts by is the weight, bit for bit
        sq = np.array([sum(v * v for v in xi.label) for xi in got])
        np.testing.assert_array_equal(np.sqrt(1.0 + 4.0 * math.pi ** 2 * sq),
                                      [xi.weight for xi in got])
    if n == 2:
        # equal weights sort by label
        assert [xi.label for xi in li.labels_for_band(group, 1)[:5]] == \
            [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)]


@pytest.mark.parametrize("group", [li.SU2, li.SU3], ids=str)
def test_matrix_group_labels_match_a_label_by_label_scan(group):
    # every label with weight <= cutoff + 1e-12, sorted by IrrepLabel.sort_key,
    # from a box far wider than the builder's point bound (the weight exceeds
    # half of 2l, resp. a + b), at each label's own weight and just around it
    top = 12.0
    box = (itertools.product(range(4 * int(top) + 4)) if group == li.SU2 else
           itertools.product(range(4 * int(top) + 4), repeat=2))
    scan = sorted((li.IrrepLabel(group, p) for p in box), key=li.IrrepLabel.sort_key)
    scan = [(xi, xi.weight) for xi in scan]
    weights = sorted({w for _, w in scan if w <= top})
    cutoffs = {1.0} | {w + dw for w in weights for dw in (0.0, 1e-12, -1e-12, -1e-13)}
    for cutoff in sorted(c for c in cutoffs if c >= 1.0):
        got = li.enumerate_dual(group, cutoff)
        assert got == [xi for xi, w in scan if w <= cutoff + 1e-12], cutoff
        assert all(type(v) is int for xi in got for v in xi.label)


@pytest.mark.parametrize("group", [li.torus(1), li.SU2], ids=str)
def test_labels_for_band_takes_integer_bands(group):
    # a torus box of half-width 2.5 would hold half-integer labels
    with pytest.raises(TypeError):
        li.labels_for_band(group, 2.5)
    assert li.labels_for_band(group, np.int64(2)) == li.labels_for_band(group, 2)


def _no_label(*args):
    raise AssertionError("a label was built before the cutoff was judged")


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("group", [li.torus(1), li.torus(2), li.SU2, li.SU3], ids=str)
def test_enumerate_dual_rejects_non_finite_cutoffs(group, cutoff, monkeypatch):
    # NaN compares False with every weight, so the SU(2) and SU(3) loops
    # would never end; no label may be built, so none of them starts
    monkeypatch.setattr(li.dual, "IrrepLabel", _no_label)
    with pytest.raises(ValueError, match="cutoff must be finite and >= 1"):
        li.enumerate_dual(group, cutoff)


def test_casimir_conventions(t2):
    assert li.trivial_label(li.SU2).casimir == 0.0
    assert li.trivial_label(li.SU2).weight == 1.0
    assert li.su2_label(2).casimir == 2.0          # l = 1
    np.testing.assert_allclose(li.torus_label(t2, [1, 0]).casimir, 4 * np.pi ** 2)
    np.testing.assert_allclose(li.su3_label(1, 0).casimir, 4.0 / 3.0)


def test_rep_identity_matrix(t1):
    x = li.identity(li.SU2)
    for n in range(5):
        np.testing.assert_allclose(rep_at(li.su2_label(n), x),
                                   np.eye(n + 1), atol=1e-14)
    np.testing.assert_allclose(
        rep_at(li.torus_label(t1, [3]), li.identity(t1)), [[1.0]])


def test_rep_defining_is_matrix_itself(rng):
    g = random_su2_point(rng)
    np.testing.assert_allclose(rep_at(li.su2_label(1), g), g.matrix, atol=1e-15)


def test_rep_trace_at_identity_is_dimension():
    # character value 2l + 1
    for n in range(7):
        tr = np.trace(rep_at(li.su2_label(n), li.identity(li.SU2)))
        assert tr == pytest.approx(n + 1)


def test_rep_unitarity(rng):
    for n in range(9):  # l <= 4
        lab = li.su2_label(n)
        for _ in range(10):
            m = rep_at(lab, random_su2_point(rng))
            defect = np.abs(m @ m.conj().T - np.eye(n + 1)).max()
            assert defect <= 1e-10


def test_rep_homomorphism(rng):
    for n in range(9):
        lab = li.su2_label(n)
        for _ in range(100):
            a, b = random_su2_point(rng), random_su2_point(rng)
            lhs = rep_at(lab, li.GroupPoint(li.SU2, None, a.matrix @ b.matrix))
            rhs = rep_at(lab, a) @ rep_at(lab, b)
            assert np.abs(lhs - rhs).max() <= 1e-9


def test_su3_rep_unsupported():
    with pytest.raises(li.UnsupportedFeatureError):
        rep_at(li.su3_label(1, 0), li.identity(li.SU3))


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
    x = li.point_rule(li.torus_point(t1, [0.37]))
    for l in (1, 2, 3):
        lab = li.torus_label(t1, [l])
        f = lambda r: li.rep_matrices_on_rule(lab, r)[:, 0, 0]
        fd = li.left_invariant_derivative(f, 0, x, h=1e-5)[0]
        assert abs(fd - 2j * np.pi * l * f(x)[0]) <= 1e-6


def test_left_invariant_derivative_constant_is_zero():
    x = li.point_rule(li.identity(li.SU2))
    for j in range(3):
        d = li.left_invariant_derivative(lambda r: np.ones(r.n_nodes), j, x)[0]
        assert abs(d) <= 1e-12


def test_fd_casimir_su2(rng):
    # sum_j d_j^2 t_l = -l(l+1) t_l validates the Casimir normalization
    x = li.point_rule(random_su2_point(rng))
    for n in (1, 2, 3, 4):  # l <= 2
        lab = li.su2_label(n)
        t = li.rep_matrices_on_rule(lab, x)[0]
        lap = li.laplacian_fd(lambda r: li.rep_matrices_on_rule(lab, r), x)[0]
        assert np.abs(lap + lab.casimir * t).max() <= 1e-5


def test_fd_casimir_torus(t2):
    x = li.point_rule(li.torus_point(t2, [0.2, 0.7]))
    lab = li.torus_label(t2, [1, -2])
    f = lambda r: li.rep_matrices_on_rule(lab, r)[:, 0, 0]
    lap = li.laplacian_fd(f, x, h=1e-4)[0]
    assert abs(lap / f(x)[0] + lab.casimir) <= 1e-4 * lab.casimir


@pytest.mark.parametrize("group", [li.SU2, li.torus(2)])
def test_fd_casimir_on_whole_grid(group):
    # one Laplacian call differentiates every node of a Haar grid at once
    rule = li.haar_quadrature(group, 3)
    for lab in li.labels_for_band(group, 2):
        t = li.rep_matrices_on_rule(lab, rule)
        lap = li.laplacian_fd(lambda r: li.rep_matrices_on_rule(lab, r), rule)
        assert lap.shape == t.shape
        assert np.abs(lap + lab.casimir * t).max() <= 1e-5 * (1.0 + lab.casimir)


def test_flow_rule_su2_carries_products(rule_su2):
    y = li.lie_basis(li.SU2)[1]
    s = 0.3
    flowed = li.flow_rule(rule_su2, y, s)
    # exp(s Y) for Y = -i/2 sigma_y in closed form
    e = np.cos(s / 2) * np.eye(2) - 1j * np.sin(s / 2) * np.array([[0, -1j], [1j, 0]])
    np.testing.assert_allclose(flowed.matrices, rule_su2.defining_matrices() @ e,
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(flowed.weights, rule_su2.weights)
    assert flowed.defining_matrices() is flowed.matrices
    # the recovered charts rebuild the flowed matrices up to the chart round trip
    rebuilt = li.QuadratureRule(li.SU2, 0, flowed.charts, flowed.weights)
    assert np.abs(rebuilt.defining_matrices() - flowed.matrices).max() <= 1e-7


def test_flow_rule_su3_grid_matches_points():
    rule = li.haar_quadrature(li.SU3, 2)
    y = li.lie_basis(li.SU3)[7]
    flowed = li.flow_rule(rule, y, 0.2)
    assert np.isnan(flowed.charts).all()
    # Y = -i/2 lambda_8 is diagonal, so exp(s Y) is too
    e = np.diag(np.exp(-0.1j * np.array([1.0, 1.0, -2.0]) / np.sqrt(3.0)))
    for k in (0, 17, rule.n_nodes - 1):
        x = li.su3_point(rule.charts[k, :3], rule.charts[k, 3:])
        np.testing.assert_allclose(flowed.matrices[k], x.matrix @ e,
                                   rtol=0, atol=1e-14)
    unitarity = np.abs(np.einsum("kij,klj->kil", flowed.matrices, flowed.matrices.conj())
                       - np.eye(3)).max()
    assert unitarity <= 1e-12


def test_flow_rule_torus_shifts_mod_one(t1):
    rule = li.haar_quadrature(t1, 4)
    flowed = li.flow_rule(rule, li.lie_basis(t1)[0], -0.3)
    np.testing.assert_allclose(flowed.charts[:, 0], [0.7, 0.95, 0.2, 0.45], atol=1e-15)
    assert flowed.matrices is None


def test_lie_basis_antihermitian_traceless():
    for group in (li.SU2, li.SU3):
        basis = li.lie_basis(group)
        assert len(basis) == group.manifold_dim
        for y in basis:
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


@pytest.mark.parametrize("level", [1, 8, 16])
def test_factored_su2_reps_match_polynomial_on_every_node(level):
    # independent oracle: the closed-form expansion on every node's matrix
    rule = li.haar_quadrature(li.SU2, level)
    mats = rule.defining_matrices()
    for n in range(17):
        lab = li.su2_label(n)
        np.testing.assert_allclose(li.rep_matrices_on_rule(lab, rule),
                                   closed_form_rep(n, mats), rtol=0, atol=1e-13)
        plane, modes = li.rep_factors(lab, rule)
        assert plane.shape == ((level + 1) ** 2, n + 1, n + 1)
        assert modes.min() >= 0 and modes.max() < rule.axis_length


def test_ladder_matches_closed_form():
    # one ladder per rule: on every node of a rule without a uniform axis,
    # on the plane nodes of a Haar rule; the degrees below the first request
    # come from the rule's memo.  The ladder computes the upper half rows and
    # mirrors the rest, so the top degree is odd here, and the flowed rule's
    # off-diagonal entries are not real (on the Haar plane nodes they are)
    g = random_su2_matrices(19)
    rule, other = li.haar_quadrature(li.SU2, 16), matrix_rule(g)
    flowed = li.flow_rule(li.haar_quadrature(li.SU2, 5), li.lie_basis(li.SU2)[0], 0.3)
    assert np.abs(flowed.defining_matrices()[:, 0, 1].imag).max() > 0.1
    plane_g = rule.defining_matrices()[::rule.axis_length]
    for n in (17, *range(17)):
        lab = li.su2_label(n)
        np.testing.assert_allclose(li.rep_matrices_on_rule(lab, other),
                                   closed_form_rep(n, g), rtol=0, atol=1e-13)
        np.testing.assert_allclose(li.rep_matrices_on_rule(lab, flowed),
                                   closed_form_rep(n, flowed.defining_matrices()),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(li.rep_factors(lab, rule)[0],
                                   closed_form_rep(n, plane_g), rtol=0, atol=1e-13)
        assert li.rep_matrices_on_rule(lab, other) is li.rep_matrices_on_rule(lab, other)


def test_twice_spin_one_is_the_defining_matrix_bit_for_bit():
    g = random_su2_matrices(20)
    np.testing.assert_array_equal(
        li.rep_matrices_on_rule(li.su2_label(1), matrix_rule(g)), g)
    rule = li.haar_quadrature(li.SU2, 6)
    np.testing.assert_array_equal(li.rep_factors(li.su2_label(1), rule)[0],
                                  rule.defining_matrices()[::rule.axis_length])


def test_ladder_unitarity_at_twice_spin_32():
    # the ladder contracts with an isometry at every degree, so rounding
    # errors add up linearly in the degree
    t = li.rep_matrices_on_rule(li.su2_label(32), matrix_rule(random_su2_matrices(21)))
    defect = np.abs(t @ np.swapaxes(t.conj(), -1, -2) - np.eye(33)).max()
    assert defect <= 1e-13


def test_rep_factor_planes_do_not_depend_on_request_order():
    orders = [range(9), range(8, -1, -1), [3, 0, 5, 3, 8, 1, 8, 6, 2, 4, 7, 0]]
    factors = []
    for order in orders:
        rule = li.haar_quadrature(li.SU2, 8)
        for n in order:
            li.rep_factors(li.su2_label(n), rule)
        factors.append([li.rep_factors(li.su2_label(n), rule) for n in range(9)])
    for other in factors[1:]:
        for (plane, modes), (plane2, modes2) in zip(factors[0], other):
            assert plane.tobytes() == plane2.tobytes()
            np.testing.assert_array_equal(modes, modes2)


@pytest.mark.parametrize("twice_spin", [-1, -3, 1.0, 2.5])
def test_su2_rep_matrices_rejects_bad_twice_spin(twice_spin):
    # representation matrices are asked for by label, and su2_label refuses
    # the twice-spin: -1 would take no ladder step and leave the 1 x 1 identity
    with pytest.raises(ValueError, match="label components must be"):
        li.su2_label(twice_spin)


def test_torus_characters_on_haar_rule_are_exact_roots_of_unity(t1):
    rule = li.haar_quadrature(t1, 257)
    k = np.arange(257)
    for l in (1, -5, 128):
        chars = li.rep_matrices_on_rule(li.torus_label(t1, [l]), rule)[:, 0, 0]
        np.testing.assert_array_equal(chars, np.exp(2j * np.pi * ((l * k) % 257) / 257))


def test_flowed_and_point_rules_have_no_uniform_axis(rule_su2):
    y = li.lie_basis(li.SU2)[0]
    assert rule_su2.axis_length == 2 * (rule_su2.level + 1)
    x = li.su2_point(*rule_su2.charts[3])
    for rule in (li.flow_rule(rule_su2, y, 0.1), li.point_rule(x)):
        assert rule.axis_length is None
        with pytest.raises(ValueError, match="uniform axis"):
            li.rep_factors(li.su2_label(1), rule)


@pytest.mark.parametrize("group, label", [(li.torus(1), (0,)), (li.torus(3), (0, 0, 0)),
                                          (li.SU2, (0,)), (li.SU3, (0, 0))])
def test_trivial_label_is_the_zero_label_of_each_group(group, label):
    xi = li.trivial_label(group)
    assert (xi.group, xi.label, xi.dim) == (group, label, 1)
