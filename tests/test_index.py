import math
import warnings

import numpy as np
import pytest

import liegroup_index as li


@pytest.fixture(scope="module")
def t1():
    return li.torus(1)


def planted_matrix(rng, max_dim=40):
    """Random rectangular matrix with known kernel/cokernel via SVD assembly."""
    p, q = (int(v) for v in rng.integers(2, max_dim + 1, 2))
    r = int(rng.integers(0, min(p, q) + 1))
    u = np.linalg.qr(rng.standard_normal((p, p))
                     + 1j * rng.standard_normal((p, p)))[0][:, :r]
    v = np.linalg.qr(rng.standard_normal((q, q))
                     + 1j * rng.standard_normal((q, q)))[0][:, :r]
    sv = rng.uniform(0.5, 2.0, r)
    return (u * sv) @ v.conj().T, q - r, p - r


def test_heat_trace_zero_matrix():
    assert li.heat_trace_index(np.zeros((5, 9)), [1.0])[0] == pytest.approx(4.0)
    assert li.kernel_count_index(np.zeros((5, 9))) == 4


def test_heat_trace_planted(rng):
    for _ in range(40):
        m, ker, coker = planted_matrix(rng, 25)
        heats = li.heat_trace_index(m, [0.1, 1.0, 10.0])
        assert heats.shape == (3,)
        for heat in heats:
            assert abs(heat - (ker - coker)) <= 1e-8


def test_heat_trace_gamma_invariance(rng):
    m, _, _ = planted_matrix(rng, 30)
    base, *rest = li.heat_trace_index(m, [0.01, 0.05, 0.5, 5.0, 50.0, 100.0])
    for heat in rest:
        assert abs(heat - base) <= 1e-8


def test_heat_trace_rejects_bad_gamma():
    with pytest.raises(ValueError):
        li.heat_trace_index(np.eye(3), [1.0, 0.0])


def test_mckean_singer_identity(rng):
    # finite-dimensional identity between the two matrix routes
    for _ in range(50):
        m, _, _ = planted_matrix(rng, 30)
        (heat,) = li.heat_trace_index(m, [1.0])
        count = li.kernel_count_index(m, 1e-10)
        assert abs(heat - count) <= 1e-8


def test_kernel_count_identity_assembly(t1):
    basis = li.basis_for_band(t1, 6)
    g = li.assemble(li.identity_symbol(t1), basis, basis)
    assert li.kernel_count_index(g) == 0


@pytest.mark.parametrize("k", range(-3, 4))
def test_kernel_count_winding(t1, k):
    m = li.index_truncation(li.winding_symbol(t1, k), 16)
    assert li.kernel_count_index(m) == -k
    assert abs(li.heat_trace_index(m, [1.0])[0] - (-k)) <= 1e-8


def test_kernel_count_rel_tol_validation():
    with pytest.raises(ValueError):
        li.kernel_count_index(np.eye(2), 2.0)


def test_adjoint_antisymmetry(t1, rng):
    for k in (-2, 1, 3):
        m = li.index_truncation(li.winding_symbol(t1, k), 8)
        assert (li.kernel_count_index(li.adjoint(m))
                == -li.kernel_count_index(m))
    mat, _, _ = planted_matrix(rng, 20)
    assert li.kernel_count_index(mat.conj().T) == -li.kernel_count_index(mat)


def test_index_additivity_winding_compositions(t1):
    for j, k in ((1, 1), (1, 2), (-1, 2), (2, -3)):
        mk = li.index_truncation(li.winding_symbol(t1, k), 10)
        wj = li.winding_symbol(t1, j)
        cod = li.index_codomain_labels(wj, mk.codomain)
        mj = li.assemble(wj, mk.codomain, li.PeterWeylBasis(t1, tuple(cod)))
        comp = li.compose(mj, mk)
        assert li.kernel_count_index(comp) == -(j + k)


def test_singular_value_census_margins(rng):
    m, ker, coker = planted_matrix(rng, 20)
    census = li.singular_value_census(m, 1e-10)
    assert census["ker_dim"] == ker
    assert census["coker_dim"] == coker
    assert census["gap"] == math.inf or census["gap"] > 1e3


# --- density route ----------------------------------------------------------

def test_density_invariant_symbol_is_zero(rng):
    table = {}
    for lab in li.labels_for_band(li.SU2, 3):
        d = lab.dim
        table[lab] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sym = li.table_symbol(li.SU2, table)
    grid = li.haar_quadrature(li.SU2, 3)
    (value,) = li.density_route_index(
        sym, li.conjugate_transpose_symbol(sym), [1.0],
        li.labels_for_band(li.SU2, 3), grid)
    assert abs(value) <= 1e-10


def test_density_self_adjoint_symbol_exactly_zero(t1):
    lam = li.lambda_multiplier(t1, 1.0)
    grid = li.haar_quadrature(t1, 9)
    (value,) = li.density_route_index(lam, lam, [2.0],
                                      li.labels_for_band(t1, 4), grid)
    assert value == 0.0


def test_density_antisymmetric_under_argument_swap(t1):
    w = li.winding_symbol(t1, 1)
    ws = li.winding_adjoint_symbol(t1, 1)
    grid = li.haar_quadrature(t1, 9)
    labels = li.labels_for_band(t1, 4)
    (v1,) = li.density_route_index(w, ws, [1.0], labels, grid)
    (v2,) = li.density_route_index(ws, w, [1.0], labels, grid)
    assert v1 == pytest.approx(-v2, abs=1e-12)


def test_density_winding_discrepancy(t1):
    # density reports 0 while the kernel count reports -1; both documented
    w = li.winding_symbol(t1, 1)
    ws = li.winding_adjoint_symbol(t1, 1)
    grid = li.haar_quadrature(t1, 17)
    (value,) = li.density_route_index(w, ws, [1.0], li.labels_for_band(t1, 8), grid)
    assert abs(value) <= 1e-10
    assert li.kernel_count_index(li.index_truncation(w, 8)) == -1


def test_density_rejects_non_hermitian_products(t1):
    w = li.winding_symbol(t1, -2)
    ws = li.winding_adjoint_symbol(t1, -2)
    grid = li.haar_quadrature(t1, 9)
    with pytest.raises(li.DensityError):
        li.density_route_index(w, ws, [1.0], li.labels_for_band(t1, 4), grid)


def test_density_rejects_non_finite_exponential(t1):
    one = li.multiplier_symbol(t1, lambda xi: 1.0, 0.0, {"kind": "one"})
    minus = li.multiplier_symbol(t1, lambda xi: -1000.0, 0.0, {"kind": "minus"})
    grid = li.haar_quadrature(t1, 9)
    with pytest.raises(li.DensityError, match="non-finite exponential"):
        li.density_route_index(one, minus, [1.0], li.labels_for_band(t1, 4), grid)


# --- order reduction and traces ----------------------------------------------

def test_order_reduce_weight_multiplier_is_identity(t1):
    for m in (1.0, 2.0, -1.0):
        red = li.order_reduce(li.lambda_multiplier(t1, m), 5)
        assert np.abs(red.matrix - np.eye(red.matrix.shape[0])).max() <= 1e-8


def test_order_reduce_su2_laplacian_plus_one():
    sym = li.multiplier_symbol(li.SU2, lambda xi: xi.casimir + 1.0, 2.0,
                               {"kind": "laplacian_plus_one"})
    red = li.order_reduce(sym, 4)
    assert np.abs(red.matrix - np.eye(red.matrix.shape[0])).max() <= 1e-8
    assert li.kernel_count_index(red) == 0


def test_order_reduce_variable_coefficient_matches_unreduced(t1):
    coeff, w = li.torus_function(t1, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    c_sym = li.pointwise_symbol(t1, coeff, w, {"kind": "c"})
    sym = li.frozen_symbol_product(c_sym, li.lambda_multiplier(t1, 2.0))
    unreduced = li.kernel_count_index(li.index_truncation(sym, 8))
    reduced = li.kernel_count_index(li.order_reduce(sym, 8))
    assert reduced == unreduced


def test_trace_via_symbol_identity_partial_sum(t1):
    labels = li.labels_for_band(t1, 5)
    grid = li.haar_quadrature(t1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = li.trace_via_symbol(li.identity_symbol(t1), labels, grid)
    assert val == pytest.approx(sum(l.dim ** 2 for l in labels))


def test_trace_via_symbol_multiplier_exact(t1):
    s = 3.0  # dim + 2 on the circle
    labels = li.enumerate_dual(t1, 12.0)
    grid = li.haar_quadrature(t1, 3)
    sigma = li.lambda_multiplier(t1, -s)
    val = li.trace_via_symbol(sigma, labels, grid)
    direct = sum(l.dim ** 2 * l.weight ** (-s) for l in labels)
    assert abs(val - direct) <= 1e-8
    basis = li.PeterWeylBasis(t1, tuple(labels))
    mat = li.assemble(sigma, basis, basis).matrix
    assert abs(val - np.trace(mat)) <= 1e-8


def test_trace_via_symbol_warns_above_threshold(t1):
    labels = li.labels_for_band(t1, 2)
    grid = li.haar_quadrature(t1, 3)
    with pytest.warns(UserWarning):
        li.trace_via_symbol(li.lambda_multiplier(t1, 0.0), labels, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        li.trace_via_symbol(li.lambda_multiplier(t1, -1.5), labels, grid)


# --- stabilization sweeps ----------------------------------------------------

def test_sweep_winding_stable(t1):
    w = li.winding_symbol(t1, 2)
    rep = li.stabilization_sweep(w, li.winding_adjoint_symbol(t1, 2),
                                 [8, 16, 32], [0.1, 1.0, 10.0])
    assert rep.verdict == "stable"
    assert {row["kernel_count"] for row in rep.rows} == {-2}
    for row in rep.rows:
        assert abs(row["heat_trace"] - row["kernel_count"]) <= 1e-8
    assert rep.discrepancy  # density route reports 0


def test_sweep_invariant_multiplier_all_zero():
    lam = li.lambda_multiplier(li.SU2, 2.0)
    rep = li.stabilization_sweep(lam, li.conjugate_transpose_symbol(lam),
                                 [2, 4], [0.5, 1.0], reduce_order=True)
    assert rep.verdict == "stable"
    for row in rep.rows:
        assert row["kernel_count"] == 0
        assert abs(row["heat_trace"]) <= 1e-8
        assert abs(row["density_route"]) <= 1e-10
    assert not rep.discrepancy


def test_sweep_heat_constant_across_gammas(t1):
    w = li.winding_symbol(t1, 1)
    rep = li.stabilization_sweep(w, li.winding_adjoint_symbol(t1, 1),
                                 [8, 16], [0.01, 0.1, 1.0, 10.0, 100.0])
    heats = [row["heat_trace"] for row in rep.rows]
    assert max(heats) - min(heats) <= 1e-8


def test_sweep_csv_and_dict(t1):
    w = li.winding_symbol(t1, 1)
    rep = li.stabilization_sweep(w, li.winding_adjoint_symbol(t1, 1),
                                 [4, 8], [1.0])
    csv = rep.to_csv()
    assert csv.startswith("cutoff,gamma,heat_trace")
    assert len(csv.strip().split("\n")) == 1 + len(rep.rows)
    d = rep.to_dict()
    assert d["verdict"] == "stable"
    assert d["density_vs_kernel_discrepancy"] is True


def test_sweep_density_failure_recorded_per_cell(t1):
    gammas = [0.1, 1.0, 10.0]
    rep = li.stabilization_sweep(li.winding_symbol(t1, -2),
                                 li.winding_adjoint_symbol(t1, -2),
                                 [8, 16], gammas)
    assert len(rep.rows) == 6
    for row in rep.rows:
        assert "not Hermitian" in row["density_error"]
        assert math.isnan(row["density_route"])
        assert row["kernel_count"] == 2
    assert [(e["cutoff"], e["gamma"]) for e in rep.errors] == [
        (band, gamma) for band in (8, 16) for gamma in gammas]
    assert rep.verdict == "stable"


def test_sweep_requires_nonempty_lists(t1):
    w = li.winding_symbol(t1, 1)
    with pytest.raises(ValueError):
        li.stabilization_sweep(w, w, [], [1.0])
