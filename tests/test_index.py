import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

import liegroup_index as li
from liegroup_index.cli import main


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


def heat_traces(m, gammas):
    """The heat trace route from the singular values of the census."""
    mat = m.matrix if isinstance(m, li.GalerkinOperator) else m
    census = li.singular_value_census(mat, 1e-10)
    return li.heat_trace_index(census["singular_values"], mat.shape, gammas)


def kernel_count(m):
    """dim ker M - dim ker M^*, from the rank decision of the census."""
    census = li.singular_value_census(getattr(m, "matrix", m), 1e-10)
    return census["ker_dim"] - census["coker_dim"]


def test_heat_trace_zero_matrix():
    assert heat_traces(np.zeros((5, 9)), [1.0])[0] == pytest.approx(4.0)
    assert kernel_count(np.zeros((5, 9))) == 4


def test_heat_trace_planted(rng):
    for _ in range(40):
        m, ker, coker = planted_matrix(rng, 25)
        heats = heat_traces(m, [0.1, 1.0, 10.0])
        assert heats.shape == (3,)
        for heat in heats:
            assert abs(heat - (ker - coker)) <= 1e-8


def test_heat_trace_gamma_invariance(rng):
    m, _, _ = planted_matrix(rng, 30)
    base, *rest = heat_traces(m, [0.01, 0.05, 0.5, 5.0, 50.0, 100.0])
    for heat in rest:
        assert abs(heat - base) <= 1e-8


def test_heat_trace_rejects_bad_gamma():
    with pytest.raises(ValueError):
        heat_traces(np.eye(3), [1.0, 0.0])


NON_FINITE_GAMMAS = [[math.inf], [math.nan], [1.0, -math.inf]]


@pytest.mark.parametrize("gammas", NON_FINITE_GAMMAS)
def test_heat_trace_rejects_non_finite_gammas(gammas):
    with pytest.raises(ValueError):
        heat_traces(np.eye(3), gammas)


@pytest.mark.parametrize("gammas", NON_FINITE_GAMMAS)
def test_sweep_rejects_non_finite_gammas(t1, gammas):
    # a T^1 multiplier with one zero eigenvalue: at gamma = inf the heat
    # trace would be NaN, which no tolerance check catches
    table = {l: np.array([[0j if l.label == (0,) else 1.0 + 0j]])
             for l in li.labels_for_band(t1, 4)}
    sym = li.table_symbol(t1, table)
    with pytest.raises(ValueError):
        li.stabilization_sweep(sym, li.conjugate_transpose_symbol(sym), [2, 3], gammas)


def test_mckean_singer_identity(rng):
    # finite-dimensional identity between the two matrix routes
    for _ in range(50):
        m, _, _ = planted_matrix(rng, 30)
        (heat,) = heat_traces(m, [1.0])
        count = kernel_count(m)
        assert abs(heat - count) <= 1e-8


def test_kernel_count_identity_assembly(t1):
    basis = li.basis_for_band(t1, 6)
    g = li.assemble(li.lambda_multiplier(t1, 0.0), basis, basis)
    assert kernel_count(g) == 0


@pytest.mark.parametrize("k", range(-3, 4))
def test_kernel_count_winding(t1, k):
    w = li.winding_symbol(t1, k)
    m = li.index_truncation(w, 16, li.sweep_operator(w, 16))
    assert kernel_count(m) == -k
    assert abs(heat_traces(m, [1.0])[0] - (-k)) <= 1e-8


def test_adjoint_antisymmetry(t1, rng):
    for k in (-2, 1, 3):
        w = li.winding_symbol(t1, k)
        m = li.index_truncation(w, 8, li.sweep_operator(w, 8))
        assert kernel_count(m.matrix.conj().T) == -kernel_count(m)
    mat, _, _ = planted_matrix(rng, 20)
    assert kernel_count(mat.conj().T) == -kernel_count(mat)


def test_index_additivity_winding_compositions(t1):
    for j, k in ((1, 1), (1, 2), (-1, 2), (2, -3)):
        wk = li.winding_symbol(t1, k)
        mk = li.index_truncation(wk, 10, li.sweep_operator(wk, 10))
        wj = li.winding_symbol(t1, j)
        cod = li.index_codomain_labels(wj, mk.codomain,
                                       li.sweep_operator(wj, mk.codomain.band))
        mj = li.assemble(wj, mk.codomain, li.PeterWeylBasis(t1, tuple(cod)))
        comp = li.compose(mj, mk)
        assert kernel_count(comp) == -(j + k)


def test_singular_value_census_margins(rng):
    m, ker, coker = planted_matrix(rng, 20)
    census = li.singular_value_census(m, 1e-10)
    assert census["ker_dim"] == ker
    assert census["coker_dim"] == coker
    assert census["gap"] == math.inf or census["gap"] > 1e3


def charge_block_matrix(rng, row_counts, col_counts, first_charge=-2):
    """Random matrix that conserves charge, with its row and column charges.

    Charge first_charge + c has row_counts[c] rows and col_counts[c] columns,
    shuffled; each block has a random rank, so kernels and cokernels occur.
    """
    charges = np.arange(len(row_counts)) + first_charge
    row_charges = rng.permutation(np.repeat(charges, row_counts))
    col_charges = rng.permutation(np.repeat(charges, col_counts))
    mat = np.zeros((row_charges.size, col_charges.size), dtype=complex)
    for charge, n, m in zip(charges, row_counts, col_counts):
        r = int(rng.integers(0, min(n, m) + 1))
        left = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        right = rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m))
        mat[np.ix_(row_charges == charge, col_charges == charge)] = left @ right
    return mat, row_charges, col_charges


CHARGE_LAYOUTS = [
    ([3, 4, 2, 5], [2, 4, 3, 5]),        # square, k = 14
    ([3, 0, 6, 2, 4], [5, 3, 2, 0, 4]),  # charges on one side only, k = 14
    ([1, 2, 7, 0], [4, 4, 9, 3]),        # wide, k = 10
    ([6, 5, 3, 2], [1, 0, 3, 2]),        # tall, k = 6
]


@pytest.mark.parametrize("row_counts, col_counts", CHARGE_LAYOUTS)
def test_census_charge_blocks_match_one_block(rng, row_counts, col_counts):
    for _ in range(5):
        mat, rc, cc = charge_block_matrix(rng, row_counts, col_counts)
        k = min(mat.shape)
        blocks = li.index_engine._charge_blocks(mat, rc, cc)
        assert blocks is not None
        assert len(blocks) == sum(1 for n, m in zip(row_counts, col_counts)
                                  if n and m)
        split = li.singular_value_census(mat, 1e-10, rc, cc)
        whole = li.singular_value_census(mat, 1e-10)
        for key in ("rank", "ker_dim", "coker_dim", "marginal"):
            assert split[key] == whole[key]
        assert split["singular_values"].shape == (k,)
        scale = 1e-13 * whole["smax"]
        for key in ("smax", "retained_min", "discarded_max"):
            assert abs(split[key] - whole[key]) <= scale
        np.testing.assert_allclose(split["singular_values"],
                                   whole["singular_values"], rtol=0, atol=scale)
        assert np.all(np.diff(split["singular_values"]) <= 0)


def test_census_off_charge_entry_above_the_budget_takes_one_block(rng):
    mat, rc, cc = charge_block_matrix(rng, [3, 4, 2, 5], [2, 4, 3, 5])
    budget = math.sqrt(min(mat.shape)) * np.finfo(float).eps * np.linalg.norm(mat)
    row, col = np.argwhere(rc[:, None] != cc[None, :])[0]
    below, above = mat.copy(), mat.copy()
    below[row, col] = 0.5 * budget
    above[row, col] = 2.0 * budget
    assert li.index_engine._charge_blocks(below, rc, cc) is not None
    assert li.index_engine._charge_blocks(above, rc, cc) is None
    census = li.singular_value_census(above, 1e-10, rc, cc)
    np.testing.assert_array_equal(census["singular_values"],
                                  np.linalg.svd(above, compute_uv=False))


def test_census_non_finite_entry_takes_one_block(rng):
    mat, rc, cc = charge_block_matrix(rng, [3, 4, 2, 5], [2, 4, 3, 5])
    on = tuple(np.argwhere(rc[:, None] == cc[None, :])[0])
    off = tuple(np.argwhere(rc[:, None] != cc[None, :])[0])
    for where in (on, off):
        bad = mat.copy()
        bad[where] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            li.singular_value_census(bad, 1e-10)
        with pytest.raises(np.linalg.LinAlgError):
            li.singular_value_census(bad, 1e-10, rc, cc)
        bad[where] = np.inf
        split = li.singular_value_census(bad, 1e-10, rc, cc)
        whole = li.singular_value_census(bad, 1e-10)
        np.testing.assert_array_equal(split["singular_values"],
                                      whole["singular_values"])


@pytest.mark.parametrize("operator", [
    *({"op": "pointwise", "entries": [
        {"twice_spin": 0, "i": 0, "j": 0, "re": 2.0, "im": 0.0},
        {"twice_spin": 1, "i": 0, "j": 0, "re": c.real, "im": c.imag}]}
      for c in (0.45 * np.exp(0.3j), 0.2 * np.exp(2.5j), 0.35 * np.exp(4.4j))),
    {"op": "multiplier", "formula": "laplacian_plus_one"}],
    ids=["pointwise-0", "pointwise-1", "pointwise-2", "invariant"])
def test_sweep_charge_blocks_keep_the_one_block_results(monkeypatch, operator):
    # t1[0, 0] has axis charge 0 and the multiplier is scalar, so every
    # cutoff splits; the counts are those of one SVD of the whole matrix
    op = li.parse_operator(operator, li.SU2)
    census, blocks = li.singular_value_census, li.index_engine._charge_blocks
    splits = []

    def spied(*args):
        found = blocks(*args)
        splits.append(found is not None)
        return found

    monkeypatch.setattr(li.index_engine, "_charge_blocks", spied)
    split = li.stabilization_sweep(op.symbol, op.adjoint_symbol, [4, 6, 8],
                                   [0.1, 1.0, 10.0])
    assert splits == [True] * 3
    monkeypatch.setattr(li.index_engine, "singular_value_census",
                        lambda mat, rel_tol, *charges: census(mat, rel_tol))
    whole = li.stabilization_sweep(op.symbol, op.adjoint_symbol, [4, 6, 8],
                                   [0.1, 1.0, 10.0])
    assert splits == [True] * 3 + [False] * 3 and not split.errors
    assert split.verdict == whole.verdict and len(split.rows) == 9
    for a, b in zip(split.rows, whole.rows):
        for key in ("kernel_count", "ker_dim", "coker_dim", "marginal"):
            assert a[key] == b[key]
        assert abs(a["heat_trace"] - b["heat_trace"]) <= 1e-13


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
    assert kernel_count(li.index_truncation(w, 8, li.sweep_operator(w, 8))) == -1


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
    labels = li.labels_for_band(t1, 4)
    # exp(1000 g) overflows from g ~ 0.71 on: the largest gamma decides
    np.testing.assert_array_equal(
        li.density_route_index(one, minus, [0.5], labels, grid), [0.0])
    for gammas in ([1.0], [0.5, 1.0], [1.0, 0.5]):
        with pytest.raises(li.DensityError, match="non-finite exponential"):
            li.density_route_index(one, minus, gammas, labels, grid)


def reference_density(sigma_a, sigma_astar, gammas, labels, grid):
    """The density integrand by its formula: both products diagonalized,
    exponentials at every gamma, quadrature over the rule."""
    g = np.asarray(gammas, dtype=float)
    node_trace = np.zeros((g.size, grid.n_nodes))
    for xi in labels:
        sa = sigma_a.evaluate_on_rule(grid, xi)
        sstar = sigma_astar.evaluate_on_rule(grid, xi)
        for sign, prod in ((1.0, sstar @ sa), (-1.0, sa @ sstar)):
            evals = np.linalg.eigvalsh(0.5 * (prod + prod.conj().transpose(0, 2, 1)))
            node_trace += sign * xi.dim * np.exp(-g[:, None, None] * evals).sum(axis=2)
    return np.sum(grid.weights * node_trace, axis=1)


def density_cases(rng):
    t1, t2 = li.torus(1), li.torus(2)
    for k in (1, 2):
        yield (li.winding_symbol(t1, k), li.winding_adjoint_symbol(t1, k),
               li.labels_for_band(t1, 8), li.haar_quadrature(t1, 17))
    coeff, bw = li.torus_function(t2, {(0, 0): 2.0, (1, 0): 0.3 - 0.2j,
                                       (0, -1): 0.4j})
    pt2 = li.pointwise_symbol(t2, coeff, bw, {"kind": "t2"})
    yield (pt2, li.conjugate_transpose_symbol(pt2),
           li.labels_for_band(t2, 3), li.haar_quadrature(t2, 9))
    coeff, bw = li.su2_function([(0, 0, 0, 2.0), (1, 0, 1, 0.3 + 0.4j)])
    psu2 = li.pointwise_symbol(li.SU2, coeff, bw, {"kind": "su2"})
    labels = li.labels_for_band(li.SU2, 4)
    grid = li.haar_quadrature(li.SU2, 5)
    yield psu2, li.conjugate_transpose_symbol(psu2), labels, grid
    table = {xi: rng.standard_normal((xi.dim, xi.dim))
             + 1j * rng.standard_normal((xi.dim, xi.dim)) for xi in labels}
    mixed = li.frozen_symbol_product(psu2, li.table_symbol(li.SU2, table))
    assert not mixed.is_invariant
    yield mixed, li.conjugate_transpose_symbol(mixed), labels, grid


def test_density_route_matches_reference_formula(rng):
    gammas = [0.1, 1.0, 10.0]
    for sigma, sigma_star, labels, grid in density_cases(rng):
        ref = reference_density(sigma, sigma_star, gammas, labels, grid)
        assert np.abs(ref).max() <= 1e-10
        got = li.density_route_index(sigma, sigma_star, gammas, labels, grid)
        assert got.shape == (3,)
        assert (got == 0.0).all()


def test_density_names_the_non_hermitian_right_product():
    # B A = diag(2, 1) is Hermitian, A B = A diag(2, 1) A^-1 is not
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.diag([2.0, 1.0]) @ np.linalg.inv(a)
    scalar, spin_half = li.labels_for_band(li.SU2, 1)
    sa = li.table_symbol(li.SU2, {scalar: np.eye(1), spin_half: a})
    sb = li.table_symbol(li.SU2, {scalar: np.eye(1), spin_half: b})
    grid = li.haar_quadrature(li.SU2, 2)
    with pytest.raises(li.DensityError, match=r"sigma_A sigma_A\* at"):
        li.density_route_index(sa, sb, [1.0], [scalar, spin_half], grid)


def counted(sym, name, calls):
    """sym with an evaluator that records (name, label, n_nodes) per call."""
    def on_rule(rule, xi):
        calls.append((name, xi, rule.n_nodes))
        return sym._on_rule(rule, xi)
    return dataclasses.replace(sym, _on_rule=on_rule)


def test_density_evaluates_invariant_pair_once_per_label(rng):
    labels = li.labels_for_band(li.SU2, 4)
    table = {xi: rng.standard_normal((xi.dim, xi.dim)) for xi in labels}
    calls = []
    sym = li.table_symbol(li.SU2, table)
    sa = counted(sym, "a", calls)
    sstar = counted(li.conjugate_transpose_symbol(sym), "star", calls)
    assert sa.is_invariant and sstar.is_invariant
    grid = li.haar_quadrature(li.SU2, 4)
    li.density_route_index(sa, sstar, [0.1, 1.0], labels, grid)
    assert calls == [(name, xi, 1) for xi in labels for name in ("a", "star")]


def su2_pointwise_symbol(entries=((0, 0, 0, 2.0), (1, 0, 1, 0.3 + 0.4j))):
    coeff, bw = li.su2_function(list(entries))
    return li.pointwise_symbol(li.SU2, coeff, bw, {"kind": "su2"})


def test_density_evaluates_pointwise_pair_once_per_call():
    sym = su2_pointwise_symbol()
    calls = []
    sa = counted(sym, "a", calls)
    sstar = counted(li.conjugate_transpose_symbol(sym), "star", calls)
    assert sa.is_pointwise and sstar.is_pointwise
    grid = li.haar_quadrature(li.SU2, 5)
    labels = li.labels_for_band(li.SU2, 4)
    got = li.density_route_index(sa, sstar, [0.1, 1.0, 10.0], labels, grid)
    np.testing.assert_array_equal(got, [0.0, 0.0, 0.0])
    trivial = li.trivial_label(li.SU2)
    assert calls == [("a", trivial, grid.n_nodes), ("star", trivial, grid.n_nodes)]
    calls.clear()
    li.density_route_index(sa, sstar, [1.0], [], grid)
    assert calls == []


def per_label(sym):
    """The same symbol without the pointwise mark: checked label by label."""
    return dataclasses.replace(sym, is_pointwise=False)


@pytest.mark.parametrize("first", [0, -1])
def test_density_pointwise_non_real_product_message(first):
    # c * c with c = 2 + 0.4i + 0.3 t_1[0, 1] is not real: c is passed as
    # its own adjoint symbol
    sym = su2_pointwise_symbol([(0, 0, 0, 2.0 + 0.4j), (1, 0, 1, 0.3)])
    grid = li.haar_quadrature(li.SU2, 5)
    labels = li.labels_for_band(li.SU2, 4)
    labels = labels if first == 0 else labels[::-1]
    with pytest.raises(li.DensityError) as slow:
        li.density_route_index(per_label(sym), per_label(sym), [1.0], labels, grid)
    with pytest.raises(li.DensityError) as fast:
        li.density_route_index(sym, sym, [1.0], labels, grid)
    assert str(fast.value) == str(slow.value)
    prod = sym.coefficient_on_rule(grid)[:, 0, 0] ** 2
    defect = 2.0 * np.abs(prod.imag).max()
    assert str(fast.value) == (
        f"sigma_A* sigma_A at {labels[0]}: product is not Hermitian "
        f"(defect {defect:.3e}); supply the adjoint symbol consistent with "
        "the operator")


def test_density_pointwise_failures_match_label_by_label():
    grid = li.haar_quadrature(li.SU2, 5)
    labels = li.labels_for_band(li.SU2, 3)
    one = su2_pointwise_symbol([(0, 0, 0, 1.0)])
    minus = su2_pointwise_symbol([(0, 0, 0, -1000.0)])
    c = su2_pointwise_symbol()
    cases = [(one, minus, [0.5]), (one, minus, [0.5, 1.0]),
             (minus, one, [10.0]), (one, one, [1.0]), (c, c, [1.0]),
             (c, li.conjugate_transpose_symbol(c), [0.1, 10.0])]
    for sa, sstar, gammas in cases:
        outcomes = []
        for pair in ((sa, sstar), (per_label(sa), per_label(sstar))):
            try:
                outcomes.append(li.density_route_index(*pair, gammas, labels, grid))
            except li.DensityError as exc:
                outcomes.append(str(exc))
        if isinstance(outcomes[0], str):
            assert outcomes[0] == outcomes[1]
        else:
            np.testing.assert_array_equal(outcomes[0], outcomes[1])
    with pytest.raises(li.DensityError, match="non-finite exponential"):
        li.density_route_index(one, minus, [1.0], labels, grid)


# --- order reduction and traces ----------------------------------------------

def test_order_reduce_weight_multiplier_is_identity(t1):
    for m in (1.0, 2.0, -1.0):
        lam = li.lambda_multiplier(t1, m)
        red = li.order_reduce(lam, 5, li.sweep_operator(lam, 5))
        assert np.abs(red.matrix - np.eye(red.matrix.shape[0])).max() <= 1e-8


def test_order_reduce_su2_laplacian_plus_one():
    sym = li.multiplier_symbol(li.SU2, lambda xi: xi.casimir + 1.0, 2.0,
                               {"kind": "laplacian_plus_one"})
    red = li.order_reduce(sym, 4, li.sweep_operator(sym, 4))
    assert np.abs(red.matrix - np.eye(red.matrix.shape[0])).max() <= 1e-8
    assert kernel_count(red) == 0


def test_order_reduce_variable_coefficient_matches_unreduced(t1):
    coeff, w = li.torus_function(t1, {(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    c_sym = li.pointwise_symbol(t1, coeff, w, {"kind": "c"})
    sym = li.frozen_symbol_product(c_sym, li.lambda_multiplier(t1, 2.0))
    wide = li.sweep_operator(sym, 8)
    unreduced = kernel_count(li.index_truncation(sym, 8, wide))
    reduced = kernel_count(li.order_reduce(sym, 8, wide))
    assert reduced == unreduced


C_TIMES_WEIGHT_SQUARED = {"op": "product", "factors": [
    {"op": "pointwise", "coefficients": [{"freq": [0], "re": 1.0, "im": 0.0},
                                         {"freq": [1], "re": 0.25, "im": 0.0},
                                         {"freq": [-1], "re": 0.25, "im": 0.0}]},
    {"op": "multiplier", "formula": "weight_power", "s": 2}]}


@pytest.mark.parametrize("group,operator,band", [
    (li.SU2, {"op": "multiplier", "formula": "laplacian_plus_one"}, 6),
    (li.torus(2), {"op": "multiplier", "formula": "weight_power", "s": 2}, 3),
    (li.torus(1), C_TIMES_WEIGHT_SQUARED, 16)], ids=["su2", "t2", "t1"])
def test_order_reduce_scales_rows_like_composing_the_multiplier(group, operator, band):
    # Lambda_{-m} is diagonal in the Peter-Weyl basis: scaling the rows by
    # <xi>^-m gives the matrix of the assembled multiplier times A exactly
    sym = li.parse_operator(operator, group, "operator").symbol
    wide = li.sweep_operator(sym, band)
    a = li.index_truncation(sym, band, wide)
    lam = li.assemble(li.lambda_multiplier(group, -sym.order), a.codomain, a.codomain)
    reduced = li.order_reduce(sym, band, wide)
    np.testing.assert_array_equal(reduced.matrix, li.compose(lam, a).matrix)
    assert reduced.domain == a.domain and reduced.codomain == a.codomain
    assert "level" not in reduced.meta


def test_sweep_reduce_order_of_a_variable_coefficient(monkeypatch):
    # an order-reduced truncation records no quadrature level, so the
    # density route of a non-invariant pair takes the band's own level
    levels = []

    def counted(group, band):
        levels.append(band)
        return li.groups.min_level_for_band(group, band)

    monkeypatch.setattr(li.index_engine, "min_level_for_band", counted)
    op = li.parse_operator(C_TIMES_WEIGHT_SQUARED, li.torus(1))
    reports = [li.stabilization_sweep(op.symbol, op.adjoint_symbol, [8, 16], [1.0],
                                      reduce_order=reduce)
               for reduce in (False, True)]
    assert levels == [8, 16]   # the unreduced truncations carry their level
    unreduced, reduced = reports
    assert not reduced.errors and len(reduced.rows) == 2
    for row, ref in zip(reduced.rows, unreduced.rows):
        assert row["kernel_count"] == ref["kernel_count"]
        # the true index 0 (the kernel count's wrong value is an xfail of
        # the known-index bank)
        assert abs(row["density_route"]) <= 1e-8


def test_trace_via_symbol_identity_partial_sum(t1):
    labels = li.labels_for_band(t1, 5)
    grid = li.haar_quadrature(t1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = li.trace_via_symbol(li.lambda_multiplier(t1, 0.0), labels, grid)
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


def test_sweep_builds_no_rule_for_an_invariant_pair(monkeypatch):
    # the density route checks an invariant pair on one node, so the sweep
    # needs no Haar rule for it
    calls = []

    def counted(*args):
        calls.append(args)
        return li.haar_quadrature(*args)

    monkeypatch.setattr(li.index_engine, "haar_quadrature", counted)
    op = li.parse_operator({"op": "multiplier", "formula": "laplacian_plus_one"},
                           li.SU2)
    rep = li.stabilization_sweep(op.symbol, op.adjoint_symbol, [4, 6, 8], [1.0])
    assert rep.verdict == "stable" and not rep.errors
    assert calls == []


@pytest.mark.parametrize("operator", [
    {"op": "pointwise", "coefficients": [{"freq": [0], "re": 2.0, "im": 0.5}]},
    {"op": "winding", "k": 0}], ids=["freq-0-pointwise", "winding-0"])
def test_x_bandwidth_zero_assembles_block_diagonally(t1, operator):
    # x-bandwidth 0 is invariance: the sweep takes no quadrature level and
    # keeps the kernel counts of the quadrature path a declared x-bandwidth
    # of 1 forces
    op = li.parse_operator(operator, t1)
    assert op.symbol.is_invariant and op.adjoint_symbol.is_invariant
    forced = [dataclasses.replace(s, x_bandwidth=1)
              for s in (op.symbol, op.adjoint_symbol)]
    bands, gammas = [4, 8], [0.1, 1.0]
    for band in bands:
        assert li.sweep_operator(op.symbol, band).meta["level"] is None
        assert li.sweep_operator(forced[0], band).meta["level"] is not None
    reports = [li.stabilization_sweep(op.symbol, op.adjoint_symbol, bands, gammas),
               li.stabilization_sweep(*forced, bands, gammas)]
    for rep in reports:
        assert rep.verdict == "stable" and not rep.errors
        assert [(row["kernel_count"], row["ker_dim"], row["coker_dim"])
                for row in rep.rows] == [(0, 0, 0)] * 4


def _count_assemble_calls(monkeypatch):
    assemble, calls = li.galerkin.assemble, []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(li.galerkin, "assemble", counted)
    return calls


@pytest.mark.parametrize("operator", [
    {"op": "pointwise", "entries": [
        {"twice_spin": 0, "i": 0, "j": 0, "re": 2.0, "im": 0.0},
        {"twice_spin": 1, "i": 0, "j": 0, "re": 0.3, "im": -0.2}]},
    {"op": "multiplier", "formula": "laplacian_plus_one"}],
    ids=["pointwise", "invariant"])
def test_sweep_assembles_once_and_stores_one_entry(tmp_path, monkeypatch, operator):
    # every cutoff is a slice of the largest cutoff's operator
    calls = _count_assemble_calls(monkeypatch)
    op = li.parse_operator(operator, li.SU2)
    reports = []
    for expected in ((0, 1), (1, 0)):
        cache = li.OperatorCache(str(tmp_path))
        reports.append(li.stabilization_sweep(op.symbol, op.adjoint_symbol,
                                              [4, 6, 8], [0.1, 1.0], cache=cache))
        assert (cache.hits, cache.misses) == expected
        assert len(calls) == 1 and len(list(tmp_path.glob("*.lgidx"))) == 1
    assert reports[0].to_dict() == reports[1].to_dict()
    assert not reports[0].errors and len(reports[0].rows) == 6


BEYOND_TABLE = "label l=5/2 beyond the symbol band 4"


def test_sweep_keeps_the_cutoffs_below_a_failing_one():
    # the largest cutoff needs labels beyond the table: the cutoffs below it
    # keep their rows and the largest records the table's own error
    table = {li.su2_label(n): (1.0 + n) * np.eye(n + 1) for n in range(5)}
    sym = li.table_symbol(li.SU2, table)
    rep = li.stabilization_sweep(sym, li.conjugate_transpose_symbol(sym),
                                 [2, 4, 6], [0.1, 1.0])
    assert [row["cutoff"] for row in rep.rows] == [2, 2, 4, 4]
    assert {row["kernel_count"] for row in rep.rows} == {0}
    assert rep.errors == [{"cutoff": 6, "error": BEYOND_TABLE}]
    assert rep.verdict == "unstable"


def test_sweep_assembles_a_failing_largest_cutoff_once(tmp_path, monkeypatch):
    # each cutoff above 4 fails its own assembly and records its error; 4
    # assembles the sweep's one matrix and 2 is a slice of it: one call and
    # one miss per cutoff tried, one stored entry
    table = {li.su2_label(n): (1.0 + n) * np.eye(n + 1) for n in range(5)}
    sym = li.table_symbol(li.SU2, table)
    adj = li.conjugate_transpose_symbol(sym)
    resolved = li.stabilization_sweep(sym, adj, [2, 4], [0.1, 1.0])
    calls = _count_assemble_calls(monkeypatch)
    for bands in ([2, 4, 6], [2, 4, 6, 8]):
        calls.clear()
        cache_dir = tmp_path / str(len(bands))
        cache = li.OperatorCache(str(cache_dir))
        rep = li.stabilization_sweep(sym, adj, bands, [0.1, 1.0], cache=cache)
        tried = len(bands) - 1
        assert len(calls) == tried and (cache.hits, cache.misses) == (0, tried)
        assert len(list(cache_dir.glob("*.lgidx"))) == 1
        assert rep.rows == resolved.rows
        assert rep.errors == [{"cutoff": band, "error": BEYOND_TABLE}
                              for band in bands[2:]]


def test_sweep_records_a_failing_cutoff_and_reports_the_others(t1, monkeypatch):
    census, calls = li.index_engine.singular_value_census, []

    def failing_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("census failed")
        return census(*args)

    monkeypatch.setattr(li.index_engine, "singular_value_census", failing_second)
    rep = li.stabilization_sweep(li.winding_symbol(t1, 1),
                                 li.winding_adjoint_symbol(t1, 1), [4, 8, 16], [1.0])
    assert rep.errors == [{"cutoff": 8, "error": "census failed"}]
    assert [(row["cutoff"], row["kernel_count"]) for row in rep.rows] == [(4, -1), (16, -1)]
    assert rep.verdict == "unstable"


def test_sweep_names_an_overflowing_symbol_at_every_cutoff(t1):
    # <xi>^400 overflows from |l| = 1 on: each cutoff records its own error
    sym = li.lambda_multiplier(t1, 400.0)
    rep = li.stabilization_sweep(sym, sym, [2, 8], [1.0])
    assert not rep.rows and [e["cutoff"] for e in rep.errors] == [2, 8]
    for e in rep.errors:
        assert re.fullmatch(r"symbol weight_power overflows or is not finite at "
                            r"label \(-?[1-8],\)", e["error"]), e["error"]


@pytest.mark.parametrize("bands", [[8, 8], [8, 16, 8]])
def test_sweep_rejects_duplicate_cutoffs(t1, bands):
    # a repeated cutoff would compare a cutoff with itself for the verdict
    w = li.winding_symbol(t1, 1)
    with pytest.raises(ValueError, match="distinct"):
        li.stabilization_sweep(w, li.winding_adjoint_symbol(t1, 1), bands, [1.0])


@pytest.mark.parametrize("group, operator, band", [
    (li.torus(1), C_TIMES_WEIGHT_SQUARED, 8),
    (li.SU2, {"op": "multiplier", "formula": "laplacian_plus_one"}, 4)],
    ids=["t1", "su2-invariant"])
def test_truncations_only_slice_a_prebuilt_operator(monkeypatch, group,
                                                    operator, band):
    sym = li.parse_operator(operator, group).symbol
    wide = li.sweep_operator(sym, 2 * band)

    def refuse(*args, **kwargs):
        raise AssertionError("a truncation assembled")

    monkeypatch.setattr(li.galerkin, "assemble", refuse)
    trunc = li.index_truncation(sym, band, wide)
    reduced = li.order_reduce(sym, band, wide)
    assert trunc.domain == li.basis_for_band(group, band)
    assert reduced.shape == trunc.shape


def test_sweep_heat_constant_across_gammas(t1):
    w = li.winding_symbol(t1, 1)
    rep = li.stabilization_sweep(w, li.winding_adjoint_symbol(t1, 1),
                                 [8, 16], [0.01, 0.1, 1.0, 10.0, 100.0])
    heats = [row["heat_trace"] for row in rep.rows]
    assert max(heats) - min(heats) <= 1e-8


def test_sweep_csv_and_dict(tmp_path):
    # the command line writes a sweep's rows to the CSV and its dict to the report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"kind": "torus", "n": 1},
                               "operator": {"op": "winding", "k": 1},
                               "cutoffs": [4, 8], "gammas": [1.0]}))
    assert main(["index", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "tables" / "index_report.csv").read_text()
    assert csv.split("\n")[1].startswith("cutoff,gamma,heat_trace")
    d = json.loads((tmp_path / "report.json").read_text())
    assert len(csv.strip().split("\n")) == 2 + len(d["rows"])
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
