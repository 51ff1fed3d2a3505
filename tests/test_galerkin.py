import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import liegroup_index as li
from conftest import basis_entries


@pytest.fixture(scope="module")
def t1():
    return li.torus(1)


def random_invariant_table(group, band, rng):
    table = {}
    for lab in li.labels_for_band(group, band):
        d = lab.dim
        table[lab] = (rng.standard_normal((d, d))
                      + 1j * rng.standard_normal((d, d)))
    return table


def scattered_gram(basis, blocks):
    """The dense Gram matrix of ``gram_blocks``'s (rows, block) pairs, whose
    rows must partition the basis."""
    rows = np.concatenate([r for r, _ in blocks])
    np.testing.assert_array_equal(np.sort(rows), np.arange(basis.size))
    gram = np.zeros((basis.size, basis.size), dtype=complex)
    for r, block in blocks:
        gram[np.ix_(r, r)] = block
    return gram


def test_gram_identity(t1):
    for group, band in ((t1, 6), (li.SU2, 4), (li.torus(2), 2)):
        basis = li.basis_for_band(group, band)
        rule = li.haar_quadrature(group, li.min_level_for_band(group, band))
        gram = scattered_gram(basis, li.gram_blocks(basis, rule))
        assert np.abs(gram - np.eye(basis.size)).max() <= 1e-8


def dense_gram(basis, rule):
    rows = basis.values_on_rule(rule)
    return (rows * rule.weights) @ rows.conj().T


@pytest.mark.parametrize("group,band", [
    (li.torus(1), 6), (li.torus(2), 4), (li.SU2, 4), (li.SU2, 8)])
def test_gram_blocks_match_dense_gram(group, band):
    basis = li.basis_for_band(group, band)
    rule = li.haar_quadrature(group, li.min_level_for_band(group, band))
    gram = scattered_gram(basis, li.gram_blocks(basis, rule))
    assert np.abs(gram - dense_gram(basis, rule)).max() <= 1e-13


@pytest.mark.parametrize("group,band,level,error", [
    (li.SU2, 8, 4, 1.59),
    # level 7 on T^1: charges l and l - 7 alias to one mode and must
    # share a block, where the dense Gram has an entry 1
    (li.torus(1), 6, 7, 1.0)])
def test_gram_blocks_fail_under_resolved_like_dense(group, band, level, error):
    basis = li.basis_for_band(group, band)
    rule = li.haar_quadrature(group, level)
    gram = scattered_gram(basis, li.gram_blocks(basis, rule))
    eye = np.eye(basis.size)
    dense_err = np.abs(dense_gram(basis, rule) - eye).max()
    assert abs(np.abs(gram - eye).max() - dense_err) <= 1e-12
    assert dense_err == pytest.approx(error, abs=0.01)


def test_gram_rejects_weights_varying_on_uniform_axis():
    rule = li.haar_quadrature(li.SU2, 2)
    weights = rule.weights.copy()
    weights[0] *= 1.5
    bumped = li.QuadratureRule(rule.group, rule.level, rule.charts.copy(), weights)
    with pytest.raises(ValueError, match="uniform axis"):
        li.gram_blocks(li.basis_for_band(li.SU2, 2), bumped)


@pytest.mark.parametrize("group,band", [(li.torus(2), 4), (li.SU2, 6)], ids=str)
def test_positions_equal_entry_scan(group, band, rng):
    basis = li.basis_for_band(group, band)
    labels = list(basis.labels)
    subsets = [labels, [], labels[:1], labels[::-1], labels[1::3],
               [labels[i] for i in rng.permutation(len(labels))[:len(labels) // 2]],
               labels[:3] + li.labels_for_band(group, band + 2)[-2:]]
    for subset in subsets:
        keep = set(subset)
        scan = np.array([pos for pos, (xi, _, _) in enumerate(basis_entries(basis))
                         if xi in keep], dtype=int)
        got = basis.positions(subset)
        assert got.dtype == scan.dtype and got.shape == scan.shape
        np.testing.assert_array_equal(got, scan)


def test_basis_ordering_deterministic(t1):
    basis = li.basis_for_band(li.SU2, 2)
    weights = [xi.weight for xi, _, _ in basis_entries(basis)]
    assert weights == sorted(weights)
    assert basis.size == sum(l.dim ** 2 for l in basis.labels)


def test_assemble_identity(t1):
    basis = li.basis_for_band(t1, 6)
    g = li.assemble(li.lambda_multiplier(t1, 0.0), basis, basis)
    assert np.abs(g.matrix - np.eye(basis.size)).max() <= 1e-8


def test_assemble_invariant_blocks(rng):
    # block structure verified entrywise against the symbol matrices
    table = random_invariant_table(li.SU2, 3, rng)
    sym = li.table_symbol(li.SU2, table)
    basis = li.basis_for_band(li.SU2, 3)
    g = li.assemble(sym, basis, basis)
    for lab in basis.labels:
        d = lab.dim
        base = basis.offsets[lab]
        for i in range(d):
            for j in range(d):
                col = base + i * d + j
                expected = np.zeros(basis.size, dtype=complex)
                expected[base + i * d:base + (i + 1) * d] = table[lab][:, j]
                np.testing.assert_allclose(g.matrix[:, col], expected, atol=1e-10)
    # the table ends at twice-spin 3
    wide = li.basis_for_band(li.SU2, 4)
    with pytest.raises(li.BandHeadroomError):
        li.assemble(sym, wide, wide)


def test_assemble_fast_path_matches_quadrature(rng):
    table = random_invariant_table(li.SU2, 2, rng)
    sym = li.table_symbol(li.SU2, table)
    # a declared x-bandwidth of 1 forces the quadrature path
    slow_sym = li.MatrixSymbol(li.SU2, 0.0, 1, {"kind": "slow"},
                               sym._on_rule, max_band=sym.max_band)
    basis = li.basis_for_band(li.SU2, 2)
    fast = li.assemble(sym, basis, basis)
    slow = li.assemble(slow_sym, basis, basis)
    np.testing.assert_allclose(fast.matrix, slow.matrix, atol=1e-10)


def test_assemble_winding_shift_matrix(t1):
    # explicit coefficient-map oracle: e_l -> e_{l+1} for l >= 0, e_l for l < 0
    w = li.winding_symbol(t1, 1)
    m = li.index_truncation(w, 4, li.sweep_operator(w, 4))
    expected = np.zeros(m.shape)
    for pos, (xi, _, _) in enumerate(basis_entries(m.domain)):
        l = xi.label[0]
        target = li.torus_label(t1, [l + 1 if l >= 0 else l])
        expected[m.codomain.offsets[target], pos] = 1.0
    np.testing.assert_allclose(m.matrix, expected, atol=1e-10)


def test_assemble_linearity(t1, rng):
    basis = li.basis_for_band(t1, 4)
    c1, w1 = li.torus_function(t1, {(1,): 0.7, (-1,): 0.7})
    c2, w2 = li.torus_function(t1, {(0,): 1.0, (1,): -0.2j})
    s1 = li.pointwise_symbol(t1, c1, w1, {"k": 1})
    s2 = li.pointwise_symbol(t1, c2, w2, {"k": 2})
    cod = li.basis_for_band(t1, 5)
    g1 = li.assemble(s1, basis, cod)
    g2 = li.assemble(s2, basis, cod)
    gsum = li.assemble(li.symbol_sum([s1, s2], [2.0, -3.0]), basis, cod)
    np.testing.assert_allclose(gsum.matrix, 2.0 * g1.matrix - 3.0 * g2.matrix,
                               atol=1e-10)


def test_assemble_rejects_aliasing(t1):
    basis = li.basis_for_band(t1, 4)
    with pytest.raises(li.AliasingError) as err:
        li.assemble(li.winding_symbol(t1, 1), basis, basis)
    assert err.value.required_band == 5


def test_adjoint_involution_and_blocks(rng):
    table = random_invariant_table(li.SU2, 2, rng)
    sym = li.table_symbol(li.SU2, table)
    basis = li.basis_for_band(li.SU2, 2)
    g = li.assemble(sym, basis, basis)
    gadj = g.matrix.conj().T
    np.testing.assert_allclose(gadj.conj().T, g.matrix)
    star = li.table_symbol(li.SU2, {lab: m.conj().T for lab, m in table.items()})
    np.testing.assert_allclose(gadj,
                               li.assemble(star, basis, basis).matrix, atol=1e-10)


def test_self_adjoint_multiplier_hermitian(t1):
    basis = li.basis_for_band(li.SU2, 3)
    g = li.assemble(li.lambda_multiplier(li.SU2, 2.0), basis, basis)
    assert np.abs(g.matrix.conj().T - g.matrix).max() <= 1e-10


def test_adjoint_matches_adjoint_symbol_assembly(t1):
    # alias-free variable-coefficient case on matched bands
    coeff, w = li.torus_function(t1, {(1,): 0.5, (-1,): 0.25j})
    sym = li.pointwise_symbol(t1, coeff, w, {"k": "c"})
    coeff_conj, _ = li.torus_function(t1, {(-1,): 0.5, (1,): -0.25j})
    adj_sym = li.pointwise_symbol(t1, coeff_conj, w, {"k": "cbar"})
    dom = li.basis_for_band(t1, 3)
    cod = li.basis_for_band(t1, 4)
    g = li.assemble(sym, dom, cod)
    # the adjoint's image of band 4 needs band 5; its rows of band 3 are g^*
    g2 = li.assemble(adj_sym, cod, li.basis_for_band(t1, 5))
    rows = g2.codomain.positions(dom.labels)
    np.testing.assert_allclose(g.matrix.conj().T, g2.matrix[rows], atol=1e-8)


def test_compose_with_identity(t1):
    basis = li.basis_for_band(t1, 5)
    g = li.assemble(li.lambda_multiplier(t1, 1.0), basis, basis)
    ident = li.assemble(li.lambda_multiplier(t1, 0.0), basis, basis)
    np.testing.assert_allclose(li.compose(g, ident).matrix, g.matrix, atol=1e-10)
    np.testing.assert_allclose(li.compose(ident, g).matrix, g.matrix, atol=1e-10)


def test_compose_invariant_blocks_multiply(rng):
    ta = random_invariant_table(li.SU2, 2, rng)
    tb = random_invariant_table(li.SU2, 2, rng)
    prod = {lab: ta[lab] @ tb[lab] for lab in ta}
    basis = li.basis_for_band(li.SU2, 2)
    ga = li.assemble(li.table_symbol(li.SU2, ta), basis, basis)
    gb = li.assemble(li.table_symbol(li.SU2, tb), basis, basis)
    gp = li.assemble(li.table_symbol(li.SU2, prod), basis, basis)
    np.testing.assert_allclose(li.compose(ga, gb).matrix, gp.matrix, atol=1e-12)


def test_compose_winding_pair_interior_identity(t1):
    plus = li.winding_symbol(t1, 1)
    minus = li.winding_symbol(t1, -1)
    m_minus = li.index_truncation(minus, 6, li.sweep_operator(minus, 6))
    cod_labels = li.index_codomain_labels(
        plus, m_minus.codomain, li.sweep_operator(plus, m_minus.codomain.band))
    m_plus = li.assemble(plus, m_minus.codomain,
                         li.PeterWeylBasis(t1, tuple(cod_labels)))
    comp = li.compose(m_plus, m_minus)
    # winding(+1) o winding(-1) fixes every mode except l = 0
    for pos, (xi, _, _) in enumerate(basis_entries(comp.domain)):
        l = xi.label[0]
        col = comp.matrix[:, pos]
        if l == 0:
            target = comp.codomain.offsets[li.torus_label(t1, [-1])]
        else:
            target = comp.codomain.offsets[xi]
        expected = np.zeros(len(col))
        expected[target] = 1.0
        np.testing.assert_allclose(col, expected, atol=1e-10)


def test_compose_requires_matching_bases(t1):
    b1 = li.basis_for_band(t1, 3)
    b2 = li.basis_for_band(t1, 4)
    g1 = li.assemble(li.lambda_multiplier(t1, 0.0), b1, b1)
    g2 = li.assemble(li.lambda_multiplier(t1, 0.0), b2, b2)
    with pytest.raises(li.GroupMismatchError):
        li.compose(g1, g2)


def test_frozen_product_identity_factor(t1, rng):
    table = random_invariant_table(t1, 4, rng)
    sym = li.table_symbol(t1, table)
    prod = li.frozen_symbol_product(li.lambda_multiplier(t1, 0.0), sym)
    x = li.point_rule(li.identity(t1))
    for lab in li.labels_for_band(t1, 4):
        np.testing.assert_allclose(prod.evaluate_on_rule(x, lab)[0], table[lab])


def test_frozen_product_matches_block_composition(rng):
    ta = random_invariant_table(li.SU2, 2, rng)
    tb = random_invariant_table(li.SU2, 2, rng)
    basis = li.basis_for_band(li.SU2, 2)
    ga = li.assemble(li.table_symbol(li.SU2, ta), basis, basis)
    gb = li.assemble(li.table_symbol(li.SU2, tb), basis, basis)
    fz = li.frozen_symbol_product(li.table_symbol(li.SU2, ta),
                                  li.table_symbol(li.SU2, tb))
    np.testing.assert_allclose(li.compose(ga, gb).matrix,
                               li.assemble(fz, basis, basis).matrix, atol=1e-8)
    assert fz.is_invariant


def test_frozen_product_winding_discrepancy(t1):
    # frozen product of the adjoint pair: 1 away from l = 0 but 0 there,
    # while A* A is the identity (A is an isometry)
    w = li.winding_symbol(t1, 1)
    wstar = li.winding_adjoint_symbol(t1, 1)
    prod = li.frozen_symbol_product(wstar, w)
    x = li.point_rule(li.torus_point(t1, [0.21]))
    assert prod.evaluate_on_rule(x, li.torus_label(t1, [0]))[0, 0, 0] == 0.0
    assert prod.evaluate_on_rule(x, li.torus_label(t1, [3]))[0, 0, 0] == pytest.approx(1.0)
    assert prod.evaluate_on_rule(x, li.torus_label(t1, [-2]))[0, 0, 0] == pytest.approx(1.0)

    # and the truncation of the isometry is isometric
    m = li.index_truncation(w, 8, li.sweep_operator(w, 8)).matrix
    np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[1]), atol=1e-12)


def test_cache_round_trip_and_verify(t1, tmp_path):
    w = li.winding_symbol(t1, 2)
    m = li.index_truncation(w, 5, li.sweep_operator(w, 5))
    key, lookup = li.galerkin.lookup_key(w.describe, m.domain, m.codomain,
                                         m.meta["level"])
    path = li.OperatorCache(str(tmp_path)).store(key, lookup, m.matrix)
    assert path == str(tmp_path / f"{key}.lgidx")
    header, matrix = li.read_cache_entry(path)
    np.testing.assert_array_equal(matrix, m.matrix)
    assert header["shape"] == list(m.matrix.shape)
    # the payload is little-endian float64 (re, im) pairs in row-major order,
    # and the matrix read back is C-ordered and read-only
    assert matrix.flags.c_contiguous and not matrix.flags.writeable
    pairs = np.stack([m.matrix.real, m.matrix.imag], axis=-1)
    blob = bytearray(Path(path).read_bytes())
    hlen = int.from_bytes(blob[4:8], "little")
    assert bytes(blob[8 + hlen:]) == pairs.astype("<f8").tobytes()

    blob[-5] ^= 0xFF  # flip one payload bit
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        li.read_cache_entry(path)


def test_operator_cache_hit_miss(t1, tmp_path):
    cache = li.OperatorCache(str(tmp_path))
    w = li.winding_symbol(t1, 1)
    m1 = li.index_truncation(w, 4, li.sweep_operator(w, 4, cache=cache))
    assert cache.hits == 0 and cache.misses > 0
    misses = cache.misses
    m2 = li.index_truncation(w, 4, li.sweep_operator(w, 4, cache=cache))
    assert cache.misses == misses and cache.hits > 0
    np.testing.assert_allclose(m1.matrix, m2.matrix)


def column_by_column(sigma, dom, cod, grid):
    """Reference assembly: each column from quantize_on_rule and projection."""
    proj = cod.values_on_rule(grid).conj() * grid.weights
    cols = []
    for xi, i, j in basis_entries(dom):
        coef = np.zeros((xi.dim, xi.dim), dtype=complex)
        coef[j, i] = 1.0 / np.sqrt(xi.dim)
        fhat = li.FourierCoefficients({xi: coef})
        cols.append(proj @ li.quantize_on_rule(sigma, fhat, grid))
    return np.stack(cols, axis=1)


def t2_pointwise():
    t2 = li.torus(2)
    coeff, w = li.torus_function(
        t2, {(0, 0): 2.0, (1, 0): 0.3 - 0.2j, (0, -1): 0.4j})
    return li.pointwise_symbol(t2, coeff, w, {"k": "t2"})


def su2_pointwise():
    coeff, w = li.su2_function([(0, 0, 0, 2.0), (1, 0, 0, 0.35 + 0.1j),
                                (1, 1, 0, -0.2j)])
    return li.pointwise_symbol(li.SU2, coeff, w, {"k": "su2"})


@pytest.mark.parametrize("make, dom_band", [(t2_pointwise, 2), (su2_pointwise, 3)])
def test_assemble_matches_column_by_column(make, dom_band):
    sigma = make()
    dom = li.basis_for_band(sigma.group, dom_band)
    cod = li.basis_for_band(sigma.group, dom_band + sigma.x_bandwidth)
    g = li.assemble(sigma, dom, cod)
    grid = li.haar_quadrature(sigma.group, g.meta["level"])
    ref = column_by_column(sigma, dom, cod, grid)
    assert np.abs(g.matrix - ref).max() <= 1e-12


def loop_codomain_labels(sigma, band):
    """Reference codomain selection: a label-by-label scan of the wide matrix
    assembled for this band alone."""
    w = sigma.x_bandwidth
    dom = li.basis_for_band(sigma.group, band)
    if w == 0:
        return dom.labels
    wide = li.assemble(sigma, li.basis_for_band(sigma.group, band + w),
                       li.basis_for_band(sigma.group, band + 2 * w))
    mag = np.abs(wide.matrix)
    threshold = li.galerkin.HIT_ROW_TOL * mag.max()

    def hits(labels):
        cols = [wide.domain.offsets[xi] + k for xi in labels for k in range(xi.dim ** 2)]
        return {xi for xi in wide.codomain.labels
                if any(mag[wide.codomain.offsets[xi] + k, cols].max() > threshold
                       for k in range(xi.dim ** 2))}

    hit = hits(dom.labels)
    keep = (set(dom.labels) | hit) - (hits(wide.domain.labels) - hit)
    return tuple(sorted(keep, key=li.IrrepLabel.sort_key))


def su2_laplacian_plus_one():
    return li.multiplier_symbol(li.SU2, lambda xi: xi.casimir + 1.0, 2.0,
                                {"kind": "laplacian_plus_one"})


@pytest.mark.parametrize("make, band, sweep_band", [
    (lambda: li.winding_symbol(li.torus(1), 2), 6, None),
    (t2_pointwise, 3, None), (su2_pointwise, 4, None),
    (lambda: li.winding_symbol(li.torus(1), 2), 6, 16),
    (lambda: li.winding_symbol(li.torus(1), -3), 5, 12),
    (t2_pointwise, 3, 6), (su2_pointwise, 4, 8), (su2_laplacian_plus_one, 4, 8)],
    ids=["<lambda>-6", "t2_pointwise-3", "su2_pointwise-4", "winding2-6-of-16",
         "winding-3-5-of-12", "t2_pointwise-3-of-6", "su2_pointwise-4-of-8",
         "su2_invariant-4-of-8"])
def test_index_truncation_is_slice_of_fresh_assembly(make, band, sweep_band):
    # a cutoff sliced from a larger cutoff's sweep operator is the cutoff's
    # own truncation: same codomain labels, same matrix to 1e-13
    sigma = make()
    own = li.index_truncation(sigma, band, li.sweep_operator(sigma, band))
    trunc = own if sweep_band is None else li.index_truncation(
        sigma, band, li.sweep_operator(sigma, sweep_band))
    assert trunc.codomain.labels == own.codomain.labels
    assert own.codomain.labels == loop_codomain_labels(sigma, band)
    assert np.abs(trunc.matrix - own.matrix).max() <= 1e-13
    level = li.galerkin.assembly_level(sigma, trunc.domain.band,
                                       trunc.codomain.band)
    assert (level is None) == sigma.is_invariant
    assert trunc.meta["level"] == level
    fresh = li.assemble(sigma, trunc.domain, trunc.codomain)
    assert fresh.meta["level"] == trunc.meta["level"]
    assert np.abs(trunc.matrix - fresh.matrix).max() <= 1e-13


def test_assemble_aliasing_names_first_column_su2():
    # (t1[0,0] * t1[i,j]) has a trivial-label part only for (i, j) = (1, 1),
    # which sits at position 1 + 3 of the band-1 basis; the pointwise and
    # the per-label branch name the same column
    coeff, w = li.su2_function([(1, 0, 0, 1.0)])
    sigma = li.pointwise_symbol(li.SU2, coeff, w, {"k": "t1"})
    dom = li.basis_for_band(li.SU2, 1)
    cod = li.PeterWeylBasis(li.SU2, (li.su2_label(1), li.su2_label(2)))
    for sym in (sigma, dataclasses.replace(sigma, is_pointwise=False)):
        with pytest.raises(li.AliasingError) as err:
            li.assemble(sym, dom, cod)
        assert "column 4 leaks" in str(err.value)
        assert err.value.required_band == 2


def test_assemble_pointwise_charge_beyond_declared_bandwidth_leaks():
    # t2[0, 2] has axis charge 2: declared as x-bandwidth 1, the band-limited
    # assembly drops that charge and the leak check names it, although the
    # codomain holds the true image
    coeff, _ = li.su2_function([(0, 0, 0, 2.0), (2, 0, 2, 0.3 + 0.1j)])
    dom = li.basis_for_band(li.SU2, 4)
    cod = li.basis_for_band(li.SU2, 4 + 2)
    li.assemble(li.pointwise_symbol(li.SU2, coeff, 2, {"k": "declared-2"}), dom, cod)
    with pytest.raises(li.AliasingError, match="leaks"):
        li.assemble(li.pointwise_symbol(li.SU2, coeff, 1, {"k": "declared-1"}),
                    dom, cod)


@pytest.mark.parametrize("group, coeff", [
    (li.torus(1), li.torus_function(li.torus(1), {(1,): 1.0})[0]),
    (li.torus(2), li.torus_function(li.torus(2), {(0, 1): 1.0})[0]),
    (li.torus(2), li.torus_function(li.torus(2), {(1, -1): 0.5, (0, 0): 2.0})[0]),
    (li.SU2, li.su2_function([(0, 0, 0, 2.0), (1, 0, 0, 0.3)])[0]),
], ids=["T1-e(x)", "T2-e(x2)", "T2-e(x1-x2)", "SU2-t1"])
def test_assemble_rejects_a_varying_symbol_declared_invariant(group, coeff):
    # declared at x-bandwidth 0, c(x) I took the block-diagonal path from c at
    # the identity: e(x) on T^1 at band 2 assembled the 5 x 5 identity
    basis = li.basis_for_band(group, 2)
    sym = li.pointwise_symbol(group, coeff, 0, {"k": "declared-0"})
    with pytest.raises(li.AliasingError, match="varies in x at label"):
        li.assemble(sym, basis, basis)
    # c frozen at its value at the identity is invariant and still assembles
    c0 = coeff(li.point_rule(li.identity(group)))[0]
    constant = li.pointwise_symbol(group, lambda rule: np.full(rule.n_nodes, c0), 0,
                                   {"k": "constant"})
    np.testing.assert_array_equal(li.assemble(constant, basis, basis).matrix,
                                  c0 * np.eye(basis.size))


@pytest.mark.parametrize("group, band", [(li.torus(1), 3), (li.torus(2), 2),
                                         (li.SU2, 4)])
def test_basis_charges_match_the_axis_modes(group, band):
    # one axis charge per entry: j - i on SU(2), l[-1] on the torus; the
    # rule's modes are the charges mod its axis length
    basis = li.basis_for_band(group, band)
    expected = [j - i if group.kind == "su2" else xi.label[-1]
                for xi, i, j in basis_entries(basis)]
    np.testing.assert_array_equal(basis.charges, expected)
    rule = li.haar_quadrature(group, 3)
    modes = np.concatenate([li.rep_factors(xi, rule)[1].ravel()
                            for xi in basis.labels])
    np.testing.assert_array_equal(basis.charges % rule.axis_length, modes)
    np.testing.assert_array_equal(li.galerkin._plane_rows(basis, rule)[1], modes)


def _reverse_shape(blob):
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8:8 + hlen])
    header["shape"] = header["shape"][::-1]
    text = json.dumps(header).encode()
    return blob[:4] + len(text).to_bytes(4, "little") + text + blob[8 + hlen:]


def test_cache_entry_of_the_wrong_shape_is_a_miss(t1, tmp_path):
    # payload and hash are intact, so the entry reads; its shape does not fit
    cache = li.OperatorCache(str(tmp_path))
    sym = li.winding_symbol(t1, 1)
    first = li.sweep_operator(sym, 4, cache=cache)
    assert first.shape[0] != first.shape[1]
    (path,) = tmp_path.glob("*.lgidx")
    path.write_bytes(_reverse_shape(path.read_bytes()))
    assert li.read_cache_entry(str(path))[1].shape == first.shape[::-1]
    cache = li.OperatorCache(str(tmp_path))
    again = li.sweep_operator(sym, 4, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    assert "cached" not in again.meta
    np.testing.assert_array_equal(again.matrix, first.matrix)


def _truncate_to_6_bytes(blob):
    return blob[:6]


def _truncate_inside_header(blob):
    return blob[:8 + 10]


def _drop_shape_field(blob):
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8:8 + hlen])
    del header["shape"]
    text = json.dumps(header).encode()
    return blob[:4] + len(text).to_bytes(4, "little") + text + blob[8 + hlen:]


@pytest.mark.parametrize("damage", [_truncate_to_6_bytes, _truncate_inside_header,
                                    _drop_shape_field])
def test_damaged_cache_entry_is_a_miss(t1, tmp_path, damage):
    cache = li.OperatorCache(str(tmp_path))
    sym = li.winding_symbol(t1, 1)
    first = li.index_truncation(sym, 4, li.sweep_operator(sym, 4, cache=cache))
    (path,) = tmp_path.glob("*.lgidx")
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError):
        li.read_cache_entry(str(path))
    misses = cache.misses
    again = li.index_truncation(sym, 4, li.sweep_operator(sym, 4, cache=cache))
    assert cache.misses == misses + 1 and cache.hits == 0
    np.testing.assert_array_equal(again.matrix, first.matrix)


def _claim_shape(blob, shape):
    hlen = int.from_bytes(blob[4:8], "little")
    text = json.dumps(dict(json.loads(blob[8:8 + hlen]), shape=list(shape))).encode()
    return blob[:4] + len(text).to_bytes(4, "little") + text + blob[8 + hlen:]


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of fn(*args)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("claim", [lambda r, c: (2 ** 31, 2 ** 31),
                                   lambda r, c: (r + 2 ** 16, c),
                                   lambda r, c: (r - 1, c)],
                         ids=["huge", "more", "fewer"])
def test_cache_entry_whose_shape_misfits_its_size_is_a_miss(t1, tmp_path, claim):
    # the payload size is checked against the file before anything is
    # allocated: a claim of 2^16 extra rows would allocate megabytes
    cache = li.OperatorCache(str(tmp_path))
    sym = li.winding_symbol(t1, 1)
    first = li.sweep_operator(sym, 4, cache=cache)
    (path,) = tmp_path.glob("*.lgidx")
    path.write_bytes(_claim_shape(path.read_bytes(), claim(*first.matrix.shape)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            li.read_cache_entry(str(path))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
    finally:
        tracemalloc.stop()
    misses = cache.misses
    again = li.sweep_operator(sym, 4, cache=cache)
    assert cache.misses == misses + 1 and cache.hits == 0
    np.testing.assert_array_equal(again.matrix, first.matrix)


def test_cache_store_and_read_hold_one_payload(tmp_path):
    # 2 MiB of payload: store copies none of it, a read holds it once
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((256, 512)) + 1j * rng.standard_normal((256, 512))
    cache = li.OperatorCache(str(tmp_path))
    path, peak = _traced_peak(cache.store, "k", {"lookup": 1}, matrix)
    assert peak < 0.25 * matrix.nbytes
    (header, back), peak = _traced_peak(li.read_cache_entry, path)
    assert peak < 1.25 * matrix.nbytes
    np.testing.assert_array_equal(back, matrix)
    assert header["shape"] == [256, 512]


@pytest.mark.parametrize("view", [lambda m: m[::2, 1::3], lambda m: m.T],
                         ids=["strided", "transposed"])
def test_cache_writes_a_view_as_its_contiguous_copy(tmp_path, view):
    rng = np.random.default_rng(1)
    matrix = view(rng.standard_normal((12, 18)) + 1j * rng.standard_normal((12, 18)))
    assert not matrix.flags.c_contiguous
    cache = li.OperatorCache(str(tmp_path))
    a = Path(cache.store("view", {"lookup": 1}, matrix))
    b = Path(cache.store("copy", {"lookup": 1}, np.ascontiguousarray(matrix)))
    assert a.read_bytes() == b.read_bytes()
    np.testing.assert_array_equal(li.read_cache_entry(str(a))[1], matrix)


@pytest.mark.parametrize("group", [li.torus(1), li.torus(2), li.SU2])
def test_separated_sums_reject_flowed_rule(group):
    # a flowed rule keeps the level and the weights of the Haar rule
    rule = li.haar_quadrature(group, 5)
    flowed = li.flow_rule(rule, li.lie_basis(group)[0], 0.1)
    assert flowed.level == rule.level
    np.testing.assert_array_equal(flowed.weights, rule.weights)
    labels = li.labels_for_band(group, 2)
    with pytest.raises(ValueError, match="uniform axis"):
        li.gram_blocks(li.basis_for_band(group, 2), flowed)
    with pytest.raises(ValueError, match="uniform axis"):
        li.fourier_forward(li.SampledFunction(flowed, np.ones(flowed.n_nodes)), labels)
    coefs = li.FourierCoefficients({lab: np.eye(lab.dim) for lab in labels})
    with pytest.raises(ValueError, match="uniform axis"):
        li.fourier_inverse_on_rule(coefs, flowed)


def test_gram_rejects_varying_weights_on_haar_structure():
    rule = li.haar_quadrature(li.SU2, 2)
    weights = rule.weights.copy()
    weights[0] *= 1.5
    bumped = dataclasses.replace(rule, weights=weights, _node_cache={})
    with pytest.raises(ValueError, match="weights vary"):
        li.gram_blocks(li.basis_for_band(li.SU2, 2), bumped)


def t1_pointwise():
    t1 = li.torus(1)
    coeff, w = li.torus_function(t1, {(0,): 2.0, (1,): 0.3 - 0.2j, (-1,): 0.4j})
    return li.pointwise_symbol(t1, coeff, w, {"k": "t1"})


def su2_charged_pointwise():
    # entries (0, 2) and (2, 0) of t_2 have axis charges +2 and -2
    coeff, w = li.su2_function([(0, 0, 0, 2.0), (2, 0, 2, 0.3 + 0.1j),
                                (2, 2, 0, -0.25j)])
    return li.pointwise_symbol(li.SU2, coeff, w, {"k": "su2-charged"})


def t2_charged_pointwise():
    t2 = li.torus(2)
    coeff, w = li.torus_function(t2, {(0, 0): 2.0, (1, 2): 0.3 - 0.2j,
                                      (0, -1): 0.4j})
    return li.pointwise_symbol(t2, coeff, w, {"k": "t2-charged"})


def _inline_matrices(sigma, grid, xi):
    """sigma on the grid; for a pointwise symbol c(x) I built from c's samples."""
    if sigma.is_pointwise:
        return sigma.coefficient_on_rule(grid) * np.eye(xi.dim)
    return sigma.evaluate_on_rule(grid, xi)


@pytest.mark.parametrize("make, band", [
    (lambda: li.winding_symbol(li.torus(1), 2), 6), (t1_pointwise, 6),
    (t2_pointwise, 4), (su2_pointwise, 4), (su2_pointwise, 8),
    (t1_pointwise, 4), (t1_pointwise, 8), (t2_pointwise, 8),
    (su2_charged_pointwise, 5), (t2_charged_pointwise, 4)])
def test_assemble_matches_dense_projection(make, band):
    # the per-mode projection against the weighted sum over every node; the
    # pointwise symbols' reference is sqrt(d) rep @ c(x) I
    sigma = make()
    assert sigma.is_pointwise != (sigma.describe.get("kind") == "winding")
    dom = li.basis_for_band(sigma.group, band)
    cod = li.basis_for_band(sigma.group, band + sigma.x_bandwidth)
    g = li.assemble(sigma, dom, cod)
    grid = li.haar_quadrature(sigma.group, g.meta["level"])
    vals = np.concatenate([
        np.sqrt(xi.dim) * (li.rep_matrices_on_rule(xi, grid)
                           @ _inline_matrices(sigma, grid, xi)).reshape(grid.n_nodes, -1)
        for xi in dom.labels], axis=1)
    ref = (cod.values_on_rule(grid).conj() * grid.weights) @ vals
    assert np.abs(g.matrix - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("make, band", [
    (t1_pointwise, 6), (t2_pointwise, 4), (t2_charged_pointwise, 5),
    (su2_pointwise, 8), (su2_charged_pointwise, 5)])
def test_assemble_pointwise_branch_matches_per_label_branch(make, band):
    # the shifted DFT of c against the per-label images xi(x) c(x) I
    sigma = make()
    dom = li.basis_for_band(sigma.group, band)
    cod = li.basis_for_band(sigma.group, band + sigma.x_bandwidth)
    g = li.assemble(sigma, dom, cod)
    ref = li.assemble(dataclasses.replace(sigma, is_pointwise=False), dom, cod)
    assert g.meta == ref.meta
    assert np.abs(g.matrix - ref.matrix).max() <= 1e-13 * np.abs(ref.matrix).max()


def test_cache_key_covers_format(t1, monkeypatch):
    sigma = li.winding_symbol(t1, 1)
    dom, cod = li.basis_for_band(t1, 4), li.basis_for_band(t1, 5)
    key, _ = li.galerkin.lookup_key(sigma.describe, dom, cod, 11)
    monkeypatch.setattr(li.galerkin, "CACHE_FORMAT", li.galerkin.CACHE_FORMAT - 1)
    assert li.galerkin.lookup_key(sigma.describe, dom, cod, 11)[0] != key
