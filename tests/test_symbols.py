import dataclasses
import re

import numpy as np
import pytest

import liegroup_index as li


@pytest.fixture(scope="module")
def t1():
    return li.torus(1)


@pytest.fixture(scope="module")
def rule(t1):
    return li.haar_quadrature(t1, 21)


@pytest.fixture(scope="module")
def band(t1):
    return li.labels_for_band(t1, 6)


def multiplication_by_sin(t1):
    coeff, bw = li.torus_function(t1, {(1,): -0.5j, (-1,): 0.5j})
    return li.pointwise_symbol(t1, coeff, bw, {"kind": "sin2pix"})


# --- quantization -----------------------------------------------------------

def test_quantize_identity_reproduces_inverse(t1, rule, band, rng):
    vals = np.zeros(rule.n_nodes, dtype=complex)
    for l in range(-4, 5):
        vals += (rng.standard_normal() + 1j * rng.standard_normal()) \
            * np.exp(2j * np.pi * l * rule.charts[:, 0])
    fhat = li.fourier_forward(li.SampledFunction(rule, vals), band)
    out = li.quantize_on_rule(li.lambda_multiplier(t1, 0.0), fhat, rule)
    np.testing.assert_allclose(out, li.fourier_inverse_on_rule(fhat, rule), atol=1e-10)


def test_quantize_weight_multiplier_single_mode(t1, rule, band):
    f = li.SampledFunction(rule, np.exp(2j * np.pi * rule.charts[:, 0]))
    fhat = li.fourier_forward(f, band)
    got = li.quantize_on_rule(li.lambda_multiplier(t1, 2.0), fhat, rule)[5]
    want = (1 + 4 * np.pi ** 2) * np.exp(2j * np.pi * rule.charts[5, 0])
    assert abs(got - want) <= 1e-8


def test_quantize_pointwise_symbol_multiplies(t1, rule, band, rng):
    # the quantization of c(x) I multiplies a band-limited f by c
    coeff, bw = li.torus_function(t1, {(1,): 0.4, (-1,): 0.4, (0,): 1.0})
    sym = li.pointwise_symbol(t1, coeff, bw, {"kind": "c"})
    inner = li.labels_for_band(t1, 4)
    vals = np.zeros(rule.n_nodes, dtype=complex)
    for l in range(-4, 5):
        vals += (rng.standard_normal() + 1j * rng.standard_normal()) \
            * np.exp(2j * np.pi * l * rule.charts[:, 0])
    f = li.SampledFunction(rule, vals)
    direct = coeff(rule) * vals
    via = li.quantize_on_rule(sym, li.fourier_forward(f, inner), rule)
    np.testing.assert_allclose(via, direct, atol=1e-8 * np.abs(direct).max())


# --- ellipticity ------------------------------------------------------------

@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
def test_ellipticity_weight_multiplier(t1, rule, band, m):
    rep = li.ellipticity_check(li.lambda_multiplier(t1, float(m)), float(m),
                               band, rule)
    assert rep.elliptic
    assert rep.constant == pytest.approx(1.0, abs=1e-12)
    assert not rep.bad_sites


def test_ellipticity_winding(t1, rule, band):
    rep = li.ellipticity_check(li.winding_symbol(t1, 1), 0.0, band, rule)
    assert rep.elliptic
    assert rep.constant == pytest.approx(1.0, abs=1e-12)


def test_ellipticity_flags_vanishing_coefficient(t1, rule, band):
    rep = li.ellipticity_check(multiplication_by_sin(t1), 0.0, band, rule)
    assert not rep.elliptic
    zero_site_charts = {site["chart"][0] for site in rep.bad_sites}
    assert 0.0 in zero_site_charts  # sin(2 pi x) vanishes at the x = 0 node


def test_ellipticity_stable_finite_bad_set(t1, rule, band):
    # the adjoint winding symbol vanishes at l = 0 only: still elliptic
    rep = li.ellipticity_check(li.winding_adjoint_symbol(t1, 1), 0.0, band, rule)
    assert rep.bad_labels == [(0,)]
    assert rep.doubled_bad_labels == [(0,)]
    assert rep.elliptic


def svd_census(sigma, m, dual, grid, rel_threshold=li.symbols.SINGULAR_REL_THRESHOLD):
    """The census of ellipticity_check with np.linalg.svd on every label."""
    def smallest(labels):
        sv = {xi: np.linalg.svd(sigma.evaluate_on_rule(grid, xi), compute_uv=False)
              for xi in labels}
        return ({xi: s[:, -1] for xi, s in sv.items()},
                max(float(s[:, 0].max()) for s in sv.values()))

    smin, smax = smallest(dual)
    threshold = rel_threshold * smax
    bad_sites, bad_labels, constant, margin = [], [], 0.0, np.inf
    for xi in dual:
        bad = smin[xi] <= threshold
        if bad.any():
            bad_labels.append(xi.label)
            bad_sites += [(int(k), list(xi.label), float(smin[xi][k]))
                          for k in np.nonzero(bad)[0]]
        good = smin[xi][~bad]
        if good.size:
            constant = max(constant, xi.weight ** m / float(good.min()))
            margin = min(margin, float(good.min()))
    doubled = li.enumerate_dual(sigma.group, 2.0 * max(xi.weight for xi in dual))
    smin2, smax2 = smallest(doubled)
    threshold2 = rel_threshold * max(smax, smax2)
    doubled_bad = [xi.label for xi in doubled if (smin2[xi] <= threshold2).any()]
    elliptic = (set(doubled_bad) == set(bad_labels) and np.isfinite(margin)
                and np.isfinite(constant))
    return dict(constant=constant, elliptic=elliptic, bad_sites=bad_sites,
                bad_labels=bad_labels, doubled_bad_labels=doubled_bad,
                threshold=threshold, smin_margin=margin if np.isfinite(margin) else 0.0)


def _census_cases():
    t1, t2 = li.torus(1), li.torus(2)
    c1, w1 = li.torus_function(t1, {(0,): 2.0, (1,): 0.3 + 0.2j, (-1,): 0.1j})
    c2, w2 = li.torus_function(t2, {(0, 0): 2.0, (1, 0): 0.4 - 0.1j,
                                    (0, 1): -0.2 + 0.3j})
    c3, w3 = li.su2_function([(0, 0, 0, 2.0), (1, 0, 0, 0.35 + 0.1j),
                              (2, 1, 0, -0.2j)])
    laplacian = li.parse_operator({"op": "multiplier", "formula": "laplacian_plus_one"},
                                  li.SU2, "op")
    return {
        "t1_pointwise": (li.pointwise_symbol(t1, c1, w1, {"k": "t1"}), 0.0,
                         li.labels_for_band(t1, 6), li.haar_quadrature(t1, 21)),
        "t2_pointwise": (li.pointwise_symbol(t2, c2, w2, {"k": "t2"}), 0.0,
                         li.labels_for_band(t2, 4), li.haar_quadrature(t2, 9)),
        "sin2pix": (multiplication_by_sin(t1), 0.0, li.labels_for_band(t1, 6),
                    li.haar_quadrature(t1, 21)),
        "su2_pointwise": (li.pointwise_symbol(li.SU2, c3, w3, {"k": "su2"}), 0.0,
                          li.labels_for_band(li.SU2, 4), li.haar_quadrature(li.SU2, 6)),
        "su2_laplacian_plus_one": (laplacian.symbol, laplacian.symbol.order,
                                   li.labels_for_band(li.SU2, 4),
                                   li.haar_quadrature(li.SU2, 4)),
        # g(l) = l - 5 vanishes at l = 5 only: inside the doubled band, not band 3
        "t1_doubled_bad": (li.multiplier_symbol(t1, lambda xi: xi.label[0] - 5, 1.0,
                                                {"kind": "l_minus_5"}), 1.0,
                           li.labels_for_band(t1, 3), li.haar_quadrature(t1, 9)),
        # g = |l1| - 4 vanishes on the 30 labels (+-4, k) of the doubled
        # band only, many of them of equal weight: pins the listing order
        "t2_doubled_bad": (li.multiplier_symbol(t2, lambda xi: abs(xi.label[0]) - 4, 1.0,
                                                {"kind": "abs_l1_minus_4"}), 1.0,
                           li.labels_for_band(t2, 3), li.haar_quadrature(t2, 9)),
    }


@pytest.mark.parametrize("case", sorted(_census_cases()))
def test_ellipticity_census_matches_svd_reference(case):
    # d = 1 labels take the modulus, larger ones the batched SVD; the
    # modulus and LAPACK's 1 x 1 singular value may differ in the last bit
    sigma, m, dual, grid = _census_cases()[case]
    ref = svd_census(sigma, m, dual, grid)
    rep = li.ellipticity_check(sigma, m, dual, grid)
    assert rep.elliptic == ref["elliptic"] == (
        case not in ("sin2pix", "t1_doubled_bad", "t2_doubled_bad"))
    assert rep.bad_labels == ref["bad_labels"]
    assert rep.doubled_bad_labels == ref["doubled_bad_labels"]
    assert [(s["node"], s["label"]) for s in rep.bad_sites] == \
        [(k, label) for k, label, _ in ref["bad_sites"]]
    np.testing.assert_allclose([s["smallest_sv"] for s in rep.bad_sites],
                               [sv for _, _, sv in ref["bad_sites"]], rtol=1e-15)
    for field in ("constant", "threshold", "smin_margin"):
        np.testing.assert_allclose(getattr(rep, field), ref[field], rtol=1e-15)
    if case == "sin2pix":
        assert rep.bad_sites
    if case == "t1_doubled_bad":
        assert rep.bad_labels == [] and rep.doubled_bad_labels == [(5,)]
    if case == "t2_doubled_bad":
        assert rep.bad_labels == [] and len(rep.doubled_bad_labels) == 30


@pytest.mark.parametrize("case", sorted(_census_cases()))
def test_ellipticity_evaluates_each_label_once(case):
    # the doubled census contains the first one and reuses its values; a
    # pointwise symbol is read once, at the trivial label
    sigma, m, dual, grid = _census_cases()[case]
    calls = []

    def counted(rule, xi):
        calls.append(xi)
        return sigma._on_rule(rule, xi)

    li.ellipticity_check(dataclasses.replace(sigma, _on_rule=counted), m, dual, grid)
    doubled = li.enumerate_dual(sigma.group, 2.0 * max(xi.weight for xi in dual))
    assert set(dual) <= set(doubled)
    expected = [li.trivial_label(sigma.group)] if sigma.is_pointwise else doubled
    assert sorted(calls, key=li.IrrepLabel.sort_key) == expected


@pytest.mark.parametrize("group", [li.torus(2), li.SU2], ids=str)
def test_pointwise_coefficient_sampled_once_per_rule(group):
    if group.kind == "torus":
        coeff, w = li.torus_function(group, {(0, 0): 2.0, (1, 0): 0.4j})
        grid, dual = li.haar_quadrature(group, 9), li.labels_for_band(group, 4)
    else:
        coeff, w = li.su2_function([(0, 0, 0, 2.0), (1, 0, 1, 0.3)])
        grid, dual = li.haar_quadrature(group, 4), li.labels_for_band(group, 4)
    calls = []

    def counted(rule):
        calls.append(rule)
        return coeff(rule)

    sigma = li.pointwise_symbol(group, counted, w, {"k": "counted"})
    li.ellipticity_check(sigma, 0.0, dual, grid)
    assert calls == [grid]  # both censuses, every label: one sample
    flowed = li.flow_rule(grid, li.lie_basis(group)[0], 0.1)
    for rule in (grid, flowed, grid, flowed):
        for xi in dual[:3]:
            vals = sigma.evaluate_on_rule(rule, xi)
            np.testing.assert_array_equal(vals, coeff(rule)[:, None, None]
                                          * np.eye(xi.dim))
    assert calls == [grid, flowed]


def test_is_pointwise_propagates_through_pointwise_trees(t1):
    coeff, w = li.torus_function(t1, {(0,): 2.0, (1,): 0.4j})
    c = li.pointwise_symbol(t1, coeff, w, {"k": "c"})
    c2 = li.pointwise_symbol(t1, coeff, w, {"k": "c2"})
    adj = li.conjugate_transpose_symbol(c)
    pointwise = [c, adj, li.symbol_sum([c, adj], [1.0, 0.5j]),
                 li.frozen_symbol_product(c, c2),
                 li.conjugate_transpose_symbol(li.frozen_symbol_product(adj, c))]
    assert all(s.is_pointwise for s in pointwise)
    table = li.table_symbol(t1, {lab: np.eye(1) for lab in li.labels_for_band(t1, 3)})
    for other in (table, li.winding_symbol(t1, 1), li.winding_adjoint_symbol(t1, 1)):
        assert not other.is_pointwise
        for mixed in (li.symbol_sum([c, other]), li.symbol_sum([other, c]),
                      li.frozen_symbol_product(c, other),
                      li.frozen_symbol_product(other, c),
                      li.conjugate_transpose_symbol(li.symbol_sum([adj, other]))):
            assert not mixed.is_pointwise
    # c is read at the trivial label, through the one evaluator
    grid = li.haar_quadrature(t1, 5)
    got = pointwise[3].coefficient_on_rule(grid)
    assert got.shape == (grid.n_nodes, 1, 1)
    assert np.abs(got[:, 0, 0] - coeff(grid) ** 2).max() <= 1e-14
    with pytest.raises(ValueError, match="not pointwise"):
        table.coefficient_on_rule(grid)


# --- point evaluation through the one evaluator -------------------------------

@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_su2_pointwise_samples_the_point_matrix(j, entry):
    # a point off the chart grid: its flowed one-node rule must carry its
    # own matrix, since the chart round trip loses up to 1.4e-9 in the
    # off-diagonal entries near the identity
    c = 0.35 + 0.1j
    coeff, w = li.su2_function([(1, entry[0], entry[1], c)])
    sym = li.pointwise_symbol(li.SU2, coeff, w, {"kind": "t1"})
    h = 1e-5
    x = li.flow_rule(li.point_rule(li.identity(li.SU2)),
                     li.lie_basis(li.SU2)[j], h)
    # exp(h Y_j) = cos(h/2) I - i sin(h/2) sigma_j, and t_1 is the defining matrix
    pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]])]
    want = c * (np.cos(h / 2) * np.eye(2) - 1j * np.sin(h / 2) * pauli[j])[entry]
    for lab in li.labels_for_band(li.SU2, 2):
        got = sym.evaluate_on_rule(x, lab)[0]
        assert np.abs(got - want * np.eye(lab.dim)).max() <= 1e-14


@pytest.mark.parametrize("k", [-2, 0, 3])
def test_winding_adjoint_closed_form(t1, rule, k):
    sym = li.winding_adjoint_symbol(t1, k)
    e = np.exp(-2j * np.pi * k * rule.charts[:, 0])
    for l in range(-4, 5):
        if l >= max(k, 0):
            want = e
        elif l >= 0:
            want = np.zeros(rule.n_nodes)
        elif l >= k:
            want = e + 1.0
        else:
            want = np.ones(rule.n_nodes)
        got = sym.evaluate_on_rule(rule, li.torus_label(t1, [l]))
        assert got.shape == (rule.n_nodes, 1, 1)
        np.testing.assert_array_equal(got[:, 0, 0], want)


def test_invariant_symbol_at_matrix_only_su3_point():
    # products of SU(3) points carry no chart; invariant symbols ignore x
    p = li.su3_point([0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4, 0.5])
    x = li.point_rule(li.GroupPoint(li.SU3, None, p.matrix @ p.matrix))
    e = li.point_rule(li.identity(li.SU3))
    lab = li.su3_label(1, 0)
    np.testing.assert_array_equal(
        li.lambda_multiplier(li.SU3, 0.0).evaluate_on_rule(x, lab)[0], np.eye(3))
    lam = li.lambda_multiplier(li.SU3, 1.0)
    np.testing.assert_array_equal(lam.evaluate_on_rule(x, lab),
                                  lam.evaluate_on_rule(e, lab))


def _pointwise_census_cases():
    t2 = li.torus(2)
    c, w = li.torus_function(t2, {(0, 0): 2.0, (1, 0): 0.4 - 0.1j, (0, 1): -0.2 + 0.3j})
    sin, ws = li.torus_function(t2, {(1, 0): -0.5j, (-1, 0): 0.5j})
    # the trace of the defining matrix, 2 Re a, vanishes on a whole plane
    su2_c, su2_w = li.su2_function([(0, 0, 0, 2.0), (1, 0, 0, 0.35 + 0.1j),
                                    (2, 1, 0, -0.2j)])
    trace, wt = li.su2_function([(1, 0, 0, 1.0), (1, 1, 1, 1.0)])
    t2_grid, su2_grid = li.haar_quadrature(t2, 9), li.haar_quadrature(li.SU2, 6)
    return {
        "t2_elliptic": (li.pointwise_symbol(t2, c, w, {"k": "c"}), t2_grid),
        "t2_sin": (li.pointwise_symbol(t2, sin, ws, {"k": "sin"}), t2_grid),
        "su2_elliptic": (li.pointwise_symbol(li.SU2, su2_c, su2_w, {"k": "c"}), su2_grid),
        "su2_trace": (li.pointwise_symbol(li.SU2, trace, wt, {"k": "trace"}), su2_grid),
    }


@pytest.mark.parametrize("case", sorted(_pointwise_census_cases()))
def test_ellipticity_pointwise_census_matches_general_census(case):
    # |c(x)| once against the per-label census of the same symbol
    sigma, grid = _pointwise_census_cases()[case]
    dual = li.labels_for_band(sigma.group, 4)
    rep = li.ellipticity_check(sigma, 0.0, dual, grid)
    ref = li.ellipticity_check(dataclasses.replace(sigma, is_pointwise=False),
                               0.0, dual, grid)
    assert rep.elliptic == ref.elliptic == case.endswith("elliptic")
    assert rep.bad_labels == ref.bad_labels
    assert rep.doubled_bad_labels == ref.doubled_bad_labels
    assert [(s["node"], s["chart"], s["label"]) for s in rep.bad_sites] == \
        [(s["node"], s["chart"], s["label"]) for s in ref.bad_sites]
    assert bool(rep.bad_sites) != case.endswith("elliptic")
    np.testing.assert_allclose([s["smallest_sv"] for s in rep.bad_sites],
                               [s["smallest_sv"] for s in ref.bad_sites],
                               rtol=0, atol=1e-14)
    for field in ("constant", "threshold", "smin_margin"):
        np.testing.assert_allclose(getattr(rep, field), getattr(ref, field),
                                   rtol=1e-14)


@pytest.mark.parametrize("sym,xi", [
    # <xi>^400 exceeds the float range from |l| = 1 on
    (li.lambda_multiplier(li.torus(1), 400.0), (1,)),
    (li.table_symbol(li.torus(1), {li.torus_label(li.torus(1), [1]): [[np.inf]]}),
     (1,))], ids=["weight_power-overflow", "table-inf"])
def test_evaluate_on_rule_names_a_non_finite_symbol(sym, xi):
    label = li.torus_label(sym.group, xi)
    message = f"symbol {sym.describe['kind']} overflows or is not finite at label {xi}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sym.evaluate_on_rule(li.haar_quadrature(sym.group, 4), label)
