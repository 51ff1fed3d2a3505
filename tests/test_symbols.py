import dataclasses

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


# --- extraction -------------------------------------------------------------

def test_extract_identity_operator(t1, rule, band):
    sym = li.symbol_of_operator(lambda f: f, rule, band)
    for lab in band:
        np.testing.assert_allclose(sym.evaluate_on_rule(rule, lab),
                                   np.ones((rule.n_nodes, 1, 1)), atol=1e-10)


def test_extract_heat_multiplier(t1, rule, band):
    heat = li.multiplier_symbol(t1, lambda xi: np.exp(-xi.casimir), 0.0, {"k": "heat"})
    ext = li.symbol_of_operator(lambda f: li.apply_symbol(heat, f, band), rule, band)
    for lab in band:
        np.testing.assert_allclose(ext.evaluate_on_rule(rule, lab),
                                   np.exp(-lab.casimir) * np.ones((rule.n_nodes, 1, 1)),
                                   atol=1e-8)


def test_extract_pointwise_multiplication(t1, rule, band):
    coeff, bw = li.torus_function(t1, {(0,): 1.0, (2,): 0.3, (-2,): 0.3})
    c_vals = coeff(rule)

    def apply(f):
        return li.SampledFunction(rule, c_vals * f.values)

    # extraction only sees the interior band without aliasing
    ext = li.symbol_of_operator(apply, rule, li.labels_for_band(t1, 4))
    for lab in li.labels_for_band(t1, 4):
        got = ext.evaluate_on_rule(rule, lab)[:, 0, 0]
        np.testing.assert_allclose(got, c_vals, atol=1e-8)


# --- quantization -----------------------------------------------------------

def test_quantize_identity_reproduces_inverse(t1, rule, band, rng):
    vals = np.zeros(rule.n_nodes, dtype=complex)
    for l in range(-4, 5):
        vals += (rng.standard_normal() + 1j * rng.standard_normal()) \
            * np.exp(2j * np.pi * l * rule.charts[:, 0])
    fhat = li.fourier_forward(li.SampledFunction(rule, vals), band)
    out = li.quantize_on_rule(li.identity_symbol(t1), fhat, rule)
    np.testing.assert_allclose(out, li.fourier_inverse_on_rule(fhat, rule), atol=1e-10)


def test_quantize_weight_multiplier_single_mode(t1, rule, band):
    f = li.SampledFunction(rule, np.exp(2j * np.pi * rule.charts[:, 0]))
    fhat = li.fourier_forward(f, band)
    x = rule.node(5)
    got = li.quantize_on_rule(li.lambda_multiplier(t1, 2.0), fhat, rule)[5]
    want = (1 + 4 * np.pi ** 2) * np.exp(2j * np.pi * x.chart[0])
    assert abs(got - want) <= 1e-8


def test_quantize_extraction_round_trip(t1, rule, band, rng):
    # builtin family: extraction then quantization reproduces the action
    coeff, bw = li.torus_function(t1, {(1,): 0.4, (-1,): 0.4, (0,): 1.0})
    sym = li.pointwise_symbol(t1, coeff, bw, {"kind": "c"})
    inner = li.labels_for_band(t1, 4)
    vals = np.zeros(rule.n_nodes, dtype=complex)
    for l in range(-4, 5):
        vals += (rng.standard_normal() + 1j * rng.standard_normal()) \
            * np.exp(2j * np.pi * l * rule.charts[:, 0])
    f = li.SampledFunction(rule, vals)
    direct = coeff(rule) * vals
    ext = li.symbol_of_operator(
        lambda g: li.SampledFunction(rule, coeff(rule) * g.values), rule, inner)
    via = li.quantize_on_rule(ext, li.fourier_forward(f, inner), rule)
    np.testing.assert_allclose(via, direct, atol=1e-8 * np.abs(direct).max())


# --- kernels ----------------------------------------------------------------

def test_kernel_identity_at_identity(t1, rule, band):
    val = li.kernel_table(li.identity_symbol(t1), rule,
                          li.point_rule(li.identity(t1)), band)[0, 0]
    assert val == pytest.approx(sum(l.dim ** 2 for l in band))


def test_kernel_multiplier_matches_idft(t1, rule, band, rng):
    table = {l: np.array([[rng.standard_normal() + 0j]]) for l in band}
    sym = li.table_symbol(t1, table)
    y = rule.node(7)
    got = li.kernel_table(sym, rule, rule, band)[0, 7]
    want = sum(table[l][0, 0] * np.exp(2j * np.pi * l.label[0] * y.chart[0])
               for l in band)
    assert abs(got - want) <= 1e-10


def test_kernel_pointwise_factorizes(t1, rule, band):
    sym = multiplication_by_sin(t1)
    x = rule.node(3)
    got = li.kernel_table(sym, rule, rule, band)[3, 9]
    dirichlet = li.kernel_table(li.identity_symbol(t1), rule, rule, band)[3, 9]
    c_x = np.sin(2 * np.pi * x.chart[0])
    assert abs(got - c_x * dirichlet) <= 1e-8


def test_kernel_table_shape(t1, band):
    small = li.haar_quadrature(t1, 5)
    table = li.kernel_table(li.identity_symbol(t1), small, small,
                            li.labels_for_band(t1, 2))
    assert table.shape == (5, 5)


def test_forward_transform_of_kernel_recovers_symbol(rng):
    # R(x, .) -> fourier_forward in y gives back sigma(x, .) on the band
    grid = li.haar_quadrature(li.SU2, 4)
    dual = li.labels_for_band(li.SU2, 4)
    table = {}
    for lab in dual:
        d = lab.dim
        table[lab] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sym = li.table_symbol(li.SU2, table)
    r = li.kernel_table(sym, grid, grid, dual)[11]
    back = li.fourier_forward(li.SampledFunction(grid, r), dual)
    for lab in dual:
        assert np.abs(back[lab] - table[lab]).max() <= 1e-8


# --- difference operators ---------------------------------------------------

def test_difference_of_constant_symbol_is_zero(t1, rule, band):
    d = li.difference_apply(li.identity_symbol(t1), li.torus_label(t1, [1]))
    for lab in li.labels_for_band(t1, 4):
        np.testing.assert_allclose(d.evaluate(rule.node(0), lab), 0.0, atol=1e-14)
    assert d.is_invariant


def test_difference_of_delta_two_frequencies(t1, rule, band):
    table = {l: np.array([[1.0 + 0j]]) if l.label == (0,) else np.array([[0j]])
             for l in band}
    delta = li.table_symbol(t1, table)
    d = li.difference_apply(delta, li.torus_label(t1, [1]))
    x = rule.node(0)
    vals = {l.label[0]: d.evaluate(x, l)[0, 0] for l in li.labels_for_band(t1, 5)}
    assert vals[1] == pytest.approx(1.0)
    assert vals[0] == pytest.approx(-1.0)
    assert all(abs(v) <= 1e-12 for k, v in vals.items() if k not in (0, 1))


def test_difference_kernel_route_matches_shift_rule(t1, rule, band, rng):
    table = {l: np.array([[rng.standard_normal() + 1j * rng.standard_normal()]])
             for l in band}
    sym = li.table_symbol(t1, table)
    fast = li.difference_apply(sym, li.torus_label(t1, [1]))
    brute = li.difference_apply(sym, li.torus_label(t1, [1]), grid=rule,
                                dual=band, force_kernel_route=True)
    for lab in li.labels_for_band(t1, 5):
        assert abs(fast.evaluate_on_rule(rule, lab)[4, 0, 0]
                   - brute.evaluate_on_rule(rule, lab)[4, 0, 0]) <= 1e-10


def test_difference_kernel_route_su2_identity():
    # the kernel route annihilates the identity symbol on the shrunk band
    grid = li.haar_quadrature(li.SU2, 6)
    dual = li.labels_for_band(li.SU2, 4)
    d = li.difference_apply(li.identity_symbol(li.SU2), li.su2_label(1),
                            entry=(0, 0), grid=grid, dual=dual)
    for lab in li.labels_for_band(li.SU2, 3):
        np.testing.assert_allclose(d.evaluate_on_rule(grid, lab)[2],
                                   np.zeros((lab.dim, lab.dim)), atol=1e-10)


def test_difference_weight_symbol_decay(t1, rule):
    # |D <l>| <l>^{1-1} stays bounded as the band grows
    lam = li.lambda_multiplier(t1, 1.0)
    d = li.difference_apply(lam, li.torus_label(t1, [1]))
    x = rule.node(0)
    sups = []
    for b in (4, 8, 16):
        sup = max(abs(d.evaluate(x, l)[0, 0]) for l in li.labels_for_band(t1, b))
        sups.append(sup)
    assert sups[2] <= sups[0] * 1.5 + 1e-9
    assert sups[2] <= 2 * np.pi + 0.1  # derivative bound of sqrt(1 + 4 pi^2 l^2)


def test_difference_band_headroom_error(t1, rule, band):
    table = {l: np.array([[1.0 + 0j]]) for l in li.labels_for_band(t1, 0)}
    tiny = li.table_symbol(t1, table)
    with pytest.raises(li.BandHeadroomError):
        li.difference_apply(tiny, li.torus_label(t1, [1]))


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
        "su2_laplacian_plus_one": (laplacian.symbol, laplacian.order,
                                   li.labels_for_band(li.SU2, 4),
                                   li.haar_quadrature(li.SU2, 4)),
    }


@pytest.mark.parametrize("case", sorted(_census_cases()))
def test_ellipticity_census_matches_svd_reference(case):
    # d = 1 labels take the modulus, larger ones the batched SVD; the
    # modulus and LAPACK's 1 x 1 singular value may differ in the last bit
    sigma, m, dual, grid = _census_cases()[case]
    ref = svd_census(sigma, m, dual, grid)
    rep = li.ellipticity_check(sigma, m, dual, grid)
    assert rep.elliptic == ref["elliptic"] == (case != "sin2pix")
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


@pytest.mark.parametrize("case", sorted(_census_cases()))
def test_ellipticity_evaluates_each_label_once(case):
    # the doubled census contains the first one and reuses its values
    sigma, m, dual, grid = _census_cases()[case]
    calls = []

    def counted(rule, xi):
        calls.append(xi)
        return sigma._on_rule(rule, xi)

    li.ellipticity_check(dataclasses.replace(sigma, _on_rule=counted), m, dual, grid)
    doubled = li.enumerate_dual(sigma.group, 2.0 * max(xi.weight for xi in dual))
    assert set(dual) <= set(doubled)
    assert sorted(calls, key=li.IrrepLabel.sort_key) == doubled


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
    flowed = li.flow_rule(grid, li.lie_basis(group).generators[0], 0.1)
    for rule in (grid, flowed, grid, flowed):
        for xi in dual[:3]:
            vals = sigma.evaluate_on_rule(rule, xi)
            np.testing.assert_array_equal(vals, coeff(rule)[:, None, None]
                                          * np.eye(xi.dim))
    assert calls == [grid, flowed]


# --- symbol class diagnostics ------------------------------------------------

def test_diagnostic_identity_constants(t1, band):
    grid = li.haar_quadrature(t1, 9)
    table = li.symbol_class_diagnostic(li.identity_symbol(t1), 0.0, 2, 2,
                                       grid, li.labels_for_band(t1, 6))
    assert table.constant([0], [0]) == pytest.approx(1.0, abs=1e-12)
    for row in table.rows:
        if tuple(row["alpha"]) != (0,) or tuple(row["beta"]) != (0,):
            assert row["constant"] <= 1e-8


def test_diagnostic_weight_symbol_difference_constant(t1):
    grid = li.haar_quadrature(t1, 5)
    consts = []
    for b in (6, 12):
        table = li.symbol_class_diagnostic(li.lambda_multiplier(t1, 1.0), 1.0,
                                           0, 1, grid, li.labels_for_band(t1, b))
        consts.append(table.constant([0], [1]))
    assert consts[1] <= consts[0] * 1.2 + 1e-9  # stable as the band grows


def test_diagnostic_x_derivative_ratio(t1):
    # sigma(x, l) = e^{2 pi i x} <l>: the x-derivative scales by 2 pi
    coeff, bw = li.torus_function(t1, {(1,): 1.0})
    phase = li.pointwise_symbol(t1, coeff, bw, {"kind": "e"})
    sym = li.frozen_symbol_product(phase, li.lambda_multiplier(t1, 1.0))
    grid = li.haar_quadrature(t1, 7)
    table = li.symbol_class_diagnostic(sym, 1.0, 1, 0, grid,
                                       li.labels_for_band(t1, 5))
    ratio = table.constant([1], [0]) / table.constant([0], [0])
    assert ratio == pytest.approx(2 * np.pi, rel=0.05)


def test_diagnostic_mixed_x_derivative_matches_per_node_reference():
    # d_{Y_0} d_{Y_1} sigma (first direction outermost) differenced node by
    # node on one-node rules; left-invariant fields do not commute, so the
    # order of the nested differences shows in the constant (0.595 against
    # 0.593 the other way round)
    coeff, w = li.su2_function([(2, 0, 0, 1.0), (2, 1, 2, 0.5)])
    sym = li.pointwise_symbol(li.SU2, coeff, w, {"kind": "t"})
    grid = li.haar_quadrature(li.SU2, 2)
    lab = li.su2_label(1)
    h = 1e-5
    y0, y1, _ = li.lie_basis(li.SU2).generators
    ref = 0.0
    for k in range(grid.n_nodes):
        x = li.point_rule(grid.node(k))
        val = sum(a * b * sym.evaluate_on_rule(
            li.flow_rule(li.flow_rule(x, y0, a * h), y1, b * h), lab)[0]
            for a in (1, -1) for b in (1, -1)) / (4 * h * h)
        ref = max(ref, float(np.linalg.norm(val, 2)))
    table = li.symbol_class_diagnostic(sym, 0.0, 2, 0, grid, [lab], h=h)
    assert table.constant([1, 1, 0], [0]) == pytest.approx(ref, rel=1e-5)


def test_diagnostic_beta_requires_torus():
    grid = li.haar_quadrature(li.SU2, 2)
    with pytest.raises(li.UnsupportedFeatureError):
        li.symbol_class_diagnostic(li.identity_symbol(li.SU2), 0.0, 0, 1,
                                   grid, li.labels_for_band(li.SU2, 2))


def test_diagnostic_exports(t1):
    grid = li.haar_quadrature(t1, 5)
    table = li.symbol_class_diagnostic(li.identity_symbol(t1), 0.0, 1, 1,
                                       grid, li.labels_for_band(t1, 3))
    assert [(row["alpha"], row["beta"]) for row in table.rows] == [
        ([0], [0]), ([1], [0]), ([0], [1]), ([1], [1])]


@pytest.mark.parametrize("j", [0, 1, 2])
def test_diagnostic_su2_x_derivative_is_exact(j):
    # sigma = c t_1(x)[0, 0] I has d_{Y_j} sigma = c (x Y_j)[0, 0] I exactly
    c = 0.35 + 0.1j
    coeff, w = li.su2_function([(1, 0, 0, c)])
    sym = li.pointwise_symbol(li.SU2, coeff, w, {"kind": "t1"})
    grid = li.haar_quadrature(li.SU2, 3)
    alpha = [0, 0, 0]
    alpha[j] = 1
    table = li.symbol_class_diagnostic(sym, 0.0, 1, 0, grid,
                                       li.labels_for_band(li.SU2, 2))
    y = li.lie_basis(li.SU2).generators[j]
    want = np.abs(c * (grid.defining_matrices() @ y)[:, 0, 0]).max()
    assert table.constant(alpha, [0]) == pytest.approx(want, rel=1e-7)


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
                     li.lie_basis(li.SU2).generators[j], h)
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
    x = li.group_mul(p, p)
    lab = li.su3_label(1, 0)
    np.testing.assert_array_equal(li.identity_symbol(li.SU3).evaluate(x, lab),
                                  np.eye(3))
    lam = li.lambda_multiplier(li.SU3, 1.0)
    np.testing.assert_array_equal(lam.evaluate(x, lab), lam.evaluate_at_any(lab))
