
import numpy as np
import pytest

import liegroup_index as li


def band_limited_torus(rule, rng, band):
    coeffs = {l: rng.standard_normal() + 1j * rng.standard_normal()
              for l in range(-band, band + 1)}
    vals = np.zeros(rule.n_nodes, dtype=complex)
    for l, c in coeffs.items():
        vals += c * np.exp(2j * np.pi * l * rule.charts[:, 0])
    return li.SampledFunction(rule, vals), coeffs


def band_limited_su2(rule, rng, band):
    vals = np.zeros(rule.n_nodes, dtype=complex)
    for lab in li.labels_for_band(li.SU2, band):
        reps = li.rep_matrices_on_rule(lab, rule)
        coef = (rng.standard_normal((lab.dim, lab.dim))
                + 1j * rng.standard_normal((lab.dim, lab.dim)))
        vals += lab.dim * np.einsum("kij,ji->k", reps, coef)
    return li.SampledFunction(rule, vals)


def test_constant_function_transform(t1, rule_t1):
    f = li.SampledFunction(rule_t1, np.ones(rule_t1.n_nodes))
    c = li.fourier_forward(f, li.labels_for_band(t1, 5))
    np.testing.assert_allclose(c[li.trivial_label(t1)], [[1.0]], atol=1e-12)
    for lab in c.labels():
        if lab.label != (0,):
            assert abs(c[lab][0, 0]) <= 1e-10


def test_torus_transform_matches_dft(t1, rule_t1, rng):
    # independent oracle: the discrete Fourier transform of the samples
    vals = rng.standard_normal(rule_t1.n_nodes) + 1j * rng.standard_normal(rule_t1.n_nodes)
    f = li.SampledFunction(rule_t1, vals)
    c = li.fourier_forward(f, li.labels_for_band(t1, 8))
    dft = np.fft.fft(vals) / rule_t1.n_nodes
    for l in range(-8, 9):
        np.testing.assert_allclose(c[li.torus_label(t1, [l])][0, 0],
                                   dft[l % rule_t1.n_nodes], atol=1e-12)


def test_basis_entry_transform_schur(rule_su2):
    # f = sqrt(d) xi_ij has a single coefficient entry at (j, i)
    lab = li.su2_label(2)
    reps = li.rep_matrices_on_rule(lab, rule_su2)
    f = li.SampledFunction(rule_su2, np.sqrt(lab.dim) * reps[:, 0, 1])
    c = li.fourier_forward(f, li.labels_for_band(li.SU2, 3))
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = np.sqrt(lab.dim) / lab.dim
    np.testing.assert_allclose(c[lab], expected, atol=1e-8)
    for other in c.labels():
        if other != lab:
            assert np.abs(c[other]).max() <= 1e-8


def test_inverse_of_trivial_coefficient(t1, rule_t1):
    c = li.FourierCoefficients({li.trivial_label(t1): np.array([[1.0 + 0j]])})
    values = li.fourier_inverse_on_rule(c, rule_t1)
    for k in (0, 3, 11):
        assert values[k] == pytest.approx(1.0)


def test_round_trip_torus(t1, rule_t1, rng):
    f, _ = band_limited_torus(rule_t1, rng, 4)
    c = li.fourier_forward(f, li.labels_for_band(t1, 4))
    recon = li.fourier_inverse_on_rule(c, rule_t1)
    assert np.abs(recon - f.values).max() <= 1e-8


def test_round_trip_su2(rule_su2, rng):
    f = band_limited_su2(rule_su2, rng, 3)
    c = li.fourier_forward(f, li.labels_for_band(li.SU2, 3))
    recon = li.fourier_inverse_on_rule(c, rule_su2)
    assert np.abs(recon - f.values).max() <= 1e-8


def test_inverse_reproduces_rep_entry(rule_su2):
    lab = li.su2_label(2)  # l = 1
    reps = li.rep_matrices_on_rule(lab, rule_su2)
    f = li.SampledFunction(rule_su2, reps[:, 0, 0])
    c = li.fourier_forward(f, li.labels_for_band(li.SU2, 2))
    recon = li.fourier_inverse_on_rule(c, rule_su2)
    assert np.abs(recon - reps[:, 0, 0]).max() <= 1e-8


def test_plancherel_constant(t1, rule_t1):
    one = li.SampledFunction(rule_t1, np.ones(rule_t1.n_nodes))
    c = li.fourier_forward(one, li.labels_for_band(t1, 3))
    assert li.plancherel_norm(c) == pytest.approx(1.0, abs=1e-10)


def test_plancherel_matches_quadrature_norm(rule_su2, rng):
    f = band_limited_su2(rule_su2, rng, 2)
    c = li.fourier_forward(f, li.labels_for_band(li.SU2, 2))
    assert abs(li.plancherel_norm(c) - li.l2_norm(f)) <= 1e-8 * li.l2_norm(f)


def test_normalized_basis_entry_has_unit_norm(rule_su2):
    lab = li.su2_label(3)
    reps = li.rep_matrices_on_rule(lab, rule_su2)
    f = li.SampledFunction(rule_su2, np.sqrt(lab.dim) * reps[:, 2, 1])
    c = li.fourier_forward(f, li.labels_for_band(li.SU2, 3))
    assert li.plancherel_norm(c) == pytest.approx(1.0, abs=1e-8)


def test_parseval_polarization(t1, rule_t1, rng):
    f, _ = band_limited_torus(rule_t1, rng, 4)
    g, _ = band_limited_torus(rule_t1, rng, 4)
    labels = li.labels_for_band(t1, 4)
    cf, cg = li.fourier_forward(f, labels), li.fourier_forward(g, labels)
    lhs = np.sum(rule_t1.weights * f.values * np.conj(g.values))
    rhs = sum(lab.dim * np.trace(cf[lab] @ cg[lab].conj().T) for lab in labels)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_lambda_multiplier_values(t1):
    ident = li.lambda_multiplier(li.SU2, 0.0)
    lab, e = li.su2_label(2), li.point_rule(li.identity(li.SU2))
    np.testing.assert_allclose(ident.evaluate_on_rule(e, lab)[0], np.eye(3))
    # <xi>^2 = 1 + l(l+1) = 3 at l = 1
    lam2 = li.lambda_multiplier(li.SU2, 2.0)
    np.testing.assert_allclose(lam2.evaluate_on_rule(e, lab)[0], 3.0 * np.eye(3))
    assert lam2.is_invariant and lam2.order == 2.0


def test_lambda_multiplier_inverse_pair(t1, rule_t1, rng):
    f, _ = band_limited_torus(rule_t1, rng, 4)
    labels = li.labels_for_band(t1, 4)
    fhat = li.fourier_forward(f, labels)
    up = li.lambda_multiplier(t1, 1.5)
    down = li.lambda_multiplier(t1, -1.5)
    via = li.quantize_on_rule(li.frozen_symbol_product(up, down), fhat, rule_t1)
    assert np.abs(via - f.values).max() <= 1e-10 * max(1.0, np.abs(f.values).max())


def test_forward_of_inverse_recovers_coefficients(rule_su2, rng):
    # coefficient-wise round trip for coefficients inside the resolvable band
    labels = li.labels_for_band(li.SU2, 3)
    entries = {}
    for lab in labels:
        entries[lab] = (rng.standard_normal((lab.dim, lab.dim))
                        + 1j * rng.standard_normal((lab.dim, lab.dim)))
    c = li.FourierCoefficients(entries)
    f = li.SampledFunction(rule_su2, li.fourier_inverse_on_rule(c, rule_su2))
    back = li.fourier_forward(f, labels)
    for lab in labels:
        assert np.abs(back[lab] - entries[lab]).max() <= 1e-8


def test_sample_count_validation(rule_t1):
    with pytest.raises(ValueError):
        li.SampledFunction(rule_t1, np.zeros(3))


def test_group_mismatch_in_forward(t1, rule_t1):
    with pytest.raises(li.GroupMismatchError):
        li.fourier_forward(li.SampledFunction(rule_t1, np.ones(rule_t1.n_nodes)),
                           [li.su2_label(0)])


def per_node_copy(rule):
    # the same nodes without the product structure: every node evaluated
    # by the SU(2) polynomial or the torus exponential
    return li.QuadratureRule(rule.group, rule.level, rule.charts, rule.weights)


@pytest.mark.parametrize("group,band,level", [
    (li.torus(1), 6, 13), (li.torus(2), 3, 7), (li.SU2, 5, 5)])
def test_factored_transforms_match_per_node_einsum(group, band, level):
    rng = np.random.default_rng(7)
    rule = li.haar_quadrature(group, level)
    plain = per_node_copy(rule)
    labels = li.labels_for_band(group, band)
    vals = rng.standard_normal(rule.n_nodes) + 1j * rng.standard_normal(rule.n_nodes)
    fhat = li.fourier_forward(li.SampledFunction(rule, vals), labels)
    coefs = {}
    inverse = np.zeros(rule.n_nodes, dtype=complex)
    for lab in labels:
        reps = li.rep_matrices_on_rule(lab, plain)
        ref = np.einsum("k,kij->ji", rule.weights * vals, reps.conj())
        np.testing.assert_allclose(fhat[lab], ref, rtol=0, atol=1e-13)
        coefs[lab] = rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape)
        inverse += lab.dim * np.einsum("kij,ji->k", reps, coefs[lab])
    out = li.fourier_inverse_on_rule(li.FourierCoefficients(coefs), rule)
    # relative to the sample scale, as the CLI's round-trip error
    assert np.abs(out - inverse).max() <= 1e-13 * max(np.abs(inverse).max(), 1.0)


@pytest.mark.parametrize("group,band,level", [
    (li.SU2, 8, 4),          # n_s = 10: charges q and q -+ 10 of one label share a mode
    (li.torus(1), 6, 5),     # labels l and l -+ 5 share a mode
    (li.torus(2), 3, 4)])    # labels (a, b) and (a, b -+ 4) share a mode
def test_inverse_sums_every_entry_of_an_aliased_mode(group, band, level):
    # dense reference: sum over labels of d Tr(xi(x) C) at every node
    rng = np.random.default_rng(11)
    rule = li.haar_quadrature(group, level)
    labels = li.labels_for_band(group, band)
    charges = np.concatenate([li.axis_charges(lab).ravel() for lab in labels])
    assert len(np.unique(charges % rule.axis_length)) < len(np.unique(charges))
    coefs = {lab: rng.standard_normal((lab.dim, lab.dim))
             + 1j * rng.standard_normal((lab.dim, lab.dim)) for lab in labels}
    dense = sum(lab.dim * np.einsum("kij,ji->k", li.rep_matrices_on_rule(lab, rule), coefs[lab])
                for lab in labels)
    out = li.fourier_inverse_on_rule(li.FourierCoefficients(coefs), rule)
    assert np.abs(out - dense).max() <= 1e-13 * max(np.abs(dense).max(), 1.0)
