"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np

import liegroup_index as li


def report(number, title, ok, detail, t0, budget):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} [{elapsed:6.2f}s/{budget}s] "
          f"{title}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_finite_mckean_singer():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        p, q = (int(v) for v in rng.integers(2, 41, 2))
        r = int(rng.integers(0, min(p, q) + 1))
        u = np.linalg.qr(rng.standard_normal((p, p))
                         + 1j * rng.standard_normal((p, p)))[0][:, :r]
        v = np.linalg.qr(rng.standard_normal((q, q))
                         + 1j * rng.standard_normal((q, q)))[0][:, :r]
        m = (u * rng.uniform(0.5, 2.0, r)) @ v.conj().T
        ker, coker = q - r, p - r
        for heat in li.heat_trace_index(m, [0.1, 1.0, 10.0]):
            worst = max(worst, abs(heat - (ker - coker)))
    report(1, "finite McKean-Singer identity", worst <= 1e-8,
           f"worst |heat - (ker - coker)| = {worst:.2e} over 200 matrices",
           t0, 10)


def test_criterion_02_winding_index():
    t0 = time.monotonic()
    t1 = li.torus(1)
    ok = True
    details = []
    for k in range(-3, 4):
        rep = li.stabilization_sweep(
            li.winding_symbol(t1, k), li.winding_adjoint_symbol(t1, k),
            [8, 16, 32], [0.1, 1.0, 10.0])
        kcounts = {row["kernel_count"] for row in rep.rows}
        heat_dev = max(abs(row["heat_trace"] - row["kernel_count"])
                       for row in rep.rows)
        good = kcounts == {-k} and heat_dev <= 1e-8 and rep.verdict == "stable"
        ok = ok and good
        details.append(f"k={k}:{'ok' if good else 'BAD'}")
    report(2, "winding operators", ok, ", ".join(details), t0, 30)


def test_criterion_03_invariant_operators_index_zero():
    t0 = time.monotonic()
    groups = {"T1": (li.torus(1), [3, 5]), "T2": (li.torus(2), [2, 3]),
              "SU2": (li.SU2, [2, 4])}
    worst = 0.0
    checked = 0
    for gname, (group, bands) in groups.items():
        lam2 = li.lambda_multiplier(group, 2.0)
        heat_mult = li.multiplier_symbol(group, lambda xi: np.exp(-xi.casimir),
                                         0.0, {"kind": "heat"})
        lap1 = li.multiplier_symbol(group, lambda xi: xi.casimir + 1.0, 2.0,
                                    {"kind": "laplacian_plus_one"})
        for sym, reduce_order in ((lam2, False), (heat_mult, False), (lap1, True)):
            rep = li.stabilization_sweep(
                sym, li.conjugate_transpose_symbol(sym), bands, [1.0],
                reduce_order=reduce_order)
            for row in rep.rows:
                worst = max(worst, abs(row["heat_trace"]),
                            abs(row["kernel_count"]), abs(row["density_route"]))
                checked += 1
            assert rep.verdict == "stable"
    report(3, "invariant operators have index 0", worst <= 1e-8,
           f"worst route magnitude {worst:.2e} over {checked} cells", t0, 60)


def test_criterion_04_plancherel_inversion():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    results = []
    t1 = li.torus(1)
    rule = li.haar_quadrature(t1, 9)
    labels = li.labels_for_band(t1, 4)
    vals = np.zeros(rule.n_nodes, dtype=complex)
    for l in range(-4, 5):
        vals += (rng.standard_normal() + 1j * rng.standard_normal()) \
            * np.exp(2j * np.pi * l * rule.charts[:, 0])
    f = li.SampledFunction(rule, vals)
    fhat = li.fourier_forward(f, labels)
    rt = np.abs(li.fourier_inverse_on_rule(fhat, rule) - vals).max()
    pl = abs(li.plancherel_norm(fhat) - li.l2_norm(f))
    results += [rt, pl]

    rule2 = li.haar_quadrature(li.SU2, 6)
    labels2 = li.labels_for_band(li.SU2, 6)  # l <= 3
    vals2 = np.zeros(rule2.n_nodes, dtype=complex)
    for lab in labels2:
        reps = li.rep_matrices_on_rule(lab, rule2)
        coef = (rng.standard_normal((lab.dim, lab.dim))
                + 1j * rng.standard_normal((lab.dim, lab.dim)))
        vals2 += lab.dim * np.einsum("kij,ji->k", reps, coef)
    f2 = li.SampledFunction(rule2, vals2)
    fhat2 = li.fourier_forward(f2, labels2)
    scale = np.abs(vals2).max()
    rt2 = np.abs(li.fourier_inverse_on_rule(fhat2, rule2) - vals2).max() / scale
    pl2 = abs(li.plancherel_norm(fhat2) - li.l2_norm(f2)) / li.l2_norm(f2)
    results += [rt2, pl2]
    worst = max(results)
    report(4, "Plancherel and inversion round trips", worst <= 1e-8,
           f"worst relative error {worst:.2e}", t0, 30)


def test_criterion_05_schur_orthogonality_su2():
    t0 = time.monotonic()
    rule = li.haar_quadrature(li.SU2, 6)
    labels = li.labels_for_band(li.SU2, 6)
    rows, meta = [], []
    for lab in labels:
        reps = li.rep_matrices_on_rule(lab, rule)
        for i in range(lab.dim):
            for j in range(lab.dim):
                rows.append(reps[:, i, j])
                meta.append(lab)
    rows = np.array(rows)
    gram = (rows * rule.weights) @ rows.conj().T
    expected = np.diag([1.0 / lab.dim for lab in meta])
    worst = float(np.abs(gram - expected).max())
    report(5, "Schur orthogonality on SU(2), all pairs l <= 3",
           worst <= 1e-8,
           f"{len(meta)}^2 entry pairs at level 6, worst error {worst:.2e}",
           t0, 60)


def test_criterion_06_trace_formula():
    t0 = time.monotonic()
    worst = 0.0
    for group in (li.torus(1), li.SU2):
        s = group.manifold_dim + 2
        sigma = li.lambda_multiplier(group, -float(s))
        labels = li.enumerate_dual(group, 10.0)
        grid = li.haar_quadrature(group, 3)
        val = li.trace_via_symbol(sigma, labels, grid)
        direct = sum(l.dim ** 2 * l.weight ** (-s) for l in labels)
        basis = li.PeterWeylBasis(group, tuple(labels))
        mat_trace = np.trace(li.assemble(sigma, basis, basis).matrix)
        worst = max(worst, abs(val - direct), abs(val - mat_trace))
    report(6, "trace formula vs partial sum and matrix trace",
           worst <= 1e-8, f"worst deviation {worst:.2e} (cutoff 10)", t0, 30)


def test_criterion_07_su3_geometry():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        g = li.su3_point(rng.uniform(0, np.pi / 2, 3), rng.uniform(0, 2 * np.pi, 5))
        worst = max(worst, g.unitarity_defect(), g.det_defect())
    rule = li.haar_quadrature(li.SU3, 6)
    mass_err = abs(float(rule.weights.sum()) - 1.0)
    dims_ok = (li.su3_label(0, 0).dim, li.su3_label(1, 0).dim,
               li.su3_label(1, 1).dim) == (1, 3, 8)
    ok = worst <= 1e-10 and mass_err <= 1e-6 and dims_ok
    report(7, "SU(3) geometry", ok,
           f"worst matrix defect {worst:.2e}, level-6 mass error {mass_err:.2e}, "
           f"dims (1,3,8) {'ok' if dims_ok else 'BAD'}", t0, 120)


def test_criterion_08_ellipticity_checker():
    t0 = time.monotonic()
    t1 = li.torus(1)
    rule = li.haar_quadrature(t1, 17)
    band = li.labels_for_band(t1, 6)
    ok = True
    details = []
    for m in (-2, -1, 0, 1, 2):
        rep = li.ellipticity_check(li.lambda_multiplier(t1, float(m)), float(m),
                                   band, rule)
        good = rep.elliptic and abs(rep.constant - 1.0) <= 1e-12
        ok = ok and good
        details.append(f"m={m}:C={rep.constant:.3f}")
    repw = li.ellipticity_check(li.winding_symbol(t1, 1), 0.0, band, rule)
    ok = ok and repw.elliptic and abs(repw.constant - 1.0) <= 1e-12
    coeff, bw = li.torus_function(t1, {(1,): -0.5j, (-1,): 0.5j})
    sin_sym = li.pointwise_symbol(t1, coeff, bw, {"kind": "sin"})
    reps = li.ellipticity_check(sin_sym, 0.0, band, rule)
    named_zero = any(site["chart"] == [0.0] for site in reps.bad_sites)
    ok = ok and not reps.elliptic and named_zero
    report(8, "ellipticity checker", ok,
           ", ".join(details) + f"; winding C={repw.constant:.3f}; "
           f"sin(2 pi x) fails with x=0 site {'named' if named_zero else 'MISSING'}",
           t0, 10)


def test_criterion_09_composition_discrepancy_documented():
    t0 = time.monotonic()
    t1 = li.torus(1)
    rep = li.stabilization_sweep(
        li.winding_symbol(t1, 1), li.winding_adjoint_symbol(t1, 1),
        [8, 16], [1.0])
    dens = [row["density_route"] for row in rep.rows]
    kcount = [row["kernel_count"] for row in rep.rows]
    ok = (max(abs(d) for d in dens) <= 1e-10
          and set(kcount) == {-1}
          and rep.discrepancy
          and rep.to_dict()["density_vs_kernel_discrepancy"] is True)
    report(9, "density/kernel discrepancy for winding(1)", ok,
           f"density {max(abs(d) for d in dens):.2e}, kernel {set(kcount)}, "
           f"flag {rep.discrepancy}", t0, 10)


def test_criterion_10_numerical_laplacian_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    worst_su2 = 0.0
    for n in (1, 2, 3, 4):  # l <= 2
        lab = li.su2_label(n)
        t = rng.uniform(0, 2 * np.pi)
        x = li.su2_point(t, rng.uniform(-1, 1) * np.sin(t / 2),
                         rng.uniform(0, 2 * np.pi))
        d = lab.dim
        tmat = li.rep_matrix(lab, x)
        lap = np.array([[li.laplacian_fd(
            lambda p, i=i, j=j: li.rep_matrix(lab, p)[i, j], x, h=1e-4)
            for j in range(d)] for i in range(d)])
        worst_su2 = max(worst_su2, float(np.abs(lap + lab.casimir * tmat).max()))

    t2 = li.torus(2)
    xT = li.torus_point(t2, [0.13, 0.58])
    worst_torus = 0.0
    for lvec in ([1, 0], [0, 2], [3, -1]):
        lab = li.torus_label(t2, lvec)
        f = lambda p: li.rep_matrix(lab, p)[0, 0]
        for j in range(2):
            fd = li.left_invariant_derivative(f, j, xT, h=1e-5)
            worst_torus = max(worst_torus,
                              abs(fd - 2j * np.pi * lvec[j] * f(xT)))
    ok = worst_su2 <= 1e-5 and worst_torus <= 1e-6
    report(10, "numerical Laplacian / derivative oracles", ok,
           f"SU(2) Casimir worst {worst_su2:.2e} (tol 1e-5), "
           f"torus derivative worst {worst_torus:.2e} (tol 1e-6)", t0, 30)
