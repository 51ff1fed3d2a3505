"""Operators whose Fredholm index is known in closed form, through the sweep.

On T^1 the winding operator of degree k has index -k, the index is additive
under products and unchanged by a compact perturbation, and a paired
operator a P+ + b P- has index -wind(a/b) (Gohberg-Krein).  Multiplication
by a nowhere-vanishing coefficient is invertible (index 0); multiplication
by a coefficient with zeros is not Fredholm, so no index may be reported
"stable" for it.

Cases the sweep gets wrong are strict xfails whose reason records the
measured value; a route that mends one turns it into a failure, and the
case is then promoted to a plain test.

Every case off T^1 has index 0 (invertible multiplications) or none, so
this bank cannot tell a route that always returns 0 off T^1 from a right
one.
"""

import pytest

import liegroup_index as li

T1_CUTOFFS = [8, 16, 32]
GAMMAS = [0.1, 1.0, 10.0]


def sweep(group, tree, cutoffs=T1_CUTOFFS):
    op = li.parse_operator(tree, group)
    return li.stabilization_sweep(op.symbol, op.adjoint_symbol, cutoffs, GAMMAS)


def pointwise(*terms):
    """Multiplication by sum_f c_f e(f x) on T^1, from (f, re, im) triples."""
    return {"op": "pointwise", "coefficients": [
        {"freq": [f], "re": re, "im": im} for f, re, im in terms]}


def winding(k):
    return {"op": "winding", "k": k}


def wrong(measured):
    return pytest.mark.xfail(strict=True, reason=f"reports {measured}, 'stable'")


FREDHOLM_T1 = [
    *(pytest.param(winding(k), -k, id=f"winding({k})") for k in range(-3, 4)),
    pytest.param({"op": "product", "factors": [winding(1), winding(2)]}, -3,
                 id="winding(1)*winding(2)"),
    pytest.param({"op": "sum", "terms": [
        winding(1), {"op": "multiplier", "formula": "heat"}]}, -1,
        id="winding(1)+heat"),
    pytest.param(pointwise((0, 2.0, 0.0), (1, 0.5, 0.0)), 0,
                 id="2+0.5e(x)", marks=wrong(-1)),
    pytest.param({"op": "product", "factors": [
        winding(1), pointwise((0, 2.0, 0.0), (-1, 0.5, 0.0))]}, -1,
        id="paired", marks=wrong(-2)),
    # ker 0 and coker 2 at every cutoff, with and without reduce_order
    pytest.param({"op": "product", "factors": [
        pointwise((0, 1.0, 0.0), (1, 0.25, 0.0), (-1, 0.25, 0.0)),
        {"op": "multiplier", "formula": "weight_power", "s": 2}]}, 0,
        id="(1+0.5cos(2 pi x))<xi>^2", marks=wrong(-2)),
]


@pytest.mark.parametrize("tree,index", FREDHOLM_T1)
def test_circle_index_is_stable_and_exact(tree, index):
    report = sweep(li.torus(1), tree)
    assert report.verdict == "stable"
    assert {row["kernel_count"] for row in report.rows} == {index}
    assert all(abs(row["heat_trace"] - index) <= 1e-6 for row in report.rows)


@pytest.mark.parametrize("group,tree,cutoffs", [
    pytest.param(li.torus(1), pointwise((1, 0.0, -0.5), (-1, 0.0, 0.5)),
                 T1_CUTOFFS, id="sin(2 pi x)", marks=wrong(-2)),
    pytest.param(li.torus(1), pointwise((0, 1.0, 0.0), (1, 1.0, 0.0)),
                 T1_CUTOFFS, id="1+e(x)", marks=wrong(-1)),
    # unstable only because the kernel count follows the truncation shape
    pytest.param(li.torus(2), {"op": "pointwise", "coefficients": [
        {"freq": [1, 0], "im": -0.5}, {"freq": [-1, 0], "im": 0.5}]},
        [4, 6, 8], id="sin(2 pi x1) on T2"),
    pytest.param(li.SU2, {"op": "pointwise", "entries": [
        {"twice_spin": 1, "i": 0, "j": 0, "re": 0.5},
        {"twice_spin": 1, "i": 1, "j": 1, "re": 0.5}]},
        [4, 6, 8], id="x1 on SU2"),
])
def test_non_fredholm_is_not_stable(group, tree, cutoffs):
    assert sweep(group, tree, cutoffs).verdict != "stable"


@pytest.mark.parametrize("group,tree,cutoffs", [
    pytest.param(li.torus(2), {"op": "pointwise", "coefficients": [
        {"freq": [0, 0], "re": 2.0}, {"freq": [1, 0], "re": 0.3, "im": 0.2},
        {"freq": [0, 1], "re": -0.2, "im": 0.3}]}, [4, 8, 10], id="T2",
        marks=pytest.mark.xfail(strict=True,
                                reason="reports -18, -34, -42, 'unstable'")),
    pytest.param(li.SU2, {"op": "pointwise", "entries": [
        {"twice_spin": 0, "re": 2.0}, {"twice_spin": 1, "re": 0.35, "im": 0.1}]},
        [4, 6, 8], id="SU2",
        marks=pytest.mark.xfail(strict=True,
                                reason="reports -36, -64, -100, 'unstable'")),
])
def test_invertible_multiplication_has_index_zero(group, tree, cutoffs):
    report = sweep(group, tree, cutoffs)
    assert report.verdict == "stable"
    assert {row["kernel_count"] for row in report.rows} == {0}
