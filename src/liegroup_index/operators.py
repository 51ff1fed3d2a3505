"""Builtin operator family and its JSON operator-tree parser.

The family is closed under finite sums and products and spans the three
behaviours the index engine needs: invariant multipliers (zero index),
pointwise multiplication by band-limited coefficients (variable
coefficients), and the circle winding family (nonzero index).  Every
builtin carries an analytic adjoint symbol; products use the
frozen-argument rule on both sides, so (A E)^* maps to the frozen product
of the factors' adjoint symbols in reverse order.

Operator trees are plain JSON, e.g.::

    {"op": "winding", "k": 1}
    {"op": "multiplier", "formula": "weight_power", "s": 2}
    {"op": "sum", "terms": [{...}, {...}]}
    {"op": "pointwise", "coefficients": [{"freq": [1], "re": 0.5}]}

Validation errors carry the JSON path to the offending node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import IrrepLabel, su3_label, torus_label, su2_label
from .groups import GroupSpec
from .symbols import (MatrixSymbol, conjugate_transpose_symbol,
                      frozen_symbol_product, lambda_multiplier,
                      multiplier_symbol, pointwise_symbol, su2_function,
                      symbol_sum, table_symbol, torus_function,
                      winding_adjoint_symbol, winding_symbol)


class ConfigError(ValueError):
    """Validation failure with the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(eq=False)
class BuiltinOperator:
    """A symbol, its adjoint's symbol, and the declared order."""

    group: GroupSpec
    symbol: MatrixSymbol
    adjoint_symbol: MatrixSymbol
    order: float
    describe: dict


MULTIPLIER_FORMULAS = {
    # name -> (g(label), order)
    "identity": (lambda xi: 1.0, 0.0),
    "heat": (lambda xi: math.exp(-xi.casimir), 0.0),
    "laplacian_plus_one": (lambda xi: xi.casimir + 1.0, 2.0),
}


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _finite_array(value, path: str) -> np.ndarray:
    """A config number (or nested list of numbers) that must be finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, f"must be a number ({exc})")
    _require(bool(np.isfinite(arr).all()), path,
             "must be finite (not NaN or Infinity)")
    return arr


def _finite_float(item: dict, key: str, path: str) -> float:
    """The optional number item[key] (default 0), which must be finite."""
    arr = _finite_array(item.get(key, 0.0), f"{path}.{key}")
    _require(arr.ndim == 0, f"{path}.{key}", "must be a number")
    return float(arr)


def _label_from_list(group: GroupSpec, values, path: str) -> IrrepLabel:
    _require(isinstance(values, list) and all(isinstance(v, int) for v in values),
             path, "label must be a list of integers")
    try:
        if group.kind == "torus":
            return torus_label(group, values)
        if group.kind == "su2":
            _require(len(values) == 1, path, "SU(2) labels are [twice_spin]")
            return su2_label(values[0])
        _require(len(values) == 2, path, "SU(3) labels are [a, b]")
        return su3_label(*values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc))


def parse_operator(tree, group: GroupSpec, path: str = "operator") -> BuiltinOperator:
    """Build a BuiltinOperator from a JSON tree, validating as it goes."""
    _require(isinstance(tree, dict), path, "operator node must be an object")
    op = tree.get("op")
    _require(isinstance(op, str), path + ".op", "missing operator kind")

    if op == "multiplier":
        return _parse_multiplier(tree, group, path)
    if op == "winding":
        k = tree.get("k")
        _require(isinstance(k, int), path + ".k", "winding needs an integer k")
        _require(group.kind == "torus" and group.n == 1, path,
                 "winding operators live on the circle T^1")
        return BuiltinOperator(group, winding_symbol(group, k),
                               winding_adjoint_symbol(group, k), 0.0,
                               {"op": "winding", "k": k})
    if op == "pointwise":
        return _parse_pointwise(tree, group, path)
    if op == "sum":
        terms = tree.get("terms")
        _require(isinstance(terms, list) and terms, path + ".terms",
                 "sum needs a nonempty list of terms")
        parsed = [parse_operator(t, group, f"{path}.terms[{i}]")
                  for i, t in enumerate(terms)]
        return BuiltinOperator(
            group,
            symbol_sum([p.symbol for p in parsed]),
            symbol_sum([p.adjoint_symbol for p in parsed]),
            max(p.order for p in parsed),
            {"op": "sum", "terms": [p.describe for p in parsed]})
    if op == "product":
        factors = tree.get("factors")
        _require(isinstance(factors, list) and len(factors) >= 2,
                 path + ".factors", "product needs at least two factors")
        parsed = [parse_operator(t, group, f"{path}.factors[{i}]")
                  for i, t in enumerate(factors)]
        sym = parsed[0].symbol
        adj = parsed[-1].adjoint_symbol
        for p in parsed[1:]:
            sym = frozen_symbol_product(sym, p.symbol)
        for p in reversed(parsed[:-1]):
            adj = frozen_symbol_product(adj, p.adjoint_symbol)
        return BuiltinOperator(
            group, sym, adj, sum(p.order for p in parsed),
            {"op": "product", "factors": [p.describe for p in parsed]})
    raise ConfigError(path + ".op", f"unknown operator kind {op!r}")


def _parse_multiplier(tree, group, path) -> BuiltinOperator:
    formula = tree.get("formula")
    table = tree.get("table")
    _require((formula is None) != (table is None), path,
             "multiplier needs exactly one of 'formula' or 'table'")
    if formula is not None:
        if formula == "weight_power":
            _require(isinstance(tree.get("s"), (int, float)), path + ".s",
                     "weight_power needs a numeric exponent s")
            s = _finite_float(tree, "s", path)
            sym = lambda_multiplier(group, s)
            desc = {"op": "multiplier", "formula": "weight_power", "s": s}
            return BuiltinOperator(group, sym, conjugate_transpose_symbol(sym),
                                   s, desc)
        _require(formula in MULTIPLIER_FORMULAS, path + ".formula",
                 f"unknown multiplier formula {formula!r}; known: "
                 f"{sorted(MULTIPLIER_FORMULAS) + ['weight_power']}")
        fn, order = MULTIPLIER_FORMULAS[formula]
        sym = multiplier_symbol(group, fn, order,
                                {"op": "multiplier", "formula": formula})
        return BuiltinOperator(group, sym, conjugate_transpose_symbol(sym),
                               order, {"op": "multiplier", "formula": formula})
    _require(isinstance(table, list) and table, path + ".table",
             "table must be a nonempty list of {label, re, im} entries")
    entries = {}
    for i, item in enumerate(table):
        ipath = f"{path}.table[{i}]"
        _require(isinstance(item, dict), ipath, "table entry must be an object")
        lab = _label_from_list(group, item.get("label"), ipath + ".label")
        re = _finite_array(item.get("re", 0.0), ipath + ".re")
        im = _finite_array(item.get("im", 0.0), ipath + ".im")
        m = re + 1j * im
        if m.ndim == 0:
            m = m * np.eye(lab.dim)
        _require(m.shape == (lab.dim, lab.dim), ipath,
                 f"matrix must be {lab.dim}x{lab.dim}")
        entries[lab] = m
    order = _finite_float(tree, "order", path)
    sym = table_symbol(group, entries, order)
    desc = {"op": "multiplier", "table": sorted(str(l.label) for l in entries),
            "order": order}
    return BuiltinOperator(group, sym, conjugate_transpose_symbol(sym), order, desc)


def _parse_pointwise(tree, group, path) -> BuiltinOperator:
    if group.kind == "torus":
        coeffs = tree.get("coefficients")
        _require(isinstance(coeffs, list) and coeffs, path + ".coefficients",
                 "pointwise needs a nonempty coefficient list")
        cdict = {}
        for i, item in enumerate(coeffs):
            ipath = f"{path}.coefficients[{i}]"
            _require(isinstance(item, dict), ipath, "coefficient must be an object")
            freq = item.get("freq")
            _require(isinstance(freq, list) and len(freq) == group.n
                     and all(isinstance(v, int) for v in freq),
                     ipath + ".freq", f"freq must be {group.n} integers")
            c = complex(_finite_float(item, "re", ipath),
                        _finite_float(item, "im", ipath))
            cdict[tuple(freq)] = cdict.get(tuple(freq), 0.0) + c
        coeff, band = torus_function(group, cdict)
        desc = {"op": "pointwise",
                "coefficients": sorted((list(k), v.real, v.imag)
                                       for k, v in cdict.items())}
    elif group.kind == "su2":
        entries = tree.get("entries")
        _require(isinstance(entries, list) and entries, path + ".entries",
                 "pointwise on SU(2) needs a nonempty entry list")
        terms = []
        for i, item in enumerate(entries):
            ipath = f"{path}.entries[{i}]"
            _require(isinstance(item, dict), ipath, "entry must be an object")
            n = item.get("twice_spin")
            _require(isinstance(n, int) and n >= 0, ipath + ".twice_spin",
                     "twice_spin must be a nonnegative integer")
            ii, jj = item.get("i", 0), item.get("j", 0)
            _require(0 <= ii <= n and 0 <= jj <= n, ipath,
                     "entry indices must lie within the representation")
            c = complex(_finite_float(item, "re", ipath),
                        _finite_float(item, "im", ipath))
            terms.append((n, ii, jj, c))
        coeff, band = su2_function(terms)
        desc = {"op": "pointwise",
                "entries": sorted((n, i2, j2, c.real, c.imag)
                                  for n, i2, j2, c in terms)}
    else:
        raise ConfigError(path, "pointwise operators support torus and SU(2) groups")

    # the adjoint is multiplication by the complex conjugate, sampled directly
    def coeff_conj(rule):
        return np.conj(coeff(rule))

    sym = pointwise_symbol(group, coeff, band, desc)
    adj = pointwise_symbol(group, coeff_conj, band, {"conjugate_of": desc})
    return BuiltinOperator(group, sym, adj, 0.0, desc)
