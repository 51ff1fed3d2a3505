"""Builtin operator family and its JSON operator-tree parser.

The family is closed under finite sums and products and spans the three
behaviours the index engine needs: invariant multipliers (zero index),
pointwise multiplication by band-limited coefficients (variable
coefficients), and the circle winding family (nonzero index).  Every
builtin carries an analytic adjoint symbol: ``parse_operator`` gives every
multiplier and pointwise node sigma^* in one place, winding carries its
extracted adjoint, and products use the frozen-argument rule on both
sides, so (A E)^* maps to the frozen product of the factors' adjoint
symbols in reverse order.

Operator trees are plain JSON, e.g.::

    {"op": "winding", "k": 1}
    {"op": "multiplier", "formula": "weight_power", "s": 2}
    {"op": "sum", "terms": [{...}, {...}]}
    {"op": "pointwise", "coefficients": [{"freq": [1], "re": 0.5}]}

Validation errors carry the JSON path to the offending node.  A JSON boolean
is never a number: ``_is_int`` is the one rule for the integers (``k``,
``freq``, ``twice_spin``, ``i``, ``j``, table ``label``), and the real fields
(``re``, ``im``, ``s``, ``order``) take JSON numbers only (``_numbers``).
Operators live on T^n and SU(2): ``parse_operator`` refuses SU(3) at its root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import IrrepLabel, torus_label, su2_label
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
    """A symbol and its adjoint's symbol; the group and the declared order
    are the symbol's."""

    symbol: MatrixSymbol
    adjoint_symbol: MatrixSymbol
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


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(value) -> bool:
    """A JSON number or nested list of them: no booleans, no strings."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return _is_int(value) or isinstance(value, float)


def _finite_array(value, path: str) -> np.ndarray:
    """A config number (or nested list of numbers) that must be finite."""
    _require(_numbers(value), path, "must be a number or a list of numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
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
    _require(isinstance(values, list) and all(_is_int(v) for v in values),
             path, "label must be a list of integers")
    _require(group.kind == "torus" or len(values) == 1, path,
             "SU(2) labels are [twice_spin]")
    try:
        return torus_label(group, values) if group.kind == "torus" else su2_label(values[0])
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def parse_operator(tree, group: GroupSpec, path: str = "operator") -> BuiltinOperator:
    """Build a BuiltinOperator from a JSON tree, validating as it goes."""
    _require(group.kind != "su3", path, "operators need a torus or SU(2) group "
                                        "(SU(3) support is quadrature-only)")
    _require(isinstance(tree, dict), path, "operator node must be an object")
    op = tree.get("op")
    _require(isinstance(op, str), path + ".op", "missing operator kind")

    if op in ("multiplier", "pointwise"):
        parse = _parse_multiplier if op == "multiplier" else _parse_pointwise
        sym, desc = parse(tree, group, path)
        return BuiltinOperator(sym, conjugate_transpose_symbol(sym), desc)
    if op == "winding":
        k = tree.get("k")
        _require(_is_int(k), path + ".k", "winding needs an integer k")
        _require(group.kind == "torus" and group.n == 1, path,
                 "winding operators live on the circle T^1")
        return BuiltinOperator(winding_symbol(group, k),
                               winding_adjoint_symbol(group, k),
                               {"op": "winding", "k": k})
    if op == "sum":
        terms = tree.get("terms")
        _require(isinstance(terms, list) and terms, path + ".terms",
                 "sum needs a nonempty list of terms")
        parsed = [parse_operator(t, group, f"{path}.terms[{i}]")
                  for i, t in enumerate(terms)]
        return BuiltinOperator(
            symbol_sum([p.symbol for p in parsed]),
            symbol_sum([p.adjoint_symbol for p in parsed]),
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
            sym, adj, {"op": "product", "factors": [p.describe for p in parsed]})
    raise ConfigError(path + ".op", f"unknown operator kind {op!r}")


def _parse_multiplier(tree, group, path) -> tuple:
    """(symbol, describe) of a formula or table multiplier."""
    formula = tree.get("formula")
    table = tree.get("table")
    _require((formula is None) != (table is None), path,
             "multiplier needs exactly one of 'formula' or 'table'")
    if formula is not None:
        if formula == "weight_power":
            _require(tree.get("s") is not None, path + ".s",
                     "weight_power needs a numeric exponent s")
            s = _finite_float(tree, "s", path)
            return (lambda_multiplier(group, s),
                    {"op": "multiplier", "formula": "weight_power", "s": s})
        _require(formula in MULTIPLIER_FORMULAS, path + ".formula",
                 f"unknown multiplier formula {formula!r}; known: "
                 f"{sorted(MULTIPLIER_FORMULAS) + ['weight_power']}")
        fn, order = MULTIPLIER_FORMULAS[formula]
        desc = {"op": "multiplier", "formula": formula}
        return multiplier_symbol(group, fn, order, desc), desc
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
    return table_symbol(group, entries, order), {
        "op": "multiplier", "table": sorted(str(l.label) for l in entries),
        "order": order}


def _parse_pointwise(tree, group, path) -> tuple:
    """(symbol, describe) of multiplication by a band-limited coefficient."""
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
                     and all(_is_int(v) for v in freq),
                     ipath + ".freq", f"freq must be {group.n} integers")
            c = complex(_finite_float(item, "re", ipath),
                        _finite_float(item, "im", ipath))
            cdict[tuple(freq)] = cdict.get(tuple(freq), 0.0) + c
        coeff, band = torus_function(group, cdict)
        desc = {"op": "pointwise",
                "coefficients": sorted((list(k), v.real, v.imag)
                                       for k, v in cdict.items())}
    else:
        entries = tree.get("entries")
        _require(isinstance(entries, list) and entries, path + ".entries",
                 "pointwise on SU(2) needs a nonempty entry list")
        terms = []
        for i, item in enumerate(entries):
            ipath = f"{path}.entries[{i}]"
            _require(isinstance(item, dict), ipath, "entry must be an object")
            n = item.get("twice_spin")
            _require(_is_int(n) and n >= 0, ipath + ".twice_spin",
                     "twice_spin must be a nonnegative integer")
            ii, jj = item.get("i", 0), item.get("j", 0)
            for key, v in (("i", ii), ("j", jj)):
                _require(_is_int(v), f"{ipath}.{key}", "must be an integer")
            _require(0 <= ii <= n and 0 <= jj <= n, ipath,
                     "entry indices must lie within the representation")
            c = complex(_finite_float(item, "re", ipath),
                        _finite_float(item, "im", ipath))
            terms.append((n, ii, jj, c))
        coeff, band = su2_function(terms)
        desc = {"op": "pointwise",
                "entries": sorted((n, i2, j2, c.real, c.imag)
                                  for n, i2, j2, c in terms)}
    return pointwise_symbol(group, coeff, band, desc), desc
