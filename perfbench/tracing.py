"""Span recording around the public functions of each liegroup-index module.

The wrappers are installed from outside the package: each target function is
replaced at every name it is bound under in any ``liegroup_index`` module
(``index_engine`` reaches ``assemble`` through ``from .galerkin import ...``,
``galerkin`` reaches ``quantize_on_rule`` from ``symbols``, and so on), and
methods are replaced on their class.  A span records its name, start, end
and parent span; spans stay in memory and self time is computed from them
afterwards.  Counters are taken at the same boundaries from the arguments
and results of the wrapped calls.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
import time


def _assembled_columns(tracer, args, kwargs, result):
    if result.meta.get("level") is not None:   # quadrature path, not block-diagonal
        tracer.counts["galerkin.assembled_columns"] += result.matrix.shape[1]


def _quadrature_nodes(tracer, args, kwargs, result):
    tracer.counts["groups.quadrature_nodes"] += result.n_nodes


def _cache_fetch(tracer, args, kwargs, result):
    tracer.counts["galerkin.cache.misses" if result is None
                  else "galerkin.cache.hits"] += 1


def _cache_read(tracer, args, kwargs, result):
    tracer.counts["galerkin.cache.bytes_read"] += os.path.getsize(args[0])


def _cache_store(tracer, args, kwargs, result):
    tracer.counts["galerkin.cache.bytes_written"] += os.path.getsize(result)


def _report_write(tracer, args, kwargs, result):
    tracer.counts["cli.report_bytes"] += len(args[1].encode())


# (module, class or None, attribute, span name, counter hook)
TARGETS = [
    ("cli", None, "_write", "cli.report_write", _report_write),
    ("operators", None, "parse_operator", "operators.parse_operator", None),
    ("index_engine", None, "stabilization_sweep", "index_engine.stabilization_sweep", None),
    ("index_engine", None, "heat_trace_index", "index_engine.heat_trace_index", None),
    ("index_engine", None, "singular_value_census", "index_engine.singular_value_census", None),
    ("index_engine", None, "density_route_index", "index_engine.density_route_index", None),
    ("galerkin", None, "index_truncation", "galerkin.index_truncation", None),
    ("galerkin", None, "index_codomain_labels", "galerkin.index_codomain_labels", None),
    ("galerkin", None, "assemble_cached", "galerkin.assemble_cached", None),
    ("galerkin", None, "assemble", "galerkin.assemble", _assembled_columns),
    ("galerkin", None, "compose", "galerkin.compose", None),
    ("galerkin", "PeterWeylBasis", "values_on_rule", "galerkin.values_on_rule", None),
    ("galerkin", "OperatorCache", "fetch", "galerkin.cache.fetch", _cache_fetch),
    ("galerkin", "OperatorCache", "store", "galerkin.cache.store", _cache_store),
    ("galerkin", None, "read_cache_entry", "galerkin.read_cache_entry", _cache_read),
    ("symbols", None, "quantize_on_rule", "symbols.quantize_on_rule", None),
    ("symbols", "MatrixSymbol", "evaluate_on_rule", "symbols.evaluate_on_rule", None),
    ("symbols", None, "ellipticity_check", "symbols.ellipticity_check", None),
    ("fourier", None, "fourier_forward", "fourier.fourier_forward", None),
    ("fourier", None, "fourier_inverse_on_rule", "fourier.fourier_inverse_on_rule", None),
    ("dual", None, "rep_matrices_on_rule", "dual.rep_matrices_on_rule", None),
    ("groups", None, "haar_quadrature", "groups.haar_quadrature", _quadrature_nodes),
]

# per-layer metrics reported from the spans: (span name, stat)
SPAN_METRICS = [
    ("symbols.quantize_on_rule", "calls"), ("symbols.quantize_on_rule", "self_s"),
    ("galerkin.assemble", "calls"), ("galerkin.assemble", "self_s"),
    ("galerkin.index_codomain_labels", "self_s"),
    ("symbols.evaluate_on_rule", "calls"), ("symbols.evaluate_on_rule", "self_s"),
    ("index_engine.heat_trace_index", "calls"), ("index_engine.heat_trace_index", "self_s"),
    ("index_engine.singular_value_census", "calls"),
    ("index_engine.singular_value_census", "self_s"),
    ("index_engine.density_route_index", "calls"),
    ("index_engine.density_route_index", "self_s"),
    ("groups.haar_quadrature", "calls"), ("groups.haar_quadrature", "self_s"),
    ("dual.rep_matrices_on_rule", "calls"), ("dual.rep_matrices_on_rule", "self_s"),
    ("galerkin.values_on_rule", "self_s"),
    ("fourier.fourier_forward", "self_s"),
    ("fourier.fourier_inverse_on_rule", "self_s"),
    ("symbols.ellipticity_check", "self_s"),
    ("operators.parse_operator", "self_s"),
    ("index_engine.stabilization_sweep", "self_s"),
]

COUNT_METRICS = [
    "galerkin.assembled_columns", "groups.quadrature_nodes",
    "galerkin.cache.hits", "galerkin.cache.misses",
    "galerkin.cache.bytes_written", "galerkin.cache.bytes_read",
    "cli.report_bytes",
]

# span totals (wall time including children) reported under their own names
TOTAL_METRICS = {
    "galerkin.cache.fetch_s": "galerkin.cache.fetch",
    "galerkin.cache.store_s": "galerkin.cache.store",
    "cli.report_write_s": "cli.report_write",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("hit_ratio"):
        return "ratio"
    return "bytes" if "bytes" in metric else "count"


class Tracer:
    """In-memory span recorder for one traced stretch of calls."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every target at every binding; undone by ``uninstall``."""
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "liegroup_index" or n.startswith("liegroup_index.")]
        for module, cls, attr, name, hook in TARGETS:
            owner = sys.modules[f"liegroup_index.{module}"]
            if cls is not None:
                owner = getattr(owner, cls)
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in package:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s (total minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in SPAN/COUNT/TOTAL_METRICS."""
        spans = self.summary()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        out = {f"{name}.{stat}": spans.get(name, empty)[stat]
               for name, stat in SPAN_METRICS}
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        out.update({metric: spans.get(name, empty)["total_s"]
                    for metric, name in TOTAL_METRICS.items()})
        lookups = out["galerkin.cache.hits"] + out["galerkin.cache.misses"]
        out["galerkin.cache.hit_ratio"] = (out["galerkin.cache.hits"] / lookups
                                           if lookups else 0.0)
        return out
