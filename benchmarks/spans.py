"""Per-layer spans and exact work counters for the traced run.

The layers are the ``htt`` modules plus ``linalg`` (``numpy.linalg.eigh`` and
``eigvalsh``, which ``spectra`` and ``experiments`` call directly).  The
tracer wraps, from outside the program, every function in each layer
module's ``__all__`` and every public method of the classes listed there,
in every ``htt`` namespace that holds it.  Each call made while the tracer
is active records a span (name, layer, start, end, parent) in memory; the
spans are reduced to per-layer self time and call counts when the run ends.

Counters are computed from argument and result shapes, never from timings,
so they repeat bit-for-bit for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np

MODULE_LAYERS = (
    "sampler",
    "matrices",
    "limit_operator",
    "spectra",
    "metrics",
    "serialize",
    "experiments",
)
LAYERS = MODULE_LAYERS + ("linalg",)

COUNTERS = (
    "linalg.eigh_complex.calls",
    "linalg.eigh_complex.dim3",
    "linalg.eigh_real.calls",
    "linalg.eigh_real.dim3",
    "linalg.eigvalsh_complex.calls",
    "linalg.eigvalsh_complex.dim3",
    "linalg.eigvalsh_real.calls",
    "linalg.eigvalsh_real.dim3",
    "limit_operator.cosine_cells",
    "limit_operator.windows",
    "limit_operator.window_dim_max",
    "matrices.sandwich_dim3",
    "matrices.dense_bytes",
    "metrics.levy_atoms",
    "spectra.atoms_out",
    "serialize.bytes_written",
    "serialize.files",
)


class Tracer:
    """In-memory span recorder; spans are kept until the run ends."""

    def __init__(self):
        self.active = False
        # [name, layer, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def add(self, key: str, value: int):
        self.counts[key] += value

    def wrap(self, layer: str, name: str, fn, count=None):
        """``fn`` wrapped to record a span while the tracer is active;
        ``count(tracer, args, result, caller_layer)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, layer, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result, self.spans[parent][1] if parent >= 0 else None)
            return result

        return traced

    def layer_totals(self) -> dict:
        """Per-layer self time (span duration minus the time covered by its
        child spans) and call counts."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for (_, layer, start, end, _), inner in zip(self.spans, covered):
            out[f"{layer}.self_s"] += end - start - inner
            out[f"{layer}.calls"] += 1
        return out


# ---------------------------------------------------------------------------
# counters, keyed by the wrapped callable's qualified name


def _count_sandwich(tracer, args, result):
    tracer.add("matrices.sandwich_dim3", result.shape[0] ** 3)


def _count_series_values(tracer, args, result):
    series, ks = args
    length = len(series.env.gamma)
    for cap in (series.terms, series.top_k):
        if cap is not None:
            length = min(length, cap)
    tracer.add("limit_operator.cosine_cells", length * len(ks))


def _count_levy(tracer, args, result):
    tracer.add("metrics.levy_atoms", len(args[0]) + len(args[1]))


def _count_saved_file(tracer, args, result):
    tracer.add("serialize.files", 1)
    tracer.add("serialize.bytes_written", os.path.getsize(args[0]))


_NAMED_COUNTERS = {
    "matrices.sandwich": _count_sandwich,
    "limit_operator.series_values": _count_series_values,
    "metrics.levy_distance": _count_levy,
}


def _layer_counter(layer: str, name: str):
    """Counter for one wrapped callable: its named counter (every
    ``serialize.save_*`` writes one file) plus the per-layer result
    counters, which count results handed to another layer."""
    named = _NAMED_COUNTERS.get(name)
    if name.startswith("serialize.save_"):
        named = _count_saved_file

    def count(tracer, args, result, caller):
        if named is not None:
            named(tracer, args, result)
        if layer == "matrices" and isinstance(result, np.ndarray) and result.ndim == 2:
            tracer.add("matrices.dense_bytes", math.prod(result.shape) * result.dtype.itemsize)
        if caller == layer:
            return
        if layer == "limit_operator" and type(result).__name__ == "OperatorWindow":
            tracer.add("limit_operator.windows", 1)
            dim = 2 * result.half_width + 1
            if dim > tracer.counts["limit_operator.window_dim_max"]:
                tracer.counts["limit_operator.window_dim_max"] = dim
        if layer == "spectra" and type(result).__name__ == "PointMeasure":
            tracer.add("spectra.atoms_out", len(result.locations))

    return count


def _eig_counter(kind: str):
    def count(tracer, args, result, caller):
        a = args[0]
        field = "complex" if np.iscomplexobj(a) else "real"
        n = a.shape[-1]
        batch = math.prod(a.shape[:-2])
        tracer.add(f"linalg.{kind}_{field}.calls", batch)
        tracer.add(f"linalg.{kind}_{field}.dim3", batch * n**3)

    return count


def install(tracer: Tracer):
    """Wrap every public callable of the layer modules, in every loaded
    ``htt`` namespace that holds it, and numpy's Hermitian eigensolvers."""
    replacements = {}
    for layer in MODULE_LAYERS:
        module = importlib.import_module(f"htt.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
            elif inspect.isfunction(obj):
                qualified = f"{layer}.{name}"
                replacements[id(obj)] = (
                    obj,
                    tracer.wrap(layer, qualified, obj, _layer_counter(layer, qualified)),
                )
    namespaces = [m for key, m in sys.modules.items() if key == "htt" or key.startswith("htt.")]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(namespace, attr, hit[1])
    for kind in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, kind)
        setattr(np.linalg, kind, tracer.wrap("linalg", f"linalg.{kind}", fn, _eig_counter(kind)))


def _wrap_methods(tracer: Tracer, layer: str, cls):
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        qualified = f"{layer}.{cls.__name__}.{attr}"
        count = _layer_counter(layer, qualified)
        if isinstance(value, (classmethod, staticmethod)):
            wrapped = tracer.wrap(layer, qualified, value.__func__, count)
            setattr(cls, attr, type(value)(wrapped))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(layer, qualified, value, count))
