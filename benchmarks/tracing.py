"""In-memory spans around the calls the benchmark makes into pvsmooth.

A span has a name, a start, an end and the span that was open when it began
(its parent).  Spans live in plain lists while a phase runs and are turned
into per-name totals, self times and counts when it ends.  A span's self time
is its duration minus the durations of its direct children.

Wrappers are installed only for a traced phase: ``instrument_problem`` swaps
instance attributes on the problem's components and ``instrument_setup``
swaps module attributes the builders look up.  Both restore the originals on
exit, so untraced runs call the library directly.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np


class Tracer:
    """Collects spans and counters for one phase (set-up, solve or report)."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = {}
        self._stack = [-1]

    def _open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span called ``name``."""

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self):
        """Per span name: ``{"calls", "total_s", "self_s"}``."""
        out = {}
        if not self.names:
            return out
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=dur.size)
        self_s = dur - covered
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += float(dur[i])
            row["self_s"] += float(self_s[i])
        return out

    def dump(self, path):
        """Write the raw spans as a compressed ``.npz`` archive."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.asarray(names),
            name=np.asarray([index[n] for n in self.names], dtype=np.int32),
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )


class _Swaps:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        own = attr in vars(obj)
        old = vars(obj).get(attr)
        setattr(obj, attr, value)
        self._undo.append((obj, attr, own, old))

    def restore(self):
        while self._undo:
            obj, attr, own, old = self._undo.pop()
            if own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


@contextlib.contextmanager
def instrument_problem(tracer, problem, solver_module):
    """Span every call the solver makes into the problem's components.

    Layers: ``prox`` (``g.prox``; ``prox_detailed`` adds its inner iteration
    count), ``problems`` (``h.value``/``h.grad``), ``core`` (``a_map`` and
    ``smoothed_parts``), ``projections`` (``subspace.apply``) and ``solver``
    (``IterateTrace.append``).
    """
    swaps = _Swaps()
    try:
        g, h, a_map, subspace = problem.g, problem.h, problem.a_map, problem.subspace
        swaps.set(g, "prox", tracer.wrap("prox.prox", g.prox))
        if hasattr(g, "prox_detailed"):
            detailed = g.prox_detailed

            def counted(*args, **kwargs):
                out = detailed(*args, **kwargs)
                tracer.count("prox.inner_iters", out[2])
                return out

            swaps.set(g, "prox_detailed", counted)
        swaps.set(h, "value", tracer.wrap("problems.h.value", h.value))
        swaps.set(h, "grad", tracer.wrap("problems.h.grad", h.grad))
        swaps.set(a_map, "apply", tracer.wrap("core.a_map.apply", a_map.apply))
        swaps.set(a_map, "adjoint", tracer.wrap("core.a_map.adjoint", a_map.adjoint))
        swaps.set(subspace, "apply", tracer.wrap("projections.apply", subspace.apply))
        swaps.set(problem, "smoothed_parts",
                  tracer.wrap("core.smoothed_parts", problem.smoothed_parts))
        trace_cls = solver_module.IterateTrace
        swaps.set(trace_cls, "append",
                  tracer.wrap("solver.trace_append", trace_cls.append))
        yield
    finally:
        swaps.restore()


@contextlib.contextmanager
def instrument_setup(tracer, pvs):
    """Span the projector construction and norm bounds the builders run.

    The builders look these names up in their own modules, so the wrappers
    replace the module attributes for the duration of the block.
    """
    swaps = _Swaps()
    try:
        swaps.set(pvs.problems, "KernelProjector",
                  tracer.wrap("projections.build", pvs.problems.KernelProjector))
        for module in (pvs.core, pvs.problems, pvs.prox):
            swaps.set(module, "matrix_norm_bound",
                      tracer.wrap("core.norm_bound", module.matrix_norm_bound))
        yield
    finally:
        swaps.restore()
