"""In-memory span tracer installed around the package's public entry points.

``Tracer.install`` wraps every public function of the seven working modules
and rebinds the wrapper in every ``phasebound`` namespace that binds the
original (``cli`` imports ``precision_trial`` by name, ``estimation`` imports
``evolve``, ...), so calls are seen whichever module makes them.  It also
wraps ``__init__`` of the value classes to count constructions, counts
eigensystem cache hits, and counts every ``BoundaryWarning`` under an
"always" filter.  ``uninstall`` restores every binding.

Spans are recorded as [name, start, end, parent index, nested] where nested
marks a span with an ancestor of the same name (recursion); total time sums
only the outermost of those, self time is duration minus the direct
children's durations.  Calls are single-threaded: the CLI's ``--parallel``
path is not traced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import warnings
from collections import Counter
from time import perf_counter

MODULES = ("cli", "procedures", "opalg", "states", "metrology", "estimation", "networks")
CLASSES = {
    "opalg": ("PureState", "HermitianOperator"),
    "procedures": ("JointGenerator",),
    "networks": ("QuantumNetwork",),
}
MLE = "estimation.mle_estimate"
PROBABILITIES = "metrology.outcome_probabilities"
EIGENSYSTEM = "opalg.hermitian_eigensystem"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._restore: list[tuple] = []
        self._warning_state = None

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] > 0])
            stack.append(idx)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span = spans[idx]
                span[1], span[2] = start, end
                stack.pop()
                depth[name] -= 1

        return traced

    def _count_cache_hits(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(a):
            if a._spectrum_cache:
                counters[EIGENSYSTEM + ".cache_hits"] += 1
            return fn(a)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import phasebound  # noqa: F401  (loads every submodule the package exports)
        import phasebound.cli  # noqa: F401

        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "phasebound" or n.startswith("phasebound.")]
        replacements = {}
        for short in MODULES:
            module = sys.modules[f"phasebound.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                inner = self._count_cache_hits(obj) if f"{short}.{attr}" == EIGENSYSTEM else obj
                replacements[id(obj)] = (obj, self._wrap(f"{short}.{attr}", inner))
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(module, cls_name)
                self._set(cls, "__init__", self._wrap(f"{short}.{cls_name}.init", cls.__init__))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(namespace, attr, hit[1])
        from phasebound.errors import BoundaryWarning

        self._warning_state = (warnings.filters[:], warnings.showwarning)
        original_show = warnings.showwarning
        counters = self.counters

        def show(message, category, *args, **kwargs):
            if issubclass(category, BoundaryWarning):
                counters[MLE + ".boundary_hits"] += 1
            return original_show(message, category, *args, **kwargs)

        warnings.simplefilter("always", BoundaryWarning)
        warnings.showwarning = show

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        if self._warning_state is not None:
            warnings.filters[:], warnings.showwarning = self._warning_state
            self._warning_state = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s; plus the tracer's counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_mle = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                under_mle[i] = under_mle[parent] or spans[parent][0] == MLE
        stats: dict = {}
        model_calls = 0
        for i, (name, start, end, _, nested) in enumerate(spans):
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            if not nested:
                entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            if name == PROBABILITIES and under_mle[i]:
                model_calls += 1
        counters = dict(self.counters)
        counters[MLE + ".model_calls"] = model_calls
        return {"spans": stats, "counters": counters}
