"""In-process spans around the twistkit layers, recorded from outside.

The tracer wraps every public function of each layer module, and every
public method of the public classes defined there, by rebinding the name
in every twistkit module that holds it (so ``from .x import f`` copies are
covered).  A call gets a span when it enters a layer from another one;
calls inside the same layer are only counted, except for the stages in
``STAGES``, which always get a span so that their time can be taken out of
the caller's.  Spans hold name, start, end, parent span and job id in
flat arrays, stay in memory, and are written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import importlib.abc
import importlib.machinery
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("spectrum", "partition", "fock", "correlation", "realfield", "verify", "cli")
PACKAGE = "twistkit"

#: Same-layer calls that still open a span (the grid inside a CSV export).
STAGES = frozenset({"correlation.kernel_grid"})


def _layer_of(module_name: str) -> str:
    leaf = module_name.rsplit(".", 1)[-1]
    return leaf if leaf in LAYERS else PACKAGE


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.layer: str | None = None
        self.job = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self.export_paths: list[str] = []

    # -- spans -------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return self._ids[name]

    def call_in_span(self, nid: int, layer: str, fn, args, kwargs):
        parent, outer = self.current, self.layer
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self.current, self.layer = idx, layer
        self.span_start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            self.current, self.layer = parent, outer

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str, after=None):
        nid = self.name_id(name, layer)
        stage = name in STAGES
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self.layer == layer and not stage:
                result = fn(*args, **kwargs)
            else:
                result = self.call_in_span(nid, layer, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting_init(self, init, hook):
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            hook(obj)

        return wrapper

    def _outer_calls(self, fn, counter: str):
        """Count calls that are not recursive re-entries of ``fn``."""
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                self.counts[counter] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def _add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def _after_hook(self, name: str, fn):
        """Counter update run after a wrapped call returns, if ``name`` has one."""
        if name == "correlation.kernel_fourier":
            sig = inspect.signature(fn)
            return lambda args, kwargs, result: self._add(
                "correlation.fourier_terms", 2 * sig.bind(*args, **kwargs).arguments["n_cutoff"] + 1
            )
        if name == "correlation.export_kernel_csv":
            sig = inspect.signature(fn)
            return lambda args, kwargs, result: self.export_paths.append(
                str(sig.bind(*args, **kwargs).arguments["path"])
            )
        return None

    def _init_hook(self, name: str):
        """Counter update run after a constructor, if class ``name`` has one."""
        if name == "fock.DenseOperator":
            return lambda op: self._add("fock.dense_entries", op.matrix.size)
        if name == "fock.TruncatedFockSpace":
            return lambda space: self._add("fock.states_enumerated", space.occupations.shape[0])
        if name == "verify.CheckResult":
            def hook(result) -> None:
                self._add("verify.checks", 1)
                self._add("verify.checks_failed", 0 if result.passed else 1)

            return hook
        return None

    def install(self) -> None:
        """Wrap the layers of the already imported twistkit package."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    fn = obj
                    if name == "correlation.kernel_closed_form":
                        fn = self._outer_calls(fn, "correlation.kernel_evals")
                    replaced[id(obj)] = self._wrap(fn, layer, name, self._after_hook(name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str, name: str) -> None:
        init_hook = self._init_hook(name)
        for meth, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if meth == "__init__" and init_hook is not None:
                self._patch(cls, meth, self._counting_init(fn, init_hook))
            elif not meth.startswith("_") or meth in ("__call__", "__matmul__"):
                self._patch(cls, meth, self._wrap(fn, layer, f"{name}.{meth}"))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def arrays(self):
        """(name id, parent, job, duration, self time) per span, as numpy arrays."""
        names = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        job = np.array(self.span_job, dtype=np.int32)
        dur = np.array(self.span_end) - np.array(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, parent, job, dur, dur - child

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time minus time covered by child spans."""
        names, _, _, _, self_time = self.arrays()
        per_name = np.bincount(names, weights=self_time, minlength=len(self.names))
        out: dict[str, float] = defaultdict(float)
        for nid, secs in enumerate(per_name):
            out[self.name_layer[nid]] += float(secs)
        return out

    def name_self_seconds(self, name: str) -> float:
        if name not in self._ids:
            return 0.0
        names, _, _, _, self_time = self.arrays()
        return float(self_time[names == self._ids[name]].sum())

    def root_seconds(self, job: int) -> float:
        """Total duration of the top-level spans of one job (0: imports)."""
        _, parent, jobs, dur, _ = self.arrays()
        return float(dur[(parent < 0) & (jobs == job)].sum())

    def write(self, path) -> None:
        """All spans as gzip CSV: job, span, parent, name, layer, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("job,span,parent,name,layer,start,end\n")
            for i in range(len(self.span_start)):
                nid = self.span_name[i]
                fh.write(
                    f"{self.span_job[i]},{i},{self.span_parent[i]},{self.names[nid]},"
                    f"{self.name_layer[nid]},{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )


class _TimedLoader(importlib.abc.Loader):
    """Delegating loader that runs a module body inside an import span."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        layer = _layer_of(self._name)
        nid = self._tracer.name_id(f"{layer}.import", layer)
        self._tracer.call_in_span(nid, layer, self._inner.exec_module, (module,), {})


class _TimedFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self._tracer, name)
        return spec


def import_with_spans(tracer: Tracer, module: str, dependencies: list[str]) -> None:
    """Import ``module`` with one span per twistkit module body.

    ``dependencies`` (the non-twistkit modules it pulls in) are imported
    first, outside any span, so each layer's import span covers its own
    module body only.
    """
    for dep in dependencies:
        try:
            importlib.import_module(dep)
        except ImportError:
            pass
    finder = _TimedFinder(tracer)
    sys.meta_path.insert(0, finder)
    try:
        importlib.import_module(module)
    finally:
        sys.meta_path.remove(finder)
