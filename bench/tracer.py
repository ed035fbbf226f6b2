"""Per-layer tracing of fibcat, installed from outside the program.

``Tracer.install()`` wraps every public function and method of the layers
``scalars``, ``category``, ``tangles``, ``invariants``, ``spines`` and
``cli``.  A name is replaced wherever it is looked up: in its own module,
in every fibcat module that imported it by name, and on its class.  The
wrappers record one span per call (name, parent span, start, end) in
compact arrays, and a layer's self time is its span time minus the time of
its child spans.  ``uninstall()`` puts the originals back.

Counts that need more than a call count are taken in hooks that run
outside every span: the tracer's clock stops while a hook runs, so the
hooks' own work does not show up as any layer's time.  Per-operation
figures are only added to the round's totals when the operation
succeeds, so an operation cut off by its time limit leaves no trace.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import defaultdict

import oracles

LAYERS = ("scalars", "category", "tangles", "invariants", "spines", "cli")
# Scalar operators, by the metric name they count under.
OPERATORS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add",
             "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
             "__neg__": "neg", "__truediv__": "div", "__rtruediv__": "div",
             "__pow__": "pow"}


def _modules():
    package = importlib.import_module("fibcat")
    return [package] + [importlib.import_module(f"fibcat.{m}") for m in LAYERS]


def lru_caches() -> dict[str, object]:
    """Every functools cache in fibcat, by name (wrappers must be off)."""
    caches = {}
    for module in _modules()[1:]:
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                caches[f"{module.__name__.split('.')[-1]}.{attr}"] = obj
    return caches


def cache_entries(caches: dict[str, object]) -> int:
    return sum(c.cache_info().currsize for c in caches.values())


def _targets():
    """(metric name, owner, attribute, raw attribute value) per wrap site
    of a public function, method or Scalar operator, per defining module."""
    for layer, module in zip(LAYERS, _modules()[1:]):
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            func = getattr(obj, "__wrapped__", obj)
            if inspect.isfunction(func) and func.__module__ == module.__name__:
                yield f"{layer}.{attr}", None, attr, obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for mattr, mobj in list(vars(obj).items()):
                    raw = mobj.__func__ if isinstance(mobj, staticmethod) else mobj
                    if not inspect.isfunction(raw):
                        continue
                    if mattr in OPERATORS and obj.__name__ == "Scalar":
                        yield f"{layer}.{OPERATORS[mattr]}", obj, mattr, mobj
                    elif not mattr.startswith("_"):
                        yield f"{layer}.{mattr}", obj, mattr, mobj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.active: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.stack: list[list] = []
        self.paused = [0.0]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list[tuple] = []
        self._op_start = 0
        self._memo: dict = {}
        self.hook_errors: list[str] = []

    # -- installing -------------------------------------------------------

    def _idx(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.active.append(0)
        return self.index[name]

    def install(self) -> None:
        modules = _modules()
        hooks = {
            "category.then": self._count_entries,
            "tangles.evaluate": self._count_events,
            "invariants.from_diagram": self._count_kinks,
            "invariants.c_function": self._count_subset,
            "spines.tv": self._count_colorings(with_edges=True),
            "spines.t_epsilon": self._count_colorings(with_edges=False),
        }
        reassociate = getattr(importlib.import_module("fibcat.category"), "reassociate", None)
        prehooks = {}
        if hasattr(reassociate, "cache_info"):
            prehooks["category.reassociate"] = lambda: reassociate.cache_info().misses
            hooks["category.reassociate"] = self._count_misses(reassociate)
        for name, owner, attr, raw in _targets():
            if owner is not None and name in self.index and attr not in OPERATORS:
                name = f"{name.split('.')[0]}.{owner.__name__}.{attr}"
            is_static = isinstance(raw, staticmethod)
            wrapper = self._wrap(raw.__func__ if is_static else raw, self._idx(name),
                                 hooks.get(name), prehooks.get(name), name)
            if owner is not None:
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
                continue
            for module in modules:
                for mattr, value in list(vars(module).items()):
                    if value is raw:
                        self._restore.append((module, mattr, raw))
                        setattr(module, mattr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, fn, idx, hook, prehook, name):
        perf = time.perf_counter
        paused, stack = self.paused, self.stack
        calls, self_s, active = self.calls, self.self_s, self.active
        names_add, parents_add = self.span_name.append, self.span_parent.append
        starts, starts_add = self.span_start, self.span_start.append
        ends, ends_add = self.span_end, self.span_end.append
        hook_errors = self.hook_errors
        def traced(*args, **kwargs):
            pre = None
            if prehook is not None:
                h = perf()
                pre = prehook()
                paused[0] += perf() - h
            t0 = perf() - paused[0]
            sid = len(starts)
            names_add(idx)
            parents_add(stack[-1][0] if stack else -1)
            starts_add(t0)
            ends_add(t0)
            frame = [sid, 0.0]
            stack.append(frame)
            active[idx] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf() - paused[0]
                active[idx] -= 1
                stack.pop()
                ends[sid] = t1
                calls[idx] += 1
                self_s[idx] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                h = perf()
                try:
                    hook(args, kwargs, result, pre)
                except Exception as exc:    # a count is lost, never the call
                    hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
                paused[0] += perf() - h
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- hooks ------------------------------------------------------------

    def _count_entries(self, args, kwargs, result, pre):
        """Operand matrix entries of a composition, and how many are nonzero."""
        dense = nonzero = 0
        for morphism in args[:2]:
            for matrix in (morphism.m1, morphism.ma):
                for row in matrix:
                    dense += len(row)
                    nonzero += sum(1 for v in row if v)
        self.counters["category.then.dense_entries"] += dense
        self.counters["category.then.nonzero_entries"] += nonzero

    def _count_misses(self, cached):
        def hook(args, kwargs, result, before):
            self.counters["category.reassociate.cache_misses"] += \
                cached.cache_info().misses - before
        return hook

    def _count_events(self, args, kwargs, result, pre):
        diagram = args[0]
        coloring = args[1] if len(args) > 1 else kwargs["coloring"]
        key = ("events", diagram.events, tuple(coloring))
        if key not in self._memo:
            events = [(ev.kind.value, ev.pos) for ev in diagram.events]
            self._memo[key] = oracles.kept_events(events, "".join(str(c) for c in coloring))
        kept, width = self._memo[key]
        c = self.counters
        c["tangles.evaluate.events"] += kept
        c["tangles.evaluate.peak_width"] = max(c["tangles.evaluate.peak_width"], width)
        tr_manifold = self.index.get("invariants.tr_manifold")
        if tr_manifold is not None and self.active[tr_manifold]:
            c["invariants.tr_manifold.colorings"] += 1

    def _count_kinks(self, args, kwargs, result, pre):
        self.counters["invariants.from_diagram.kinks_added"] += \
            len(result.diagram.events) - len(args[0].events)

    def _count_subset(self, args, kwargs, result, pre):
        lens = self.index.get("invariants.lens_tr_closed_form")
        if lens is not None and self.active[lens]:
            self.counters["invariants.lens_tr_closed_form.subsets"] += 1

    def _count_colorings(self, with_edges: bool):
        """Colorings the state sum ranges over, and those whose term is
        nonzero (counted by the benchmark's own enumeration)."""
        def hook(args, kwargs, result, pre):
            spine = args[0]
            key = ("nonzero", spine.n_components, spine.edges, spine.vertices, with_edges)
            if key not in self._memo:
                self._memo[key] = oracles.nonzero_colorings(
                    spine.n_components, spine.edges, spine.vertices, edge_factors=with_edges)
            self.counters["spines.colorings"] += 2 ** spine.n_components
            self.counters["spines.colorings_nonzero"] += self._memo[key]
        return hook

    # -- per operation and per round ----------------------------------------

    def begin_op(self) -> None:
        self._op_start = len(self.span_start)

    def end_op(self, ok: bool, totals: dict) -> None:
        """Fold this operation's figures into totals, or drop them."""
        if ok:
            for name, idx in self.index.items():
                if self.calls[idx]:
                    totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + self.calls[idx]
                    totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self.self_s[idx]
            for key, value in self.counters.items():
                if key.endswith("peak_width"):
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        else:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                del arr[self._op_start:]
        for idx in range(len(self.names)):
            self.calls[idx] = 0
            self.self_s[idx] = 0.0
        self.counters.clear()

    def write_spans(self, path) -> int:
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                handle.write(f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                             f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n")
        return len(self.span_start)
