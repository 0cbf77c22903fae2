"""Per-layer tracing for the benchmark, installed from outside the program.

The traced run wraps the public functions and methods of each layer of
``repro`` (listed in :data:`LAYERS`) with span recorders, runs the
workload, and removes every wrapper again, so an untraced run always
times the unpatched program.  Nothing under ``src/`` knows about it.

A span is ``(name, start, end, parent)``.  Spans live in memory in flat
arrays and are written out once, at the end of the run.  A layer's self
time is its span's duration minus the part of that interval its child
spans cover (:func:`self_times`).  A call into a layer from inside a
span of the same layer (a ``super()`` call, recursion) opens no new
span, so counts are calls *into* the layer.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# ----------------------------------------------------------------------
# Which functions make up each layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """Functions of one layer: module functions and/or class methods.

    ``functions`` are ``"module:attr"`` strings; the wrapper replaces the
    attribute in every loaded ``repro`` module that imported it by name.
    ``methods`` are ``("module:Class", name)`` pairs; the wrapper replaces
    the method on that class and on every loaded subclass defining its
    own version.
    """

    functions: tuple[str, ...] = ()
    methods: tuple[tuple[str, str], ...] = ()


LAYERS: dict[str, Target] = {
    "streams.sample": Target(
        functions=("repro.streams.melbourne:melbourne_like_temperatures",),
        methods=(("repro.streams.base:StreamModel", "sample_path"),),
    ),
    "core.prob": Target(
        methods=(("repro.streams.base:StreamModel", "prob"),),
    ),
    "core.precompute": Target(
        functions=(
            "repro.analysis.fitting:fit_ar1",
            "repro.core.precompute:random_walk_h1_join",
            "repro.core.precompute:random_walk_h1_cache",
            "repro.core.precompute:ar1_cache_heeb_values",
            "repro.core.precompute:ar1_h2_join",
            "repro.core.precompute:ar1_h2_cache",
        ),
    ),
    "policies.select": Target(
        methods=(("repro.policies.base:ReplacementPolicy", "select_victims"),),
    ),
    "policies.score": Target(
        methods=(("repro.policies.base:ScoredPolicy", "score"),),
    ),
    "sim.step": Target(
        functions=(
            "repro.sim.step:join_step",
            "repro.sim.step:cache_step",
            "repro.sim.step:multi_join_step",
        ),
    ),
    "batch.run": Target(
        methods=(
            ("repro.sim.batch:BatchJoinSimulator", "run"),
            ("repro.sim.batch:BatchCacheSimulator", "run"),
            ("repro.sim.batch:BatchMultiJoinSimulator", "run"),
        ),
    ),
    "batch.convert": Target(
        functions=(
            "repro.sim.batch:paths_to_arrays",
            "repro.sim.batch:streams_to_arrays",
            "repro.sim.batch:values_to_array",
        ),
    ),
    "engine.select": Target(
        functions=("repro.sim.engine:select_engine",),
    ),
    "flow.solve": Target(
        functions=("repro.flow.flowexpect:flowexpect_decide",),
        methods=(("repro.flow.fastpath:FlowExpectFastPath", "decide"),),
    ),
    "sketch": Target(
        methods=tuple(
            (cls, name)
            for cls, names in (
                ("repro.sketch.countmin:CountMinSketch",
                 ("increment", "estimate", "halve")),
                ("repro.sketch.tinylfu:TinyLfuFilter",
                 ("increment", "estimate")),
                ("repro.sketch.bloom:BloomFilter", ("add", "__contains__")),
                ("repro.sketch.admission:AdmissionFilter",
                 ("admit", "update_cutoff")),
            )
            for name in names
        ),
    ),
    "serve.submit": Target(
        methods=(("repro.serve.server:StreamServer", "submit"),),
    ),
    "serve.route": Target(
        methods=(("repro.serve.shard:ShardRouter", "shard_for"),),
    ),
    "serve.drain": Target(
        methods=(("repro.serve.server:StreamServer", "drain"),),
    ),
    "obs.record": Target(
        methods=tuple(
            ("repro.obs.recorder:CounterRecorder", name)
            for name in ("count", "timer", "event", "series")
        )
        + (("repro.obs.spans:SpanTracker", "record"),),
    ),
}

def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    __import__(module_name)
    return getattr(sys.modules[module_name], attr)


def _all_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children (spans of concurrent tasks) are counted once.  ``parent``
    holds the index of the parent span, or -1 for a root span.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    n = start.size
    out = end - start
    has_parent = np.flatnonzero(parent >= 0)
    if has_parent.size == 0:
        return out
    p = parent[has_parent]
    s = np.maximum(start[has_parent], start[p])
    e = np.maximum(np.minimum(end[has_parent], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    same = p[1:] == p[:-1]
    overlapping = np.zeros(n, dtype=bool)
    overlapping[p[1:][same & (s[1:] < e[:-1])]] = True
    simple = ~overlapping[p]
    covered = np.bincount(p[simple], weights=(e - s)[simple],
                          minlength=n).astype(np.float64)
    for idx in np.flatnonzero(overlapping):
        mask = p == idx
        total, reach = 0.0, -np.inf
        for a, b in zip(s[mask], e[mask]):
            a = max(a, reach)
            if b > a:
                total += b - a
                reach = b
        covered[idx] = total
    return out - covered


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: :meth:`install` on entry wraps every
    function of :data:`LAYERS`; exit restores the originals.  Several
    install/remove cycles may feed one tracer.
    """

    def __init__(self):
        self.names = list(LAYERS)
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("q")
        #: Extra counts computed from call results (victims, results, ...).
        self.counts: dict[str, int] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def add(self, name: str, n: int) -> None:
        """Add ``n`` to the result-derived count ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, layer: str, fn: Callable, after=None) -> Callable:
        index = self.names.index(layer)
        current = self._current
        starts, ends, layers, parents = (
            self.start, self.end, self.layer, self.parent
        )

        def enter():
            par = current.get()
            if par >= 0 and layers[par] == index:
                return None
            sid = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            layers.append(index)
            parents.append(par)
            token = current.set(sid)
            starts[sid] = perf_counter()
            return sid, token

        def leave(opened):
            sid, token = opened
            ends[sid] = perf_counter()
            current.reset(token)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                opened = enter()
                if opened is None:
                    return await fn(*args, **kwargs)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(opened)
                if after is not None:
                    after(self, args, kwargs, result)
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                opened = enter()
                if opened is None:
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(opened)
                if after is not None:
                    after(self, args, kwargs, result)
                return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        """Wrap every function and method named in :data:`LAYERS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, target in LAYERS.items():
            after = AFTER.get(layer)
            for path in target.functions:
                fn = _resolve(path)
                wrapper = self._wrap(layer, fn, after)
                for name, module in list(sys.modules.items()):
                    if not (name == "repro" or name.startswith("repro.")):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
            for cls_path, method in target.methods:
                for cls in _all_subclasses(_resolve(cls_path)):
                    fn = cls.__dict__.get(method)
                    if inspect.isfunction(fn):
                        self._patch(cls, method, self._wrap(layer, fn, after))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_started
            self._gc_started = None

    # -- results -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as NumPy arrays (times relative to the first span)."""
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        t0 = start.min() if start.size else 0.0
        return {
            "start": start - t0,
            "end": end - t0,
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "names": np.array(self.names),
        }

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per layer: (calls, inclusive seconds, self seconds)."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        inclusive = spans["end"] - spans["start"]
        k = len(self.names)
        calls = np.bincount(spans["layer"], minlength=k)
        incl = np.bincount(spans["layer"], weights=inclusive, minlength=k)
        slf = np.bincount(spans["layer"], weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(slf[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write all spans and the layer names to ``path`` (``.npz``)."""
        np.savez(path, **self.arrays())


# ----------------------------------------------------------------------
# Counts taken from call results
# ----------------------------------------------------------------------
def _after_select(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("policies.victims", len(result))


def _after_step(tracer: Tracer, args, kwargs, result) -> None:
    results = getattr(result, "results", None)
    if results is None:  # cache step: a hit is a result
        results = 1 if result.hit else 0
    tracer.add("sim.results", results)


def _after_batch_run(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("batch.trials", len(result.total_results)
               if hasattr(result, "total_results") else len(result.hits))


def _after_select_engine(tracer: Tracer, args, kwargs, result) -> None:
    prefer = kwargs.get("prefer", args[2] if len(args) > 2 else None)
    if prefer is None:
        return
    from repro.sim.engine import get_engine

    if result.name != get_engine(prefer).name:
        tracer.add("engine.fallbacks", 1)


AFTER = {
    "policies.select": _after_select,
    "sim.step": _after_step,
    "batch.run": _after_batch_run,
    "engine.select": _after_select_engine,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of a finished traced run (no serve/overhead
    figures, which the workload adds itself)."""
    t = tracer.layer_totals()
    c = tracer.counts
    select_calls = t["policies.select"][0]
    victims = c.get("policies.victims", 0)
    score_calls = t["policies.score"][0]
    steps, step_incl, step_self = t["sim.step"]
    record_calls = t["obs.record"][0]
    return {
        "streams.sample_s": t["streams.sample"][2],
        "core.prob_calls": t["core.prob"][0],
        "core.prob_s": t["core.prob"][2],
        "core.precompute_s": t["core.precompute"][2],
        "policies.select_s": t["policies.select"][2],
        "policies.select_calls": select_calls,
        "policies.score_calls": score_calls,
        "policies.victims": victims,
        "policies.scored_per_victim": (
            score_calls / victims if victims else 0.0),
        "sim.step_s": step_incl,
        "sim.step_self_s": step_self,
        "sim.steps": steps,
        "sim.results": c.get("sim.results", 0),
        "batch.run_s": t["batch.run"][2],
        "batch.convert_s": t["batch.convert"][2],
        "batch.trials": c.get("batch.trials", 0),
        "engine.fallbacks": c.get("engine.fallbacks", 0),
        "flow.solve_s": t["flow.solve"][2],
        "flow.solves": t["flow.solve"][0],
        "sketch.calls": t["sketch"][0],
        "sketch.s": t["sketch"][2],
        "serve.submit_s": t["serve.submit"][2],
        "serve.route_s": t["serve.route"][2],
        "serve.route_calls": t["serve.route"][0],
        "serve.drain_s": t["serve.drain"][2],
        "obs.record_s": t["obs.record"][2],
        "obs.record_calls": record_calls,
        "obs.calls_per_step": record_calls / steps if steps else 0.0,
        "gc.collections": tracer.gc_collections,
        "gc.pause_s": tracer.gc_pause_s,
    }
