"""Benchmark-owned tracing: spans around the calls into each layer.

Nothing under ``src/`` changes.  :func:`install` replaces public
functions and methods of the program with thin wrappers, in the process
being traced, before the workload starts.  Each wrapper records a span
(name, start, end, parent) in memory; :meth:`Tracer.dump` writes them
out once at exit and :func:`analyse` turns a dump into a self-time tree
and the per-layer metrics.

Parents follow ``contextvars`` (so concurrent asyncio connection tasks
keep separate stacks).  The one cross-thread hop -- the server's
``ShardPool.dispatch`` handing a request to a shard executor thread --
is joined by the :class:`~repro.gateway.Request` object itself: the
dispatch span registers it, and the ``Gateway.solve`` span that receives
the same object adopts the dispatch span as its parent.

Span names start with their layer: ``server``, ``gateway``,
``allocators``, ``solver``, ``simulator``, ``fleet`` or ``properties``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "server",
    "gateway",
    "allocators",
    "solver",
    "simulator",
    "fleet",
    "properties",
)

_now = time.perf_counter


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]``; parent ``-1`` marks a root.
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        #: ``id(request)`` -> ``(span id, start)`` for the executor hop.
        self._handoff: Dict[int, Tuple[int, float]] = {}
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def current_name(self) -> Optional[str]:
        sid = self._current.get()
        return None if sid < 0 else self.spans[sid][0]

    def open(self, name: str, parent: Optional[int] = None):
        if parent is None:
            parent = self._current.get()
        record = [name, _now(), 0.0, parent]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(record)
        return sid, self._current.set(sid)

    def close(self, sid: int, token) -> float:
        record = self.spans[sid]
        record[2] = _now()
        self._current.reset(token)
        return record[2] - record[1]

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def hand_off(self, key: object, sid: int, start: float) -> None:
        self._handoff[id(key)] = (sid, start)

    def take_handoff(self, key: object) -> Optional[Tuple[int, float]]:
        return self._handoff.pop(id(key), None)

    def dump(self, path: str, extra: Optional[Dict[str, object]] = None) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "samples": {k: list(v) for k, v in self.samples.items()},
                    "extra": extra or {},
                },
                handle,
            )


# -- wrapper factories --------------------------------------------------------
def _span(tracer: Tracer, name, fn: Callable, *, nested: bool = True,
          after: Optional[Callable] = None) -> Callable:
    """Sync wrapper.  ``name`` may be a callable of the call's arguments;
    ``nested=False`` passes straight through when the caller is already
    inside a span of the same name (one span per logical operation);
    ``after(args, result, seconds)`` observes the outcome."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name(*args) if callable(name) else name
        if not nested and tracer.current_name() == label:
            return fn(*args, **kwargs)
        sid, token = tracer.open(label)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            seconds = tracer.close(sid, token)
            if after is not None:
                after(args, kwargs, result, seconds)

    traced.__perfbench_original__ = fn
    return traced


def _async_span(tracer: Tracer, name: str, fn: Callable, *,
                handoff_arg: Optional[int] = None) -> Callable:
    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        sid, token = tracer.open(name)
        if handoff_arg is not None:
            tracer.hand_off(args[handoff_arg], sid, tracer.spans[sid][1])
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.close(sid, token)

    traced.__perfbench_original__ = fn
    return traced


def _replace_function(module, attr: str, wrapper_of: Callable) -> None:
    """Swap ``module.attr`` and every by-name import of it in ``repro.*``."""
    original = getattr(module, attr)
    wrapped = wrapper_of(original)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    setattr(module, attr, wrapped)


def _replace_method(cls: type, attr: str, wrapper_of: Callable) -> bool:
    """Wrap ``cls.attr`` if the class defines it itself."""
    if attr not in cls.__dict__:
        return False
    setattr(cls, attr, wrapper_of(cls.__dict__[attr]))
    return True


def _subclasses(base: type) -> List[type]:
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return [base] + found


# -- installation -------------------------------------------------------------
def install(tracer: Tracer, *, server: bool = False) -> None:
    """Wrap every layer boundary.  Call after imports, before the workload
    builds its objects (gateways bind stage methods at construction)."""
    import repro  # noqa: F401 - loads the registry and every allocator
    import repro.fleet.simulator  # noqa: F401
    import repro.jsonlio as jsonlio
    import repro.scenarios.runner  # noqa: F401
    from repro.cluster.metrics import MetricsCollector
    from repro.cluster.placement import Placer
    from repro.cluster.profiler import ProfilingAgent
    from repro.cluster.rounding import DeviationRounder, NaiveRounder
    from repro.cluster.schedulers import FairShareScheduler
    from repro.core import properties
    from repro.core.base import Allocator
    from repro.core.weighted import WeightedOEF
    from repro.fleet import rebalance
    from repro.fleet import simulator as fleet_simulator
    from repro.gateway.gateway import Gateway
    from repro.gateway.middleware import Middleware
    from repro.registry import REGISTRY
    from repro.scenarios.events import ScenarioEvent
    from repro.scenarios.runner import ScenarioRunner
    from repro.solver import problem, warm
    from repro.solver.formcache import FormCache
    from repro.solver.incremental import IncrementalLP

    # -- server -------------------------------------------------------------
    if server:
        from repro.server import protocol
        from repro.server.app import ReproServer
        from repro.server.shards import ShardPool

        _replace_method(
            ReproServer, "_handle_solve",
            lambda fn: _async_span(tracer, "server.request", fn),
        )
        for attr in ("parse_json", "parse_solve"):
            _replace_function(
                protocol, attr, lambda fn: _span(tracer, "server.decode", fn)
            )
        for attr in ("response_payload", "json_bytes"):
            _replace_function(
                protocol, attr, lambda fn: _span(tracer, "server.encode", fn)
            )
        _replace_method(
            ShardPool, "route", lambda fn: _span(tracer, "server.route", fn)
        )
        _replace_method(
            ShardPool, "dispatch",
            lambda fn: _async_span(tracer, "server.dispatch", fn, handoff_arg=1),
        )

    # -- gateway ------------------------------------------------------------
    def gateway_entry(name: str, fn: Callable) -> Callable:
        """``Gateway.solve``/``dispatch``: adopt a dispatch parent across
        the executor hop, classify hit/miss, record queue wait."""

        @functools.wraps(fn)
        def traced(self, request, *args, **kwargs):
            parent = None
            if tracer.current_name() is None:
                handoff = tracer.take_handoff(request)
                if handoff is not None:
                    parent = handoff[0]
                    tracer.sample("server.queue_wait", _now() - handoff[1])
            if tracer.current_name() in ("gateway.solve", "gateway.dispatch"):
                return fn(self, request, *args, **kwargs)
            sid, token = tracer.open(name, parent)
            response = None
            try:
                response = fn(self, request, *args, **kwargs)
                return response
            finally:
                seconds = tracer.close(sid, token)
                if response is not None:
                    kind = "hit" if response.from_cache else "miss"
                    tracer.sample(f"gateway.{kind}", seconds)

        traced.__perfbench_original__ = fn
        return traced

    _replace_method(Gateway, "solve", lambda fn: gateway_entry("gateway.solve", fn))
    _replace_method(
        Gateway, "dispatch", lambda fn: gateway_entry("gateway.dispatch", fn)
    )
    for cls in _subclasses(Middleware):
        _replace_method(
            cls, "handle",
            lambda fn: _span(tracer, lambda stage, *_: f"gateway.stage.{stage.name}", fn),
        )

    # -- allocators ---------------------------------------------------------
    labels = {info.factory: info.name for info in REGISTRY}

    def note_allocation(args, kwargs, result, seconds):
        allocator = args[0]
        if isinstance(allocator, WeightedOEF):
            label = f"oef-{'coop' if allocator.mode == 'cooperative' else 'noncoop'}"
        else:
            label = labels.get(type(allocator), "other")
        if label not in ("oef-coop", "oef-noncoop"):
            label = "other"
        tracer.sample(f"allocators.{label}", seconds)

    for cls in _subclasses(Allocator) + [WeightedOEF]:
        for attr in ("allocate", "allocate_with_state"):
            _replace_method(
                cls, attr,
                lambda fn: _span(tracer, "allocators.allocate", fn,
                                 nested=False, after=note_allocation),
            )

    def form_cache_entry(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self, key, builder):
            built = []

            def traced_builder():
                built.append(True)
                sid, token = tracer.open("allocators.form_build")
                try:
                    return builder()
                finally:
                    tracer.close(sid, token)

            form = fn(self, key, traced_builder)
            tracer.count("solver.form_cache.lookups")
            if not built:
                tracer.count("solver.form_cache.hits")
            return form

        return traced

    _replace_method(FormCache, "get_or_build", form_cache_entry)

    # -- solver -------------------------------------------------------------
    def note_solve(args, kwargs, result, seconds):
        requested = kwargs.get("backend", args[1] if len(args) > 1 else "auto")
        expected = "scipy" if requested == "auto" else requested
        if result is not None and result.stats.backend != expected:
            tracer.count("solver.fallback")

    _replace_function(
        problem, "solve_form",
        lambda fn: _span(tracer, "solver.solve_form", fn, after=note_solve),
    )
    _replace_method(
        IncrementalLP, "solve",
        lambda fn: _span(tracer, "solver.incremental", fn),
    )

    def note_warm(args, kwargs, result, seconds):
        if result is not None:
            tracer.count("solver.warm_verify.accepted")

    _replace_function(
        warm, "try_warm_solve",
        lambda fn: _span(tracer, "solver.warm_verify", fn, after=note_warm),
    )

    # -- simulator ----------------------------------------------------------
    _replace_method(
        ScenarioRunner, "run", lambda fn: _span(tracer, "simulator.run", fn)
    )
    for cls in _subclasses(ScenarioEvent):
        _replace_method(
            cls, "apply", lambda fn: _span(tracer, "simulator.events", fn)
        )
    _replace_method(
        ProfilingAgent, "profile_tenant",
        lambda fn: _span(tracer, "simulator.profile", fn),
    )
    for cls in _subclasses(FairShareScheduler):
        _replace_method(
            cls, "shares", lambda fn: _span(tracer, "simulator.decide", fn)
        )
    for cls in (NaiveRounder, DeviationRounder):
        _replace_method(
            cls, "round_shares", lambda fn: _span(tracer, "simulator.round", fn)
        )
    _replace_method(
        Placer, "place_round", lambda fn: _span(tracer, "simulator.place", fn)
    )
    _replace_method(
        MetricsCollector, "record_round",
        lambda fn: _span(tracer, "simulator.metrics", fn),
    )

    # -- fleet and properties ----------------------------------------------
    _replace_method(
        fleet_simulator.FleetSimulator, "run",
        lambda fn: _span(tracer, "fleet.run", fn),
    )
    _replace_function(
        rebalance, "compute_quota_schedule",
        lambda fn: _span(tracer, "fleet.quota", fn),
    )
    _replace_function(
        fleet_simulator, "_run_region",
        lambda fn: _span(tracer, "fleet.regions", fn),
    )
    _replace_function(
        jsonlio, "append_jsonl_lines",
        lambda fn: _span(tracer, "fleet.sink.flush", fn),
    )
    _replace_function(
        properties, "check_pareto_efficiency",
        lambda fn: _span(tracer, "properties.pe_check", fn),
    )
    _replace_function(
        properties, "check_sharing_incentive",
        lambda fn: _span(tracer, "properties.si_check", fn),
    )


# -- analysis -----------------------------------------------------------------
def self_times(spans: List[list]) -> Tuple[List[float], List[float]]:
    """Per-span duration and self time (duration minus child durations)."""
    durations = [end - start for _, start, end, _ in spans]
    child_sum = [0.0] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += durations[index]
    selfs = [max(d - c, 0.0) for d, c in zip(durations, child_sum)]
    return durations, selfs


def tree(spans: List[list], selfs: List[float], durations: List[float]):
    """Aggregate by ancestry path: path -> [count, total_s, self_s]."""
    paths: Dict[int, Tuple[str, ...]] = {}
    rows: Dict[Tuple[str, ...], list] = {}
    for index, (name, _, _, parent) in enumerate(spans):
        path = (paths[parent] if parent >= 0 else ()) + (name,)
        paths[index] = path
        row = rows.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += durations[index]
        row[2] += selfs[index]
    return rows


def render_tree(rows, wall: float) -> str:
    lines = [f"{'span':<58} {'calls':>8} {'total s':>9} {'self s':>9} {'self %':>7}"]
    for path in sorted(rows):
        count, total, own = rows[path]
        label = "  " * (len(path) - 1) + path[-1]
        share = 100.0 * own / wall if wall > 0 else 0.0
        lines.append(
            f"{label:<58} {count:>8} {total:>9.4f} {own:>9.4f} {share:>6.1f}%"
        )
    return "\n".join(lines)


def analyse(dump: Dict[str, object], wall: float) -> Dict[str, object]:
    """Self-time accounting of one dump against the traced wall time.

    ``wall`` is the time the accounting must explain: the timed region
    for a fleet run, and the summed client-observed request time
    for serve (where many requests overlap in one wall second).
    """
    spans = dump["spans"]
    durations, selfs = self_times(spans)
    by_name_total: Dict[str, float] = defaultdict(float)
    by_name_self: Dict[str, float] = defaultdict(float)
    by_name_count: Dict[str, int] = defaultdict(int)
    by_name_durations: Dict[str, List[float]] = defaultdict(list)
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for index, span in enumerate(spans):
        name = span[0]
        by_name_total[name] += durations[index]
        by_name_self[name] += selfs[index]
        by_name_count[name] += 1
        by_name_durations[name].append(durations[index])
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[index]
    attributed = sum(layer_self.values())
    rows = tree(spans, selfs, durations)
    return {
        "total": dict(by_name_total),
        "self": dict(by_name_self),
        "count": dict(by_name_count),
        "durations": dict(by_name_durations),
        "layer_self": layer_self,
        "wall": wall,
        "unattributed": wall - attributed,
        "tree": render_tree(rows, wall),
    }


__all__ = ["LAYERS", "Tracer", "analyse", "install", "render_tree"]
