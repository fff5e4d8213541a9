"""Metric definitions and the per-layer figures of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names; ``BENCHMARK.json`` must list exactly these (a test checks it).

Every workload prints every metric.  A layer that does not run on a
workload reads 0 there -- which is the prediction "this layer moves
nothing on this workload" made visible -- so layer figures that can be
0 are counts or shares of the traced time, never times: a benchmark time
must differ between runs.  The times in ``PER_LAYER`` are ones every
workload exercises.  The full span table, with every per-call median in
milliseconds, is in the run's context line and self-time tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import common
from tracing import LAYERS

#: (name, unit, better, bound)
#: Bounds: on a shared 2-core host the same run's times drift by 10-20%
#: over minutes (process CPU time drifts with them, so it is the host's
#: speed, not stolen time), which puts the timing bounds at the 0.25
#: ceiling.  The outcome metrics are exact for a seed; their bounds cover
#: the spread between seeds (at most 0.03 over ten seeds).  There is no
#: ``p50_ms``: the serve median (about 2 ms, half of it waking the
#: server's idle core and handing requests between threads) moved with
#: the host's load by twice as much as the CPU-bound figures, and its
#: spread over ten seeds (0.26) exceeded the 0.25 ceiling.  The run's
#: context line still records it.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("p99_ms", "ms", "lower", 0.25),
    ("miss_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("sim_throughput", "units", "higher", 0.1),
    ("sim_envy", "ratio", "lower", 0.1),
]

GATEWAY_STAGES = (
    "admission", "metrics", "coalesce", "warm-start", "cache", "solver",
    "decision-cache", "decision-solver",
)
SIM_PHASES = ("events", "profile", "decide", "round", "place", "metrics")

#: (name, unit, better)
PER_LAYER = (
    [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
    ]
    + [(f"layer.{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [
        ("server.requests", "count", "higher"),
        ("server.decode.share", "ratio", "lower"),
        ("server.encode.share", "ratio", "lower"),
        ("server.route.share", "ratio", "lower"),
        ("server.queue_wait.share", "ratio", "lower"),
        ("server.shard_imbalance", "ratio", "lower"),
        ("loadgen.late_share", "ratio", "lower"),
        ("gateway.hit.p50_ms", "ms", "lower"),
        ("gateway.miss.p50_ms", "ms", "lower"),
        ("gateway.cache.hit_ratio", "ratio", "higher"),
    ]
    + [(f"gateway.stage.{stage}.share", "ratio", "lower") for stage in GATEWAY_STAGES]
    + [
        ("allocators.allocate.count", "count", "lower"),
        ("allocators.allocate.p50_ms", "ms", "lower"),
        ("allocators.allocate.total_s", "s", "lower"),
        ("allocators.oef-coop.count", "count", "lower"),
        ("allocators.oef-noncoop.count", "count", "lower"),
        ("allocators.other.count", "count", "lower"),
        ("allocators.form_build.count", "count", "lower"),
        ("allocators.form_build.total_s", "s", "lower"),
        ("solver.form_cache.hit_ratio", "ratio", "higher"),
        ("solver.solve_form.count", "count", "lower"),
        ("solver.solve_form.total_s", "s", "lower"),
        ("solver.incremental.count", "count", "lower"),
        ("solver.incremental.share", "ratio", "lower"),
        ("solver.warm_verify.count", "count", "lower"),
        ("solver.warm_verify.accepted", "count", "higher"),
        ("solver.fallback.count", "count", "lower"),
    ]
    + [(f"simulator.{phase}.share", "ratio", "lower") for phase in SIM_PHASES]
    + [
        ("simulator.self.share", "ratio", "lower"),
        ("simulator.decide.hit_ratio", "ratio", "higher"),
        ("fleet.quota.share", "ratio", "lower"),
        ("fleet.regions.share", "ratio", "lower"),
        ("fleet.sink.flush_share", "ratio", "lower"),
        ("fleet.serial_fraction", "ratio", "lower"),
        ("fleet.checked_windows", "count", "higher"),
        ("fleet.unchecked_windows", "count", "lower"),
        ("properties.pe_check.count", "count", "lower"),
        ("properties.pe_check.share", "ratio", "lower"),
        ("properties.si_check.count", "count", "lower"),
        ("properties.si_check.share", "ratio", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    analysis: Dict[str, object],
    dump: Dict[str, object],
    *,
    overhead_ratio: float,
    requests: int = 0,
    late_share: float = 0.0,
    dispatched: Optional[List[int]] = None,
    fleet_windows: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """The ``PER_LAYER`` values of one traced run."""
    wall = analysis["wall"]
    total = analysis["total"]
    count = analysis["count"]
    durations = analysis["durations"]
    counts = dump["counts"]
    samples = dump["samples"]

    def share(name: str) -> float:
        return _ratio(total.get(name, 0.0), wall)

    def p50_ms(values) -> float:
        return 1e3 * common.median(values) if values else 0.0

    hits = len(samples.get("gateway.hit", []))
    misses = len(samples.get("gateway.miss", []))
    lookups = counts.get("solver.form_cache.lookups", 0)
    allocations = durations.get("allocators.allocate", [])
    values: Dict[str, float] = {
        "trace.wall_s": wall,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unattributed_share": _ratio(analysis["unattributed"], wall),
        "server.requests": requests,
        "server.decode.share": share("server.decode"),
        "server.encode.share": share("server.encode"),
        "server.route.share": share("server.route"),
        "server.queue_wait.share": _ratio(
            sum(samples.get("server.queue_wait", [])), wall
        ),
        "server.shard_imbalance": (
            _ratio(max(dispatched), sum(dispatched) / len(dispatched))
            if dispatched
            else 0.0
        ),
        "loadgen.late_share": late_share,
        "gateway.hit.p50_ms": p50_ms(samples.get("gateway.hit", [])),
        "gateway.miss.p50_ms": p50_ms(samples.get("gateway.miss", [])),
        "gateway.cache.hit_ratio": _ratio(hits, hits + misses),
        "allocators.allocate.count": len(allocations),
        "allocators.allocate.p50_ms": p50_ms(allocations),
        "allocators.allocate.total_s": sum(allocations),
        "allocators.form_build.count": count.get("allocators.form_build", 0),
        "allocators.form_build.total_s": total.get("allocators.form_build", 0.0),
        "solver.form_cache.hit_ratio": _ratio(
            counts.get("solver.form_cache.hits", 0), lookups
        ),
        "solver.solve_form.count": count.get("solver.solve_form", 0),
        "solver.solve_form.total_s": total.get("solver.solve_form", 0.0),
        "solver.incremental.count": count.get("solver.incremental", 0),
        "solver.incremental.share": share("solver.incremental"),
        "solver.warm_verify.count": count.get("solver.warm_verify", 0),
        "solver.warm_verify.accepted": counts.get("solver.warm_verify.accepted", 0),
        "solver.fallback.count": counts.get("solver.fallback", 0),
        "simulator.self.share": _ratio(
            analysis["self"].get("simulator.run", 0.0), wall
        ),
        "fleet.quota.share": share("fleet.quota"),
        "fleet.regions.share": share("fleet.regions"),
        "fleet.sink.flush_share": share("fleet.sink.flush"),
        "fleet.serial_fraction": _ratio(
            total.get("fleet.quota", 0.0), total.get("fleet.run", 0.0)
        ),
        "fleet.checked_windows": (fleet_windows or {}).get("checked", 0),
        "fleet.unchecked_windows": (fleet_windows or {}).get("unchecked", 0),
        "properties.pe_check.count": count.get("properties.pe_check", 0),
        "properties.pe_check.share": share("properties.pe_check"),
        "properties.si_check.count": count.get("properties.si_check", 0),
        "properties.si_check.share": share("properties.si_check"),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.share"] = _ratio(analysis["layer_self"][layer], wall)
    for label in ("oef-coop", "oef-noncoop", "other"):
        values[f"allocators.{label}.count"] = len(samples.get(f"allocators.{label}", []))
    for stage in GATEWAY_STAGES:
        values[f"gateway.stage.{stage}.share"] = _ratio(
            analysis["self"].get(f"gateway.stage.{stage}", 0.0), wall
        )
    for phase in SIM_PHASES:
        values[f"simulator.{phase}.share"] = share(f"simulator.{phase}")
    # a simulated round reaches the gateway only through its decision cache
    values["simulator.decide.hit_ratio"] = (
        values["gateway.cache.hit_ratio"] if total.get("simulator.run") else 0.0
    )
    return values


def detail(analysis: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, median call in ms."""
    return {
        name: {
            "calls": analysis["count"][name],
            "total_s": analysis["total"][name],
            "self_s": analysis["self"][name],
            "p50_ms": 1e3 * common.median(analysis["durations"][name]),
            "p99_ms": 1e3 * common.quantile(analysis["durations"][name], 0.99),
        }
        for name in sorted(analysis["count"])
    }


__all__ = ["END_TO_END", "PER_LAYER", "UNITS", "detail", "per_layer"]
