"""``serve-mix``: open-loop HTTP solves against ``repro serve --shards 2``.

The payload pool is 16 seeded 8-user x 4-type instances under both
``oef-coop`` and ``oef-noncoop`` (32 bodies), sent once before timing
so the shard caches hold them.  95% of timed requests draw from the pool
(cache hits: server codec, routing and the gateway hit path); 5% are
fresh 16-32-user x 4-6-type instances (cache misses: allocator and LP
work, plus cache writes).  Fresh instances are seeded from the run seed,
the phase and the request index, so none repeats within a server's life.

Timed part: ``BLOCKS`` rounds, each a block of requests at the nominal
300 req/s (``p99_ms``, ``miss_p50_ms``, the outcome metrics and the
recorded median) followed by a saturation chunk (``ops_per_s``: completed
requests per second while every connection always has a request
waiting).

A rate ladder (the highest rate, in steps 8% apart, whose p99 stays
within 100 ms without a growing backlog) was tried first: on a 2-core
host its answer moved between steps 20 and 26 (560 to 890 req/s) from
run to run, an interquartile spread near 0.3 over five seeds, because
p99 near the knee of a one-second step swings with every stall.
Saturation throughput over several seconds is the steadier measure of
the same capacity.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import re
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

import common
import loadgen

_now = time.perf_counter

POOL_INSTANCES = 16
POOL_SHAPE = (8, 4)
SCHEDULERS = ("oef-coop", "oef-noncoop")
MISS_SHARE = 0.05
#: (users, GPU types, scheduler) of fresh instances: 16-32 users x 4-6 types.
FRESH_SHAPES = [
    (users, types, scheduler)
    for users in (16, 20, 24, 28, 32)
    for types in (4, 5, 6)
    for scheduler in SCHEDULERS
]
#: About 40% of the saturation rate at HEAD on a 2-core host.
NOMINAL_RPS = 300.0
#: Share of ``--seconds`` spent at the nominal rate; the saturation
#: chunks take most of the rest (about 0.75 s each at HEAD, 2-core host).
NOMINAL_SHARE = 0.75
#: Requests queued at once in one saturation chunk: its 30 fresh requests
#: cover ``FRESH_SHAPES`` once, so every chunk carries the same miss work.
SATURATION_CHUNK = 600
#: The timed part is this many rounds of a nominal block followed by a
#: saturation chunk, and each figure is the median over the blocks (or
#: chunks): a stall of the host then sinks one block instead of the run,
#: and every figure samples the whole run rather than one end of it.  Over
#: one server's life, 4-second blocks read p50s from 1.9 to 3.5 ms.
BLOCKS = 12
#: Servers started per run; ``setup_s`` is the median of their set-ups.
SETUPS = 5

_LISTENING = re.compile(r"listening on http://[^\s:]+:(\d+)")


def _seed_of(*parts: object) -> int:
    text = ":".join(str(part) for part in ("serve-mix",) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _body(instance, scheduler: str) -> bytes:
    from repro.core.serialization import instance_to_dict

    return json.dumps(
        {"instance": instance_to_dict(instance), "scheduler": scheduler},
        sort_keys=True,
    ).encode()


def pool_bodies(seed: int) -> List[bytes]:
    from repro.workloads.generator import random_instance

    bodies = []
    for index in range(POOL_INSTANCES):
        instance = random_instance(*POOL_SHAPE, seed=_seed_of(seed, "pool", index))
        bodies.extend(_body(instance, name) for name in SCHEDULERS)
    return bodies


def fresh_body(seed: int, phase: int, index: int, shape: Tuple[int, int, str]) -> bytes:
    from repro.workloads.generator import random_instance

    users, types, scheduler = shape
    instance = random_instance(users, types, seed=_seed_of(seed, "fresh", phase, index))
    return _body(instance, scheduler)


def plan(seed: int, phase: int, rate: float, count: int, pool: List[bytes]):
    """Send offsets, bodies and a fresh-instance flag per request.

    Exactly one request in every ``1 / MISS_SHARE`` is fresh, and fresh
    requests walk ``FRESH_SHAPES`` from a seeded start: every run then
    sends the same mix of miss sizes, and the seed varies their contents
    and arrival times.  Drawing shapes at random made the median miss
    swing by a third between seeds on 50-odd misses a phase.
    """
    rng = random.Random(_seed_of(seed, "plan", phase))
    offsets = loadgen.poisson_schedule(rng, rate, count)
    every = round(1 / MISS_SHARE)
    slot = rng.randrange(every)
    start = rng.randrange(len(FRESH_SHAPES))
    bodies, fresh = [], []
    for index in range(count):
        if index % every == slot:
            shape = FRESH_SHAPES[(start + index // every) % len(FRESH_SHAPES)]
            bodies.append(fresh_body(seed, phase, index, shape))
            fresh.append(True)
        else:
            bodies.append(pool[rng.randrange(len(pool))])
            fresh.append(False)
    return offsets, bodies, fresh


# -- reference answers ------------------------------------------------------------
class Reference:
    """The benchmark's own in-process ``Gateway.dispatch`` of each body."""

    def __init__(self):
        from repro.gateway import Gateway, bare_pipeline

        self.gateway = Gateway(bare_pipeline())
        self.answers: Dict[bytes, bytes] = {}

    @staticmethod
    def canonical(payload: Dict[str, object]) -> bytes:
        from repro.server.protocol import json_bytes

        # ``served`` holds per-serving telemetry (timings, cache counters)
        return json_bytes({k: v for k, v in payload.items() if k != "served"})

    def expected(self, body: bytes) -> bytes:
        answer = self.answers.get(body)
        if answer is None:
            from repro.server.protocol import parse_json, parse_solve, response_payload

            request = parse_solve(parse_json(body), self.gateway.registry)
            answer = self.canonical(response_payload(self.gateway.dispatch(request)))
            self.answers[body] = answer
        return answer

    def corrupt(self, body: bytes) -> None:
        """Negative control: make one reference answer wrong."""
        self.answers[body] = self.expected(body) + b" "

    def check(self, body: bytes, outcome: loadgen.Outcome) -> bool:
        if outcome.status != 200:
            return False
        try:
            served = self.canonical(json.loads(outcome.body))
        except ValueError:
            return False
        return served == self.expected(body)


# -- server processes ---------------------------------------------------------------
def start_server(
    spans_path: Optional[str] = None, cpus: Optional[Set[int]] = None
) -> Tuple[common.Child, int, float]:
    if spans_path is None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0", "--shards", "2"]
    else:
        argv = [
            sys.executable, os.path.join(common.HERE, "launch_serve.py"),
            spans_path, "--port", "0", "--shards", "2",
        ]
    child = common.Child(argv, cpus=cpus)
    try:
        match = _LISTENING.search(child.wait_for("repro server listening on"))
        port = int(match.group(1))
        while True:
            try:
                status, _ = asyncio.run(loadgen.get("127.0.0.1", port, "/healthz"))
                if status == 200:
                    break
            except OSError:
                pass
            time.sleep(0.005)
    except BaseException:
        child.kill()
        raise
    return child, port, _now() - child.spawned


def stop_server(child: common.Child) -> None:
    child.interrupt()
    child.proc.stdout.read()  # the drained server prints its final metrics
    child.reap()


def server_metrics(port: int) -> Dict[str, object]:
    status, body = asyncio.run(loadgen.get("127.0.0.1", port, "/metrics"))
    return json.loads(body) if status == 200 else {}


# -- phases ------------------------------------------------------------------------
class Run:
    """Everything one server saw, for checking after the timed part."""

    def __init__(self, seed: int, port: int, reference: Reference, connections: int):
        self.seed = seed
        self.port = port
        self.reference = reference
        self.connections = connections
        self.sent: List[Tuple[bytes, loadgen.Outcome]] = []
        self.phases = 0

    def phase(self, rate: float, count: int, pool: List[bytes]):
        self.phases += 1
        offsets, bodies, fresh = plan(self.seed, self.phases, rate, count, pool)
        result = asyncio.run(
            loadgen.run_phase("127.0.0.1", self.port, offsets, bodies, self.connections)
        )
        self.sent.extend(zip(bodies, result.outcomes))
        return result, list(zip(result.outcomes, fresh))

    def burst(self, count: int, pool: List[bytes]):
        """``count`` requests sent at once (pipelined; see ``run_burst``)."""
        self.phases += 1
        _, bodies, fresh = plan(self.seed, self.phases, float("inf"), count, pool)
        result = asyncio.run(
            loadgen.run_burst("127.0.0.1", self.port, bodies, self.connections)
        )
        self.sent.extend(zip(bodies, result.outcomes))
        return result, list(zip(result.outcomes, fresh))

    def warm(self, pool: List[bytes]) -> None:
        """Each pool body once, back to back, so the shard caches hold it."""
        result = asyncio.run(
            loadgen.run_phase(
                "127.0.0.1", self.port, [0.0] * len(pool), pool, 1
            )
        )
        self.sent.extend(zip(pool, result.outcomes))

    def failures(self) -> int:
        return sum(
            0 if self.reference.check(body, outcome) else 1
            for body, outcome in self.sent
        )


def saturation_chunk(run: Run, pool: List[bytes]) -> float:
    """Completed requests per second with a request always waiting.

    The chunk's ``SATURATION_CHUNK`` requests go out at once, pipelined a
    few deep on each connection, so the server is never waiting for one.
    """
    result, rows = run.burst(SATURATION_CHUNK, pool)
    ok = sum(1 for outcome, _ in rows if outcome.status == 200)
    return ok / result.duration_s


def block_figures(
    blocks: List[List[Tuple[loadgen.Outcome, bool]]]
) -> Dict[str, List[float]]:
    """p50, p99 and fresh-request p50 latency (s) of each nominal block."""
    figures: Dict[str, List[float]] = {"p50": [], "p99": [], "miss_p50": []}
    for rows in blocks:
        latencies = [outcome.latency for outcome, _ in rows]
        figures["p50"].append(common.median(latencies))
        figures["p99"].append(common.quantile(latencies, 0.99))
        figures["miss_p50"].append(
            common.median([outcome.latency for outcome, fresh in rows if fresh])
        )
    return figures


def outcome_metrics(sent: List[Tuple[bytes, loadgen.Outcome]]) -> Tuple[float, float]:
    """Mean total throughput and mean envy spread of the served allocations,
    one per distinct request body (a decision counts once, however often
    it was served; per request, the 32 pool bodies outweighed the fresh
    ones and the mean envy swung by 0.12 between seeds, per body 0.02)."""
    served = {
        body: outcome.body for body, outcome in sent if outcome.status == 200
    }
    throughput, envy = [], []
    for payload in served.values():
        allocation = json.loads(payload)["allocation"]
        users = allocation["user_throughput"]
        throughput.append(float(allocation["total_efficiency"]))
        top = max(users)
        envy.append((top - min(users)) / top if top > 0 else 0.0)
    if not throughput:
        return 0.0, 0.0
    return sum(throughput) / len(throughput), sum(envy) / len(envy)


def measure(seed: int, seconds: float, corrupt: bool, spans_path: Optional[str] = None,
            setups: int = SETUPS, with_saturation: bool = True):
    """One server lifetime: set-ups, warm-up, then nominal blocks, each
    followed by a saturation chunk (blocks only without saturation)."""
    connections = common.cores()
    original_cpus = os.sched_getaffinity(0)
    server_cpus, generator_cpus = common.cpu_split()
    if generator_cpus:
        os.sched_setaffinity(0, generator_cpus)
    try:
        return _measure(
            seed, seconds, corrupt, spans_path, setups, with_saturation,
            connections, server_cpus,
        )
    finally:
        os.sched_setaffinity(0, original_cpus)


def _measure(seed, seconds, corrupt, spans_path, setups, with_saturation,
             connections, server_cpus):
    pool = pool_bodies(seed)
    reference = Reference()
    for body in pool:
        reference.expected(body)
    if corrupt:
        reference.corrupt(pool[0])

    setup_times = []
    for _ in range(setups - 1):
        child, _, setup = start_server(cpus=server_cpus)
        setup_times.append(setup)
        stop_server(child)
    child, port, setup = start_server(spans_path, server_cpus)
    setup_times.append(setup)
    try:
        run = Run(seed, port, reference, connections)
        run.warm(pool)
        # at least one fresh request per block
        block_size = max(
            round(1 / MISS_SHARE), int(NOMINAL_RPS * NOMINAL_SHARE * seconds / BLOCKS)
        )
        blocks, chunks, nominal_sent = [], [], []
        started = _now()
        for _ in range(BLOCKS):
            _, rows = run.phase(NOMINAL_RPS, block_size, pool)
            blocks.append(rows)
            nominal_sent.extend(run.sent[-block_size:])
            if with_saturation:
                chunks.append(saturation_chunk(run, pool))
        timed_s = _now() - started
        metrics_payload = server_metrics(port)
    finally:
        stop_server(child)

    rows = [row for block in blocks for row in block]
    latencies = [o.latency for o, _ in rows]
    miss = [o.latency for o, fresh in rows if fresh]
    sim_throughput, sim_envy = outcome_metrics(nominal_sent)
    failed = run.failures()
    return {
        "setup_times": setup_times,
        "peak_rss_mb": child.peak_rss_mb,
        "latencies": latencies,
        "blocks": block_figures(blocks),
        "miss_latencies": miss,
        "lags": [o.lag for o, _ in rows],
        "ops_per_s": common.median(chunks) if chunks else float("nan"),
        "saturation_chunks": chunks,
        "sim_throughput": sim_throughput,
        "sim_envy": sim_envy,
        "attempted": len(run.sent),
        "failed": failed,
        "timed_s": timed_s,
        "client_seconds": sum(o.latency for _, o in run.sent),
        "requests": len(run.sent),
        "server_metrics": metrics_payload,
        "connections": connections,
    }


__all__ = ["measure"]
