"""Open-loop HTTP/1.1 load over a few keep-alive connections.

Arrivals follow a seeded schedule and are never gated on responses: a
request that finds every connection busy waits in the generator's queue,
and that wait counts against the server, because each latency is timed
from the request's *scheduled* send time.  The generator also reports
its own lag (actual enqueue minus scheduled time), so a late generator
is visible instead of silently lowering the offered rate.

One process drives at most ``nproc`` connections; there is no
per-request connect, so the figures describe the server's request path
rather than TCP set-up.  ``run_burst`` is the saturation counterpart:
everything is due at once and each connection pipelines a few requests.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: The producer sleeps until this close to a send time and then polls the
#: clock.  A timed sleep wakes a millisecond or two late (epoll rounds its
#: timeout up to whole milliseconds, and an idle core has to be woken),
#: and that lag, which varies with the host, would count against the
#: server: polling cut the generator's p99 lag from 2 ms to 0.1 ms and the
#: serve p50 from 2.9 to 2.1 ms on a 2-core host.  Polling through the
#: whole phase instead kept this core busy even in the saturation phase
#: and made the server's throughput swing between runs (interquartile
#: spread 0.05 -> 0.13 over five seeds).
SPIN_S = 0.002


class Connection:
    """One keep-alive client connection speaking just enough HTTP/1.1."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        self.send(method, path, body)
        return await self.receive()

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        """Queue one request on the open connection (responses come back
        in order, so several may be outstanding)."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)

    async def receive(self) -> Tuple[int, bytes]:
        """Read the next response: (status, body)."""
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        closing = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                closing = True
        payload = await self.reader.readexactly(length) if length else b""
        if closing:
            await self.close()
        return status, payload


@dataclass
class Outcome:
    """One request: HTTP status (``None`` on transport error), latency
    from the scheduled send time, generator lag, and the response body."""

    status: Optional[int]
    latency: float
    lag: float
    body: bytes = b""


@dataclass
class PhaseResult:
    outcomes: List[Outcome] = field(default_factory=list)
    duration_s: float = 0.0


def poisson_schedule(rng: random.Random, rate: float, count: int) -> List[float]:
    """``count`` send offsets (s) of a Poisson process at ``rate``/s
    (all 0 for an infinite rate: a burst)."""
    offsets, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


async def run_phase(
    host: str,
    port: int,
    offsets: Sequence[float],
    bodies: Sequence[bytes],
    connections: int,
    timeout_s: float = 30.0,
) -> PhaseResult:
    """Send ``bodies[i]`` to ``POST /solve`` at ``offsets[i]`` seconds."""
    loop = asyncio.get_running_loop()
    pool = [Connection(host, port) for _ in range(connections)]
    for conn in pool:
        await conn.open()
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: List[Outcome] = [None] * len(offsets)  # every slot is filled
    start = loop.time() + 0.02

    async def produce() -> None:
        for index, offset in enumerate(offsets):
            due = start + offset
            while True:
                delay = due - loop.time()
                if delay <= 0:
                    break
                # sleep(0) still lets the consumers read their responses
                await asyncio.sleep(delay - SPIN_S if delay > SPIN_S else 0)
            queue.put_nowait((index, due, loop.time()))
        for _ in pool:
            queue.put_nowait(None)

    async def consume(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, enqueued = item
            try:
                status, body = await asyncio.wait_for(
                    conn.request("POST", "/solve", bodies[index]), timeout_s
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError, IndexError):
                status, body = None, b""
                await conn.close()  # reopened lazily by the next request
            outcomes[index] = Outcome(
                status, loop.time() - due, enqueued - due, body
            )

    await asyncio.gather(produce(), *(consume(conn) for conn in pool))
    finished = loop.time()
    for conn in pool:
        await conn.close()
    return PhaseResult(outcomes=outcomes, duration_s=finished - start)


async def run_burst(
    host: str,
    port: int,
    bodies: Sequence[bytes],
    connections: int,
    depth: int = 4,
    timeout_s: float = 30.0,
) -> PhaseResult:
    """Send every body to ``POST /solve`` at once, pipelined.

    Each connection keeps up to ``depth`` requests outstanding, so the
    server finds its next request already waiting in the socket when it
    finishes one, however late this process wakes up to read the
    response.  With one request per connection the server idled while
    the generator turned a response around, and the rate moved with how
    quickly the host woke this process.  Latency counts from the start
    of the burst; a connection that fails fails everything it still held.
    """
    loop = asyncio.get_running_loop()
    pool = [Connection(host, port) for _ in range(connections)]
    for conn in pool:
        await conn.open()
    outcomes: List[Outcome] = [None] * len(bodies)  # every slot is filled
    order = iter(range(len(bodies)))
    start = loop.time()

    async def drive(conn: Connection) -> None:
        pending: List[int] = []
        try:
            while True:
                while len(pending) < depth:
                    index = next(order, None)
                    if index is None:
                        break
                    conn.send("POST", "/solve", bodies[index])
                    pending.append(index)
                if not pending:
                    return
                status, body = await asyncio.wait_for(conn.receive(), timeout_s)
                index = pending.pop(0)
                outcomes[index] = Outcome(status, loop.time() - start, 0.0, body)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError, IndexError, AttributeError):
            for index in pending:
                outcomes[index] = Outcome(None, loop.time() - start, 0.0)

    await asyncio.gather(*(drive(conn) for conn in pool))
    finished = loop.time()
    for conn in pool:
        await conn.close()
    missing = [index for index, outcome in enumerate(outcomes) if outcome is None]
    for index in missing:  # left unsent when every connection had failed
        outcomes[index] = Outcome(None, finished - start, 0.0)
    return PhaseResult(outcomes=outcomes, duration_s=finished - start)


async def get(host: str, port: int, path: str) -> Tuple[int, bytes]:
    conn = Connection(host, port)
    try:
        return await conn.request("GET", path)
    finally:
        await conn.close()


__all__ = [
    "Connection", "Outcome", "PhaseResult", "get", "poisson_schedule", "run_burst",
    "run_phase",
]
