"""The ``gateway-mix-open`` workload: an open-loop WebSocket load
generator against ``repro.serve.http.HttpGateway`` (served by
``serve_child.py`` in its own process).

Arrivals are a seeded Poisson process over two WebSocket connections, a
70/30 mix of ``alexnet-64`` / ``resnet18-32``.  The offered rate steps
through a fixed ladder -- light, nominal, near the knee -- with a quiet
gap between steps so one step's backlog does not leak into the next.
Every request is timed from its *scheduled* send time, so a late
generator or a stalled consumer shows up as latency instead of silently
lowering the offered load.  A last, closed-loop step keeps a fixed number
of requests outstanding, so the rate at which it completes them is the
pair's capacity.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench_common as bc

#: Ladder: (name, offered requests per second, share of the ladder's
#: seconds); a rate of ``None`` is the closed-loop step, which must be the
#: last.  On the 2-vCPU x86_64 VM this benchmark was built on (cffi
#: backend, Python 3.11, numpy 2.4) the server + gateway pair completed
#: between 2200/s and 5700/s when overloaded, depending on how busy the
#: host was.  "light", "nominal" and "near" are 20%, 50% and 70% of the
#: lower figure, so that a slow phase of the host does not push them past
#: the knee.
LADDER = (
    ("light", 440.0, 0.15),
    ("nominal", 1100.0, 0.3),
    ("near", 1540.0, 0.2),
    ("saturate", None, 0.35),
)
NOMINAL_STEP = 1
SATURATE_STEP = 3
#: Requests the closed-loop step keeps outstanding, split evenly over the
#: connections.  A fixed depth keeps its batches, and the server's memory,
#: the same however fast the host runs; at the rates above it waits about
#: 25-60 ms per request, so the server never idles.
SATURATE_OUTSTANDING = 128
#: Requests drawn for the closed-loop step per second of it: more than it
#: can complete, so that it runs for its whole duration.
SATURATE_POOL_RPS = 15000
#: p99 latency limit (from scheduled send) a step must meet to count
#: toward ``max_rps_within_slo``, together with no growing backlog.
LATENCY_LIMIT_MS = 100.0
#: Quiet time between ladder steps.
STEP_GAP_S = 0.3
#: A missing result is given up on once no result at all has arrived for
#: this long after the last send (the saturated step's backlog keeps
#: results arriving for several seconds after it).
RESULT_IDLE_S = 5.0
CONNECTIONS = 2
MODEL_MIX = (("alexnet-64", 0.7), ("resnet18-32", 0.3))
#: Length of the injected consumer stall (self-test only).
STALL_S = 0.5

_HANDSHAKE_KEY = "cGVyZmJlbmNoLWxvYWRnZW4="


@dataclass
class Request:
    index: int
    step: int
    offset_s: float
    model: str
    conn: int
    tag: str
    arrival_us: float
    #: closed-loop step only: the offset at which the step ends
    closed_until_s: float | None = None
    sent_s: float | None = None
    recv_s: float | None = None
    modeled_ms: float | None = None
    error: str | None = None


def ladder_steps(seconds: float) -> list[tuple[str, float, float]]:
    """The ladder as ``(name, offered rate, duration)`` steps."""
    return [
        (name, rate, seconds * time_share)
        for name, rate, time_share in LADDER
    ]


def schedule(seed: int, steps, base_us: float = 1e6) -> list[Request]:
    """Seeded Poisson arrivals for ``steps``, in time order, followed by
    the seeded pool of the closed-loop step (due at its start; the
    generator re-stamps each one when a slot frees).

    ``base_us`` is the simulated-clock arrival stamp of offset 0; later
    phases of a run pass a larger one so stamps never go backwards.
    """
    import numpy as np

    rng = np.random.default_rng([seed, len(steps), int(base_us)])
    names = [name for name, _ in MODEL_MIX]
    weights = [share for _, share in MODEL_MIX]
    out: list[Request] = []
    start = 0.0
    for step, (name, rate, duration) in enumerate(steps):
        if rate is None:
            if step != len(steps) - 1:
                raise ValueError("the closed-loop step must be the last")
            pool = int(duration * SATURATE_POOL_RPS) + SATURATE_OUTSTANDING
            models = rng.choice(names, size=pool, p=weights)
            for j, model in enumerate(models):
                i = len(out)
                out.append(Request(
                    index=i,
                    step=step,
                    offset_s=start,
                    model=str(model),
                    conn=j % CONNECTIONS,
                    tag=f"{name}-{i}",
                    arrival_us=base_us + start * 1e6,
                    closed_until_s=start + duration,
                ))
            break
        t = start
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= start + duration:
                break
            i = len(out)
            out.append(Request(
                index=i,
                step=step,
                offset_s=t,
                model=str(rng.choice(names, p=weights)),
                conn=int(rng.integers(CONNECTIONS)),
                tag=f"{name}-{i}",
                arrival_us=base_us + t * 1e6,
            ))
        start += duration + STEP_GAP_S
    return out


# ----------------------------------------------------------------------
# WebSocket client
# ----------------------------------------------------------------------
async def _open_ws(port: int):
    from repro.serve.http.protocol import ws_accept_key

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        (
            "GET /v1/stream HTTP/1.1\r\nHost: perfbench\r\n"
            "Connection: Upgrade\r\nUpgrade: websocket\r\n"
            f"Sec-WebSocket-Key: {_HANDSHAKE_KEY}\r\n\r\n"
        ).encode("ascii")
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    if b" 101 " not in head.split(b"\r\n")[0]:
        raise RuntimeError(f"websocket upgrade refused: {head[:80]!r}")
    if ws_accept_key(_HANDSHAKE_KEY).encode("ascii") not in head:
        raise RuntimeError("Sec-WebSocket-Accept mismatch")
    return reader, writer


async def http_get_json(port: int, target: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"GET {target} HTTP/1.1\r\nHost: perfbench\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        if status != 200:
            raise RuntimeError(f"GET {target} answered {status}")
        length = next(
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        return json.loads(await reader.readexactly(length))
    finally:
        writer.close()
        await writer.wait_closed()


@dataclass
class LoadResult:
    requests: list[Request]
    t0: float
    unmatched: list[str] = field(default_factory=list)


class Generator:
    """Open-loop sender plus result consumer over ``CONNECTIONS`` sockets."""

    def __init__(self, port, requests, reference, inject=None) -> None:
        self.port = port
        self.requests = requests
        self.reference = reference
        self.inject = inject
        self.by_tag = {r.tag: r for r in requests}
        self.pending = len(requests)
        self.unmatched: list[str] = []
        self.done = asyncio.Event()
        self.t0 = 0.0
        self.last_recv_s = 0.0
        self.slots: list[asyncio.Semaphore] = []
        self._dropped = False
        self._stalled = False

    def _expected_digest(self, req: Request) -> str:
        from repro.serve.http import result_digest

        ref = self.reference[req.model]
        return result_digest(req.model, ref["pair"], ref["unit_us"], req.tag)

    def _consume(self, payload: bytes) -> None:
        msg = json.loads(payload.decode("utf-8"))
        tag = msg.get("tag")
        req = self.by_tag.get(tag)
        if req is None or req.recv_s is not None or req.error is not None:
            self.unmatched.append(f"{tag!r}: {str(msg)[:120]}")
            return
        now = self.last_recv_s = time.perf_counter()
        if self.inject == "drop-result" and not self._dropped:
            self._dropped = True  # this result is lost on the way
            return
        if req.closed_until_s is not None:
            self.slots[req.conn].release()
        if (
            self.inject == "stall-consumer"
            and not self._stalled
            and req.step == NOMINAL_STEP
        ):
            self._stalled = True
            time.sleep(STALL_S)  # a consumer that blocks the whole loop
            now = time.perf_counter()
        if "error" in msg:
            req.error = f"error frame {msg['error']}"
        elif msg.get("model") != req.model:
            req.error = f"result for model {msg.get('model')!r}"
        elif msg.get("digest") != self._expected_digest(req):
            req.error = f"digest mismatch {msg.get('digest')!r}"
        else:
            req.recv_s = now
            timing = msg["timing"]
            req.modeled_ms = (timing["finish_us"] - timing["arrival_us"]) / 1e3
        self.pending -= 1
        if self.pending == 0:
            self.done.set()

    async def _send(self, writer, reqs) -> None:
        from repro.serve.http.protocol import encode_ws_message

        for req in reqs:
            delay = self.t0 + req.offset_s - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if req.closed_until_s is not None:
                await self.slots[req.conn].acquire()
                offset = time.perf_counter() - self.t0
                if offset >= req.closed_until_s:
                    break  # the closed-loop step, the last, is over
                # due as soon as its slot freed
                req.arrival_us += (offset - req.offset_s) * 1e6
                req.offset_s = offset
            req.sent_s = time.perf_counter()
            writer.write(encode_ws_message(
                json.dumps({
                    "model": req.model,
                    "tag": req.tag,
                    "arrival_us": req.arrival_us,
                }),
                mask=os.urandom(4),
            ))
            await writer.drain()

    async def _receive(self, reader) -> None:
        from repro.serve.http.protocol import (
            OP_TEXT,
            WSDecoder,
            WSMessageAssembler,
        )

        decoder = WSDecoder(forbid_mask=True)
        assembler = WSMessageAssembler()
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return
            decoder.feed(chunk)
            for frame in decoder.frames():
                message = assembler.push(frame)
                if message is not None and message[0] == OP_TEXT:
                    self._consume(message[1])

    async def run(self) -> LoadResult:
        from repro.serve.http.protocol import OP_CLOSE, encode_ws_frame

        conns = [await _open_ws(self.port) for _ in range(CONNECTIONS)]
        self.slots = [
            asyncio.Semaphore(SATURATE_OUTSTANDING // CONNECTIONS)
            for _ in conns
        ]
        receivers = [
            asyncio.ensure_future(self._receive(reader))
            for reader, _ in conns
        ]
        self.t0 = time.perf_counter() + 0.1
        try:
            await asyncio.gather(*(
                self._send(writer, [r for r in self.requests if r.conn == i])
                for i, (_, writer) in enumerate(conns)
            ))
            self.pending -= sum(
                r.sent_s is None and r.closed_until_s is not None
                for r in self.requests
            )
            self.last_recv_s = max(self.last_recv_s, time.perf_counter())
            while self.pending:
                idle = time.perf_counter() - self.last_recv_s
                if idle >= RESULT_IDLE_S:
                    break  # the requests still missing are counted as failed
                try:
                    await asyncio.wait_for(
                        self.done.wait(), RESULT_IDLE_S - idle
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            for _, writer in conns:
                writer.write(
                    encode_ws_frame(OP_CLOSE, b"", mask=os.urandom(4))
                )
                writer.close()
            for task in receivers:
                task.cancel()
            await asyncio.gather(*receivers, return_exceptions=True)
            for _, writer in conns:
                try:
                    await writer.wait_closed()
                except OSError:
                    pass  # the server may reset a socket it already closed
        # the closed-loop pool beyond what the step sent was never attempted
        sent = [
            r for r in self.requests
            if r.sent_s is not None or r.closed_until_s is None
        ]
        for req in sent:
            if req.recv_s is None and req.error is None:
                req.error = "no result received"
        return LoadResult(sent, self.t0, self.unmatched)


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class ServerProcess:
    """``serve_child.py`` in its own process, driven over stdin/stdout."""

    def __init__(self, trace_out: Path | None = None) -> None:
        args = [sys.executable, str(bc.BENCH_DIR / "serve_child.py")]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            args, cwd=bc.ROOT, env=bc.child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=bc.CHILD_TIMEOUT_S)
            raise RuntimeError(
                f"server child exited with {self.proc.returncode}"
            )
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        try:
            return self.command("stop")
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        else:
            self.proc.stdin.close()
        self.proc.stdout.close()
