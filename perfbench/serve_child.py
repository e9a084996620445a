"""Server side of the ``gateway-mix-open`` workload: one process running
``repro.serve.http.HttpGateway`` over ``repro.serve.InferenceServer`` on
the priced (simulated-clock) executor.

``run.py`` starts it as a child process.  Once set up it prints one JSON
line (port, set-up time, the modeled unit price and pair of each model)
and then serves until told to stop.  Commands arrive one per line on
standard input, and each is answered with one JSON line:

``trace on`` / ``trace off``
    Install a ``repro.obs.Tracer`` in the gateway and the server, or
    the no-op tracer again (the spans recorded so far are kept).
``direct FILE``
    Replay the arrival schedule in FILE (a JSON list of ``[offset_s,
    model, arrival_us]``) through ``InferenceServer.submit`` directly,
    without the gateway, open loop; answer with the latencies.
``stop``
    Stop gateway and server, write the recorded spans (if any) to
    ``--trace-out`` as a Chrome trace, and answer with the process's
    peak RSS.

With ``--setup-only`` it sets up, prints the set-up time and exits.
"""

# Imports count as set-up, so the clock starts before them.
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_common as bc  # noqa: E402

#: The served mix: model name -> (model function, input size, SLO in ms).
MODELS = {
    "alexnet-64": ("alexnet", 64, 5.0),
    "resnet18-32": ("resnet18", 32, 2.0),
}
PAIR = "w1a2"
#: Admission defers past this queue depth (a deferral is not a failure).
ADMISSION_DEPTH = 512


async def build():
    """Program set-up: models, server with prewarmed plans, gateway, and
    one warm-up request per model."""
    from repro.core import PrecisionPair
    from repro.nn import APNNBackend, alexnet, resnet18
    from repro.serve import AdmissionPolicy, InferenceServer, ServedModel
    from repro.serve.http import HttpGateway
    from repro.tensorcore import RTX3090

    model_fns = {"alexnet": alexnet, "resnet18": resnet18}
    models = {
        name: ServedModel(
            model_fns[fn](input_size=size), (3, size, size), slo_ms=slo
        )
        for name, (fn, size, slo) in MODELS.items()
    }
    server = InferenceServer(
        models,
        [(APNNBackend(PrecisionPair.parse(PAIR)), RTX3090)],
        discipline="edf",
        admission=AdmissionPolicy(ADMISSION_DEPTH, mode="defer"),
    )
    await server.start(prewarm=True)
    gateway = HttpGateway(server, port=0)
    await gateway.start()
    reference = {}
    for name in MODELS:
        result = await server.submit(name, 0.0)
        reference[name] = {
            "unit_us": await server.unit_price_us(name),
            "pair": result.pair,
        }
    return server, gateway, reference


async def direct(server, schedule) -> dict:
    """Open-loop ``InferenceServer.submit`` on ``schedule``; latency of each
    request is timed from its scheduled submit time."""
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    failed = 0
    t_start = loop.time() + 0.05

    async def one(offset, model, arrival_us):
        nonlocal failed
        try:
            await server.submit(model, arrival_us)
        except Exception as exc:  # counted; the replay goes on
            failed += 1
            sys.stderr.write(f"direct submit failed: {exc!r}\n")
            return
        latencies.append((loop.time() - (t_start + offset)) * 1e3)

    tasks = []
    for offset, model, arrival_us in schedule:
        delay = t_start + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(offset, model, arrival_us)))
    await asyncio.gather(*tasks)
    return {"latency_ms": latencies, "failed": failed}


async def serve(trace_path: Path | None) -> None:
    from repro.obs import NULL_TRACER, Tracer, write_chrome_trace

    server, gateway, reference = await build()
    setup_s = time.perf_counter() - T0
    bc.emit({"port": gateway.port, "setup_s": setup_s, "reference": reference})
    loop = asyncio.get_running_loop()
    tracer = None
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        cmd, _, arg = line.strip().partition(" ")
        if cmd == "trace":
            if arg == "on":
                tracer = tracer or Tracer()
                active = tracer
            else:
                active = NULL_TRACER
            gateway.tracer = server.tracer = active
            server.plan_cache.tracer = active
            bc.emit({"ok": True})
        elif cmd == "direct":
            schedule = json.loads(Path(arg).read_text(encoding="utf-8"))
            bc.emit(await direct(server, schedule))
        elif cmd in ("stop", ""):
            await gateway.stop(timeout=10.0)
            await server.stop()
            out = {"peak_rss_mb": bc.peak_rss_mb(), "spans": 0}
            if tracer is not None and trace_path is not None:
                write_chrome_trace(tracer, trace_path)
                out["spans"] = len(tracer)
            bc.emit(out)
            return
        else:
            bc.emit({"error": f"unknown command {cmd!r}"})


async def setup_only() -> None:
    server, gateway, _ = await build()
    setup_s = time.perf_counter() - T0
    await gateway.stop(timeout=10.0)
    await server.stop()
    bc.emit({"setup_s": setup_s})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    bc.require_program()
    if args.setup_only:
        asyncio.run(setup_only())
    else:
        asyncio.run(serve(args.trace_out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
