"""Wall-clock benchmark of the paths the program ships.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one measures and why.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every ``end_to_end`` metric with
``--trace 0``, every ``per_layer`` metric with ``--trace 1``; a per-layer
metric of a layer the workload does not run reads 0, and a latency that
failed operations made infinite reads ``FAILED_LATENCY_MS``).  Artifacts
-- run fingerprint, Chrome traces, the per-layer table -- land under
``.bench_build/perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import time
from pathlib import Path

import bench_common as bc

SPEC_PATH = bc.ROOT / "BENCHMARK.json"
GATEWAY_WORKLOAD = "gateway-mix-open"
#: Fault injections for the benchmark's own self-tests.
INJECTIONS = ("corrupt-digest", "drop-result", "stall-consumer")
#: Fresh processes whose set-up time is measured; ``setup_s`` is their
#: median.  Smoke runs shorter than ``SETUP_REPS_MIN_SECONDS`` set up once.
SETUP_REPS = 5
SETUP_REPS_MIN_SECONDS = 5.0
#: Reported in place of a latency percentile that failed operations made
#: infinite: worse than any measured latency, and still a finite number.
FAILED_LATENCY_MS = 1e9
#: Share of a traced gateway run spent on the ladder; the rest is split
#: between a traced light step and direct ``InferenceServer.submit``.
TRACED_LADDER_SHARE = 0.6
#: Gateway latency percentiles are medians over windows of this many
#: scheduled seconds of each window's percentile (about 1100 requests per
#: window at the nominal rate, so 11 lie beyond each p99): a stall of the
#: host then moves one window, not the whole figure.
WINDOW_S = 1.0


def _setup_reps(seconds: float) -> int:
    return SETUP_REPS if seconds >= SETUP_REPS_MIN_SECONDS else 1


# ----------------------------------------------------------------------
# forward replays
# ----------------------------------------------------------------------
def run_replay(args, out: Path) -> tuple[dict, int, int]:
    script = str(bc.BENCH_DIR / "replay.py")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [
        bc.run_child([script, "setup", *common])["setup_s"]
        for _ in range(_setup_reps(args.seconds) - 1)
    ]
    digests_path = out / "digests.json"
    bc.run_child([script, "oracle", *common, "--out", str(digests_path)])
    if args.inject == "corrupt-digest":
        digests = json.loads(digests_path.read_text(encoding="utf-8"))
        digests[0][1] = "0" * 64
        digests_path.write_text(json.dumps(digests), encoding="utf-8")
    res = bc.run_child([
        script, "measure", *common,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--digests", str(digests_path), "--out-dir", str(out),
    ])
    setups.append(res["setup_s"])
    # forwards that failed the oracle carry no time; a run with none
    # passing reports zero rates (and ``correct: false``)
    fwd = res["forward_ms"] or [float("inf")]
    attempted, failed = res["attempted"], res["failed"]
    success = 1.0 - failed / attempted
    rate = len(res["forward_ms"]) / (sum(fwd) / 1e3)
    p50, p90 = bc.percentile(fwd, 50), bc.percentile(fwd, 90)
    sys.stderr.write(
        f"{args.workload}: {len(res['forward_ms'])} untraced forwards, "
        f"{sum(1 for v in fwd if v > p90)} beyond p90\n"
    )
    metrics = {
        "images_per_s": (res["batch"] * rate, "1/s"),
        "max_rps_within_slo": (rate * success, "1/s"),
        "setup_s": (bc.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "success_rate": (success, "ratio"),
    }
    if args.trace:
        metrics = dict(res["traced"]["metrics"])
        metrics["forward_ms_p50"] = (p50, "ms")
        metrics["forward_ms_p90"] = (p90, "ms")
        metrics["error_rate"] = (failed / attempted, "ratio")
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# open-loop gateway
# ----------------------------------------------------------------------
def _step_stats(reqs, t0) -> dict:
    """Counts and latencies of one ladder step.

    Latency percentiles are medians over ``WINDOW_S`` windows (by
    scheduled send time) of each window's percentile, except ``p99_ms``,
    the whole step's.  A failed request counts as missing any latency
    limit: it enters its percentiles as an infinite latency.
    """
    import loadgen

    inf = float("inf")
    windows: dict[int, list] = {}
    start = min(r.offset_s for r in reqs)
    for r in reqs:
        windows.setdefault(int((r.offset_s - start) / WINDOW_S), []).append(r)

    def windowed(q, latency):
        return bc.median([
            bc.percentile([latency(r) for r in w], q)
            for w in windows.values()
        ])

    def from_due(r):
        return (r.recv_s - t0 - r.offset_s) * 1e3 if r.error is None else inf

    ok = [r for r in reqs if r.error is None]
    stats = {
        "sent": sum(r.sent_s is not None for r in reqs),
        "ok": len(ok),
        "failed": len(reqs) - len(ok),
        "p50_ms": windowed(50, from_due),
        "window_p99_ms": windowed(99, from_due),
        "p99_ms": bc.percentile([from_due(r) for r in reqs], 99),
        "modeled_p50_ms": bc.median([r.modeled_ms for r in ok] or [inf]),
        "rate": 0.0,
    }
    if ok:
        last_recv = max(r.recv_s for r in ok)
        stats["rate"] = len(ok) / (last_recv - t0 - start)
    # A growing backlog shows as latency rising across the step: compare
    # the median of its last fifth of requests with that of its first.
    fifth = max(1, len(reqs) // 5)
    head = bc.median([from_due(r) for r in reqs[:fifth]])
    tail = bc.median([from_due(r) for r in reqs[-fifth:]])
    stats["backlog_growth"] = tail / head
    stats["within_slo"] = (
        stats["window_p99_ms"] < loadgen.LATENCY_LIMIT_MS
        and tail < max(2.0 * head, head + 1.0)
    )
    return stats


def _report_failures(result) -> int:
    failed = [r for r in result.requests if r.error is not None]
    for r in failed[:20]:
        sys.stderr.write(f"request {r.tag} ({r.model}) failed: {r.error}\n")
    if len(failed) > 20:
        sys.stderr.write(f"... and {len(failed) - 20} more failed requests\n")
    for line in result.unmatched[:20]:
        sys.stderr.write(f"unmatched or duplicate result {line}\n")
    return len(failed) + len(result.unmatched)


def _record_requests(tracer, result, phase) -> None:
    for r in result.requests:
        due = (result.t0 + r.offset_s) * 1e6
        if r.error is not None:
            tracer.event(r.tag, "request", due, track="wall", lane=phase,
                         model=r.model, error=r.error)
            continue
        tracer.span(r.tag, "request", due, r.recv_s * 1e6, track="wall",
                    lane=phase, model=r.model, step=r.step,
                    sent_us=r.sent_s * 1e6, modeled_ms=r.modeled_ms)


def run_gateway(args, out: Path) -> tuple[dict, int, int]:
    import loadgen

    script = str(bc.BENCH_DIR / "serve_child.py")
    setups = [
        bc.run_child([script, "--setup-only"])["setup_s"]
        for _ in range(_setup_reps(args.seconds) - 1)
    ]
    ladder_s = args.seconds * (TRACED_LADDER_SHARE if args.trace else 1.0)
    steps = loadgen.ladder_steps(ladder_s)
    serve_trace = out / "serve_trace.json"
    server = loadgen.ServerProcess(serve_trace if args.trace else None)
    try:
        setups.append(server.hello["setup_s"])
        reference = server.hello["reference"]
        port = server.hello["port"]
        ladder = loadgen.schedule(args.seed, steps)
        result = asyncio.run(loadgen.Generator(
            port, ladder, reference, args.inject
        ).run())
        ladder = result.requests  # without the closed-loop pool left unsent
        snapshot = asyncio.run(loadgen.http_get_json(port, "/v1/metrics"))
        extra = None
        if args.trace:
            extra = _traced_gateway_phases(
                args, server, port, reference, ladder, out
            )
        stopped = server.stop()
    finally:
        server.close()

    failed = _report_failures(result)
    attempted = len(ladder)
    per_step = [
        _step_stats([r for r in ladder if r.step == i], result.t0)
        for i in range(len(steps))
    ]
    light, nominal = per_step[0], per_step[loadgen.NOMINAL_STEP]
    saturated = per_step[loadgen.SATURATE_STEP]
    # the closed-loop step is no offered rate: it sets its own
    passing = [
        s for s in per_step[:loadgen.SATURATE_STEP] if s["within_slo"]
    ]
    for (name, rate, _), s in zip(steps, per_step):
        offered = "closed loop" if rate is None else f"offered {rate:.0f}/s"
        sys.stderr.write(
            f"step {name}: {offered} achieved {s['rate']:.0f}/s "
            f"sent {s['sent']} ok {s['ok']} "
            f"failed {s['failed']} p50 {s['p50_ms']:.2f} ms p99 "
            f"{s['p99_ms']:.2f} ms (windowed {s['window_p99_ms']:.2f}) "
            f"backlog growth {s['backlog_growth']:.2f} "
            f"within limit {s['within_slo']}\n"
        )
    lag = [(r.sent_s - result.t0 - r.offset_s) * 1e3
           for r in ladder if r.sent_s is not None]
    metrics = {
        "images_per_s": (saturated["rate"], "1/s"),
        "max_rps_within_slo": (
            max((s["rate"] for s in passing), default=0.0), "1/s"
        ),
        "setup_s": (bc.median(setups), "s"),
        "peak_rss_mb": (stopped["peak_rss_mb"], "MiB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    if args.trace:
        from repro.obs import Tracer, validate_chrome_trace, write_chrome_trace

        validate_chrome_trace(
            json.loads(serve_trace.read_text(encoding="utf-8"))
        )
        failed += extra.pop("failed")
        attempted += extra.pop("attempted")
        batches = snapshot["batches"]
        metrics = {
            "request_ms_p50": (nominal["p50_ms"], "ms"),
            "request_ms_p99": (nominal["window_p99_ms"], "ms"),
            "serve.batcher.requests_per_batch": (
                snapshot["requests"] / batches if batches else 0.0, "count"
            ),
            "serve.metrics.max_queue_depth": (
                snapshot["max_queue_depth"], "count"
            ),
            "serve.plan_cache.cold_compiles": (
                snapshot["cold_compiles"], "count"
            ),
            "serve.plan_cache.prewarmed_plans": (
                snapshot["prewarmed_plans"], "count"
            ),
            "serve.policies.rejected": (snapshot["rejected"], "count"),
            "serve.policies.deferred": (snapshot["deferred"], "count"),
            "serve.server.deadline_misses": (
                snapshot["deadline_misses"], "count"
            ),
            "serve.http.ws_backpressure_waits": (
                snapshot["ws_backpressure_waits"], "count"
            ),
            "serve.http.ws_send_queue_high_water": (
                snapshot["ws_send_queue_high_water"], "count"
            ),
            "perf.modeled_request_ms_p50": (nominal["modeled_p50_ms"], "ms"),
            "loadgen.lag_ms_p99": (bc.percentile(lag, 99), "ms"),
            "serve.http.overhead_ms_p50": (
                nominal["p50_ms"] - extra["submit_ms_p50"], "ms"
            ),
            "serve.server.submit_ms_p50": (extra["submit_ms_p50"], "ms"),
            "serve.server.submit_ms_p99": (extra["submit_ms_p99"], "ms"),
            "bench.trace_overhead_pct": (
                100.0 * (extra["traced_p50_ms"] / light["p50_ms"] - 1),
                "%",
            ),
            "error_rate": (failed / attempted, "ratio"),
        }
        for i, s in enumerate(per_step):
            for key in ("sent", "ok", "failed"):
                metrics[f"loadgen.step.{i}.{key}"] = (s[key], "count")
            metrics[f"loadgen.step.{i}.p99_ms"] = (s["p99_ms"], "ms")
        tracer = Tracer()
        _record_requests(tracer, result, "ladder")
        path = write_chrome_trace(tracer, out / "trace.json")
        validate_chrome_trace(json.loads(path.read_text(encoding="utf-8")))
    return metrics, attempted, failed


def _traced_gateway_phases(args, server, port, reference, ladder, out):
    """A light step with the server's and gateway's own tracers on (at the
    nominal rate tracing saturates the server, which would measure
    queueing instead of tracing cost), then the nominal rate through
    ``InferenceServer.submit`` directly, without the gateway."""
    import loadgen

    light, light_rate, _ = loadgen.ladder_steps(1.0)[0]
    name, rate, _ = loadgen.ladder_steps(1.0)[loadgen.NOMINAL_STEP]
    phase_s = args.seconds * (1.0 - TRACED_LADDER_SHARE) / 2
    base_us = max(r.arrival_us for r in ladder) + 1e6
    server.command("trace on")
    traced = loadgen.schedule(
        args.seed, [(f"{light}-traced", light_rate, phase_s)], base_us
    )
    result = asyncio.run(
        loadgen.Generator(port, traced, reference).run()
    )
    failed = _report_failures(result)
    traced_stats = _step_stats(traced, result.t0)
    server.command("trace off")

    base_us = max(r.arrival_us for r in traced) + 1e6
    direct = loadgen.schedule(
        args.seed, [(f"{name}-direct", rate, phase_s)], base_us
    )
    path = out / "direct_schedule.json"
    path.write_text(json.dumps(
        [[r.offset_s, r.model, r.arrival_us] for r in direct]
    ), encoding="utf-8")
    answer = server.command(f"direct {path}")
    failed += answer["failed"]
    lat = answer["latency_ms"] or [float("inf")]
    return {
        "traced_p50_ms": traced_stats["p50_ms"],
        "submit_ms_p50": bc.percentile(lat, 50),
        "submit_ms_p99": bc.percentile(lat, 99),
        "attempted": len(traced) + len(direct),
        "failed": failed,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _declared(spec: dict, trace: int) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=INJECTIONS,
                        help="fault injection, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    bc.require_program()

    out = bc.out_dir(args.workload, args.seed, args.trace)
    t_start = time.perf_counter()
    runner = run_gateway if args.workload == GATEWAY_WORKLOAD else run_replay
    metrics, attempted, failed = runner(args, out)

    declared = _declared(spec, args.trace)
    unknown = sorted(set(metrics) - set(declared))
    wrong_unit = sorted(
        name for name, (_, unit) in metrics.items()
        if name in declared and declared[name] != unit
    )
    if unknown or wrong_unit:
        raise RuntimeError(
            f"metrics not declared in BENCHMARK.json: {unknown}; "
            f"declared with another unit: {wrong_unit}"
        )
    report = {}
    for name, unit in declared.items():
        value = float(metrics.get(name, (0.0, unit))[0])
        if not math.isfinite(value):
            # only failed operations produce an infinite latency
            sys.stderr.write(f"{name} is {value} (failed operations)\n")
            value = FAILED_LATENCY_MS
        report[name] = {"value": value, "unit": unit}
    fp = bc.fingerprint(args.workload, args.seed)
    fp["run_seconds"] = args.seconds
    fp["trace"] = args.trace
    fp["wall_s"] = time.perf_counter() - t_start
    (out / "fingerprint.json").write_text(
        json.dumps(fp, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    sys.stderr.write(f"fingerprint: {json.dumps(fp, sort_keys=True)}\n")
    bc.emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
