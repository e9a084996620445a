"""Forward-replay workloads: one model's GEMM layers, in order, through
the public ``repro.kernels.apmm.apmm`` / ``repro.kernels.apconv.apconv``
entry points with default strategy and backend, on seeded digit inputs.

The program has no kernel-executed forward yet, so each forward passes
every layer the same quantized weight arrays, the way a loaded model
holds them, and a seeded digit input of the layer's shape.  It is a
closed loop: one forward is issued after the previous one returned.

``run.py`` drives this file as a child process, in one of three modes::

    python3 perfbench/replay.py setup   --workload W --seed N
    python3 perfbench/replay.py oracle  --workload W --seed N --out FILE
    python3 perfbench/replay.py measure --workload W --seed N \\
        --seconds S --trace 0|1 --digests FILE --out-dir DIR

Each prints one JSON object as its last line of standard output.
"""

# Imports count as set-up, so the clock starts before them.
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_common as bc  # noqa: E402

#: Distinct seeded inputs per layer; forward ``i`` uses variant ``i % 2``.
VARIANTS = 2

#: Share of a traced run spent on untraced forwards, the base of
#: ``bench.trace_overhead_pct``.
TRACED_RUN_UNTRACED_SHARE = 0.7

#: Metric stems of the sub-calls a traced run times standalone, in the
#: order they appear on the dispatch paths.
SUBCALLS = (
    "kernels.padding.pad_digits",
    "kernels.layout.im2col",
    "kernels.packed_conv",
    "core.packed.packed_matmul",
    "perf.cost",
)


@dataclass(frozen=True)
class ReplaySpec:
    """One forward-replay workload: model, geometry, batch, precision."""

    model_tag: str
    model_fn: str
    input_size: int
    batch: int
    pair: str = "w1a2"

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (3, self.input_size, self.input_size)


WORKLOADS = {
    "alexnet64-w1a2-b4": ReplaySpec("alexnet64", "alexnet", 64, 4),
    "resnet18-32-w1a2-b8": ReplaySpec("resnet18-32", "resnet18", 32, 8),
}

#: GEMM layers per workload, in forward order: (group index, layer name).
#: Fixed here so every metric name is known without building the model;
#: ``build_layers`` checks the model still matches.
LAYERS = {
    "alexnet64-w1a2-b4": tuple(enumerate(
        ("conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8")
    )),
    "resnet18-32-w1a2-b8": tuple(enumerate((
        "conv1",
        "conv64-64k3s1", "conv64-64k3s1", "conv64-64k3s1", "conv64-64k3s1",
        "conv64-128k3s2", "conv64-128k1s2",
        "conv128-128k3s1", "conv128-128k3s1", "conv128-128k3s1",
        "conv128-256k3s2", "conv128-256k1s2",
        "conv256-256k3s1", "conv256-256k3s1", "conv256-256k3s1",
        "conv256-512k3s2", "conv256-512k1s2",
        "conv512-512k3s1", "conv512-512k3s1", "conv512-512k3s1",
        "fc",
    ))),
}


def layer_metric(workload: str, group: int, name: str) -> str:
    """Per-layer metric stem, unique across both models."""
    return f"layer.{WORKLOADS[workload].model_tag}.{group}.{name}"


@dataclass
class Layer:
    """One GEMM layer as the replay issues it."""

    group: int
    name: str
    conv: bool
    w: object  # weight digits, (C_out, C_in, KH, KW) or (M, K)
    weight: object  # Precision
    feature: object  # Precision
    x_shape: tuple[int, ...]
    stride: int
    padding: int
    m: int
    n: int
    k: int
    path: str
    modeled_us: float

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k


# ----------------------------------------------------------------------
# program set-up
# ----------------------------------------------------------------------
def build_layers(workload: str) -> tuple[list[Layer], float]:
    """Build the model, quantize its weights, compile and price its plan
    and load the kernel backend.  Returns the layers and the modeled
    forward in microseconds."""
    from repro.core import backends
    from repro.core.packed import fold_exactness_bound
    from repro.core.quantize import dorefa_quantize_weights
    from repro.core.types import Precision, PrecisionPair
    from repro.kernels.packed_conv import packed_conv_preferred
    from repro.nn import APNNBackend, InferenceEngine, alexnet, resnet18
    from repro.nn.layers import Conv2d

    spec = WORKLOADS[workload]
    make_model = {"alexnet": alexnet, "resnet18": resnet18}[spec.model_fn]
    model = make_model(input_size=spec.input_size)
    pair = PrecisionPair.parse(spec.pair)
    engine = InferenceEngine(model, APNNBackend(pair))
    report = engine.compile(spec.batch, spec.input_shape).price(
        engine.latency_model
    )
    backends.kernel("packed_gemm")  # loads (or builds) a compiled backend

    # The engine's own shape walk gives each group's input geometry.
    records = engine._walk_shapes((spec.batch,) + spec.input_shape)
    problems = iter(engine.gemm_problems(spec.batch, spec.input_shape))
    layers: list[Layer] = []
    for group, (fused, gin, _, _) in enumerate(records):
        main = fused.main
        if main is None:
            continue
        prob = next(problems)
        weight = pair.weight
        feature = Precision(prob.a_bits, pair.activation.encoding)
        w = dorefa_quantize_weights(main.weight.data, prob.w_bits).digits
        fold = (
            "fold"
            if fold_exactness_bound(prob.k, prob.w_bits, prob.a_bits) < 2**53
            else "bmma"
        )
        conv = isinstance(main, Conv2d)
        if conv:
            path = (
                "gather"
                if packed_conv_preferred(weight, feature, prob.k)
                else f"im2col+{fold}"
            )
        else:
            path = fold
        layers.append(Layer(
            group=group,
            name=main.name,
            conv=conv,
            w=w,
            weight=weight,
            feature=feature,
            x_shape=tuple(gin) if conv else (gin[0], main.in_features),
            stride=main.stride if conv else 1,
            padding=main.padding if conv else 0,
            m=prob.m,
            n=prob.n,
            k=prob.k,
            path=path,
            modeled_us=report.groups[group].total_us,
        ))
    expected = LAYERS[workload]
    got = tuple((layer.group, layer.name) for layer in layers)
    if got != expected:
        raise RuntimeError(
            f"{workload}: model layers changed; expected {expected}, "
            f"built {got}"
        )
    return layers, report.total_us


def make_inputs(layers: list[Layer], seed: int) -> list[list[object]]:
    """Seeded digit inputs: ``inputs[variant][layer]``."""
    import numpy as np

    return [
        [
            layer.feature.random_digits(
                np.random.default_rng([seed, layer.group, variant]),
                layer.x_shape,
            )
            for layer in layers
        ]
        for variant in range(VARIANTS)
    ]


def run_layer(layer: Layer, x, strategy: str | None = None):
    """Issue one layer through the public kernel entry point."""
    from repro.kernels.apconv import apconv
    from repro.kernels.apmm import apmm

    kwargs = {} if strategy is None else {"strategy": strategy}
    if layer.conv:
        return apconv(
            layer.w, x, layer.weight, layer.feature,
            stride=layer.stride, padding=layer.padding, **kwargs,
        )
    return apmm(layer.w, x, layer.weight, layer.feature, **kwargs)


def setup(workload: str, seed: int):
    """Timed program set-up (imports, model build and weight quantization,
    plan compile and pricing, backend load, one warm-up forward).  Input
    generation is benchmark work and is left out of the time."""
    layers, modeled_forward_us = build_layers(workload)
    t_built = time.perf_counter()
    inputs = make_inputs(layers, seed)
    t_warm = time.perf_counter()
    for layer, x in zip(layers, inputs[0]):
        run_layer(layer, x)
    setup_s = (t_built - T0) + (time.perf_counter() - t_warm)
    return setup_s, layers, inputs, modeled_forward_us


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def oracle(workload: str, seed: int) -> list[list[str]]:
    """``strategy="integer"`` reference digest of every (variant, layer)."""
    layers, _ = build_layers(workload)
    inputs = make_inputs(layers, seed)
    return [
        [
            bc.array_digest(run_layer(layer, x, "integer").output)
            for layer, x in zip(layers, variant)
        ]
        for variant in inputs
    ]


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class Replayer:
    """Closed-loop forwards with every output checked against the oracle."""

    def __init__(self, layers, inputs, digests) -> None:
        self.layers = layers
        self.inputs = inputs
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def forward(self):
        """One timed forward; returns ``(ms, per-layer (t0, t1) stamps,
        results, variant)``, or ``None`` when it raised or an output
        missed its reference digest."""
        index = self.attempted
        variant = index % VARIANTS
        self.attempted += 1
        stamps = []
        results = []
        try:
            t_start = time.perf_counter()
            for layer, x in zip(self.layers, self.inputs[variant]):
                t0 = time.perf_counter()
                results.append(run_layer(layer, x))
                stamps.append((t0, time.perf_counter()))
            t_end = time.perf_counter()
        except Exception:  # a failing forward is counted, the run goes on
            self.failed += 1
            sys.stderr.write(f"forward {index} raised:\n")
            traceback.print_exc()
            return None
        bad = [
            f"{layer.group}.{layer.name}"
            for layer, res, want in zip(
                self.layers, results, self.digests[variant]
            )
            if bc.array_digest(res.output) != want
        ]
        if bad:
            self.failed += 1
            sys.stderr.write(
                f"forward {index} (variant {variant}): output digest "
                f"mismatch at layer(s) {', '.join(bad)}\n"
            )
            return None
        return (t_end - t_start) * 1e3, stamps, results, variant


def _subcalls(layer: Layer, x, result) -> list[tuple[str, float, float]]:
    """Time the layer's sub-calls standalone, on the same operands and
    along the path its dispatch takes: ``[(metric, t0, t1), ...]``."""
    from repro.core.packed import packed_matmul
    from repro.kernels.layout import im2col
    from repro.kernels.packed_conv import packed_conv_matmul
    from repro.kernels.padding import pad_digits, plan_padding
    from repro.perf.cost import conv_cost, gemm_cost

    spans = []

    def timed(metric, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        spans.append((metric, t0, time.perf_counter()))
        return out

    p, q = layer.weight.bits, layer.feature.bits
    if not layer.conv:
        timed("core.packed.packed_matmul", packed_matmul,
              layer.w, x, layer.weight, layer.feature)
        timed("perf.cost", gemm_cost,
              layer.m, layer.n, layer.k, p, q, result.config,
              name=f"apmm-w{p}a{q}-{layer.m}x{layer.n}x{layer.k}")
        return spans
    cout, cin, kh, _ = layer.w.shape
    batch, _, h, w = x.shape
    pplan = plan_padding(layer.weight, layer.feature)
    padded = timed("kernels.padding.pad_digits", pad_digits,
                   x, layer.padding, pplan.pad_digit)
    if layer.path == "gather":
        timed("kernels.packed_conv", packed_conv_matmul,
              layer.w, padded, layer.weight, layer.feature,
              stride=layer.stride)
    else:
        cols = timed("kernels.layout.im2col", im2col,
                     padded, kh, layer.stride)
        timed("core.packed.packed_matmul", packed_matmul,
              layer.w.reshape(cout, cin * kh * kh), cols,
              layer.weight, layer.feature)
    timed("perf.cost", conv_cost,
          batch, cin, cout, h, w, kh, p, q, result.config,
          stride=layer.stride, padding=layer.padding,
          padding_correction=pplan.needs_correction and layer.padding > 0,
          name=f"apconv-w{p}a{q}-{cin}->{cout}@{h}x{w}k{kh}s{layer.stride}")
    return spans


def _us(t: float) -> float:
    return t * 1e6


def measure(workload, seed, seconds, trace, digests, out_dir) -> dict:
    setup_s, layers, inputs, modeled_forward_us = setup(workload, seed)
    spec = WORKLOADS[workload]
    rep = Replayer(layers, inputs, digests)

    untraced_s = seconds * (TRACED_RUN_UNTRACED_SHARE if trace else 1.0)
    forward_ms = []
    t_loop = time.perf_counter()
    while time.perf_counter() - t_loop < untraced_s or not rep.attempted:
        out = rep.forward()
        if out is not None:
            forward_ms.append(out[0])
    result = {
        "setup_s": setup_s,
        "forward_ms": forward_ms,
        "batch": spec.batch,
    }
    if trace:
        result["traced"] = traced_phase(
            workload, rep, seconds - untraced_s, modeled_forward_us,
            forward_ms, out_dir,
        )
    result.update(
        attempted=rep.attempted,
        failed=rep.failed,
        peak_rss_mb=bc.peak_rss_mb(),
    )
    return result


def traced_phase(workload, rep, seconds, modeled_forward_us,
                 untraced_ms, out_dir) -> dict:
    """Traced forwards plus the standalone sub-call split; returns the
    per-layer metrics and writes the trace and the layer table."""
    from repro.kernels.packed_conv import packed_conv_preferred
    from repro.obs import Tracer, trace_kernels, validate_chrome_trace
    from repro.obs import write_chrome_trace

    layers = rep.layers
    tracer = Tracer()
    fwd_ms: list[float] = []
    layer_ms: list[list[float]] = [[] for _ in layers]
    busy = {"apmm": [], "apconv": []}
    sub = {name: [] for name in SUBCALLS}
    compiled: list[int] = []
    t_loop = time.perf_counter()
    with trace_kernels(tracer):
        first = rep.attempted
        while time.perf_counter() - t_loop < seconds or rep.attempted == first:
            out = rep.forward()
            if out is None:
                continue
            ms, stamps, results, variant = out
            t_first, t_last = stamps[0][0], stamps[-1][1]
            fid = tracer.span(
                f"forward {rep.attempted - 1}", "forward",
                _us(t_first), _us(t_last), track="wall", lane="forward",
                workload=workload, variant=variant,
            )
            fwd_ms.append(ms)
            per_kind = {"apmm": 0.0, "apconv": 0.0}
            per_sub = dict.fromkeys(SUBCALLS, 0.0)
            for i, (layer, (t0, t1), res) in enumerate(
                zip(layers, stamps, results)
            ):
                kind = "apconv" if layer.conv else "apmm"
                lid = tracer.span(
                    f"{layer.group}.{layer.name}", "layer", _us(t0), _us(t1),
                    parent_id=fid, track="wall", lane="layer",
                    kernel=kind, path=layer.path,
                )
                layer_ms[i].append((t1 - t0) * 1e3)
                per_kind[kind] += (t1 - t0) * 1e3
                x = rep.inputs[variant][i]
                for metric, s0, s1 in _subcalls(layer, x, res):
                    tracer.span(
                        metric, "subcall", _us(s0), _us(s1),
                        parent_id=lid, track="wall", lane="split",
                    )
                    per_sub[metric] += (s1 - s0) * 1e3
            for kind, value in per_kind.items():
                busy[kind].append(value)
            for metric, value in per_sub.items():
                sub[metric].append(value)
            compiled.append(
                sum(res.cost.counters.compiled_kernels for res in results)
            )

    if not fwd_ms:
        return {"metrics": {}}  # no forward passed the oracle: no split
    med = bc.median
    m = {}
    fwd_p50 = med(fwd_ms)
    kernel_busy = med(busy["apmm"]) + med(busy["apconv"])
    for kind in ("apmm", "apconv"):
        calls = sum(1 for layer in layers if layer.conv == (kind == "apconv"))
        m[f"kernels.{kind}.calls"] = (calls, "count")
        m[f"kernels.{kind}.busy_ms"] = (med(busy[kind]), "ms")
        m[f"kernels.{kind}.share"] = (med(busy[kind]) / fwd_p50, "ratio")
    convs = [layer for layer in layers if layer.conv]
    gather = sum(
        packed_conv_preferred(layer.weight, layer.feature, layer.k)
        for layer in convs
    )
    m["kernels.apconv.gather_calls"] = (gather, "count")
    m["kernels.apconv.im2col_calls"] = (len(convs) - gather, "count")
    sub_total = 0.0
    for metric in SUBCALLS:
        value = med(sub[metric])
        sub_total += value
        m[f"{metric}.busy_ms"] = (value, "ms")
    m["kernels.wrapper_self_ms"] = (kernel_busy - sub_total, "ms")
    if len(set(compiled)) != 1:
        raise RuntimeError(f"compiled kernel count varied: {set(compiled)}")
    m["kernels.compiled_kernel_calls"] = (compiled[0], "count")
    macs = sum(layer.macs for layer in layers)
    m["kernels.macs"] = (macs, "MAC")
    m["kernels.achieved_gmacs"] = (macs / (kernel_busy * 1e-3) / 1e9, "GMAC/s")
    m["kernels.weight_bytes"] = (sum(layer.w.nbytes for layer in layers), "B")
    m["kernels.weight_bytes_packed"] = (
        sum(layer.weight.bits * layer.m * layer.k // 8 for layer in layers),
        "B",
    )
    rows = []
    for layer, samples in zip(layers, layer_ms):
        stem = layer_metric(workload, layer.group, layer.name)
        ms = med(samples)
        m[f"{stem}.ms"] = (ms, "ms")
        m[f"{stem}.modeled_us"] = (layer.modeled_us, "us")
        rows.append({
            "group": layer.group,
            "layer": layer.name,
            "kernel": "apconv" if layer.conv else "apmm",
            "path": layer.path,
            "m": layer.m, "n": layer.n, "k": layer.k,
            "measured_ms": ms,
            "modeled_us": layer.modeled_us,
            "share": ms / fwd_p50,
        })
    rank_corr = bc.spearman(
        [r["modeled_us"] for r in rows], [r["measured_ms"] for r in rows]
    )
    m["perf.modeled_forward_us"] = (modeled_forward_us, "us")
    m["perf.rank_corr"] = (rank_corr, "rho")
    m["bench.traced_forward_ms_p50"] = (fwd_p50, "ms")
    untraced_p50 = med(untraced_ms)
    m["bench.trace_overhead_pct"] = (
        100.0 * (fwd_p50 - untraced_p50) / untraced_p50, "%"
    )
    layer_sum = sum(r["measured_ms"] for r in rows)

    trace_path = write_chrome_trace(tracer, out_dir / "trace.json")
    validate_chrome_trace(json.loads(trace_path.read_text(encoding="utf-8")))
    write_layer_table(out_dir, workload, rows, {
        "traced_forwards": len(fwd_ms),
        "traced_forward_ms_p50": fwd_p50,
        "untraced_forward_ms_p50": untraced_p50,
        "layer_ms_sum": layer_sum,
        "modeled_forward_us": modeled_forward_us,
        "rank_corr": rank_corr,
    })
    sys.stderr.write(
        f"{workload}: {len(fwd_ms)} traced forwards, p50 {fwd_p50:.2f} ms; "
        f"layer ms sum {layer_sum:.2f} ms "
        f"({100 * (layer_sum / fwd_p50 - 1):+.1f}%)\n"
    )
    return {"metrics": m}


def write_layer_table(out_dir: Path, workload: str, rows, summary) -> None:
    """Modeled-vs-measured table, one row per GEMM layer (JSON + markdown)."""
    (out_dir / "layers.json").write_text(
        json.dumps({"workload": workload, "summary": summary, "layers": rows},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    lines = [
        f"# {workload}: measured vs modeled, per GEMM layer",
        "",
        "| group | layer | kernel | path | M×N×K | measured ms | "
        "modeled µs | share of forward |",
        "|---:|---|---|---|---|---:|---:|---:|",
    ]
    for r in rows:
        lines.append(
            f"| {r['group']} | {r['layer']} | {r['kernel']} | {r['path']} | "
            f"{r['m']}×{r['n']}×{r['k']} | {r['measured_ms']:.3f} | "
            f"{r['modeled_us']:.2f} | {100 * r['share']:.1f}% |"
        )
    lines += [
        "",
        f"Traced forwards: {summary['traced_forwards']}; traced forward p50 "
        f"{summary['traced_forward_ms_p50']:.2f} ms (untraced "
        f"{summary['untraced_forward_ms_p50']:.2f} ms); layer sum "
        f"{summary['layer_ms_sum']:.2f} ms.",
        f"Modeled forward: {summary['modeled_forward_us']:.2f} µs (RTX 3090 "
        f"analytic model).  Spearman rank correlation, modeled vs measured "
        f"layer time: {summary['rank_corr']:.3f}.",
        "",
    ]
    (out_dir / "layers.md").write_text("\n".join(lines), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "oracle", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)
    bc.require_program()
    if args.mode == "setup":
        setup_s, *_ = setup(args.workload, args.seed)
        bc.emit({"setup_s": setup_s})
    elif args.mode == "oracle":
        digests = oracle(args.workload, args.seed)
        args.out.write_text(json.dumps(digests), encoding="utf-8")
        bc.emit({"layers": len(digests[0])})
    else:
        digests = json.loads(args.digests.read_text(encoding="utf-8"))
        bc.emit(measure(
            args.workload, args.seed, args.seconds, args.trace, digests,
            args.out_dir,
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
