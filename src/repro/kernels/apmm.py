"""APMM: Arbitrary-Precision Matrix Multiplication (paper section 4.1).

The layer-level GEMM kernel.  Given a ``p``-bit weight matrix ``W`` of
shape ``(M, K)`` and a ``q``-bit feature matrix ``X`` of shape ``(N, K)``
(both K-major, matching the Tensor-Core fragment layout), APMM produces
``Y = decode(W) @ decode(X)^T`` -- as 32-bit integers by default, or
re-quantized to an arbitrary low-bit output when it feeds the next APNN
layer (the memory-efficient bit combination of section 4.1b).

Three execution strategies produce bit-identical results:

* ``"packed"`` (default) -- the vectorized packed-word backend
  (:mod:`repro.core.packed`): either the BLAS ``fold`` engine on the
  digit matrices, or bit-planes packed into ``uint64`` words and one
  weighted popcount-reduce GEMM on the backend's ``packed_gemm`` --
  the fast path every caller takes automatically.  Frozen weights
  (quantizer outputs) are validated and packed once; per call only the
  features are checked and packed;
* ``"bitserial"`` -- the plane-wise reference: decompose -> per-plane-pair
  packed-word Boolean GEMM -> shifted-add combination;
* ``"integer"`` -- reference integer GEMM on the decoded operands.

Tests assert three-way equivalence on random problems, and the packed
path is additionally held byte-identical to the tile-level oracle
:func:`~repro.kernels.apmm_sim.apmm_tile_simulate`.

Regardless of strategy, the returned :class:`APMMResult` carries the
kernel cost assembled from the *batched double caching* design: the
``p*q`` bit-plane products are issued as one virtual large BMMA whose grid
covers ``ceil(pM/bm) x ceil(qN/bn)`` blocks, tiles staged in shared
memory, accumulators pinned in fragments.  Ablation flags reproduce the
naive designs the paper compares against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import backends
from ..core.emulate import apbit_matmul, reference_matmul
from ..core.packed import auto_engine, packed_matmul, weights_frozen
from ..core.quantize import AffineQuantizer
from ..core.types import Precision
from ..obs import kernel_tracer
from ..perf.cost import KernelCost, gemm_cost
from ..tensorcore.counters import ExecutionCounters
from ..tensorcore.device import DeviceSpec, RTX3090
from .autotune import TuneResult, autotune
from .tiling import TileConfig

__all__ = ["APMMResult", "apmm", "STRATEGIES"]

#: Re-exported from :mod:`repro.core.backends` (the registry is the
#: single source of truth for strategy validation since the backend API).
STRATEGIES = backends.STRATEGIES


@dataclass
class APMMResult:
    """Output digits/values plus the costed execution facts."""

    output: np.ndarray
    cost: KernelCost
    config: TileConfig
    tune: TuneResult | None
    #: Precision of ``output``: None means raw int32 accumulators.
    out_precision: Precision | None = None


def apmm(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    device: DeviceSpec = RTX3090,
    config: TileConfig | None = None,
    strategy: str = "packed",
    backend: "backends.Backend | str | None" = None,
    out_quantizer: AffineQuantizer | None = None,
    batch_planes: bool = True,
    double_caching: bool = True,
    decompose_input: bool = True,
) -> APMMResult:
    """Run (and cost) one arbitrary-precision GEMM.

    Parameters
    ----------
    w_digits, x_digits:
        ``(M, K)`` and ``(N, K)`` raw digit matrices.
    weight, feature:
        Operand precisions (bits + encoding); they drive operator
        selection, tiling TLP and the cost model.
    device:
        Simulated GPU (tile legality + autotuning target).
    config:
        Explicit tiling; autotuned per the paper's heuristic when omitted.
    strategy:
        ``"packed"`` (vectorized packed-word fast path, default),
        ``"integer"`` (decoded-integer reference) or ``"bitserial"``
        (plane-wise Tensor-Core reference); identical outputs.
    backend:
        Kernel backend for the packed strategy's hot loops
        (:mod:`repro.core.backends`); ``None`` means the auto-detected
        backend (cffi when it loads, else numpy).  The reference
        strategies only combine with ``"numpy"``; :func:`~repro.core.
        backends.resolve_dispatch` validates the pair and enumerates the
        valid combinations on error.
    out_quantizer:
        Optional fused re-quantization to an arbitrary-precision output
        (section 4.1b); the cost then writes ``q_out``-bit packed data.
    batch_planes / double_caching / decompose_input:
        Ablation switches for the paper's design points (default = paper).

    The kernel span records why its path ran: ``route`` is ``popcount``
    or ``fold`` for the packed strategy (the reference strategy's name
    otherwise) and ``weights`` is ``prepared`` when memoized packed
    weights were used, else ``per-call``.
    """
    # Kernel-boundary tracing (wall clock: this really executes).  The
    # default tracer is the shared no-op, so untraced callers pay one
    # attribute load.
    tracer = kernel_tracer()
    t0_us = time.perf_counter() * 1e6 if tracer.enabled else 0.0

    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 2 or x_digits.ndim != 2:
        raise ValueError("APMM operands must be 2-D digit matrices")
    if w_digits.shape[1] != x_digits.shape[1]:
        raise ValueError(
            f"K mismatch: W has K={w_digits.shape[1]}, X has K={x_digits.shape[1]}"
        )
    strategy, run_backend = backends.resolve_dispatch(
        strategy, backend, kernel_name="apmm"
    )

    m, k = w_digits.shape
    n = x_digits.shape[0]

    tune = None
    if config is None:
        tune = autotune(m, n, weight.bits, feature.bits, device)
        config = tune.config
    config.validate_for_device(device)

    run_counters = ExecutionCounters()
    route, prepared = strategy, False
    if strategy == "packed":
        engine = auto_engine(w_digits, weight, feature, run_backend)
        route = "popcount" if engine == "bmma" else "fold"
        prepared = engine == "bmma" and weights_frozen(w_digits)
        acc = packed_matmul(
            w_digits, x_digits, weight, feature, engine=engine,
            backend=run_backend, counters=run_counters,
        )
    elif strategy == "bitserial":
        acc = apbit_matmul(w_digits, x_digits, weight, feature)
    else:
        acc = reference_matmul(w_digits, x_digits, weight, feature)

    out_precision = None
    output = acc
    out_bits = 32
    if out_quantizer is not None:
        output = out_quantizer.quantize(acc.astype(np.float64))
        out_precision = out_quantizer.precision
        out_bits = out_quantizer.bits

    cost = gemm_cost(
        m, n, k, weight.bits, feature.bits, config,
        out_bits=out_bits,
        batch_planes=batch_planes,
        double_caching=double_caching,
        decompose_input=decompose_input,
        name=f"apmm-w{weight.bits}a{feature.bits}-{m}x{n}x{k}",
    )
    # The analytic model charges the virtual-hardware work; which backend
    # *actually* executed the hot loops is an observed fact, recorded on
    # top so plans/spans/tests can assert it.
    cost.counters.compiled_kernels = run_counters.compiled_kernels
    if tracer.enabled:
        tracer.span(
            cost.name, "kernel", t0_us, time.perf_counter() * 1e6,
            track="wall", lane="apmm",
            strategy=strategy, backend=run_backend.name,
            route=route, weights="prepared" if prepared else "per-call",
            m=m, n=n, k=k,
            weight_bits=weight.bits, feature_bits=feature.bits,
            **cost.counters.as_dict(),
        )
    return APMMResult(
        output=output,
        cost=cost,
        config=config,
        tune=tune,
        out_precision=out_precision,
    )
