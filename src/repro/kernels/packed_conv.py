"""Packed-word convolution without im2col materialization.

The PR 5 packed conv lowers onto APMM by materializing the im2col digit
matrix -- ``(batch * OH * OW, C_in * KH * KW)`` int64 digits, every input
pixel duplicated ``KH * KW`` times *before* bit packing.  This module is
the compiled-backend alternative: pack the feature map **once** with the
``pack_digits`` contract of :mod:`repro.core.packed` (channel-last,
``C_in`` bits per pixel packed into ``ceil(C_in / 64)`` words, the
input-aware pad frame written as words) and let the backend's
``conv_gather`` kernel copy each window's ``KH * KW`` word-runs straight
into the GEMM operand -- the duplication happens on 64x-compressed
words, and neither the padded digit map nor the digit matrix exists.
On the cffi tier the pack is one C pass from the unpadded digits: range
check, pad frame, bit split and channel pack.

K-order differs from the im2col path (``(KH, KW, C_in)`` vs ``(C_in, KH,
KW)``), but popcount reductions are permutation-invariant over K, and the
zero filler bits in each ``C_in`` word group are neutral for both ``AND``
and ``XOR`` because both operands are zero there; outputs are therefore
byte-identical to the im2col path (the hypothesis suite enforces it).

The GEMM is the popcount-GEMM core of :mod:`repro.core.packed`
(``_popcount_gemm``) that ``apmm``'s packed route ends in -- same kernel
contract, epilogue, tally and int32 check.  Frozen weights
(:func:`~repro.core.packed.weights_frozen`) are validated and packed
into the channel-last layout once
(:func:`~repro.core.packed.prepared_weights`): ``(C_out, C_in, KH,
KW)`` weights through the same ``pack_digits`` contract at pad 0 give the
channel-last rows directly.  Per call only the feature map is packed
(range check included) and gathered.
"""

from __future__ import annotations

import numpy as np

from ..core import backends
from ..core.bitops import packed_words
from ..core.opselect import select_operator
from ..core.packed import (
    _pack_digits,
    _popcount_gemm,
    packed_preferred,
    prepared_weights,
)
from ..core.types import Precision

__all__ = [
    "packed_conv_preferred",
    "packed_conv_matmul",
]


def packed_conv_preferred(
    weight: Precision,
    feature: Precision,
    k_logical: int,
    backend: "backends.Backend | str | None" = None,
) -> bool:
    """Whether the gather path should replace im2col for this problem:
    the backend provides ``conv_gather`` and
    :func:`~repro.core.packed.packed_preferred` -- the dispatch rule APMM
    shares -- expects the popcount route to win.
    """
    if backends.kernel("conv_gather", backend) is None:
        return False
    return packed_preferred(weight, feature, k_logical, backend)


def packed_conv_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    stride: int = 1,
    padding: int = 0,
    pad_digit: int = 0,
    counters=None,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Implicit-GEMM conv on word-packed windows; no im2col digit matrix.

    Parameters
    ----------
    w_digits:
        ``(C_out, C_in, KH, KW)`` weight digits.
    x_digits:
        ``(batch, C_in, H, W)`` feature digits.
    stride:
        Window stride (square kernels, like the rest of APConv).
    padding, pad_digit:
        Spatial padding and the digit that fills it (the caller's
        input-aware padding plan, :func:`~repro.kernels.padding.
        plan_padding`); the frame is written straight into the packed
        words.  ``padding=0`` takes an already padded map.
    counters:
        Optional :class:`~repro.tensorcore.counters.ExecutionCounters`;
        tallies the equivalent 1-bit BMMA work of this layout plus one
        ``compiled_kernels`` tick per compiled kernel invocation.
    backend:
        Kernel backend; must provide ``conv_gather`` (check with
        :func:`packed_conv_preferred` first).

    Returns
    -------
    np.ndarray
        ``(C_out, batch * OH * OW)`` int64 accumulators -- the same GEMM
        result shape the im2col path produces, ready for the caller's
        reshape / padding correction / re-quantization.
    """
    gather = backends.kernel("conv_gather", backend)
    if gather is None:
        raise RuntimeError(
            "packed_conv_matmul requires a backend providing conv_gather; "
            "check packed_conv_preferred() first"
        )

    cout, cin, kh, kw = w_digits.shape
    batch, cin_x, h, w = x_digits.shape
    if cin != cin_x:
        raise ValueError(
            f"channel mismatch: weights C_in={cin}, features C_in={cin_x}"
        )
    p, q = weight.bits, feature.bits
    # Weights: same K order as the gathered windows -- (KH, KW, C_in
    # packed), one row per (plane, output channel).
    w_words = prepared_weights(
        w_digits, weight, "conv",
        lambda d: _pack_digits(d, weight, "weight", backend, counters)
        .reshape(p * cout, kh * kw * packed_words(cin)),
    )
    # Features: (q * batch, HP, WP, cwords); the q planes ride the
    # images axis, so the gathered rows come out plane-major -- exactly
    # the virtual batched operand layout.
    x_words = _pack_digits(
        x_digits, feature, "feature", backend, counters,
        pad=padding, pad_digit=pad_digit,
    )
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    gathered = gather(x_words, kh, kw, stride)  # (q*n_gemm, kwords)
    if counters is not None:
        counters.compiled_kernels += 1
    return _popcount_gemm(
        w_words, gathered, p, cout, q, batch * oh * ow, cin * kh * kw,
        select_operator(weight, feature), backend, counters,
    )
