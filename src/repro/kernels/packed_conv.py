"""Packed-word convolution without im2col materialization.

The PR 5 packed conv lowers onto APMM by materializing the im2col digit
matrix -- ``(batch * OH * OW, C_in * KH * KW)`` int64 digits, every input
pixel duplicated ``KH * KW`` times *before* bit packing.  This module is
the compiled-backend alternative: pack the padded feature map **once**
(channel-last, ``C_in`` bits per pixel packed into ``ceil(C_in / 64)``
words) and let the backend's ``conv_gather`` kernel copy each window's
``KH * KW`` word-runs straight into the GEMM operand -- the duplication
happens on 64x-compressed words, and the digit matrix never exists.

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
(:func:`~repro.core.packed.prepared_weights`); per call only the feature
map is checked, packed and gathered.
"""

from __future__ import annotations

import numpy as np

from ..core import backends
from ..core.bitops import _decompose, packed_words
from ..core.opselect import select_operator
from ..core.packed import (
    _check_digits,
    _pack_words,
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


def _pack_conv_weights(
    w_digits: np.ndarray, p: int, backend, counters
) -> np.ndarray:
    """Range-checked ``(C_out, C_in, KH, KW)`` digits -> ``(p * C_out,
    KH * KW * ceil(C_in / 64))`` channel-last packed words."""
    cout, cin, kh, kw = w_digits.shape
    w_planes = _decompose(w_digits, p)  # (p, C_out, C_in, KH, KW)
    w_cl = np.ascontiguousarray(w_planes.transpose(0, 1, 3, 4, 2))
    return _pack_words(w_cl, backend, counters).reshape(
        p * cout, kh * kw * packed_words(cin)
    )


def packed_conv_matmul(
    w_digits: np.ndarray,
    padded: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    stride: int = 1,
    counters=None,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Implicit-GEMM conv on word-packed windows; no im2col digit matrix.

    Parameters
    ----------
    w_digits:
        ``(C_out, C_in, KH, KW)`` weight digits.
    padded:
        ``(batch, C_in, HP, WP)`` feature digits, *already padded* (the
        caller owns input-aware padding; this function only sees the
        framed map, exactly like :func:`~repro.kernels.layout.im2col`).
    stride:
        Window stride (square kernels, like the rest of APConv).
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
    batch, cin_x, hp, wp = padded.shape
    if cin != cin_x:
        raise ValueError(
            f"channel mismatch: weights C_in={cin}, features C_in={cin_x}"
        )
    # Weights: same K order as the gathered windows -- (KH, KW, C_in
    # packed), one row per (plane, output channel).
    w_words = prepared_weights(
        w_digits, weight, "conv",
        lambda d: _pack_conv_weights(d, weight.bits, backend, counters),
    )
    _check_digits(padded, feature, "feature")
    p, q = weight.bits, feature.bits
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    # Features: decompose once, channel-last, pack C_in per pixel; the
    # q feature planes ride the images axis so the gathered rows come
    # out plane-major -- exactly the virtual batched operand layout.
    x_planes = _decompose(padded, q)  # (q, batch, C_in, HP, WP)
    x_cl = np.ascontiguousarray(x_planes.transpose(0, 1, 3, 4, 2))
    x_words = _pack_words(x_cl, backend, counters).reshape(
        q * batch, hp, wp, packed_words(cin)
    )
    gathered = gather(x_words, kh, kw, stride)  # (q*n_gemm, kwords)
    if counters is not None:
        counters.compiled_kernels += 1
    return _popcount_gemm(
        w_words, gathered, p, cout, q, batch * oh * ow, cin * kh * kw,
        select_operator(weight, feature), backend, counters,
    )
