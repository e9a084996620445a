"""Bit-level array primitives: decomposition, combination, packing, popcount.

These are the vectorized building blocks of the paper's AP-Bit operation
template (section 3.1):

* *bit decomposition* (eq. 2): split a ``b``-bit integer array into ``b``
  one-bit planes, ``x_s = (x >> s) & 1``;
* *bit combination* (eq. 1): rebuild ``Y = sum_{s,t} Y^(s,t) * 2**(s+t)``
  from the per-plane BMMA outputs;
* *word packing*: Tensor-Core ``bmma`` consumes 128-bit rows; on the
  simulator we pack bit-planes along the reduction axis into ``uint64``
  words so a whole row is a handful of machine words and popcount runs
  vectorized (``np.bitwise_count``).

All functions are pure and operate on NumPy arrays without Python-level
loops over elements, per the HPC guidance for this codebase.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_decompose",
    "bit_combine",
    "pack_bits",
    "unpack_bits",
    "packed_words",
    "popcount",
    "popcount_reduce",
    "WORD_BITS",
]

#: Width of the machine word bit-planes are packed into.
WORD_BITS = 64

_WORD_DTYPE = np.uint64


def bit_decompose(x: np.ndarray, bits: int) -> np.ndarray:
    """Split integer digits into bit-planes (paper eq. 2).

    Parameters
    ----------
    x:
        Integer array with values in ``[0, 2**bits)``.
    bits:
        Number of planes to extract.

    Returns
    -------
    np.ndarray
        ``uint8`` array of shape ``(bits,) + x.shape``; plane ``s`` holds
        ``(x >> s) & 1``.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise TypeError(f"bit_decompose requires integer input, got {x.dtype}")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if x.size and (x.min() < 0 or x.max() >= (1 << bits)):
        raise ValueError(
            f"values out of range for {bits}-bit decomposition: "
            f"[{x.min()}, {x.max()}]"
        )
    shifts = np.arange(bits, dtype=x.dtype).reshape((bits,) + (1,) * x.ndim)
    return ((x[None, ...] >> shifts) & 1).astype(np.uint8)


def _decompose(x: np.ndarray, bits: int) -> np.ndarray:
    """The packed kernels' :func:`bit_decompose`: no range scan (their
    callers range-check the digits once) and narrow lanes.

    :func:`bit_decompose` stays the plain formulation the reference
    paths time against; ``tests/core/test_bitops.py`` holds the two
    byte-identical.
    """
    if not np.issubdtype(x.dtype, np.integer):
        raise TypeError(f"bit_decompose requires integer input, got {x.dtype}")
    if bits <= 16:
        # in-range digits fit a narrow lane: shift 1- or 2-byte lanes
        x = x.astype(np.uint8 if bits <= 8 else np.uint16)
    # one plane at a time, in place: a broadcast shift over all planes
    # is over 2x slower
    planes = np.empty((bits,) + x.shape, dtype=np.uint8)
    for s in range(bits):
        np.bitwise_and(x >> s, 1, out=planes[s, ...], casting="unsafe")
    return planes


def bit_combine(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bit_decompose`: ``sum_s planes[s] << s``.

    Accepts arbitrary integer planes (not just 0/1) so it can also serve as
    the shifted-add *bit combination* step applied to 32-bit BMMA partial
    outputs (paper eq. 1 generalizes to ``Y = sum_s Y^(s) * 2**s`` along one
    plane axis; apply twice for the double sum over ``s`` and ``t``).
    """
    planes = np.asarray(planes)
    if planes.ndim < 1:
        raise ValueError("planes must have a leading plane axis")
    bits = planes.shape[0]
    weights = (np.int64(1) << np.arange(bits, dtype=np.int64)).reshape(
        (bits,) + (1,) * (planes.ndim - 1)
    )
    return np.sum(planes.astype(np.int64) * weights, axis=0)


def packed_words(length: int) -> int:
    """Number of ``uint64`` words needed to hold ``length`` bits."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return -(-length // WORD_BITS)


def pack_bits(bits01: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into ``uint64`` words.

    Bit ``k`` of the input maps to bit ``k % 64`` of word ``k // 64``
    (little-endian within the word).  The last word is zero-padded, which is
    the correct neutral element for both the ``AND`` and ``XOR`` reduction
    paths *provided both operands are packed the same way* (pad AND pad = 0,
    pad XOR pad = 0; the emulation layer always tracks the logical length).

    Returns an array of shape ``bits01.shape[:-1] + (ceil(K/64),)``.
    """
    bits01 = np.asarray(bits01)
    if bits01.size and (bits01.min() < 0 or bits01.max() > 1):
        raise ValueError("pack_bits input must be 0/1 valued")
    k = bits01.shape[-1]
    nwords = packed_words(k)
    pad = nwords * WORD_BITS - k
    if pad:
        pad_spec = [(0, 0)] * (bits01.ndim - 1) + [(0, pad)]
        bits01 = np.pad(bits01, pad_spec, constant_values=0)
    # view as (..., nwords, 64) and weight each bit position
    grouped = bits01.reshape(bits01.shape[:-1] + (nwords, WORD_BITS))
    weights = np.left_shift(
        np.uint64(1), np.arange(WORD_BITS, dtype=_WORD_DTYPE), dtype=_WORD_DTYPE
    )
    return (grouped.astype(_WORD_DTYPE) * weights).sum(
        axis=-1, dtype=_WORD_DTYPE
    )


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns ``uint8`` 0/1 of size ``length``."""
    words = np.asarray(words, dtype=_WORD_DTYPE)
    if packed_words(length) != words.shape[-1]:
        raise ValueError(
            f"word count {words.shape[-1]} inconsistent with length {length}"
        )
    shifts = np.arange(WORD_BITS, dtype=_WORD_DTYPE)
    bits = (words[..., :, None] >> shifts) & _WORD_DTYPE(1)
    flat = bits.reshape(words.shape[:-1] + (words.shape[-1] * WORD_BITS,))
    return flat[..., :length].astype(np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element population count of unsigned integer words."""
    words = np.asarray(words)
    if not np.issubdtype(words.dtype, np.unsignedinteger):
        raise TypeError(f"popcount requires unsigned input, got {words.dtype}")
    return np.bitwise_count(words).astype(np.int64)


def popcount_reduce(words: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum of population counts along ``axis`` (the packed-word axis)."""
    return popcount(words).sum(axis=axis, dtype=np.int64)
