"""Vectorized packed-word execution backend for the emulated kernels.

:func:`repro.core.emulate.apbit_matmul` is the semantic reference for the
AP-Bit template: it evaluates every ``(s, t)`` bit-plane pair through one
big broadcast over packed words, materializing a ``(p, q, M, N, nwords)``
intermediate -- faithful, but memory-bound and allocation-bound.  This
module is the fast path the kernels dispatch by default.  Two engines,
both byte-identical to the reference (and to the tile-level oracle
:func:`repro.kernels.apmm_sim.apmm_tile_simulate`):

* ``"bmma"`` -- the structural path: split operands into bit-planes
  packed along the reduction axis into ``uint64`` words (the backend's
  ``pack_digits`` contract, :func:`_pack_digits`), stacked as the
  *virtual batched operand* of the paper's batch-based design
  (``(p*M, nwords)`` x ``(q*N, nwords)``), and hand both to
  :func:`_popcount_gemm`, the one popcount-GEMM core.  It runs the
  backend's ``packed_gemm`` contract -- the weighted popcount GEMM
  ``sum_{s,t} 2**(s+t) * popc(W_s op X_t)`` -- then the shared fold
  epilogue, the hardware-equivalent BMMA tally and the int32 check.
  The cffi tier fuses the shift weights into its C accumulation; the
  numpy tier issues one :func:`~repro.tensorcore.bmma.bmma_batched`
  over all plane pairs and takes the shift-weighted sum.  The packed
  conv gather (:mod:`repro.kernels.packed_conv`) ends in the same core.
* ``"fold"`` -- the plane-folding shortcut: every
  :class:`~repro.core.opselect.OperatorPlan` correction is *affine in the
  per-plane popcounts with (s, t)-independent coefficients*, so the double
  shifted sum ``Y = sum_{s,t} 2**(s+t) * plane(s, t)`` distributes onto
  the operands: ``sum_{s,t} 2**(s+t) * popc(W_s op X_t)`` collapses to a
  single BLAS GEMM between the *digit* matrices (for ``AND``,
  ``sum_s 2**s W_s`` is just the digits themselves).  That replaces
  ``p*q`` plane-pair products with one.  Exactness holds while every
  partial sum fits the float mantissa; the bound is checked and the
  engine refuses otherwise.

Static weights are validated and packed once.  A weight array that can
never change (:func:`weights_frozen` -- the quantizers in
:mod:`repro.core.quantize` return such digits) has its packed words
memoized on first use, so later calls do only activation-side work:
one ``pack_digits`` call on ``X`` (range check, bit split and pack in a
single C pass on the cffi tier), then one fused popcount GEMM.

``engine="auto"`` (the default everywhere) picks ``bmma`` on those
prepared words when :func:`packed_preferred` says the fused popcount GEMM
wins; otherwise ``fold`` whenever its exactness bound holds -- in
practice always for the paper's precisions -- falling back to ``bmma``.
Writable weights never take the prepared route.  Both engines share one
epilogue (:func:`_fold_epilogue`), so outputs match the reference bit
for bit; the hypothesis suites in ``tests/core/test_packed.py`` and
``tests/core/test_prepared.py`` enforce this across precision pairs,
encodings, and ragged (non-multiple-of-64) reduction lengths.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import backends
from .bitops import _decompose, pack_bits, popcount_reduce
from .emulate import INT32_MAX, INT32_MIN
from .opselect import OperatorPlan, TCOp, select_operator
from .types import Precision

__all__ = [
    "PACKED_ENGINES",
    "PACKED_PQ_THRESHOLD",
    "PackedOperand",
    "auto_engine",
    "pack_operand",
    "packed_matmul",
    "packed_matmul_planes",
    "packed_preferred",
    "prepared_weight_stats",
    "prepared_weights",
    "fold_exactness_bound",
    "weights_frozen",
]

#: Engines of :func:`packed_matmul` (``auto`` resolves per problem).
PACKED_ENGINES = ("auto", "bmma", "fold")

#: Largest integer float64 represents exactly (2**53); the fold engine's
#: partial sums must stay strictly below this.
_FLOAT64_EXACT = 1 << 53

_FLOAT32_EXACT = 1 << 24

#: Plane-pair count (``p * q``) at or below which the fused popcount GEMM
#: on packed words beats the fold engine's BLAS GEMM.  The fused kernel's
#: work scales with ``p * q`` sweeps over the packed words while fold is
#: a single BLAS GEMM regardless of precision.  Measured at bench conv
#: shapes the crossover sits between 4 (gather 1.7-4.5x faster) and 8
#: (fold 1.04-1.8x faster): w1a2/w2a2/w1a4 on the popcount side,
#: w2a4/w4a4/w2a8 on the fold side.  On prepared (static) weights a
#: GEMV-shaped product such as AlexNet fc7 (4096x4x4096, w1a2) drops
#: from ~70 ms on fold to ~1 ms.  At ``p * q = 4`` with ``N`` in the
#: thousands fold stays ahead: w1a4 64x8192x576 takes 24-27 ms on the
#: prepared popcount route against 17-25 ms on fold (2-vCPU x86_64,
#: cffi, best of 15; 27-34 ms when numpy decomposed the activations).
#: The compiled ``pack_digits`` of ``X`` is 6.9 ms of it, the fused GEMM
#: 8.7 ms, the numpy row sums and epilogue the rest.
PACKED_PQ_THRESHOLD = 4


@dataclass(frozen=True)
class PackedOperand:
    """One operand of the packed backend: bit-planes as ``uint64`` words.

    Attributes
    ----------
    words:
        ``(bits, rows, nwords)`` uint64 -- plane ``s`` of row ``r`` packed
        along the reduction axis (:func:`~repro.core.bitops.pack_bits`
        layout, zero-padded final word; :func:`_pack_digits` on the rows
        viewed as ``(rows, K, 1, 1)``).
    k_logical:
        True (pre-padding) reduction length.
    precision:
        Bit-width + encoding of the digits the planes came from.
    """

    words: np.ndarray
    k_logical: int
    precision: Precision

    @property
    def bits(self) -> int:
        return self.words.shape[0]

    @property
    def rows(self) -> int:
        return self.words.shape[1]

    @property
    def nwords(self) -> int:
        return self.words.shape[2]

    def batched(self) -> np.ndarray:
        """The virtual batched operand ``(bits * rows, nwords)`` -- plane
        ``s`` of row ``r`` at batched row ``s * rows + r``."""
        return self.words.reshape(self.bits * self.rows, self.nwords)

    def row_popcounts(self) -> np.ndarray:
        """Per-plane set-bit counts, ``(bits, rows)`` int64."""
        return popcount_reduce(self.words, axis=-1)


def pack_operand(
    digits: np.ndarray,
    precision: Precision,
    *,
    backend: "backends.Backend | str | None" = None,
    counters=None,
) -> PackedOperand:
    """Range-check a ``(rows, K)`` digit matrix and pack it plane-wise.

    ``backend`` selects who packs (:mod:`repro.core.backends`); a
    compiled ``pack_digits`` kernel produces byte-identical words to the
    numpy reference.
    """
    digits = np.asarray(digits)
    if digits.ndim != 2:
        raise ValueError(f"digits must be 2-D, got shape {digits.shape}")
    return _pack_rows(digits, precision, "operand", backend, counters)


def _pack_rows(
    digits: np.ndarray, precision: Precision, name: str, backend, counters
) -> PackedOperand:
    """:func:`_pack_digits` on a ``(rows, K)`` matrix viewed as ``(rows,
    K, 1, 1)``: K is the channel axis, so the words come out ``(bits,
    rows, nwords)``."""
    rows, k = digits.shape
    words = _pack_digits(
        digits.reshape(rows, k, 1, 1), precision, name, backend, counters
    )
    return PackedOperand(
        words=words.reshape(precision.bits, rows, -1),
        k_logical=k,
        precision=precision,
    )


def _pack_digits_numpy(
    digits: np.ndarray, bits: int, pad: int, pad_digit: int
) -> tuple[np.ndarray | None, bool]:
    """The numpy tier of the ``pack_digits`` contract, and its reference:
    pad, range-check, bit-split, move channels last and pack them."""
    # core must stay importable without kernels at module-import time
    from ..kernels.padding import pad_digits

    if digits.dtype.kind not in "iu" or digits.size and (
        digits.min() < 0 or digits.max() >= 1 << bits
    ):
        return None, True
    planes = _decompose(pad_digits(digits, pad, pad_digit), bits)
    words = pack_bits(planes.transpose(0, 1, 3, 4, 2))
    return words.reshape((-1,) + words.shape[2:]), False


def _pack_digits(
    digits: np.ndarray,
    precision: Precision,
    name: str,
    backend,
    counters,
    *,
    pad: int = 0,
    pad_digit: int = 0,
) -> np.ndarray:
    """The one activation/weight pack every popcount route runs.

    ``(B, C, H, W)`` digits become ``(bits * B, H + 2*pad, W + 2*pad,
    ceil(C / 64))`` uint64 words: plane ``s`` of image ``i`` at index
    ``s * B + i`` (plane-major, so gathered rows form the virtual
    batched operand), channel ``c`` at bit ``c % 64`` of word ``c //
    64`` with zero filler bits, and the pad frame holding the planes of
    ``pad_digit``.  The backend's ``pack_digits`` kernel (numpy:
    :func:`_pack_digits_numpy`) also returns an out-of-range flag; when
    it is set, :func:`_check_digits` runs on the map as padded and
    raises its ``TypeError``/``ValueError``.  One ``compiled_kernels``
    tick per compiled call.
    """
    fn = backends.kernel("pack_digits", backend)
    words, bad = (fn or _pack_digits_numpy)(
        digits, precision.bits, pad, pad_digit
    )
    if bad:
        from ..kernels.padding import pad_digits

        _check_digits(pad_digits(digits, pad, pad_digit), precision, name)
        raise RuntimeError(
            f"pack_digits flagged {name} digits that pass the range check"
        )
    if fn is not None and counters is not None:
        counters.compiled_kernels += 1
    return words


def fold_exactness_bound(k: int, p_bits: int, q_bits: int) -> int:
    """Largest partial sum the fold engine's single GEMM can produce.

    The folded operands hold digits in ``[0, 2**p)`` and ``[0, 2**q)``;
    a K-long dot product is bounded by ``K * (2**p - 1) * (2**q - 1)``.
    """
    return k * ((1 << p_bits) - 1) * ((1 << q_bits) - 1)


def _check_digits(digits: np.ndarray, precision: Precision, name: str) -> None:
    if digits.dtype.kind not in "iu":
        raise TypeError(
            f"{name} digits must be an integer array, got {digits.dtype}"
        )
    if digits.size and (
        digits.min() < 0 or digits.max() >= precision.num_levels
    ):
        raise ValueError(
            f"{name} digits out of range for {precision.bits}-bit precision: "
            f"[{digits.min()}, {digits.max()}]"
        )


def packed_preferred(
    weight: Precision,
    feature: Precision,
    k: int,
    backend: "backends.Backend | str | None" = None,
) -> bool:
    """Whether the fused popcount GEMM should run instead of fold.

    The one dispatch rule of both kernels: :func:`auto_engine` asks it
    before using prepared weights, and APConv before its packed window
    gather.  True when the backend provides ``packed_gemm`` *and* the
    route is expected to win: either ``p * q`` is at most
    :data:`PACKED_PQ_THRESHOLD`, or the fold engine's exactness bound
    fails for this ``k`` (the alternative would then be the far slower
    plane-pair numpy bmma path).
    """
    if backends.kernel("packed_gemm", backend) is None:
        return False
    if weight.bits * feature.bits <= PACKED_PQ_THRESHOLD:
        return True
    return fold_exactness_bound(k, weight.bits, feature.bits) >= _FLOAT64_EXACT


def weights_frozen(digits: Any) -> bool:
    """Whether ``digits`` can never change, so its packed form may be kept.

    True for an integer array that is read-only and is a view whose
    every base is a read-only array -- an array whose own flag is the
    only guard does not qualify, since anyone holding it may flip the
    flag back.  The quantizers return such digits: a read-only view of
    a read-only buffer, on which numpy refuses ``flags.writeable =
    True``.
    """
    if not isinstance(digits, np.ndarray) or digits.flags.writeable:
        return False
    if digits.dtype.kind not in "iu" or digits.base is None:
        return False
    base = digits.base
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    # the chain must end at an array that owns its memory, not at a
    # foreign buffer whose writability numpy does not track
    return base is None


class _WeightMemo:
    """Prepared (validated, packed) forms of frozen weight arrays.

    Keyed by the identity of the array the caller passed in, through a
    weakref: an entry is dropped when its array is collected, so a new
    array at a recycled ``id`` starts cold.  Every lookup re-checks
    :func:`weights_frozen`.  Builds run outside the lock; two threads on
    one cold weight build identical words and the first stored wins.
    """

    def __init__(self) -> None:
        # re-entrant: a collection inside a locked section can run the
        # weakref callback, which takes the lock again
        self._lock = threading.RLock()
        self._entries: dict[int, tuple[weakref.ref, dict]] = {}
        self._prepares = 0
        self._hits = 0

    def get(self, digits: np.ndarray, key: tuple, build: Callable[[], Any]):
        """The memoized ``build()`` for frozen ``digits``, else ``None``."""
        if not weights_frozen(digits):
            return None
        ident = id(digits)
        with self._lock:
            entry = self._entries.get(ident)
            if entry is not None and entry[0]() is digits and key in entry[1]:
                self._hits += 1
                return entry[1][key]
        value = build()
        with self._lock:
            self._prepares += 1
            entry = self._entries.get(ident)
            if entry is None or entry[0]() is not digits:
                ref = weakref.ref(digits, functools.partial(self._drop, ident))
                entry = (ref, {})
                self._entries[ident] = entry
            return entry[1].setdefault(key, value)

    def _drop(self, ident: int, ref: weakref.ref) -> None:
        with self._lock:
            entry = self._entries.get(ident)
            if entry is not None and entry[0] is ref:
                del self._entries[ident]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "prepares": self._prepares,
                "hits": self._hits,
                "entries": len(self._entries),
            }


_WEIGHT_MEMO = _WeightMemo()


def prepared_weights(
    digits: np.ndarray,
    precision: Precision,
    form: str,
    build: Callable[[np.ndarray], Any],
):
    """The weight operand ``build(digits)``.

    ``build`` range-checks while it packs (both builds run
    :func:`_pack_digits`).  Frozen arrays (:func:`weights_frozen`) are
    built on first use and served from the memo afterwards; writable
    arrays are built on every call.  ``form`` names the layout
    ``build`` produces (``"gemm"`` or ``"conv"``); it and the
    precision, shape and dtype key the memo entry.
    """
    key = (form, precision, digits.shape, digits.dtype.str)
    value = _WEIGHT_MEMO.get(digits, key, lambda: build(digits))
    return build(digits) if value is None else value


def prepared_weight_stats() -> dict[str, int]:
    """Process-wide memo counters: ``prepares`` (weight builds made for
    the memo), ``hits`` (calls it served) and live ``entries``."""
    return _WEIGHT_MEMO.stats()


def auto_engine(
    w_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    backend: "backends.Backend | str | None" = None,
) -> str:
    """The engine ``engine="auto"`` runs for these weights.

    ``bmma`` on prepared words when the weights are frozen and
    :func:`packed_preferred` holds; otherwise ``fold`` while its
    exactness bound holds, else ``bmma``.
    """
    k = w_digits.shape[1]
    if weights_frozen(w_digits) and packed_preferred(weight, feature, k, backend):
        return "bmma"
    if fold_exactness_bound(k, weight.bits, feature.bits) < _FLOAT64_EXACT:
        return "fold"
    return "bmma"


def _check_overflow(out: np.ndarray) -> None:
    if out.size and (out.min() < INT32_MIN or out.max() > INT32_MAX):
        raise OverflowError(
            "emulated product exceeds the int32 Tensor-Core accumulator: "
            f"range [{out.min()}, {out.max()}]"
        )


def _fold_epilogue(
    popc_fold: np.ndarray,
    plan: OperatorPlan,
    k: int,
    sp: np.int64,
    sq: np.int64,
    row_w: np.ndarray | None,
    row_x: np.ndarray | None,
) -> np.ndarray:
    """The plan's affine correction applied to folded popcount sums.

    ``popc_fold`` is ``sum_{s,t} 2**(s+t) * popc(W_s op X_t)`` -- however
    it was produced (the ``fold`` engine's digit GEMM, or either
    backend's ``packed_gemm`` in :func:`_popcount_gemm`); the epilogue
    algebra is identical, which is what keeps every engine/backend
    byte-identical.
    """
    out = plan.popc_scale * popc_fold
    if plan.k_scale:
        out = out + plan.k_scale * np.int64(k) * sp * sq
    if plan.needs_row_sums:
        out = out + plan.wsum_scale * sq * row_w[:, None]
    if plan.needs_col_sums:
        out = out + plan.xsum_scale * sp * row_x[None, :]
    return out


def _packed_gemm_numpy(
    a_words: np.ndarray,
    b_words: np.ndarray,
    p: int,
    m: int,
    q: int,
    n: int,
    op_and: bool,
) -> np.ndarray:
    """The numpy tier of the ``packed_gemm`` contract: one
    :func:`~repro.tensorcore.bmma.bmma_batched` over every ``(s, t)``
    plane pair of the batched operands, then the shift-weighted sum
    ``sum_{s,t} 2**(s+t) * popc(A_s op B_t)`` as ``(m, n)`` int64."""
    # core must stay importable without tensorcore at module-import time
    # (layering: tensorcore sits above core and imports core.bitops)
    from ..tensorcore.bmma import bmma_batched

    popc = bmma_batched(a_words, b_words, TCOp.AND if op_and else TCOp.XOR)
    popc = popc.reshape(p, m, q, n)
    fold = np.zeros((m, n), dtype=np.int64)
    for s in range(p):
        for t in range(q):
            fold += popc[s, :, t, :] << (s + t)
    return fold


def _weighted_rowsums(words: np.ndarray, bits: int, rows: int) -> np.ndarray:
    """``sum_s 2**s * rowsum(plane s)``, straight off batched packed words."""
    shifts = np.int64(1) << np.arange(bits, dtype=np.int64)
    counts = popcount_reduce(words.reshape(bits, rows, words.shape[1]), axis=-1)
    return (counts * shifts[:, None]).sum(axis=0)


def _popcount_gemm(
    w_words: np.ndarray,
    x_words: np.ndarray,
    p: int,
    m: int,
    q: int,
    n: int,
    k_logical: int,
    plan: OperatorPlan,
    backend: "backends.Backend | str | None",
    counters,
) -> np.ndarray:
    """The popcount-GEMM core every packed route ends in.

    ``w_words`` is the ``(p*m, nwords)`` and ``x_words`` the
    ``(q*n, nwords)`` virtual batched operand (plane ``s`` of row ``r``
    at row ``s * rows + r``).  Five steps: the weighted popcount GEMM
    ``sum_{s,t} 2**(s+t) * popc(W_s op X_t)`` on the backend's
    ``packed_gemm`` kernel (numpy: :func:`_packed_gemm_numpy`), the
    shift-weighted row sums the plan's correction needs, the fold
    epilogue, the hardware-equivalent BMMA tally and the int32
    accumulator check.  Exact in int64 and byte-identical across
    backends.
    """
    from ..tensorcore.bmma import _tally_bmma

    gemm = backends.kernel("packed_gemm", backend)
    fold = (gemm or _packed_gemm_numpy)(
        w_words, x_words, p, m, q, n, plan.op is TCOp.AND
    )
    row_w = _weighted_rowsums(w_words, p, m) if plan.needs_row_sums else None
    row_x = _weighted_rowsums(x_words, q, n) if plan.needs_col_sums else None
    out = _fold_epilogue(
        fold, plan, k_logical,
        np.int64((1 << p) - 1), np.int64((1 << q) - 1), row_w, row_x,
    )
    if counters is not None:
        _tally_bmma(counters, p * m, q * n, w_words.shape[1])
        if gemm is not None:
            counters.compiled_kernels += 1
    _check_overflow(out)
    return out


def packed_matmul_planes(
    w_packed: PackedOperand,
    x_packed: PackedOperand,
    plan: OperatorPlan,
    *,
    counters=None,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """The ``bmma`` engine on already-packed operands.

    Both operands' virtual batched forms go through
    :func:`_popcount_gemm`: the backend's weighted popcount GEMM (the
    cffi tier fuses the shift weights into its accumulation, so the
    ``(p, q, M, N)`` plane intermediate never exists; the numpy tier
    issues one ``bmma_batched`` over all plane pairs), then the same
    fold epilogue the ``fold`` engine uses.  Exact in int64; outputs
    are byte-identical across backends.
    """
    if w_packed.nwords != x_packed.nwords:
        raise ValueError(
            f"packed word count mismatch: {w_packed.nwords} vs "
            f"{x_packed.nwords}"
        )
    if w_packed.k_logical != x_packed.k_logical:
        raise ValueError(
            f"K mismatch: {w_packed.k_logical} vs {x_packed.k_logical}"
        )
    return _popcount_gemm(
        w_packed.batched(), x_packed.batched(),
        w_packed.bits, w_packed.rows, x_packed.bits, x_packed.rows,
        w_packed.k_logical, plan, backend, counters,
    )


def _packed_matmul_fold(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    plan: OperatorPlan,
    p_bits: int,
    q_bits: int,
) -> np.ndarray:
    """The ``fold`` engine: one digit-domain popcount-reduce GEMM.

    With ``D(s, t) = popc(W_s op X_t)`` and the plan's affine correction,

        Y = sum_{s,t} 2**(s+t) * (a*D + b_w*rowsum(W_s) + b_x*rowsum(X_t)
                                  + c*K)

    every coefficient is (s, t)-independent, so with ``Sp = 2**p - 1``
    and ``Sq = 2**q - 1`` (the fold of the shift weights):

        sum_{s,t} 2**(s+t) * rowsum(W_s) = Sq * rowsum(W digits)
        sum_{s,t} 2**(s+t) * K           = Sp * Sq * K
        sum_{s,t} 2**(s+t) * <W_s, X_t>  = <W digits, X digits>

    and for XOR, ``popc(W_s ^ X_t) = rowsum(W_s) + rowsum(X_t) -
    2 * <W_s, X_t>`` folds the same way.  One BLAS GEMM on the raw digit
    matrices replaces all ``p*q`` plane-pair products.
    """
    k = w_digits.shape[1]
    bound = fold_exactness_bound(k, p_bits, q_bits)
    dtype = np.float32 if bound < _FLOAT32_EXACT else np.float64
    wf = w_digits.astype(dtype)
    xf = x_digits.astype(dtype)
    dots = (wf @ xf.T).astype(np.int64)  # sum_{s,t} 2**(s+t) <W_s, X_t>

    sp = np.int64((1 << p_bits) - 1)
    sq = np.int64((1 << q_bits) - 1)
    row_w = None
    row_x = None
    if plan.op is TCOp.XOR or plan.needs_row_sums:
        row_w = w_digits.sum(axis=1, dtype=np.int64)  # sum_s 2**s rowsum(W_s)
    if plan.op is TCOp.XOR or plan.needs_col_sums:
        row_x = x_digits.sum(axis=1, dtype=np.int64)

    if plan.op is TCOp.AND:
        popc_fold = dots
    else:
        popc_fold = sq * row_w[:, None] + sp * row_x[None, :] - 2 * dots

    return _fold_epilogue(popc_fold, plan, k, sp, sq, row_w, row_x)


def packed_matmul(
    w_digits: np.ndarray,
    x_digits: np.ndarray,
    weight: Precision,
    feature: Precision,
    *,
    engine: str = "auto",
    counters=None,
    backend: "backends.Backend | str | None" = None,
) -> np.ndarray:
    """Arbitrary-precision matmul on the vectorized packed-word backend.

    Drop-in equivalent of :func:`repro.core.emulate.apbit_matmul` --
    ``(M, K)`` x ``(N, K)`` digit matrices in, ``decode(W) @ decode(X).T``
    as int64 out, int32-accumulator overflow checked -- but executed
    through one whole-matrix popcount-reduce GEMM instead of the per-plane
    broadcast.  See the module docstring for the two engines; outputs are
    byte-identical across engines and to the reference.

    ``counters`` (optional :class:`~repro.tensorcore.counters.ExecutionCounters`)
    tallies the hardware-equivalent 1-bit work when the ``bmma`` engine
    runs; the ``fold`` engine performs algebraically collapsed work and
    leaves counting to the cost model, which continues to charge the full
    virtual batched BMMA (:func:`repro.perf.cost.gemm_cost`).

    ``backend`` picks the kernel backend for the ``bmma`` engine's hot
    loops (:mod:`repro.core.backends`; ``None`` means the auto-detected
    backend).  The ``fold`` engine is a BLAS call and ignores it.
    ``engine="auto"`` resolves through :func:`auto_engine`, which takes
    the backend into account only for frozen weights.  The ``bmma``
    engine packs frozen weights once (:func:`prepared_weights`).
    """
    w_digits = np.asarray(w_digits)
    x_digits = np.asarray(x_digits)
    if w_digits.ndim != 2 or x_digits.ndim != 2:
        raise ValueError("operands must be 2-D digit matrices")
    if w_digits.shape[1] != x_digits.shape[1]:
        raise ValueError(
            f"reduction mismatch: W K={w_digits.shape[1]}, "
            f"X K={x_digits.shape[1]}"
        )
    if engine not in PACKED_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {PACKED_ENGINES}"
        )
    if engine == "auto":
        engine = auto_engine(w_digits, weight, feature, backend)
    plan = select_operator(weight, feature)
    k = w_digits.shape[1]
    if engine == "bmma":
        w_packed = prepared_weights(
            w_digits, weight, "gemm",
            lambda d: _pack_rows(d, weight, "weight", backend, counters),
        )
        return packed_matmul_planes(
            w_packed,
            _pack_rows(x_digits, feature, "feature", backend, counters),
            plan,
            counters=counters,
            backend=backend,
        )

    _check_digits(w_digits, weight, "weight")
    _check_digits(x_digits, feature, "feature")
    bound = fold_exactness_bound(k, weight.bits, feature.bits)
    if bound >= _FLOAT64_EXACT:
        raise ValueError(
            "fold engine exactness bound exceeded "
            f"(K={k}, w{weight.bits}a{feature.bits}: partial sums up to "
            f"{bound} >= 2**53); use engine='bmma'"
        )
    out = _packed_matmul_fold(w_digits, x_digits, plan, weight.bits, feature.bits)
    _check_overflow(out)
    return out
