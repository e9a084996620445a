"""Equivalence suite for the vectorized packed-word backend.

The packed path must be byte-identical to every other way this repo
computes the AP-Bit product:

* the plane-wise reference (:func:`repro.core.emulate.apbit_matmul`),
* the decoded-integer reference (:func:`repro.core.emulate.reference_matmul`),
* the tile-level oracle (:func:`repro.kernels.apmm_sim.apmm_tile_simulate`),

across ``wXaY`` pairs, signed (bipolar) / unsigned quantizer encodings,
and ragged (non-multiple-of-64) reduction lengths — for both execution
engines (``bmma`` word-domain and ``fold`` plane-folded FMA).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Encoding,
    PackedOperand,
    Precision,
    PrecisionPair,
    apbit_matmul,
    backends,
    fold_exactness_bound,
    pack_operand,
    packed_matmul,
    reference_matmul,
    select_operator,
)
from repro.core.bitops import unpack_bits
from repro.core.packed import _pack_digits, packed_preferred
from repro.core.quantize import _freeze
from repro.kernels.apconv import apconv
from repro.kernels.apmm import apmm
from repro.kernels.packed_conv import packed_conv_matmul, packed_conv_preferred
from repro.tensorcore import ExecutionCounters

U, B = Encoding.UNSIGNED, Encoding.BIPOLAR

needs_cffi = pytest.mark.skipif(
    "cffi" not in backends.backend_names()
    or backends.kernel("packed_gemm", "cffi") is None,
    reason="cffi backend not usable here",
)
#: The two kernel tiers; the cffi one skips where it cannot load.
BACKENDS = ["numpy", pytest.param("cffi", marks=needs_cffi)]

#: First K at which w16a16's fold bound reaches 2**53: ``packed_preferred``
#: sends the product to the popcount route at any ``p * q``.
K_PAST_FOLD = 2_097_217

ENCODINGS = st.sampled_from([U, B])


def _operands(seed, m, n, k, wp, xp):
    rng = np.random.default_rng(seed)
    return wp.random_digits(rng, (m, k)), xp.random_digits(rng, (n, k))


class TestHypothesisEquivalence:
    """The satellite suite: engines vs plane-wise references."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(1, 24),
        n=st.integers(1, 24),
        # deliberately crosses the 64-bit word boundary: ragged K on both
        # sides of one and two packed words
        k=st.integers(1, 150),
        wbits=st.integers(1, 4),
        xbits=st.integers(1, 4),
        wenc=ENCODINGS,
        xenc=ENCODINGS,
        engine=st.sampled_from(["bmma", "fold", "auto"]),
    )
    def test_matches_planewise_and_integer_references(
        self, seed, m, n, k, wbits, xbits, wenc, xenc, engine
    ):
        wp, xp = Precision(wbits, wenc), Precision(xbits, xenc)
        W, X = _operands(seed, m, n, k, wp, xp)
        ref = apbit_matmul(W, X, wp, xp)
        out = packed_matmul(W, X, wp, xp, engine=engine)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        assert np.array_equal(out, reference_matmul(W, X, wp, xp))

    @pytest.mark.slow
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        m=st.integers(1, 20),
        n=st.integers(1, 20),
        k=st.integers(1, 140),
        wbits=st.integers(1, 3),
        xbits=st.integers(1, 3),
        wenc=ENCODINGS,
        xenc=ENCODINGS,
    )
    def test_matches_tile_simulation_oracle(
        self, seed, m, n, k, wbits, xbits, wenc, xenc
    ):
        from repro.kernels import TileConfig, apmm_tile_simulate

        wp, xp = Precision(wbits, wenc), Precision(xbits, xenc)
        W, X = _operands(seed, m, n, k, wp, xp)
        oracle, _ = apmm_tile_simulate(W, X, wp, xp, TileConfig(16, 16))
        for engine in ("bmma", "fold"):
            assert np.array_equal(
                packed_matmul(W, X, wp, xp, engine=engine), oracle
            )


class TestTileOracleCases:
    """Deterministic oracle pins (every encoding case, padding, ragged K)."""

    CASES = [
        (16, 16, 128, Precision(1, B), Precision(2, U)),
        (16, 16, 128, Precision(1, B), Precision(1, B)),
        (16, 16, 128, Precision(2, U), Precision(2, U)),
        (16, 16, 128, Precision(2, U), Precision(1, B)),
        (24, 20, 96, Precision(1, B), Precision(2, U)),
        (8, 8, 130, Precision(1, B), Precision(2, U)),
    ]

    @pytest.mark.parametrize("m,n,k,wp,xp", CASES)
    def test_byte_identical_to_oracle(self, m, n, k, wp, xp):
        from repro.kernels import TileConfig, apmm_tile_simulate

        W, X = _operands(42, m, n, k, wp, xp)
        oracle, _ = apmm_tile_simulate(W, X, wp, xp, TileConfig(16, 16))
        for engine in ("bmma", "fold"):
            out = packed_matmul(W, X, wp, xp, engine=engine)
            assert out.dtype == oracle.dtype
            assert np.array_equal(out, oracle)


class TestPackedOperand:
    def test_pack_roundtrip_and_batched_layout(self):
        wp = Precision(3, U)
        rng = np.random.default_rng(5)
        digits = wp.random_digits(rng, (7, 100))
        op = pack_operand(digits, wp)
        assert isinstance(op, PackedOperand)
        assert op.bits == 3 and op.rows == 7 and op.k_logical == 100
        assert op.nwords == 2  # ceil(100 / 64)
        # batched row s*rows + r is plane s of row r
        batched = op.batched()
        for s in range(op.bits):
            for r in range(op.rows):
                bits = unpack_bits(batched[s * op.rows + r], 100)
                assert np.array_equal(bits, (digits[r] >> s) & 1)

    def test_row_popcounts(self):
        wp = Precision(2, U)
        digits = np.array([[0, 1, 2, 3], [3, 3, 3, 3]], dtype=np.int64)
        op = pack_operand(digits, wp)
        # plane 0: [0,1,0,1] -> 2 ; [1,1,1,1] -> 4
        # plane 1: [0,0,1,1] -> 2 ; [1,1,1,1] -> 4
        assert np.array_equal(op.row_popcounts(), [[2, 4], [2, 4]])

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_operand(np.zeros((2, 2, 2), dtype=np.int64), Precision(1))


class TestValidationAndEngines:
    def test_unknown_engine(self):
        W = np.zeros((4, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="engine"):
            packed_matmul(W, W, Precision(1), Precision(1), engine="magic")

    def test_k_mismatch(self):
        with pytest.raises(ValueError, match="reduction mismatch"):
            packed_matmul(
                np.zeros((4, 8), dtype=np.int64),
                np.zeros((4, 9), dtype=np.int64),
                Precision(1),
                Precision(1),
            )

    def test_digit_range_validated(self):
        W = np.full((2, 4), 2, dtype=np.int64)  # needs 2 bits
        X = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            packed_matmul(W, X, Precision(1), Precision(1))

    def test_overflow_checked_like_reference(self):
        # K * 255 * 255 > int32: both paths must refuse identically
        wp, xp = Precision(8, U), Precision(8, U)
        W = np.full((1, 40000), 255, dtype=np.int64)
        X = np.full((1, 40000), 255, dtype=np.int64)
        with pytest.raises(OverflowError):
            apbit_matmul(W, X, wp, xp)
        with pytest.raises(OverflowError):
            packed_matmul(W, X, wp, xp)

    def _all_max_w16a16(self):
        wp = Precision(16, U)
        assert fold_exactness_bound(K_PAST_FOLD, 16, 16) >= 1 << 53
        assert fold_exactness_bound(K_PAST_FOLD - 1, 16, 16) < 1 << 53
        digits = np.full(K_PAST_FOLD, wp.num_levels - 1, dtype=np.uint16)
        return wp, digits

    @needs_cffi
    def test_overflow_checked_on_prepared_popcount_route(self):
        wp, digits = self._all_max_w16a16()
        assert packed_preferred(wp, wp, K_PAST_FOLD, "cffi")
        W = _freeze(digits.reshape(1, -1))
        with pytest.raises(OverflowError, match="int32"):
            apmm(W, digits.reshape(1, -1), wp, wp, backend="cffi")

    @needs_cffi
    def test_overflow_checked_on_gather_conv(self):
        wp, digits = self._all_max_w16a16()
        assert packed_conv_preferred(wp, wp, K_PAST_FOLD, "cffi")
        cube = digits.reshape(1, -1, 1, 1)  # 1x1 conv with C_in = K
        with pytest.raises(OverflowError, match="int32"):
            apconv(cube, cube, wp, wp, backend="cffi")

    def test_fold_bound_refused_when_inexact(self):
        assert fold_exactness_bound(100, 8, 8) == 100 * 255 * 255
        wp, xp = Precision(16, U), Precision(16, U)
        k = (1 << 53) // ((1 << 16) - 1) ** 2 + 1
        W = np.zeros((1, k), dtype=np.int64)
        with pytest.raises(ValueError, match="exactness bound"):
            packed_matmul(W, W, wp, xp, engine="fold")
        # auto must fall back to the bmma engine, not fail
        out = packed_matmul(W, W, wp, xp, engine="auto")
        assert np.array_equal(out, np.zeros((1, 1), dtype=np.int64))

    def test_fold_uses_float64_above_float32_bound(self):
        # K * (2^p - 1)(2^q - 1) >= 2^24 forces the float64 path; results
        # must stay exact there too
        wp, xp = Precision(8, B), Precision(8, U)
        W, X = _operands(3, 4, 4, 300, wp, xp)
        assert fold_exactness_bound(300, 8, 8) >= 1 << 24
        assert np.array_equal(
            packed_matmul(W, X, wp, xp, engine="fold"),
            apbit_matmul(W, X, wp, xp),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_tally_bmma_engine_work(self, backend):
        wp, xp = Precision(2, B), Precision(2, U)
        W, X = _operands(4, 16, 16, 128, wp, xp)
        counters = ExecutionCounters()
        packed_matmul(W, X, wp, xp, engine="bmma", counters=counters,
                      backend=backend)
        # batched operand: (2*16) x (2*16) rows over ceil(128/128) K tiles
        assert counters.bmma_calls == 16
        assert counters.tc_macs == 131_072  # 16 * 8*8*128
        # cffi: pack W, pack X, fused GEMM
        assert counters.compiled_kernels == (3 if backend == "cffi" else 0)

    @needs_cffi
    def test_counters_tally_gather_conv_work(self):
        wp, xp = Precision(1, B), Precision(2, U)
        rng = np.random.default_rng(4)
        W = wp.random_digits(rng, (8, 16, 3, 3))
        padded = xp.random_digits(rng, (2, 16, 6, 6))
        counters = ExecutionCounters()
        packed_conv_matmul(W, padded, wp, xp, counters=counters,
                           backend="cffi")
        # batched operand: 1*8 weight rows x 2*(2*4*4) window rows; K is
        # 3*3 runs of one word = 576 bits = 5 K tiles
        assert counters.bmma_calls == 1 * 8 * 5
        assert counters.tc_macs == 327_680  # 40 * 8*8*128
        # pack W, pack X, gather, fused GEMM
        assert counters.compiled_kernels == 4

    def test_plan_selection_matches_opselect(self):
        # the packed path must honor the same operator plan the reference
        # uses (regression guard for the folded correction algebra)
        for wenc in (U, B):
            for xenc in (U, B):
                wp, xp = Precision(2, wenc), Precision(2, xenc)
                plan = select_operator(wp, xp)
                W, X = _operands(6, 9, 11, 70, wp, xp)
                assert np.array_equal(
                    packed_matmul(W, X, wp, xp, engine="fold"),
                    apbit_matmul(W, X, wp, xp),
                ), plan.case


#: (route, backend) pairs that exist: the gather needs the cffi
#: ``conv_gather``; the reference routes are numpy by definition.
ROUTES = [
    ("fold", "numpy"), ("popcount", "numpy"), ("im2col", "numpy"),
    ("integer", "numpy"), ("bitserial", "numpy"),
    pytest.param("fold", "cffi", marks=needs_cffi),
    pytest.param("popcount", "cffi", marks=needs_cffi),
    pytest.param("gather", "cffi", marks=needs_cffi),
    pytest.param("im2col", "cffi", marks=needs_cffi),
]


def _run_route(route, backend, w, x):
    """``w (M, K) x x (N, K)`` along one route; conv routes run it as a
    1x1 convolution over K channels."""
    pair = PrecisionPair.parse("w4a4" if route == "im2col" else "w1a2")
    wp, xp = pair.weight, pair.activation
    if route in ("fold", "popcount"):
        engine = "fold" if route == "fold" else "bmma"
        return packed_matmul(w, x, wp, xp, engine=engine, backend=backend)
    if route in ("integer", "bitserial"):
        return apmm(w, x, wp, xp, strategy=route)
    k = w.shape[1]
    assert packed_conv_preferred(wp, xp, k, backend) == (route == "gather")
    return apconv(w.reshape(-1, k, 1, 1), x.reshape(-1, k, 1, 1), wp, xp,
                  backend=backend)


class TestNonIntegerDigits:
    """Float or bool digits raise ``TypeError`` on every route and
    backend: a route that cast them would return a truncated product."""

    @pytest.mark.parametrize("route,backend", ROUTES)
    @pytest.mark.parametrize("operand", ["weight", "feature"])
    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 1.0, 0.0, 1.0]]),
        np.array([[True, False, True, True]]),
    ], ids=["float", "bool"])
    def test_rejected(self, route, backend, operand, bad):
        good = np.array([[1, 0, 1, 1]], dtype=np.int64)
        w, x = (bad, good) if operand == "weight" else (good, bad)
        with pytest.raises(TypeError, match="integer"):
            _run_route(route, backend, w, x)


def _error_text(fn):
    """``(type, message)`` of the exception ``fn()`` raises."""
    with pytest.raises((TypeError, ValueError)) as exc:
        fn()
    return type(exc.value), str(exc.value)


def _spoil(digits, case, bits):
    """``digits`` with one bad interior digit, or in a non-integer dtype."""
    kind, dtype = case
    if kind in ("float", "bool"):
        return digits.astype(dtype)
    bad = digits.astype(dtype)
    bad.flat[digits.size // 2] = -1 if kind == "negative" else 1 << bits
    return bad


class TestErrorParity:
    """``apmm`` on the prepared popcount route and the ``apconv`` gather
    raise the same exception with the same text on the cffi tier (the
    compiled pack flags the digits, then ``_check_digits`` runs) as on
    the numpy tier (fold and im2col check the digits directly)."""

    CASES = [
        ("negative", np.int64), ("negative", np.int32),
        ("too-large", np.uint8), ("too-large", np.uint16),
        ("too-large", np.int32), ("float", np.float64), ("bool", np.bool_),
    ]

    @needs_cffi
    @pytest.mark.parametrize("operand", ["weight", "feature"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1].__name__}")
    def test_apmm(self, operand, case):
        wp, xp = Precision(1, B), Precision(2, U)
        w, x = _operands(5, 8, 4, 70, wp, xp)
        if operand == "weight":
            w = _spoil(w, case, wp.bits)
        else:
            x = _spoil(x, case, xp.bits)
        w = _freeze(w) if w.dtype.kind in "iu" else w
        texts = [
            _error_text(lambda: apmm(w, x, wp, xp, backend=backend))
            for backend in ("cffi", "numpy")
        ]
        assert texts[0] == texts[1]

    @needs_cffi
    @pytest.mark.parametrize("x_enc", [U, B], ids=["unsigned", "bipolar"])
    @pytest.mark.parametrize("operand", ["weight", "feature"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1].__name__}")
    def test_apconv_gather(self, x_enc, operand, case):
        wp, xp = Precision(1, B), Precision(2, x_enc)
        rng = np.random.default_rng(6)
        w = wp.random_digits(rng, (4, 16, 3, 3))
        x = xp.random_digits(rng, (2, 16, 5, 5))
        assert packed_conv_preferred(wp, xp, 16 * 9, "cffi")
        if operand == "weight":
            w = _spoil(w, case, wp.bits)
        else:
            x = _spoil(x, case, xp.bits)
        texts = [
            _error_text(lambda: apconv(w, x, wp, xp, padding=1,
                                       backend=backend))
            for backend in ("cffi", "numpy")
        ]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
    def test_narrow_integer_digits_pack_the_same_words(self, backend, dtype):
        xp = Precision(2, B)
        rng = np.random.default_rng(7)
        x = xp.random_digits(rng, (2, 70, 3, 3))
        want = _pack_digits(x, xp, "feature", backend, None,
                            pad=1, pad_digit=3)
        got = _pack_digits(x.astype(dtype), xp, "feature", backend, None,
                           pad=1, pad_digit=3)
        assert np.array_equal(got, want)
