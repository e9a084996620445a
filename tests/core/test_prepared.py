"""Prepared static weights: frozen quantizer digits and the packed-weight memo.

Frozen weight arrays (:func:`repro.core.packed.weights_frozen`) are
validated and packed once and served from a memo afterwards; writable
ones run today's per-call path.  This suite holds the two byte-identical
to each other and to the decoded-integer reference for APMM and APConv,
counts weight prepares, and checks the memo's safety contract:
writable data is never memoized, entries die with their arrays, and
concurrent cold calls agree.
"""

import gc
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PrecisionPair, backends
from repro.core.packed import (
    auto_engine,
    packed_matmul,
    packed_preferred,
    prepared_weight_stats,
    weights_frozen,
)
from repro.core.quantize import _freeze, binarize, dorefa_quantize_weights
from repro.kernels.apconv import apconv
from repro.kernels.apmm import apmm
from repro.obs import Tracer, trace_kernels

PAIRS = [PrecisionPair.parse(n) for n in ("w1a2", "w2a2", "w1a4", "w2a4", "w4a4")]

#: numpy always; the compiled tier too when it loads here.
BACKENDS = ["numpy"] + [
    b.name for b in backends.available_backends()
    if b.compiled and backends.kernel("packed_gemm", b) is not None
]
COMPILED = BACKENDS[1:]

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend usable here"
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: Ragged K: sub-word, word-aligned, and straddling sizes.
ks = st.sampled_from([1, 17, 64, 65, 130])


def frozen(digits: np.ndarray) -> np.ndarray:
    """Digits frozen the way the weight quantizers freeze theirs."""
    return _freeze(np.array(digits))


def prepares() -> int:
    return prepared_weight_stats()["prepares"]


# ----------------------------------------------------------------------
# byte identity: prepared == writable == integer reference
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestByteIdentity:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=ks, m=st.integers(1, 20), n=st.integers(1, 8),
           pair=st.sampled_from(PAIRS), backend=st.sampled_from(BACKENDS))
    def test_apmm(self, seed, k, m, n, pair, backend):
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (m, k))
        x = pair.activation.random_digits(rng, (n, k))
        want = apmm(w, x, pair.weight, pair.activation,
                    strategy="integer", backend="numpy").output
        for weights in (w, frozen(w)):
            got = apmm(weights, x, pair.weight, pair.activation,
                       backend=backend).output
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=ks, m=st.integers(1, 20), n=st.integers(1, 8),
           pair=st.sampled_from(PAIRS), backend=st.sampled_from(BACKENDS))
    def test_bmma_engine_on_prepared_words(self, seed, k, m, n, pair, backend):
        """The memo also serves an explicit ``engine="bmma"`` -- the only
        way to reach it on the numpy tier."""
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (m, k))
        x = pair.activation.random_digits(rng, (n, k))
        want = packed_matmul(w, x, pair.weight, pair.activation,
                             engine="bmma", backend=backend)
        fw = frozen(w)
        for _ in range(2):  # cold, then served from the memo
            got = packed_matmul(fw, x, pair.weight, pair.activation,
                                engine="bmma", backend=backend)
            assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS),
           stride=st.sampled_from([1, 2]), padding=st.sampled_from([0, 1]),
           cin=st.sampled_from([1, 3, 65, 130]), hw=st.sampled_from([4, 7]),
           backend=st.sampled_from(BACKENDS))
    def test_apconv(self, seed, pair, stride, padding, cin, hw, backend):
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (5, cin, 3, 3))
        x = pair.activation.random_digits(rng, (2, cin, hw, hw))
        kwargs = dict(stride=stride, padding=padding)
        want = apconv(w, x, pair.weight, pair.activation,
                      strategy="integer", backend="numpy", **kwargs).output
        for weights in (w, frozen(w)):
            got = apconv(weights, x, pair.weight, pair.activation,
                         backend=backend, **kwargs).output
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# prepare counts
# ----------------------------------------------------------------------
@needs_compiled
class TestPrepareCounts:
    def test_apmm_prepares_once(self):
        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(0)
        w = dorefa_quantize_weights(rng.normal(size=(64, 200)), 1).digits
        x = pair.activation.random_digits(rng, (4, 200))
        before = prepares()
        apmm(w, x, pair.weight, pair.activation)
        assert prepares() == before + 1
        for _ in range(3):
            apmm(w, x, pair.weight, pair.activation)
        assert prepares() == before + 1

    def test_apconv_prepares_once(self):
        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(1)
        w = dorefa_quantize_weights(rng.normal(size=(8, 16, 3, 3)), 1).digits
        x = pair.activation.random_digits(rng, (2, 16, 6, 6))
        apconv(w, x, pair.weight, pair.activation, padding=1)
        before = prepares()
        for _ in range(3):
            apconv(w, x, pair.weight, pair.activation, padding=1)
        assert prepares() == before

    def test_forward_after_warm_up_prepares_nothing(self):
        """A quantized conv -> conv -> fc forward: the warm-up prepares
        every layer's weights, later forwards only hit the memo."""
        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(2)
        layers = [
            ("conv", dorefa_quantize_weights(
                rng.normal(size=(16, 3, 3, 3)), 1).digits, 1, 1),
            ("conv", dorefa_quantize_weights(
                rng.normal(size=(32, 16, 3, 3)), 1).digits, 2, 1),
            ("fc", dorefa_quantize_weights(
                rng.normal(size=(10, 32 * 4 * 4)), 1).digits, 1, 0),
        ]
        x0 = pair.activation.random_digits(rng, (4, 3, 8, 8))

        def forward(x):
            for kind, w, stride, padding in layers:
                if kind == "fc":
                    return apmm(w, x.reshape(x.shape[0], -1),
                                pair.weight, pair.activation).output
                acc = apconv(w, x, pair.weight, pair.activation,
                             stride=stride, padding=padding).output
                # requantize to the next layer's activation digits
                x = np.clip(acc, 0, pair.activation.num_levels - 1)
            raise AssertionError("no fc layer")

        want = forward(x0)
        before = prepared_weight_stats()
        for _ in range(2):
            assert np.array_equal(forward(x0), want)
        after = prepared_weight_stats()
        assert after["prepares"] == before["prepares"]
        assert after["hits"] == before["hits"] + 2 * len(layers)


# ----------------------------------------------------------------------
# memo safety
# ----------------------------------------------------------------------
class TestMemoSafety:
    pair = PrecisionPair.parse("w1a2")

    def _operands(self, seed=0, m=12, k=70):
        rng = np.random.default_rng(seed)
        return (self.pair.weight.random_digits(rng, (m, k)),
                self.pair.activation.random_digits(rng, (3, k)))

    def _bmma(self, w, x):
        return packed_matmul(w, x, self.pair.weight, self.pair.activation,
                             engine="bmma")

    def test_quantizer_digits_refuse_writeable(self):
        rng = np.random.default_rng(0)
        for digits in (
            binarize(rng.normal(size=(4, 9))).digits,
            dorefa_quantize_weights(rng.normal(size=(4, 9)), 1).digits,
            dorefa_quantize_weights(rng.normal(size=(4, 9)), 3).digits,
        ):
            assert weights_frozen(digits)
            with pytest.raises(ValueError):
                digits.flags.writeable = True

    def test_writable_arrays_are_never_memoized(self):
        w, x = self._operands()
        before = prepared_weight_stats()
        self._bmma(w, x)
        self._bmma(w, x)
        assert prepared_weight_stats() == before

    def test_read_only_view_of_writable_base_is_never_memoized(self):
        w, x = self._operands()
        view = w.view()
        view.flags.writeable = False
        owner = w.copy()
        owner.flags.writeable = False  # no base: its own flag can flip back
        for weights in (view, owner):
            assert not weights_frozen(weights)
            before = prepared_weight_stats()
            self._bmma(weights, x)
            assert prepared_weight_stats() == before

    def test_mutating_writable_weights_changes_the_output(self):
        w, x = self._operands()
        ro = w.view()
        ro.flags.writeable = False
        for engine in ("bmma", "auto"):
            first = packed_matmul(ro, x, self.pair.weight,
                                  self.pair.activation, engine=engine)
            w[:] = 1 - w  # through the writable base
            second = packed_matmul(ro, x, self.pair.weight,
                                   self.pair.activation, engine=engine)
            assert not np.array_equal(first, second)
            assert np.array_equal(
                second,
                apmm(np.array(ro), x, self.pair.weight, self.pair.activation,
                     strategy="integer").output,
            )

    def test_entry_is_dropped_when_its_array_is_collected(self):
        w, x = self._operands(seed=3)
        fw = frozen(w)
        self._bmma(fw, x)
        gc.collect()
        entries = prepared_weight_stats()["entries"]
        del fw
        assert prepared_weight_stats()["entries"] == entries - 1

    def test_new_array_at_a_recycled_id_gets_fresh_results(self, monkeypatch):
        """Every array maps to one id here, as a recycled id would: the
        memo must serve neither the old array's words nor let the old
        array's collection drop the new entry."""
        import repro.core.packed as packed

        monkeypatch.setattr(packed, "id", lambda obj: 42, raising=False)
        (a, x), (b, _) = self._operands(seed=3), self._operands(seed=4)
        fa, fb = frozen(a), frozen(b)
        assert np.array_equal(self._bmma(fa, x), self._bmma(a, x))
        got = self._bmma(fb, x)
        assert np.array_equal(got, self._bmma(b, x))
        assert not np.array_equal(got, self._bmma(a, x))
        del fa
        gc.collect()
        before = prepares()
        assert np.array_equal(self._bmma(fb, x), got)
        assert prepares() == before

    def test_two_threads_on_one_cold_weight_agree(self):
        w, x = self._operands(seed=5, m=256, k=2000)
        want = self._bmma(w, x)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fw = frozen(w)
                barrier = threading.Barrier(4)

                def call():
                    barrier.wait(timeout=10)
                    return self._bmma(fw, x)

                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(call) for _ in range(4)]
                    outs = [f.result(timeout=60) for f in futures]
                for out in outs:
                    assert np.array_equal(out, want)
                # later calls are served by the one stored entry
                before = prepares()
                self._bmma(fw, x)
                assert prepares() == before
        finally:
            sys.setswitchinterval(old)


# ----------------------------------------------------------------------
# dispatch rule and span attributes
# ----------------------------------------------------------------------
class TestRoute:
    def test_auto_engine_takes_prepared_route_only_for_frozen_weights(self):
        pair = PrecisionPair.parse("w1a2")
        w = pair.weight.random_digits(np.random.default_rng(0), (8, 64))
        preferred = packed_preferred(pair.weight, pair.activation, 64)
        assert preferred == bool(COMPILED)
        assert auto_engine(w, pair.weight, pair.activation) == "fold"
        assert auto_engine(frozen(w), pair.weight, pair.activation) == (
            "bmma" if preferred else "fold"
        )
        assert auto_engine(frozen(w), pair.weight, pair.activation,
                           backend="numpy") == "fold"

    def test_packed_preferred_follows_plane_pairs(self):
        w2a4 = PrecisionPair.parse("w2a4")
        assert not packed_preferred(w2a4.weight, w2a4.activation, 64)
        w1a4 = PrecisionPair.parse("w1a4")
        assert not packed_preferred(w1a4.weight, w1a4.activation, 64,
                                    backend="numpy")


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_spans_record_route_and_weights(backend):
    pair = PrecisionPair.parse("w1a2")
    rng = np.random.default_rng(6)
    wm = pair.weight.random_digits(rng, (8, 96))
    xm = pair.activation.random_digits(rng, (4, 96))
    wc = pair.weight.random_digits(rng, (4, 8, 3, 3))
    xc = pair.activation.random_digits(rng, (2, 8, 6, 6))
    compiled = backend != "numpy"
    with trace_kernels(Tracer()) as tracer:
        apmm(wm, xm, pair.weight, pair.activation, backend=backend)
        apmm(frozen(wm), xm, pair.weight, pair.activation, backend=backend)
        apmm(wm, xm, pair.weight, pair.activation, strategy="integer",
             backend="numpy")
        apconv(wc, xc, pair.weight, pair.activation, backend=backend)
        apconv(frozen(wc), xc, pair.weight, pair.activation, backend=backend)
    got = [(s.attributes["route"], s.attributes["weights"])
           for s in tracer.spans]
    assert got == [
        ("fold", "per-call"),
        ("popcount", "prepared") if compiled else ("fold", "per-call"),
        ("integer", "per-call"),
        ("gather" if compiled else "im2col", "per-call"),
        ("gather", "prepared") if compiled else ("im2col", "per-call"),
    ]
