"""Byte-identity oracle: compiled backends vs the numpy reference.

Hypothesis drives seeded-random operands through every ``wXaY`` pair
(all four weight x feature encoding pairs, ragged K including sub-word
and non-multiple-of-64 sizes) and asserts the compiled kernels produce
**byte-identical** results to the numpy paths for all three accelerated
hot loops -- the ``pack_digits`` contract (padded feature maps, gemm
rows, conv weights), the fused popcount-reduce GEMM, and the full conv
entry point (which exercises the packed window gather where the
dispatch heuristic prefers it; bipolar features pad with the max digit
and take the counter correction).  Also covers forced fallback:
``backend="numpy"`` and a loader import failure must both run the numpy
path cleanly, with zero compiled-kernel counter ticks.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Encoding, Precision, PrecisionPair, backends
from repro.core.packed import _pack_digits_numpy, packed_matmul
from repro.kernels.padding import plan_padding

# hypothesis-heavy: the CI unit job deselects these and the serving job
# (and tier-1) runs them
pytestmark = pytest.mark.slow

#: Compiled backends this interpreter can actually run (may be empty on
#: the numpy-only CI leg; the identity tests then skip, and the forced-
#: fallback tests below still run).
COMPILED = [
    b.name for b in backends.available_backends()
    if b.compiled and backends.kernel("packed_gemm", b) is not None
]

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend usable here"
)

PAIR_NAMES = ["w1a1", "w1a2", "w1a4", "w2a2", "w2a4", "w4a4", "w2a8"]
PAIRS = [PrecisionPair.parse(name) for name in PAIR_NAMES]
#: Every pair under all four (weight, feature) encodings: bipolar
#: features make the input-aware pad digit the max digit.
ENCODED_PAIRS = [
    PrecisionPair(Precision(pair.weight.bits, w_enc),
                  Precision(pair.activation.bits, x_enc))
    for pair in PAIRS
    for w_enc in Encoding
    for x_enc in Encoding
]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: Ragged K: sub-word, word-aligned, and straddling sizes.
ks = st.sampled_from([1, 3, 17, 64, 65, 128, 200])
rows = st.integers(min_value=1, max_value=24)


@needs_compiled
class TestPackDigitsIdentity:
    """The compiled ``pack_digits`` kernel against its numpy tier on the
    three shapes the packed routes feed it."""

    @staticmethod
    def _assert_same_words(backend, digits, bits, pad=0, pad_digit=0):
        fn = backends.kernel("pack_digits", backend)
        got, got_bad = fn(digits, bits, pad, pad_digit)
        want, want_bad = _pack_digits_numpy(digits, bits, pad, pad_digit)
        assert not got_bad and not want_bad
        assert got.dtype == want.dtype == np.uint64
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(ENCODED_PAIRS),
           cin=st.sampled_from([1, 3, 63, 64, 65, 130]),
           hw=st.sampled_from([1, 4, 7]), pad=st.sampled_from([0, 1, 2]),
           backend=st.sampled_from(COMPILED or ["numpy"]))
    def test_compiled_pack_matches_numpy(self, seed, pair, cin, hw, pad,
                                         backend):
        """Padded feature maps, framed with the input-aware pad digit."""
        rng = np.random.default_rng(seed)
        x = pair.activation.random_digits(rng, (2, cin, hw, hw + 1))
        pad_digit = plan_padding(pair.weight, pair.activation).pad_digit
        self._assert_same_words(backend, x, pair.activation.bits,
                                pad, pad_digit)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=ks, m=rows, pair=st.sampled_from(PAIRS),
           backend=st.sampled_from(COMPILED or ["numpy"]))
    def test_gemm_rows_match_numpy(self, seed, k, m, pair, backend):
        rng = np.random.default_rng(seed)
        for prec in (pair.weight, pair.activation):
            digits = prec.random_digits(rng, (m, k))
            self._assert_same_words(backend, digits.reshape(m, k, 1, 1),
                                    prec.bits)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(PAIRS),
           cin=st.sampled_from([1, 63, 64, 65, 130]),
           kernel=st.sampled_from([1, 3]),
           backend=st.sampled_from(COMPILED or ["numpy"]))
    def test_conv_weights_match_numpy(self, seed, pair, cin, kernel,
                                      backend):
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (5, cin, kernel, kernel))
        self._assert_same_words(backend, w, pair.weight.bits)


@needs_compiled
class TestGemmIdentity:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=ks, m=rows, n=rows,
           pair=st.sampled_from(ENCODED_PAIRS),
           backend=st.sampled_from(COMPILED or ["numpy"]))
    def test_bmma_engine_identical_across_backends(
        self, seed, k, m, n, pair, backend
    ):
        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (m, k))
        x = pair.activation.random_digits(rng, (n, k))
        ref = packed_matmul(w, x, pair.weight, pair.activation,
                            engine="bmma", backend="numpy")
        got = packed_matmul(w, x, pair.weight, pair.activation,
                            engine="bmma", backend=backend)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, k=ks, pair=st.sampled_from(PAIRS),
           backend=st.sampled_from(COMPILED or ["numpy"]))
    def test_apmm_identical_across_backends(self, seed, k, pair, backend):
        from repro.kernels.apmm import apmm

        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (8, k))
        x = pair.activation.random_digits(rng, (6, k))
        ref = apmm(w, x, pair.weight, pair.activation, backend="numpy")
        got = apmm(w, x, pair.weight, pair.activation, backend=backend)
        assert np.array_equal(got.output, ref.output)


@needs_compiled
class TestConvIdentity:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, pair=st.sampled_from(ENCODED_PAIRS),
           stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]),
           cin=st.sampled_from([1, 3, 8, 63, 64, 65, 130]),
           hw=st.sampled_from([4, 7]),
           backend=st.sampled_from(COMPILED or ["numpy"]))
    # always drive the gather with ceil(C_in / 64) > 1 channel words
    @example(seed=0, pair=PAIRS[1], stride=1, padding=1, cin=130, hw=7,
             backend=(COMPILED or ["numpy"])[0])
    # bipolar features: max-digit pad frame plus the counter correction
    @example(seed=1, pair=PrecisionPair(Precision(1, Encoding.BIPOLAR),
                                        Precision(2, Encoding.BIPOLAR)),
             stride=1, padding=1, cin=65, hw=7,
             backend=(COMPILED or ["numpy"])[0])
    def test_apconv_identical_across_backends(
        self, seed, pair, stride, padding, cin, hw, backend
    ):
        from repro.kernels.apconv import apconv

        rng = np.random.default_rng(seed)
        w = pair.weight.random_digits(rng, (5, cin, 3, 3))
        x = pair.activation.random_digits(rng, (2, cin, hw, hw))
        ref = apconv(w, x, pair.weight, pair.activation,
                     stride=stride, padding=padding, backend="numpy")
        got = apconv(w, x, pair.weight, pair.activation,
                     stride=stride, padding=padding, backend=backend)
        assert np.array_equal(got.output, ref.output)


class TestForcedFallback:
    """The numpy path must stay reachable no matter what is installed."""

    def test_numpy_kwarg_forces_the_numpy_path(self):
        from repro.kernels.apconv import apconv
        from repro.kernels.apmm import apmm

        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(0)
        w = pair.weight.random_digits(rng, (8, 96))
        x = pair.activation.random_digits(rng, (6, 96))
        result = apmm(w, x, pair.weight, pair.activation, backend="numpy")
        assert result.cost.counters.compiled_kernels == 0
        # p*q <= 4: the conv the auto-detected backend would gather
        w = pair.weight.random_digits(rng, (4, 8, 3, 3))
        x = pair.activation.random_digits(rng, (2, 8, 6, 6))
        result = apconv(w, x, pair.weight, pair.activation, backend="numpy")
        assert result.cost.counters.compiled_kernels == 0

    def test_loader_import_failure_degrades_to_numpy(self, monkeypatch):
        """A compiled backend whose module import dies must cost one
        warning and fall back, never crash the kernel call."""
        compiled = [b for b in backends.available_backends() if b.compiled]
        if not compiled:
            pytest.skip("no compiled backend registered to break")

        def exploding_loader():
            raise ImportError("simulated backend import failure")

        monkeypatch.setattr(backends, "_REGISTRY", dict(backends._REGISTRY))
        monkeypatch.setattr(backends, "_KERNELS", {})
        monkeypatch.setattr(backends, "_WARNED", set())
        for broken in compiled:
            backends._REGISTRY[broken.name] = backends.Backend(
                name=broken.name, compiled=True,
                priority=broken.priority, capabilities=broken.capabilities,
                loader=exploding_loader,
            )
        with pytest.warns(RuntimeWarning, match="failed to load"):
            active = backends.get_backend()
        assert active.name == "numpy"
        assert backends.kernel("packed_gemm") is None

        pair = PrecisionPair.parse("w1a2")
        rng = np.random.default_rng(1)
        w = pair.weight.random_digits(rng, (4, 40))
        x = pair.activation.random_digits(rng, (4, 40))
        got = packed_matmul(w, x, pair.weight, pair.activation,
                            engine="bmma")
        want = packed_matmul(w, x, pair.weight, pair.activation,
                             engine="bmma", backend="numpy")
        assert np.array_equal(got, want)
