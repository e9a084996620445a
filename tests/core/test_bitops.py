"""Tests for repro.core.bitops: decomposition, packing, popcount."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    WORD_BITS,
    bit_combine,
    bit_decompose,
    pack_bits,
    packed_words,
    popcount,
    popcount_reduce,
    unpack_bits,
)


class TestBitDecompose:
    def test_known_values(self):
        x = np.array([0, 1, 2, 3, 5])
        planes = bit_decompose(x, 3)
        assert planes.shape == (3, 5)
        assert np.array_equal(planes[0], [0, 1, 0, 1, 1])  # LSB
        assert np.array_equal(planes[1], [0, 0, 1, 1, 0])
        assert np.array_equal(planes[2], [0, 0, 0, 0, 1])

    def test_2d_shape(self):
        x = np.arange(12).reshape(3, 4)
        planes = bit_decompose(x, 4)
        assert planes.shape == (4, 3, 4)

    def test_paper_equation2_semantics(self):
        # x^(s) = (x >> s) & 1
        x = np.array([[6]])
        planes = bit_decompose(x, 3)
        for s in range(3):
            assert planes[s, 0, 0] == (6 >> s) & 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            bit_decompose(np.array([4]), 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_decompose(np.array([-1]), 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            bit_decompose(np.array([1.0]), 1)

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            bit_decompose(np.array([0]), 0)

    def test_dtype_is_uint8(self):
        assert bit_decompose(np.array([3]), 2).dtype == np.uint8

    @given(
        hnp.arrays(np.int64, hnp.array_shapes(max_dims=3, max_side=8),
                   elements=st.integers(0, 255)),
    )
    def test_roundtrip_with_combine(self, x):
        planes = bit_decompose(x, 8)
        assert np.array_equal(bit_combine(planes), x)

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.sampled_from([1, 2, 3, 4, 8, 9, 16, 20]),
        dtype=st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]),
        shape=hnp.array_shapes(min_dims=0, max_dims=4, max_side=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_decompose_matches_reference(self, bits, dtype, shape, seed):
        """The packed kernels' narrow-lane decomposition is byte-identical
        to the reference formulation on every in-range digit."""
        from repro.core.bitops import _decompose

        top = min(1 << bits, np.iinfo(dtype).max + 1)
        x = np.random.default_rng(seed).integers(0, top, size=shape).astype(dtype)
        got = _decompose(x, bits)
        want = bit_decompose(x, bits)
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)


class TestBitCombine:
    def test_weights_are_powers_of_two(self):
        planes = np.array([[1], [1], [1]])
        assert bit_combine(planes)[0] == 1 + 2 + 4

    def test_accepts_wide_integers(self):
        # combination step operates on 32-bit BMMA outputs, not just 0/1
        planes = np.array([[100, -3], [7, 50]])
        assert np.array_equal(bit_combine(planes), [100 + 14, -3 + 100])

    def test_scalar_axis_error(self):
        with pytest.raises(ValueError):
            bit_combine(np.int64(3))

    def test_single_plane_identity(self):
        x = np.array([5, 9])
        assert np.array_equal(bit_combine(x[None]), x)


class TestPacking:
    def test_packed_words_count(self):
        assert packed_words(0) == 0
        assert packed_words(1) == 1
        assert packed_words(64) == 1
        assert packed_words(65) == 2
        assert packed_words(128) == 2

    def test_packed_words_negative(self):
        with pytest.raises(ValueError):
            packed_words(-1)

    def test_pack_known_word(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1
        bits[63] = 1
        w = pack_bits(bits)
        assert w.shape == (1,)
        assert w[0] == np.uint64(1) | (np.uint64(1) << np.uint64(63))

    def test_pack_pads_with_zero(self):
        bits = np.ones(65, dtype=np.uint8)
        w = pack_bits(bits)
        assert w.shape == (2,)
        assert popcount(w).sum() == 65  # padding contributed no set bits

    def test_pack_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            pack_bits(np.array([0, 2]))

    def test_pack_batch_shape(self):
        bits = np.zeros((3, 5, 130), dtype=np.uint8)
        assert pack_bits(bits).shape == (3, 5, 3)

    @given(
        st.integers(1, 200),
        st.integers(0, 10**6),
    )
    def test_pack_unpack_roundtrip(self, k, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(4, k), dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), k), bits)

    def test_unpack_validates_word_count(self):
        with pytest.raises(ValueError, match="inconsistent"):
            unpack_bits(np.zeros(2, dtype=np.uint64), 10)


class TestPopcount:
    def test_known(self):
        w = np.array([0, 1, 3, 0xFF, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(popcount(w), [0, 1, 2, 8, 64])

    def test_signed_rejected(self):
        with pytest.raises(TypeError):
            popcount(np.array([1], dtype=np.int64))

    def test_popcount_reduce_matches_sum(self):
        rng = np.random.default_rng(0)
        w = rng.integers(0, 2**63, size=(5, 7), dtype=np.uint64)
        assert np.array_equal(popcount_reduce(w, axis=-1), popcount(w).sum(-1))

    @given(st.integers(1, 500), st.integers(0, 10**6))
    def test_popcount_equals_bit_sum(self, k, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=k, dtype=np.uint8)
        assert popcount_reduce(pack_bits(bits)) == bits.sum()

    @settings(max_examples=30)
    @given(st.integers(1, 300), st.integers(0, 10**6))
    def test_and_popcount_is_dot_product(self, k, seed):
        """The AND+popc identity at the heart of Case I (paper section 3.2)."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=k, dtype=np.uint8)
        b = rng.integers(0, 2, size=k, dtype=np.uint8)
        assert popcount_reduce(pack_bits(a) & pack_bits(b)) == int(a @ b)

    @settings(max_examples=30)
    @given(st.integers(1, 300), st.integers(0, 10**6))
    def test_xor_popcount_identity(self, k, seed):
        """Case II identity: sum((2a-1)(2b-1)) == k - 2*popc(a XOR b)."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=k, dtype=np.uint8)
        b = rng.integers(0, 2, size=k, dtype=np.uint8)
        bipolar_dot = int((2 * a.astype(int) - 1) @ (2 * b.astype(int) - 1))
        assert bipolar_dot == k - 2 * int(popcount_reduce(pack_bits(a) ^ pack_bits(b)))

    def test_word_bits_constant(self):
        assert WORD_BITS == 64
