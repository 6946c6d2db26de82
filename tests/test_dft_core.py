import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import InvalidLevel, modulation_check, naive_dft, periodize, subsample_spectrum
from spfft.dft_core import (
    CountingSpectrumAccessor,
    SupportDescriptor,
    fft_forward,
    fft_inverse,
    log2_length,
    support_length,
)
from spfft.errors import (
    InvalidLength,
    InvalidOffset,
    InvalidSupportLength,
    NonFiniteSpectrum,
)


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rel_inf(a, b):
    scale = max(np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


class TestNaiveDft:
    def test_delta(self):
        assert np.allclose(naive_dft([1, 0, 0, 0]), [1, 1, 1, 1])

    def test_constant(self):
        assert np.allclose(naive_dft([1, 1, 1, 1]), [4, 0, 0, 0])

    def test_two_point(self):
        # hand evaluation of the 2x2 transform matrix
        assert np.allclose(naive_dft([1, 2]), [3, -1])

    def test_forward_has_no_scale(self):
        x = random_complex(8, 0)
        assert abs(naive_dft(x)[0] - x.sum()) < 1e-12


class TestFft:
    def test_delta(self):
        assert np.allclose(fft_forward([1, 0, 0, 0]), [1, 1, 1, 1])

    def test_zeros(self):
        assert np.array_equal(fft_forward(np.zeros(16)), np.zeros(16))

    @pytest.mark.parametrize("j", range(0, 11))
    def test_matches_naive(self, j):
        x = random_complex(1 << j, 100 + j)
        assert rel_inf(fft_forward(x), naive_dft(x)) <= 1e-12

    def test_inverse_examples(self):
        assert np.allclose(fft_inverse([1, 1, 1, 1]), [1, 0, 0, 0])
        assert np.allclose(fft_inverse([4, 0, 0, 0]), [1, 1, 1, 1])

    def test_round_trip_512(self):
        s = random_complex(512, 5)
        assert rel_inf(fft_forward(fft_inverse(s)), s) <= 1e-12

    @given(j=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, j, seed):
        x = random_complex(1 << j, seed)
        assert np.max(np.abs(fft_inverse(fft_forward(x)) - x)) <= 1e-12 * max(
            np.max(np.abs(x)), 1.0
        )

    @pytest.mark.parametrize("n", [0, 3, 6, 12, 100])
    def test_rejects_bad_lengths(self, n):
        with pytest.raises(InvalidLength):
            fft_forward(np.zeros(n, dtype=np.complex128))

    @pytest.mark.parametrize("n", [0, 3, 6, 12, 100])
    def test_inverse_rejects_bad_lengths(self, n):
        with pytest.raises(InvalidLength):
            fft_inverse(np.zeros(n, dtype=np.complex128))

    def test_concurrent_calls_match_serial(self):
        # run_experiment calls the FFT pair from several worker threads at once
        inputs = [random_complex(1 << j, 300 + j) for j in (6, 9, 12, 15)] * 2
        serial = [fft_forward(x) for x in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(fft_forward, inputs))
        for got, want in zip(threaded, serial):
            assert np.array_equal(got, want)

    def test_rejects_oversized(self):
        with pytest.raises(InvalidLength):
            log2_length(1 << 31)


class TestPeriodize:
    def test_fold_once(self):
        assert np.allclose(periodize([1, 2, 3, 4], 1), [4, 6])

    def test_identity_at_top_level(self):
        assert np.allclose(periodize([1, 2, 3, 4], 2), [1, 2, 3, 4])

    def test_total_sum_at_level_zero(self):
        assert np.allclose(periodize([1, 2, 3, 4], 0), [10])

    def test_level_out_of_range(self):
        with pytest.raises(InvalidLevel):
            periodize([1, 2, 3, 4], 3)
        with pytest.raises(InvalidLevel):
            periodize([1, 2, 3, 4], -1)


class TestSubsample:
    def test_stride_two(self):
        s = np.arange(8) + 0j
        assert np.allclose(subsample_spectrum(s, 2), [0, 2, 4, 6])

    def test_full_level_is_identity(self):
        s = random_complex(16, 1)
        assert np.allclose(subsample_spectrum(s, 4), s)

    def test_matches_folded_transform(self):
        x = random_complex(256, 2)
        s = naive_dft(x)
        for j in range(0, 9):
            assert rel_inf(naive_dft(periodize(x, j)), subsample_spectrum(s, j)) <= 1e-10

    @given(j_total=st.integers(2, 9), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_folding_subsampling_identity(self, j_total, seed, data):
        x = random_complex(1 << j_total, seed)
        j = data.draw(st.integers(0, j_total))
        lhs = fft_forward(periodize(x, j))
        rhs = subsample_spectrum(fft_forward(x), j)
        assert rel_inf(lhs, rhs) <= 1e-10


class TestModulationCheck:
    def test_zero_shift_always_true(self):
        assert modulation_check(random_complex(32, 3), 2, 0)

    def test_half_period_negates_odd_entries(self):
        # shift by N/2: even-indexed spectrum entries equal, odd negated
        x = random_complex(64, 4)
        y = np.roll(x, -32)
        xs, ys = naive_dft(x), naive_dft(y)
        assert np.allclose(xs[::2], ys[::2])
        assert np.allclose(xs[1::2], -ys[1::2])
        assert modulation_check(x, 5, 1)

    def test_random_shift(self):
        assert modulation_check(random_complex(64, 5), 2, 5)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_property(self, seed, data):
        j_total = data.draw(st.integers(2, 9))
        x = random_complex(1 << j_total, seed)
        j = data.draw(st.integers(0, j_total - 1))
        count = data.draw(st.integers(0, (1 << (j_total - j)) - 1))
        assert modulation_check(x, j, count)

    def test_rejects_bad_parameters(self):
        x = random_complex(16, 6)
        with pytest.raises(InvalidLevel):
            modulation_check(x, 4, 0)
        with pytest.raises(InvalidOffset):
            modulation_check(x, 2, 4)


class TestCountingAccessor:
    def test_repeated_read_counts_once(self):
        acc = CountingSpectrumAccessor(np.arange(8) + 0j)
        acc.read(0)
        acc.read(0)
        acc.read(1)
        assert acc.read_count == 2

    def test_vectorized_reads_deduplicate(self):
        acc = CountingSpectrumAccessor(np.arange(16) + 0j)
        acc.read(np.array([3, 3, 5, 7, 5]))
        assert acc.read_count == 3
        acc.read(np.array([5, 8]))
        assert acc.read_count == 4

    def test_values_bit_identical(self):
        values = np.array([1.5 - 2.25j, np.pi + np.e * 1j, -0.0 + 0.0j, 7e-300 + 1j])
        acc = CountingSpectrumAccessor(values)
        got = acc.read(np.arange(4))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, values))

    def test_read_all(self):
        values = random_complex(8, 7)
        acc = CountingSpectrumAccessor(values)
        assert np.array_equal(acc.read_all(), values)
        assert acc.read_count == 8

    def test_read_all_is_read_only(self):
        values = random_complex(8, 7)
        acc = CountingSpectrumAccessor(values)
        with pytest.raises(ValueError):
            acc.read_all()[0] = 0
        assert np.array_equal(acc.read(np.arange(8)), random_complex(8, 7))

    def test_out_of_range(self):
        acc = CountingSpectrumAccessor(np.zeros(8, complex))
        with pytest.raises(InvalidOffset):
            acc.read(8)
        with pytest.raises(InvalidOffset):
            acc.read(-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, -np.inf), complex(np.nan, 0)])
    def test_non_finite_read_names_the_index(self, bad):
        values = np.arange(8) + 0j
        values[5] = bad
        acc = CountingSpectrumAccessor(values)
        with pytest.raises(NonFiniteSpectrum, match="index 5"):
            acc.read(np.array([1, 5, 6]))
        with pytest.raises(NonFiniteSpectrum, match="index 5"):
            acc.read(5)
        with pytest.raises(NonFiniteSpectrum, match="index 5"):
            acc.read_all()

    def test_unread_non_finite_values_are_not_checked(self):
        # the check costs O(values read): values never read are never inspected
        values = np.arange(8) + 0j
        values[3] = np.nan
        acc = CountingSpectrumAccessor(values)
        assert acc.read(np.array([0, 2, 4])).tolist() == [0, 2, 4]
        assert acc.read_count == 3

    @given(
        ops=st.lists(
            st.one_of(
                st.integers(0, 31),
                st.lists(st.integers(0, 31), max_size=12),
                st.just("all"),
            ),
            max_size=12,
        )
    )
    def test_counts_match_a_read_mask(self, ops):
        # reference model: the N-byte mask of distinct indices read
        acc = CountingSpectrumAccessor(np.arange(32) + 0j)
        seen = np.zeros(32, dtype=bool)
        for op in ops:
            if op == "all":
                acc.read_all()
                seen[:] = True
            else:
                acc.read(op if isinstance(op, int) else np.array(op, dtype=np.int64))
                seen[op] = True
            assert acc.read_count == int(np.count_nonzero(seen))

    def test_read_after_read_all_adds_nothing(self):
        acc = CountingSpectrumAccessor(np.arange(8) + 0j)
        acc.read(np.array([1, 1, 6]))
        acc.read_all()
        acc.read(np.array([2, 6, 6]))
        acc.read(3)
        assert acc.read_count == 8

    def test_construction_does_not_scale_with_length(self):
        spectrum = np.zeros(1 << 20, complex)
        tracemalloc.start()
        try:
            CountingSpectrumAccessor(spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestSupportDescriptor:
    def test_indices_wrap(self):
        d = SupportDescriptor(6, 4)
        assert d.indices(8).tolist() == [6, 7, 0, 1]

    def test_embed_fills_the_wrapped_window(self):
        out = SupportDescriptor(6, 4).embed([1, 2j, 3, 4j], 8)
        assert out.dtype == np.complex128
        assert out.tolist() == [3, 4j, 0, 0, 0, 0, 1, 2j]

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidSupportLength):
            SupportDescriptor(0, 0)
        with pytest.raises(InvalidSupportLength):
            SupportDescriptor(0, 4).indices(2)

    @pytest.mark.parametrize("first_index, length", [(0, 2.5), (0, "2"), (1.0, 2), (-1, 2)])
    def test_fields_are_integers_in_range(self, first_index, length):
        with pytest.raises(InvalidSupportLength):
            SupportDescriptor(first_index, length)

    @pytest.mark.parametrize("values", [[1, 2, 3], np.ones((2, 4)), 1.0])
    def test_embed_needs_one_value_per_entry(self, values):
        message = f"expected 4 window values, got shape {np.shape(values)}"
        with pytest.raises(InvalidSupportLength, match=re.escape(message)):
            SupportDescriptor(6, 4).embed(values, 8)


class TestSupportLength:
    def test_valid_lengths(self):
        assert support_length(1, 8) == 1
        assert support_length(np.int64(8), 8) == 8

    @pytest.mark.parametrize("m", [0, 9, -1])
    def test_range_message(self, m):
        with pytest.raises(InvalidSupportLength, match=rf"^support length {m} outside \[1, 8\]$"):
            support_length(m, 8)

    @pytest.mark.parametrize("m, kind", [(2.5, "float"), (3.0, "float"), ("3", "str"), (None, "NoneType")])
    def test_integers_only(self, m, kind):
        with pytest.raises(InvalidSupportLength, match=f"must be an integer, got {kind}"):
            support_length(m, 8)
