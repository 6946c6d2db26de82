import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import RecordingAccessor, periodize
from spfft.dft_core import CountingSpectrumAccessor, fft_forward, fft_inverse
from spfft.errors import (
    DegenerateQuotient,
    InvalidSupportLength,
    NoisyQuotient,
    NonFiniteSpectrum,
    ValidationError,
    ZeroSignal,
)
from spfft.signal_lab import gen_sparse_signal
from spfft.sparse_exact import (
    Reconstruction,
    _odd_probe,
    _peak,
    _resolve_shift,
    ceil_log2,
    reconstruct_dense,
    reconstruct_exact,
    window_energies,
    window_spectrum_sample,
)
from spfft.sparse_noisy import reconstruct_noisy

ENTRY_POINTS = {
    "exact": reconstruct_exact,
    "noisy": reconstruct_noisy,
    "dense-fallback": lambda accessor, m: reconstruct_dense(accessor, m, "fallback"),
    "dense-baseline": lambda accessor, m: reconstruct_dense(accessor, m, "baseline"),
}


def brute_force_start(values, window_len):
    # independent O(n * window_len) maximizer with the same tie-break
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    energies = [
        np.sum(np.abs(values[(k + np.arange(window_len)) % n]) ** 2) for k in range(n)
    ]
    return int(np.argmax(energies))


class TestFindSupportStart:
    # the locate stage: the argmax of the window energies, smallest start on ties
    def test_isolated_window(self):
        assert np.argmax(window_energies([0, 0, 5, 1, 0, 0, 0, 0], 2)) == 2

    def test_wrap_around(self):
        assert np.argmax(window_energies([1, 0, 0, 0, 0, 0, 0, 3], 2)) == 7

    def test_folded_example(self, example_256):
        # folding the known instance to 16 entries puts the window at 105 mod 16
        folded = periodize(example_256, 4)
        assert np.argmax(window_energies(folded, 6)) == 9
        assert brute_force_start(folded, 6) == 9

    def test_rejects_zero_length(self):
        with pytest.raises(InvalidSupportLength):
            window_energies(np.ones(8), 0)

    def test_rejects_energies_that_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteSpectrum):
            window_energies([1e200, 0, 0, 0], 2)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_brute_force(self, seed, data):
        rng = np.random.default_rng(seed)
        n = 1 << data.draw(st.integers(1, 7))
        window_len = data.draw(st.integers(1, n // 2))
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.argmax(window_energies(values, window_len)) == brute_force_start(values, window_len)

    def test_brute_force_bulk(self):
        rng = np.random.default_rng(314)
        for _ in range(1000):
            n = 1 << int(rng.integers(1, 7))
            window_len = int(rng.integers(1, n // 2 + 1))
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.argmax(window_energies(values, window_len)) == brute_force_start(
                values, window_len
            )


class TestResolveShift:
    def test_unit_quotient_means_no_shift(self):
        assert _resolve_shift(1.0 + 0j, 7, 5) == 0

    def test_known_root_of_unity(self):
        quotient = np.exp(-2j * np.pi * 6 / 8)
        assert _resolve_shift(complex(quotient), 1, 3) == 6

    def test_brute_force_all_shifts(self):
        t, odd = 4, 7
        modulus = 1 << t
        for true_shift in range(modulus):
            quotient = np.exp(-2j * np.pi * (odd * true_shift % modulus) / modulus)
            shift = _resolve_shift(complex(quotient), odd, t)
            assert shift == true_shift

    def test_off_lattice_phase_rejected(self):
        quotient = np.exp(-2j * np.pi * (3 + 0.4) / 16)
        with pytest.raises(NoisyQuotient):
            _resolve_shift(complex(quotient), 1, 4)


def probe_next_to_peak(acc, subsampled):
    # the exact path's place stage: odd neighbors of the subsample's peak,
    # with one probe per subsample entry at most
    return _odd_probe(acc, _peak(acc, subsampled), 1, len(subsampled))


class TestSelectOddSample:
    def test_flat_spectrum_tie_breaks_right(self):
        # delta at 0 has all-ones spectrum: argmax 0, tied neighbors, right wins
        x = np.zeros(16, complex)
        x[0] = 1
        acc = CountingSpectrumAccessor(fft_forward(x))
        odd, value = probe_next_to_peak(acc, acc.read(4 * np.arange(4)))
        assert odd == 1
        assert value == pytest.approx(1.0)

    def test_example_value_is_nonzero(self, example_256):
        acc = CountingSpectrumAccessor(fft_forward(example_256))
        odd, value = probe_next_to_peak(acc, acc.read(16 * np.arange(16)))
        assert abs(value) > 0
        # returned value really is the odd-indexed spectrum entry
        assert odd % 2 == 1
        assert value == pytest.approx(complex(fft_forward(example_256)[odd]))

    def test_costs_at_most_two_extra_reads(self):
        x, _ = gen_sparse_signal(1 << 10, 9, 5)
        acc = CountingSpectrumAccessor(fft_forward(x))
        level = ceil_log2(9)
        stride = 1 << (10 - level - 1)
        acc.read(stride * np.arange(1 << (level + 1)))
        before = acc.read_count
        probe_next_to_peak(acc, acc.read(stride * np.arange(1 << (level + 1))))
        assert acc.read_count <= before + 2

    def test_zero_neighbors_take_the_first_nonzero_odd_value_in_scan_order(self):
        # the stride-8 subsample peaks at 0; its neighbors 1 and 63 and the
        # next odd index 3 are zero, so the scan stops at 5 although 7 is larger
        spectrum = np.zeros(64, complex)
        spectrum[::8] = 1
        spectrum[0] = 4
        spectrum[5], spectrum[7] = 2j, 9
        acc = RecordingAccessor(spectrum)
        odd, value = probe_next_to_peak(acc, acc.read(8 * np.arange(8)))
        assert (odd, value) == (5, 2j)
        # both neighbors in one call, then the scan, which skips index 1
        assert acc.calls[1:] == [[1, 63], [3], [5]]

    @pytest.mark.parametrize("level", [0, 1, 2, 4])
    def test_all_zero_odd_half_raises_after_the_budget(self, level):
        spectrum = np.zeros(64, complex)
        spectrum[::2] = 1 + np.arange(32)
        acc = CountingSpectrumAccessor(spectrum)
        subsampled = acc.read((32 >> level) * np.arange(2 << level))
        before = acc.read_count
        assert probe_next_to_peak(acc, subsampled)[1] == 0
        # 2**(level+1) distinct odd probes: at level 0 both neighbors still
        assert acc.read_count - before == 2 << level
        # which the exact path reports after its fold and probe reads
        acc = CountingSpectrumAccessor(spectrum)
        with pytest.raises(ZeroSignal, match=f"all {2 << level} odd-indexed"):
            reconstruct_exact(acc, 1 << level)
        assert acc.read_count == 4 << level


class TestWindowSpectrumSample:
    def test_matches_dense_transform(self):
        rng = np.random.default_rng(8)
        n = 64
        window = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = np.zeros(n, complex)
        x[10:15] = window
        spectrum = fft_forward(x)
        for freq in (1, 7, 33):
            assert window_spectrum_sample(window, 10, freq, n) == pytest.approx(
                complex(spectrum[freq]), rel=1e-10
            )


class TestReconstructDense:
    def test_baseline_keeps_the_whole_inverse(self):
        x, supp = gen_sparse_signal(256, 6, 41)
        spectrum = fft_forward(x) + 0.01
        rec = reconstruct_dense(CountingSpectrumAccessor(spectrum), 6, "baseline")
        assert rec.mode == "baseline"
        assert np.array_equal(rec.signal, fft_inverse(spectrum))
        assert rec.support == supp
        assert rec.samples_used == 256

    def test_fallback_zeroes_outside_the_window(self):
        x, supp = gen_sparse_signal(256, 6, 41)
        spectrum = fft_forward(x) + 0.01
        rec = reconstruct_dense(CountingSpectrumAccessor(spectrum), 6)
        assert rec.mode == "fallback"
        dense = fft_inverse(spectrum)
        assert np.array_equal(rec.signal, supp.embed(dense[supp.indices(256)], 256))

    def test_ties_go_to_the_smallest_start(self):
        rec = reconstruct_dense(CountingSpectrumAccessor(np.zeros(16, complex)), 3)
        assert rec.support.first_index == 0

    def test_rejects_bad_arguments(self):
        acc = CountingSpectrumAccessor(np.zeros(16, complex))
        with pytest.raises(InvalidSupportLength, match="support length 0 outside"):
            reconstruct_dense(acc, 0, "baseline")
        with pytest.raises(ValidationError):
            reconstruct_dense(acc, 4, "sparse")


class TestResultType:
    # N=4096, m=20 runs the sparse algorithms; N=64, m=30 their dense fallback
    @pytest.mark.parametrize("n, m", [(4096, 20), (64, 30)])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_every_entry_point_returns_a_reconstruction(self, entry, n, m):
        x, _ = gen_sparse_signal(n, m, 5)
        rec = ENTRY_POINTS[entry](CountingSpectrumAccessor(fft_forward(x)), m)
        assert type(rec) is Reconstruction

    @pytest.mark.parametrize("entry", ["exact", "noisy"])
    def test_sparse_fallback_is_the_dense_result(self, entry):
        x, _ = gen_sparse_signal(64, 30, 5)
        spectrum = fft_forward(x)
        got = ENTRY_POINTS[entry](CountingSpectrumAccessor(spectrum), 30)
        want = reconstruct_dense(CountingSpectrumAccessor(spectrum), 30)
        assert got.mode == "fallback"
        assert dataclasses.fields(got) == dataclasses.fields(want)
        for field in dataclasses.fields(got):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


class TestReconstructExact:
    def test_known_example(self, example_256):
        acc = CountingSpectrumAccessor(fft_forward(example_256))
        rec = reconstruct_exact(acc, 6)
        assert rec.support.first_index == 105
        assert rec.support.first_index >> 4 == 6  # 105 = 9 + 16 * 6
        assert rec.samples_used == 18 <= 4 * 6 + 2
        assert np.max(np.abs(rec.signal - example_256)) <= 1e-9 * 8

    def test_single_delta(self):
        n = 128
        x = np.zeros(n, complex)
        x[0] = 2.5 - 1j
        rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), 1)
        assert rec.support.first_index == 0
        assert rec.signal[0] == pytest.approx(2.5 - 1j)
        assert np.max(np.abs(rec.signal - x)) <= 1e-9 * abs(x[0])

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_period_half_input_raises_within_the_read_bound(self, seed, data):
        # x = tile(y, 2) has period N/2, so every odd-indexed value is zero
        j = data.draw(st.integers(4, 12))
        n = 1 << j
        m = data.draw(st.integers(1, n // 8))
        y, _ = gen_sparse_signal(n // 2, m, seed)
        acc = CountingSpectrumAccessor(fft_forward(np.tile(y, 2)))
        with pytest.raises(ZeroSignal):
            reconstruct_exact(acc, m)
        assert acc.read_count <= 1 << (ceil_log2(m) + 2)

    def test_zero_vector(self):
        rec = reconstruct_exact(CountingSpectrumAccessor(np.zeros(64, complex)), 4)
        assert not rec.signal.any()
        assert rec.support.first_index == 0
        assert rec.samples_used == 8  # stops after the folded read
        assert rec.values.dtype == np.complex128 and rec.values.tobytes() == bytes(4 * 16)
        assert rec.mode == "sparse"

    @pytest.mark.parametrize("m", [48, 64, 128])
    def test_dense_fallback(self, m):
        # fold level within one of the top level: one dense inverse transform
        x, supp = gen_sparse_signal(128, m, 99)
        rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), m)
        assert rec.samples_used == 128
        assert np.max(np.abs(rec.signal - x)) <= 1e-9 * np.max(np.abs(x))
        if m <= 64:
            assert rec.support.first_index == supp.first_index

    def test_mode(self, example_256):
        assert reconstruct_exact(CountingSpectrumAccessor(fft_forward(example_256)), 6).mode == "sparse"
        x, _ = gen_sparse_signal(64, 30, 5)
        assert reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), 30).mode == "fallback"

    def test_non_finite_spectrum_rejected(self):
        # index 0 lies on every stride lattice, so the first read meets it
        x, _ = gen_sparse_signal(4096, 20, 3)
        spectrum = fft_forward(x)
        spectrum[0] = np.nan
        with pytest.raises(NonFiniteSpectrum):
            reconstruct_exact(CountingSpectrumAccessor(spectrum), 20)

    def test_underflowing_quotient_is_degenerate(self):
        # both the odd sample 1e-300 and the window transform 1e150 are
        # nonzero, but their quotient underflows to 0, which fixes no shift
        spectrum = np.zeros(16, complex)
        spectrum[0] = spectrum[8] = 1e150
        spectrum[1] = 1e-300
        with pytest.raises(DegenerateQuotient, match="shift quotient is zero"):
            reconstruct_exact(CountingSpectrumAccessor(spectrum), 1)

    def test_support_length_validation(self):
        acc = CountingSpectrumAccessor(np.zeros(16, complex))
        with pytest.raises(InvalidSupportLength):
            reconstruct_exact(acc, 0)
        with pytest.raises(InvalidSupportLength):
            reconstruct_exact(acc, 17)

    def test_noisy_data_rejected(self, example_256):
        # heavy enough perturbation pushes the shift quotient off the
        # root-of-unity lattice; detection is best-effort, so the seed is
        # pinned to a draw where the phase lands off-lattice
        rng = np.random.default_rng(2)
        spectrum = fft_forward(example_256)
        spectrum += 2.0 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        with pytest.raises(NoisyQuotient):
            reconstruct_exact(CountingSpectrumAccessor(spectrum), 6)

    def test_random_instances(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            j = int(rng.integers(4, 13))
            n = 1 << j
            m = int(rng.integers(1, n // 8 + 1))
            x, supp = gen_sparse_signal(n, m, int(rng.integers(0, 2**62)))
            rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), m)
            assert rec.support.first_index == supp.first_index
            assert rec.samples_used <= (1 << (ceil_log2(m) + 1)) + 2 <= 4 * m + 2
            assert np.max(np.abs(rec.signal - x)) <= 1e-9 * np.max(np.abs(x))

    def test_upper_bound_support_length(self):
        # the given length may exceed the true one; placement must still be right
        n = 1 << 10
        x = np.zeros(n, complex)
        x[700] = 3 + 1j
        x[703] = -2j
        rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), 7)
        assert np.max(np.abs(rec.signal - x)) <= 1e-9 * 3

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_shift_equivariance(self, seed, data):
        j = data.draw(st.integers(5, 10))
        n = 1 << j
        m = data.draw(st.integers(1, n // 8))
        x, _ = gen_sparse_signal(n, m, seed)
        fold_len = 1 << (ceil_log2(m) + 1)
        blocks = data.draw(st.integers(0, n // fold_len - 1))
        shifted = np.roll(x, fold_len * blocks)
        rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), m)
        rec_shifted = reconstruct_exact(CountingSpectrumAccessor(fft_forward(shifted)), m)
        assert (
            rec_shifted.support.first_index
            == (rec.support.first_index + fold_len * blocks) % n
        )
