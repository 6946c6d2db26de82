import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import RecordingAccessor, periodize
from spfft import sparse_noisy
from spfft.dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_forward, fft_inverse
from spfft.errors import InvalidOffset, NonFiniteSpectrum
from spfft.signal_lab import NoiseSpec, add_noise, gen_instance, gen_sparse_signal
from spfft.sparse_exact import (
    _fold,
    _peak,
    ceil_log2,
    reconstruct_exact,
    window_energies,
    window_spectrum_sample,
)
from spfft.sparse_noisy import (
    MAX_VECTORS,
    _average,
    _double,
    _vote,
    offset_periodization,
    reconstruct_noisy,
)


def noisy_instance(n, m, snr_db, seed):
    return gen_instance(n, m, seed, snr_db)


def vote(acc, m):
    # the fold and locate stages of the noisy path
    return _vote(acc, _fold(acc, ceil_log2(m))[1], m)


def double(acc, folded, start, m, subsampled):
    # the doubling stage from a folded start, probing next to the subsample's peak
    window = folded[SupportDescriptor(start, m).indices(len(folded))]
    return _double(acc, window, start, _peak(acc, subsampled))


def average(vectors, offsets, supp):
    # the averaging stage at N = 256: the window entries of each vector,
    # cyclic mod its length, stand for supp's entries
    return _average(vectors, offsets, supp.indices(len(vectors[0])), supp.indices(256), 256)


class TestOffsetPeriodization:
    def test_offset_zero_is_the_folded_vector(self):
        x, _ = gen_sparse_signal(256, 6, 11)
        acc = CountingSpectrumAccessor(fft_forward(x))
        z0 = offset_periodization(acc, 0, 3)
        assert np.allclose(z0, periodize(x, 4), atol=1e-10)

    def test_zero_signal(self):
        acc = CountingSpectrumAccessor(np.zeros(256, complex))
        for offset in (0, 3, 7):
            assert not offset_periodization(acc, offset, 3).round(15).any()

    def test_magnitudes_match_folded_vector(self):
        # every offset preserves the folded entrywise modulus on exact data
        x, _ = gen_sparse_signal(256, 6, 12)
        acc = CountingSpectrumAccessor(fft_forward(x))
        folded_mag = np.abs(periodize(x, 4))
        for offset in (1, 3, 8, 15):
            z = offset_periodization(acc, offset, 3)
            assert np.max(np.abs(np.abs(z) - folded_mag)) <= 1e-10 * folded_mag.max()

    def test_offset_out_of_range(self):
        acc = CountingSpectrumAccessor(np.zeros(256, complex))
        with pytest.raises(InvalidOffset):
            offset_periodization(acc, 16, 3)

    def test_reads_are_disjoint_across_offsets(self):
        acc = CountingSpectrumAccessor(np.zeros(256, complex))
        offset_periodization(acc, 0, 3)
        assert acc.read_count == 16
        offset_periodization(acc, 5, 3)
        assert acc.read_count == 32


class TestEstimateSupportStart:
    def test_exact_data_agrees_immediately(self, example_256):
        acc = CountingSpectrumAccessor(fft_forward(example_256))
        start, stable, vectors, offsets = vote(acc, 6)
        assert start == 9  # 105 mod 16
        assert len(vectors) == 2
        assert offsets == [0, 8]  # second vector sits between the stride combs
        assert stable

    def test_matches_plain_detection_without_noise(self):
        x, _ = gen_sparse_signal(1 << 10, 13, 21)
        acc = CountingSpectrumAccessor(fft_forward(x))
        level = ceil_log2(13)
        start, _, _, _ = vote(acc, 13)
        assert start == np.argmax(window_energies(periodize(x, level + 1), 13))

    def test_budget_exhaustion_reports_unstable(self, monkeypatch):
        # heavy noise and a 2-vector budget cannot reach agreement reliably;
        # crafted so the two votes differ
        monkeypatch.setattr(sparse_noisy, "MAX_VECTORS", 2)
        for seed in range(20):
            x, supp, noisy, _ = noisy_instance(1 << 10, 13, -10.0, seed)
            acc = CountingSpectrumAccessor(noisy)
            start, stable, vectors, _ = vote(acc, 13)
            assert len(vectors) <= 2
            # the first vote is the argmax of the offset-0 vector's energies alone
            if np.argmax(window_energies(vectors[0], 13)) != start:
                assert not stable
                break
        else:
            pytest.fail("no disagreeing vote pair found across seeds")


class TestRefineSupport:
    def test_recovers_block_binary_digits(self, example_256):
        acc = CountingSpectrumAccessor(fft_forward(example_256))
        folded = periodize(example_256, 4)
        first, blind = double(acc, folded, 9, 6, acc.read(16 * np.arange(16)))
        assert first == 105  # moves by 32 and 64: (105-9)/16 = 6 = 0b0110
        assert blind == []

    @pytest.mark.parametrize("sign, moved", [(1, False), (-1, True)])
    def test_zero_neighbors_take_the_first_nonzero_odd_value_in_scan_order(self, sign, moved):
        # N=16, m=4: one doubling level, probe stride 1, at most 4 probes.
        # The subsample peaks at 4; 5, 3 and 1 read zero, so 7 decides,
        # and 9, larger still, is past the budget.
        folded = np.array([0, 1, 2j, -1, 0.5, 0, 0, 0])
        spectrum = np.zeros(16, complex)
        spectrum[::2] = 1
        spectrum[4] = 3
        spectrum[7] = sign * window_spectrum_sample(folded[1:5], 1, 7, 16)
        spectrum[9] = 100
        acc = RecordingAccessor(spectrum)
        first, blind = double(acc, folded, 1, 4, acc.read(2 * np.arange(8)))
        assert blind == []
        assert first == 1 + 8 * moved
        assert acc.calls[1:] == [[5, 3], [1], [7]]

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_all_zero_odd_probes_do_not_move(self, m):
        # N=64: only the stride lattice is nonzero, so every probe reads
        # zero; each level stops after m distinct probes and keeps the window
        fold_len = 1 << (ceil_log2(m) + 1)
        stride = 64 // fold_len
        spectrum = np.zeros(64, complex)
        spectrum[::stride] = 1 + np.arange(fold_len)
        folded = np.zeros(fold_len, complex)
        folded[:m] = 1
        acc = CountingSpectrumAccessor(spectrum)
        subsampled = acc.read(stride * np.arange(fold_len))
        before = acc.read_count
        first, blind = double(acc, folded, 0, m, subsampled)
        levels = 6 - ceil_log2(m) - 1
        assert first == 0
        assert blind == list(range(ceil_log2(m) + 1, 6))
        assert acc.read_count - before == levels * m

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_exact_doubling_decisions(self, seed, data):
        j = data.draw(st.integers(5, 10))
        n = 1 << j
        m = data.draw(st.integers(1, n // 8))
        x, supp = gen_sparse_signal(n, m, seed)
        level = ceil_log2(m)
        fold_len = 1 << (level + 1)
        acc = CountingSpectrumAccessor(fft_forward(x))
        folded = periodize(x, level + 1)
        start = supp.first_index % fold_len
        first, blind = double(acc, folded, start, m, acc.read((n // fold_len) * np.arange(fold_len)))
        assert first == supp.first_index
        assert blind == []


class TestAverageSupportValues:
    def test_single_offset_zero_returns_window(self):
        x, supp = gen_sparse_signal(256, 6, 13)
        acc = CountingSpectrumAccessor(fft_forward(x))
        z0 = offset_periodization(acc, 0, 3)
        values = average([z0], [0], supp)
        assert np.allclose(values, z0[(supp.first_index + np.arange(6)) % 16], atol=1e-12)

    def test_exact_data_identity_any_offsets(self):
        x, supp = gen_sparse_signal(256, 6, 14)
        acc = CountingSpectrumAccessor(fft_forward(x))
        offsets = [0, 8, 4, 2, 9]
        vectors = [offset_periodization(acc, off, 3) for off in offsets]
        values = average(vectors, offsets, supp)
        truth = x[supp.indices(256)]
        assert np.max(np.abs(values - truth)) <= 1e-10 * np.max(np.abs(truth))

    def test_averaging_shrinks_noise_variance(self):
        # four offsets should cut the error energy to ~1/4 of one offset
        n, m, snr = 1 << 12, 8, 10.0
        x, supp = gen_sparse_signal(n, m, 99)
        spectrum = fft_forward(x)
        level = ceil_log2(m)
        window_idx = supp.indices(1 << (level + 1))
        positions = supp.indices(n)
        truth = x[positions]
        offsets = [0, 1 << 7, 1 << 6, 1 << 5]
        single_sq = quad_sq = 0.0
        trials = 1000
        for trial in range(trials):
            noisy, _ = add_noise(spectrum, NoiseSpec(seed=trial, snr_db=snr))
            acc = CountingSpectrumAccessor(noisy)
            vectors = [offset_periodization(acc, off, level) for off in offsets]
            one = _average(vectors[:1], offsets[:1], window_idx, positions, n)
            four = _average(vectors, offsets, window_idx, positions, n)
            single_sq += np.sum(np.abs(one - truth) ** 2)
            quad_sq += np.sum(np.abs(four - truth) ** 2)
        ratio = quad_sq / single_sq
        assert 0.25 / 1.5 <= ratio <= 0.25 * 1.5


class TestReconstructNoisy:
    def test_zero_noise_matches_exact_algorithm(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            j = int(rng.integers(4, 12))
            n = 1 << j
            m = int(rng.integers(1, n // 8 + 1))
            x, supp = gen_sparse_signal(n, m, int(rng.integers(0, 2**62)))
            spectrum = fft_forward(x)
            exact = reconstruct_exact(CountingSpectrumAccessor(spectrum), m)
            noisy = reconstruct_noisy(CountingSpectrumAccessor(spectrum), m)
            assert noisy.support == exact.support
            scale = np.max(np.abs(x))
            assert np.max(np.abs(noisy.signal - exact.signal)) <= 1e-9 * scale

    def test_known_example_with_noise_beats_dense_inverse(self, example_256):
        spectrum = fft_forward(example_256)
        sparse_err = dense_err = 0.0
        for trial in range(50):
            noisy, _ = add_noise(spectrum, NoiseSpec(seed=trial, snr_db=20.0))
            rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 6)
            sparse_err += np.linalg.norm(rec.signal - example_256) / 256
            dense_err += np.linalg.norm(fft_inverse(noisy) - example_256) / 256
        assert sparse_err < dense_err

    def test_sample_budget_invariant(self):
        for seed in range(20):
            n, m = 1 << 12, 11
            x, supp, noisy, _ = noisy_instance(n, m, 10.0, 3000 + seed)
            rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), m)
            level = ceil_log2(m)
            fold_len = 1 << (level + 1)
            levels = 12 - level - 1
            assert rec.samples_used <= rec.vectors_used * fold_len + levels * m
            assert rec.vectors_used <= MAX_VECTORS

    def test_signal_vanishes_outside_window(self):
        x, supp, noisy, _ = noisy_instance(1 << 10, 7, 15.0, 4321)
        rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 7)
        outside = np.ones(1 << 10, dtype=bool)
        outside[rec.support.indices(1 << 10)] = False
        assert not rec.signal[outside].any()

    def test_dense_fallback_zeroes_outside_window(self):
        n = 64
        x, supp, noisy, _ = noisy_instance(n, 30, 25.0, 5)
        rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 30)
        assert rec.samples_used == n
        assert rec.vectors_used == 0
        outside = np.ones(n, dtype=bool)
        outside[rec.support.indices(n)] = False
        assert not rec.signal[outside].any()
        assert rec.support.first_index == supp.first_index

    def test_mode(self):
        _, _, noisy, _ = noisy_instance(1 << 10, 7, 15.0, 4321)
        assert reconstruct_noisy(CountingSpectrumAccessor(noisy), 7).mode == "sparse"
        _, _, noisy, _ = noisy_instance(64, 30, 25.0, 5)
        assert reconstruct_noisy(CountingSpectrumAccessor(noisy), 30).mode == "fallback"

    def test_non_finite_spectrum_rejected(self):
        _, _, noisy, _ = noisy_instance(4096, 20, 20.0, 3)
        noisy[0] = np.nan
        with pytest.raises(NonFiniteSpectrum):
            reconstruct_noisy(CountingSpectrumAccessor(noisy), 20)

    def test_doubling_comparison_that_overflows_is_rejected(self, doubling_overflow_spectrum):
        # |predicted - measured| exceeds the float maximum at level 7
        with pytest.raises(NonFiniteSpectrum, match="^doubling comparison at level 7 overflows$"):
            reconstruct_noisy(CountingSpectrumAccessor(doubling_overflow_spectrum), 1)

    def test_zero_signal_total(self):
        rec = reconstruct_noisy(CountingSpectrumAccessor(np.zeros(256, complex)), 6)
        assert not rec.signal.any()
        assert rec.support.length == 6

    def test_model_data_have_no_blind_level(self):
        for snr in (math.inf, 20.0):
            _, _, noisy, _ = noisy_instance(4096, 20, snr, 3)
            assert reconstruct_noisy(CountingSpectrumAccessor(noisy), 20).blind_levels == []

    def test_period_half_input_reports_its_blind_level(self):
        # x repeats with period N/2, so every odd spectrum value is zero and
        # the last doubling level, probed at odd indices, reads nothing
        x = np.tile(gen_sparse_signal(2048, 20, 3)[0], 2)
        rec = reconstruct_noisy(CountingSpectrumAccessor(fft_forward(x)), 20)
        assert rec.blind_levels == [11]
        assert rec.support.first_index >> 11 & 1 == 0

    def test_window_values_are_the_signal_on_its_support(self):
        x, supp, noisy, _ = noisy_instance(1 << 10, 7, 15.0, 4321)
        rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 7)
        assert rec.n == 1 << 10 and rec.values.shape == (7,)
        assert np.array_equal(rec.signal[rec.support.indices(rec.n)], rec.values)
