import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import RecordingAccessor, per_level_double, periodize
from spfft import sparse_noisy
from spfft.dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_forward, fft_inverse
from spfft.errors import InvalidOffset, ModelViolation, NonFiniteSpectrum
from spfft.signal_lab import NoiseSpec, add_noise, gen_instance, gen_sparse_signal
from spfft.sparse_exact import (
    RESIDUAL_TOLERANCE,
    _fold,
    _locate,
    _locate_residual,
    _peak,
    ceil_log2,
    reconstruct_exact,
    window_energies,
)
from spfft.sparse_noisy import (
    MAX_VECTORS,
    _double,
    _grow,
    _join,
    _twiddles,
    offset_periodization,
    reconstruct_noisy,
)


def noisy_instance(n, m, snr_db, seed):
    return gen_instance(n, m, seed, snr_db)


def grow(acc, m):
    # the fold, locate and grow stages of the noisy path, as on a fold the residual did not certify
    folded = _fold(acc, ceil_log2(m))[1]
    return _grow(acc, folded, _locate(folded, m), m)


def double(acc, folded, start, m, subsampled):
    # the doubling stage from a folded start, probing next to the subsample's peak
    window = folded[SupportDescriptor(start, m).indices(len(folded))]
    return _double(acc, window, start, _peak(acc, subsampled), len(folded).bit_length() - 2)


def join(acc, folded, level):
    # the level-(level+1) fold from the level-`level` one and the odd half of its reads
    stride = len(acc) >> (level + 1)
    return _join(folded, offset_periodization(acc, stride // 2, level))


def assert_direct_fold(grown, spectrum):
    # the grown fold is the inverse FFT of the spectrum subsampled at its stride
    direct = fft_inverse(spectrum[:: len(spectrum) // len(grown)])
    assert np.max(np.abs(grown - direct)) <= 1e-12 * np.max(np.abs(direct))
    return direct


def assert_certified(spectrum, m, start):
    # exact data: the exact path's fold of P = 2**ceil_log2(m+1) entries fits
    # the model, is not grown, and is placed by the odd-sample quotient from
    # its probe pair, where reconstruct_exact places it
    n, fold_len = len(spectrum), 1 << m.bit_length()
    acc = RecordingAccessor(spectrum)
    rec = reconstruct_noisy(acc, m)
    assert (rec.vectors_used, rec.votes_stable, rec.support.first_index % fold_len) == (1, True, start)
    assert rec.support == reconstruct_exact(CountingSpectrumAccessor(spectrum), m).support
    assert [len(call) for call in acc.calls] == [fold_len, 2]
    assert acc.calls[0] == list(range(0, n, n // fold_len))


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

    @pytest.mark.parametrize("fold_level", [4, 5, -1])
    def test_fold_level_outside_the_length_is_rejected_before_any_read(self, fold_level):
        # N = 16, J = 4: the fold levels are 0 to 3, the last one the vector itself
        acc = CountingSpectrumAccessor(np.zeros(16, complex))
        with pytest.raises(InvalidOffset, match=rf"^fold level {fold_level} outside \[0, 3\]$"):
            offset_periodization(acc, 0, fold_level)
        assert acc.read_count == 0
        assert len(offset_periodization(acc, 0, 3)) == 16

    def test_reads_are_disjoint_across_offsets(self):
        acc = CountingSpectrumAccessor(np.zeros(256, complex))
        offset_periodization(acc, 0, 3)
        assert acc.read_count == 16
        offset_periodization(acc, 5, 3)
        assert acc.read_count == 32


class TestEstimateSupportStart:
    def test_noisy_data_agree_after_one_step(self, example_256):
        spectrum = fft_forward(example_256)
        noisy, _ = add_noise(spectrum, NoiseSpec(seed=0, snr_db=10.0))
        acc = RecordingAccessor(noisy)
        grown, start, stable = grow(acc, 6)
        assert (len(grown), start, stable) == (32, 9, True)  # 105 mod 32
        # one step reads the offsets 0 and stride/2 = 8: the multiples of 8
        assert sorted(i for call in acc.calls for i in call) == list(range(0, 256, 8))
        assert_direct_fold(grown, noisy)
        # exact data stop at the fold of P = 8, on its residual
        assert_certified(spectrum, 6, 1)  # 105 mod 8

    def test_matches_plain_detection_on_the_direct_fold(self):
        x, _ = gen_sparse_signal(1 << 10, 13, 21)
        spectrum = fft_forward(x)
        noisy, _ = add_noise(spectrum, NoiseSpec(seed=1, snr_db=10.0))
        grown, start, _ = grow(CountingSpectrumAccessor(noisy), 13)
        assert len(grown) > 1 << (ceil_log2(13) + 1)
        direct = assert_direct_fold(grown, noisy)
        assert start == np.argmax(window_energies(direct, 13))
        first = periodize(x, 4)  # the fold of P = 16
        assert_certified(spectrum, 13, int(np.argmax(window_energies(first, 13))))

    def test_budget_exhaustion_reports_unstable(self, monkeypatch):
        # heavy noise and a 2x budget cannot reach agreement reliably;
        # crafted so the two starts differ
        monkeypatch.setattr(sparse_noisy, "MAX_VECTORS", 2)
        for seed in range(20):
            x, supp, noisy, _ = noisy_instance(1 << 10, 13, -10.0, seed)
            acc = CountingSpectrumAccessor(noisy)
            folded = _fold(acc, ceil_log2(13))[1]
            grown, start, stable = _grow(acc, folded, _locate(folded, 13), 13)
            assert len(grown) == 2 * len(folded)
            # the first start is the argmax of the first fold's energies alone
            if np.argmax(window_energies(folded, 13)) != start % len(folded):
                assert not stable
                break
        else:
            pytest.fail("no disagreeing pair of starts found across seeds")

    def test_fold_multiple_is_a_power_of_two_within_the_cap(self):
        multiples = set()
        for seed in range(40):
            _, _, noisy, _ = noisy_instance(1 << 12, 11, -5.0, seed)
            rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 11)
            assert rec.vectors_used in (2, 4, 8)
            assert rec.vectors_used <= MAX_VECTORS
            multiples.add(rec.vectors_used)
        assert len(multiples) > 1  # the growth does not always stop at one length

    def test_a_cap_of_one_keeps_the_first_fold(self, example_256, monkeypatch):
        monkeypatch.setattr(sparse_noisy, "MAX_VECTORS", 1)
        spectrum = fft_forward(example_256)
        noisy, _ = add_noise(spectrum, NoiseSpec(seed=0, snr_db=10.0))
        acc = CountingSpectrumAccessor(noisy)
        grown, start, stable = grow(acc, 6)
        assert (len(grown), start, stable, acc.read_count) == (16, 9, False, 16)
        assert_direct_fold(grown, noisy)
        rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 6)
        assert (rec.vectors_used, rec.votes_stable, rec.support.first_index) == (1, False, 105)
        # a certified fold is stable at any cap
        assert_certified(spectrum, 6, 1)

    def test_growth_stops_at_the_full_length(self):
        # N = 16, m = 4: the first fold has 8 entries, and one step reads the rest
        x, _ = gen_sparse_signal(16, 4, 8)
        spectrum = fft_forward(x)
        noisy, _ = add_noise(spectrum, NoiseSpec(seed=0, snr_db=10.0))
        acc = CountingSpectrumAccessor(noisy)
        grown, _, _ = grow(acc, 4)
        assert (len(grown), acc.read_count) == (16, 16)
        assert_direct_fold(grown, noisy)  # at the full length, the inverse FFT of the spectrum
        # exact data do not grow to the full length
        assert_certified(spectrum, 4, int(np.argmax(window_energies(periodize(x, 3), 4))))


class TestCertifiedFirstFold:
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_exact_instances_are_placed_as_on_the_exact_path(self, seed, data):
        # the certified fold of P = 2**ceil_log2(m+1) entries is placed by the
        # odd-sample quotient from its probe pair, and never reaches the doubling:
        # the exact path's stages, with its support, reads and value bytes
        j = data.draw(st.integers(3, 14))
        n = 1 << j
        m = data.draw(st.integers(1, n // 4))
        x, _ = gen_sparse_signal(n, m, seed)
        spectrum = fft_forward(x)
        exact = reconstruct_exact(CountingSpectrumAccessor(spectrum), m)
        acc = RecordingAccessor(spectrum)
        with mock.patch.object(sparse_noisy, "_double", side_effect=AssertionError("doubled")):
            rec = reconstruct_noisy(acc, m)
        assert (rec.support, rec.samples_used) == (exact.support, exact.samples_used)
        assert rec.values.tobytes() == exact.values.tobytes()
        assert (rec.vectors_used, rec.votes_stable, rec.blind_levels) == (1, True, [])
        assert rec.samples_used == (1 << m.bit_length()) + 2
        assert np.max(np.abs(rec.signal - x)) <= 1e-9 * np.max(np.abs(x))

    @pytest.mark.parametrize(
        "n, m, snr", [(1 << 10, 6, 10.0), (1 << 12, 13, 0.0), (1 << 16, 50, 20.0), (1 << 14, 300, 5.0)]
    )
    def test_an_uncertified_fold_is_interleaved_into_the_direct_first_fold(self, n, m, snr, monkeypatch):
        # the P subsample and the odd half of the 2**(L+1) one, read once each,
        # interleave into the stride subsample that _fold reads at level L, and
        # its fold and peak are that of _fold, bit for bit
        grown, peaks = [], []

        def recorded(acc, folded, *args):
            grown.append(folded)
            return _grow(acc, folded, *args)

        def peak(acc, subsampled):
            peaks.append(subsampled)
            return _peak(acc, subsampled)

        monkeypatch.setattr(sparse_noisy, "_grow", recorded)
        monkeypatch.setattr(sparse_noisy, "_peak", peak)
        noisy = noisy_instance(n, m, snr, 5)[2]
        acc = RecordingAccessor(noisy)
        reconstruct_noisy(acc, m)
        subsampled, folded = _fold(CountingSpectrumAccessor(noisy), ceil_log2(m))
        assert grown[0].tobytes() == folded.tobytes() and peaks[0].tobytes() == subsampled.tobytes()
        fold_len, p = len(folded), 1 << m.bit_length()
        assert [len(call) for call in acc.calls[:2]] == [p, fold_len - p]
        reads = acc.calls[0] + acc.calls[1]
        assert sorted(reads) == list(range(0, n, n // fold_len))

    def test_noisy_instances_are_never_certified(self):
        # the smallest residual of the fold of P entries falls with the noise,
        # to about 3e-11 at 180 dB over 300 draws; every draw here grows
        rng = np.random.default_rng(20150903)
        for snr in (0.0, 20.0, 60.0, 100.0, 140.0, 180.0):
            for _ in range(100):
                n = 1 << int(rng.integers(6, 15))
                m = int(rng.integers(1, n // 4 + 1))
                noisy = noisy_instance(n, m, snr, int(rng.integers(2**32)))[2]
                _, residual = _locate_residual(_fold(CountingSpectrumAccessor(noisy), m.bit_length() - 1)[1], m)
                assert residual > RESIDUAL_TOLERANCE, (n, m, snr)
                assert reconstruct_noisy(CountingSpectrumAccessor(noisy), m).vectors_used > 1

    def test_the_residual_runs_at_most_once_per_call(self, monkeypatch):
        calls = []

        def counted(folded, window_len):
            calls.append(len(folded))
            return _locate_residual(folded, window_len)

        monkeypatch.setattr(sparse_noisy, "_locate_residual", counted)
        for snr in (0.0, 10.0, 20.0, math.inf):
            for n, m in ((1 << 12, 11), (1 << 14, 50), (64, 30)):
                calls.clear()
                rec = reconstruct_noisy(CountingSpectrumAccessor(noisy_instance(n, m, snr, 7)[2]), m)
                # on the fold of P entries only; the dense fallback computes none
                want = [] if rec.mode == "fallback" else [1 << m.bit_length()]
                assert calls == want

    @pytest.mark.parametrize("n", [16, 32])
    def test_short_zero_and_period_half_spectra_are_placed_as_on_the_exact_path(self, n):
        # m = N/4: the first fold has N/2 entries and is certified; every odd
        # probe of both spectra reads zero, so both read all N values
        m = n // 4
        rec = reconstruct_noisy(CountingSpectrumAccessor(np.zeros(n, complex)), m)
        assert not rec.values.any()
        assert (rec.samples_used, rec.vectors_used, rec.blind_levels) == (n, 1, [])
        y, _ = gen_sparse_signal(n // 2, m, 3)
        acc = CountingSpectrumAccessor(fft_forward(np.tile(y, 2)))
        with pytest.raises(ModelViolation, match="probed all read zero"):
            reconstruct_noisy(acc, m)
        assert acc.read_count == n

    def test_a_support_that_cancels_in_the_first_fold_raises(self):
        # the support of y - roll(y, 64) has 84 entries; its fold to P = 32
        # cancels, but its odd probes do not read zero: the fold and the pair
        y = gen_sparse_signal(4096, 20, 3)[0]
        acc = CountingSpectrumAccessor(fft_forward(y - np.roll(y, 64)))
        with pytest.raises(ModelViolation, match="window transform there vanished"):
            reconstruct_noisy(acc, 20)
        assert acc.read_count == 34

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_an_aliased_support_raises(self, seed, data):
        # y - roll(y, 2**(L+1)) sums to zero in every residue class of the fold of
        # P entries, which divides 2**(L+1); the exact path raises on it too
        n = 1 << data.draw(st.integers(3, 12))
        m = data.draw(st.integers(1, n // 4))
        y, _ = gen_sparse_signal(n, m, seed)
        fold_len = 2 << ceil_log2(m)
        acc = CountingSpectrumAccessor(fft_forward(y - np.roll(y, fold_len)))
        with pytest.raises(ModelViolation):
            reconstruct_noisy(acc, m)
        assert acc.read_count <= 2 << m.bit_length()  # 2P


class TestRefineSupport:
    def test_recovers_block_binary_digits(self, example_256):
        acc = CountingSpectrumAccessor(fft_forward(example_256))
        folded = periodize(example_256, 4)
        first, blind = double(acc, folded, 9, 6, acc.read(16 * np.arange(16)))
        assert first == 105  # moves by 32 and 64: (105-9)/16 = 6 = 0b0110
        assert blind == []

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_all_zero_odd_probes_do_not_move(self, m):
        # N=64: only the stride lattice is nonzero, so every probe reads
        # zero; each level reads its two neighbors, no more, and keeps the window
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
        assert acc.read_count - before == 2 * levels

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

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_batched_levels_match_the_per_level_reference(self, seed, data):
        # the same decisions, blind levels and distinct reads as one probe and
        # one scalar transform per level; only the order of the reads differs
        n = 1 << data.draw(st.integers(4, 12))
        m = data.draw(st.one_of(st.just(1), st.integers(1, n // 8)))
        kind = data.draw(st.sampled_from(["exact", "noisy", "period"]))
        if kind == "period":
            # period N/2**p: the spectrum is zero off the multiples of 2**p, so
            # the top p levels' probe pairs read zero
            p = data.draw(st.integers(1, 3))
            y, _ = gen_sparse_signal(n >> p, m, seed)
            spectrum = np.zeros(n, complex)
            spectrum[:: 1 << p] = fft_forward(y) * (1 << p)
        else:
            snr = math.inf if kind == "exact" else data.draw(st.sampled_from([0.0, 10.0, 20.0]))
            spectrum = noisy_instance(n, m, snr, seed)[2]
        acc = CountingSpectrumAccessor(spectrum)
        subsampled, folded = _fold(acc, ceil_log2(m))
        grown, start, _ = _grow(acc, folded, _locate(folded, m), m)
        window = grown[SupportDescriptor(start, m).indices(len(grown))]
        peak = _peak(acc, subsampled)
        level = len(grown).bit_length() - 2
        batched, reference = RecordingAccessor(spectrum), RecordingAccessor(spectrum)
        got = _double(batched, window, start, peak, level)
        assert got == per_level_double(reference, window, start, peak, level)
        if kind == "period":
            j_top = n.bit_length() - 1
            assert got[1] == [j for j in range(j_top - p, j_top) if j > level]
        reads = [set(itertools.chain.from_iterable(a.calls)) for a in (batched, reference)]
        assert reads[0] == reads[1]
        assert len(batched.calls) == 1  # every level's pair in one call
        assert batched.read_count == reference.read_count == len(reads[1]) == 2 * (n.bit_length() - 2 - level)

    def test_a_noisy_level_whose_pair_reads_zero_is_blind(self):
        # 10 dB data with the pair of the top level, peak +- 1, set to zero:
        # that level reads its two values, no more, and does not move
        n, m = 1 << 12, 20
        noisy = noisy_instance(n, m, 10.0, 3)[2]
        fold_len = 2 << ceil_log2(m)
        peak = _peak(CountingSpectrumAccessor(noisy), noisy[:: n // fold_len])
        noisy[[(peak + 1) % n, (peak - 1) % n]] = 0
        acc = RecordingAccessor(noisy)
        rec = reconstruct_noisy(acc, m)
        assert rec.vectors_used > 1 and rec.blind_levels == [11]
        assert acc.calls[-1][-2:] == [(peak + 1) % n, (peak - 1) % n]
        grown = rec.vectors_used * fold_len
        assert rec.samples_used == grown + 2 * (12 - grown.bit_length() + 1)
        assert rec.support.first_index >> 11 == 0  # no move by 2**11


class TestGrownFoldValues:
    @pytest.mark.parametrize("j, m, seed", [(8, 6, 14), (10, 1, 3), (12, 20, 5), (12, 33, 6)])
    def test_exact_data_window_is_the_truth(self, j, m, seed):
        n = 1 << j
        x, supp = gen_sparse_signal(n, m, seed)
        acc = CountingSpectrumAccessor(fft_forward(x))
        level = ceil_log2(m)
        folded = _fold(acc, level)[1]
        for step in range(3):
            folded = join(acc, folded, level + step)
            assert np.allclose(folded, periodize(x, level + step + 2), atol=1e-12 * np.abs(x).max())
        values = folded[supp.indices(len(folded))]
        truth = x[supp.indices(n)]
        assert np.max(np.abs(values - truth)) <= 1e-10 * np.max(np.abs(truth))

    @pytest.mark.parametrize("m", [1, 3, 20, 50])
    @pytest.mark.parametrize("multiple", [1, 2, 4, 8])
    def test_matches_the_direct_fold_of_a_dense_vector(self, m, multiple):
        # no sparsity: every entry of the longer fold sums many components
        n = 1 << 16
        rng = np.random.default_rng(1000 * m + multiple)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        acc = CountingSpectrumAccessor(fft_forward(x))
        level = ceil_log2(m)
        folded = _fold(acc, level)[1]
        for step in range(multiple.bit_length() - 1):
            folded = join(acc, folded, level + step)
        want = periodize(x, level + multiple.bit_length())
        assert len(folded) == len(want) == multiple << (level + 1)
        assert np.max(np.abs(folded - want)) <= 1e-12 * np.max(np.abs(want))
        assert acc.read_count == len(folded)

    def test_each_doubling_reads_only_new_indices(self):
        n, m = 1 << 10, 13
        x, _ = gen_sparse_signal(n, m, 21)
        acc = RecordingAccessor(fft_forward(x))
        level = ceil_log2(m)
        folded = _fold(acc, level)[1]
        for step in range(3):
            folded = join(acc, folded, level + step)
        reads = [i for call in acc.calls for i in call]
        assert len(reads) == len(set(reads)) == len(folded)
        assert sorted(reads) == list(range(0, n, n // len(folded)))

    def test_growing_4x_shrinks_noise_variance(self):
        # a fold grown 4x should cut the window error energy to ~1/4 of the first fold's
        n, m, snr = 1 << 12, 8, 10.0
        x, supp = gen_sparse_signal(n, m, 99)
        spectrum = fft_forward(x)
        level = ceil_log2(m)
        truth = x[supp.indices(n)]
        single_sq = quad_sq = 0.0
        for trial in range(1000):
            noisy, _ = add_noise(spectrum, NoiseSpec(seed=trial, snr_db=snr))
            acc = CountingSpectrumAccessor(noisy)
            first = _fold(acc, level)[1]
            grown = join(acc, join(acc, first, level), level + 1)
            single_sq += np.sum(np.abs(first[supp.indices(len(first))] - truth) ** 2)
            quad_sq += np.sum(np.abs(grown[supp.indices(len(grown))] - truth) ** 2)
        ratio = quad_sq / single_sq
        assert 0.25 / 1.5 <= ratio <= 0.25 * 1.5

    @pytest.mark.parametrize(
        "first, second",
        [
            (0.9e308 * (1 + 1j), 0.05e308 * (1 - 0.5j)),  # folded + turned odd is 1.8e308 * (1 + 1j)
            (0.9e308, -0.9e308 * (np.arange(8) % 4 != 0)),  # turned odd has parts of 1.8e308
            (1.0e308, 1e-300),
        ],
    )
    def test_a_finite_longer_fold_does_not_overflow(self, first, second):
        # the halves of the longer fold are first and second; folded and odd are finite
        q = 8
        halves = np.broadcast_to(first, q).astype(complex), np.broadcast_to(second, q).astype(complex)
        turn = np.exp((-1j * np.pi / q) * np.arange(q))
        folded, odd = halves[0] + halves[1], turn * halves[0] - turn * halves[1]
        assert np.isfinite(folded).all() and np.isfinite(odd).all()
        got = _join(folded, odd)  # a RuntimeWarning fails the suite
        assert np.max(np.abs(got - np.concatenate(halves))) <= 1e-15 * np.abs(first)

    @pytest.mark.parametrize("q", [1, 2, 8, 1024])
    def test_the_twiddles_are_the_expression_cached_read_only(self, q):
        turns = _twiddles(q)
        assert turns.tobytes() == np.exp((1j * np.pi / q) * np.arange(q)).tobytes()
        assert not turns.flags.writeable
        assert _twiddles(q) is turns

    def test_a_longer_fold_beyond_the_float_range_is_not_finite_without_a_warning(self):
        # entry 1 of the longer fold is (1.7e308 + 1.7e308 * sqrt(2)) / 2
        folded = np.full(4, 1.7e308 + 0j)
        odd = np.full(4, 1.7e308 - 1.7e308j)
        got = _join(folded, odd)  # a RuntimeWarning fails the suite
        assert not np.isfinite(got).all()


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
            # the grown fold, then two reads at each level from its length to N/2
            grown = rec.vectors_used << (ceil_log2(m) + 1)
            assert rec.samples_used == grown + 2 * (12 - grown.bit_length() + 1)
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
        # the pair's products predicted * conj(measured) sum beyond the float maximum at level 7
        with pytest.raises(NonFiniteSpectrum, match="^doubling comparison at level 7 overflows$"):
            reconstruct_noisy(CountingSpectrumAccessor(doubling_overflow_spectrum), 1)

    def test_one_entry_windows_are_placed_from_both_neighbors(self):
        # N = 2**14, m = 1, 0 dB: the matched filter over both probe neighbors
        # places about 60% of the windows (the right neighbor alone, about 25%);
        # each level reads its pair and nothing more
        placed = 0
        for seed in range(500):
            _, support, noisy, _ = noisy_instance(1 << 14, 1, 0.0, seed)
            rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 1)
            placed += rec.support.first_index == support.first_index
            grown = 2 * rec.vectors_used  # the first fold has two entries
            assert rec.samples_used == grown + 2 * (14 - grown.bit_length() + 1)
        assert placed >= 0.45 * 500

    def test_zero_signal_total(self):
        rec = reconstruct_noisy(CountingSpectrumAccessor(np.zeros(256, complex)), 6)
        assert not rec.signal.any()
        assert rec.support.length == 6

    def test_model_data_have_no_blind_level(self):
        for snr in (math.inf, 20.0):
            _, _, noisy, _ = noisy_instance(4096, 20, snr, 3)
            assert reconstruct_noisy(CountingSpectrumAccessor(noisy), 20).blind_levels == []

    @pytest.mark.parametrize("j", [8, 12, 16])
    def test_period_half_input_raises_as_on_the_exact_path(self, j):
        # x repeats with period N/2, so every odd spectrum value is zero; the
        # fold of P = 32 entries is exact, and its odd probes, the pair and
        # one scan of 30, all read zero
        x = np.tile(gen_sparse_signal(1 << (j - 1), 20, 3)[0], 2)
        acc = RecordingAccessor(fft_forward(x))
        with pytest.raises(ModelViolation, match="probed all read zero"):
            reconstruct_noisy(acc, 20)
        assert [len(call) for call in acc.calls] == [32, 2, 30]

    def test_window_values_are_the_signal_on_its_support(self):
        x, supp, noisy, _ = noisy_instance(1 << 10, 7, 15.0, 4321)
        rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 7)
        assert rec.n == 1 << 10 and rec.values.shape == (7,)
        assert np.array_equal(rec.signal[rec.support.indices(rec.n)], rec.values)
