import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracle import RecordingAccessor, odd_probe, periodize, reference_window_spectrum_sample
from spfft.dft_core import CountingSpectrumAccessor, fft_forward, fft_inverse
from spfft.errors import (
    AlgorithmError,
    InvalidSupportLength,
    ModelViolation,
    NonFiniteSpectrum,
    ValidationError,
)
from spfft.signal_lab import gen_instance, gen_sparse_signal
from spfft.sparse_exact import (
    Reconstruction,
    _peak,
    _probe,
    _resolve_shift,
    ceil_log2,
    reconstruct_dense,
    reconstruct_exact,
    window_energies,
    window_spectrum_sample,
)
from spfft.sparse_noisy import reconstruct_noisy

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
        with pytest.raises(ModelViolation, match="0.400 steps off its root-of-unity lattice"):
            _resolve_shift(complex(quotient), 1, 4)

    def test_zero_quotient_rejected(self):
        with pytest.raises(ModelViolation, match="shift quotient at odd index 3 is zero"):
            _resolve_shift(0j, 3, 4)


#: Spectrum values for the probe properties: zeros, so that pairs read all
#: zero and scan; equal moduli, so that pairs tie; and moduli above the
#: float maximum, which only _modulus compares.
PROBE_VALUES = [0j, 0j, 0j, 1 + 0j, -1 + 0j, 1j, 2 + 0j, 1.5e308 * (1 + 1j), 1.6e308 * (1 - 1j)]


def probe_next_to_peak(acc, subsampled):
    # the exact path's place stage: odd neighbors of the subsample's peak,
    # with one probe per subsample entry at most
    return _probe(acc, _peak(acc, subsampled), len(subsampled))


class TestSelectOddSample:
    def test_flat_spectrum_tie_breaks_right(self):
        # delta at 0 has all-ones spectrum: argmax 0, tied neighbors, right wins
        x = np.zeros(16, complex)
        x[0] = 1
        acc = CountingSpectrumAccessor(fft_forward(x))
        odd, value = probe_next_to_peak(acc, acc.read(4 * np.arange(4)))
        assert odd == 1
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("right, left, want", [(1, 1.5e308, 63), (1.5e308, 1, 1), (1.5e308, 1.5e308, 1)])
    def test_a_modulus_above_the_float_maximum_is_the_largest(self, right, left, want):
        spectrum = np.ones(64, complex)
        spectrum[1], spectrum[63] = right * (1 + 1j), left * (1 + 1j)
        acc = CountingSpectrumAccessor(spectrum)
        assert _probe(acc, 0, 2) == (want, complex(spectrum[want]))

    @given(data=st.data())
    def test_one_probe_matches_one_read_per_scan_index(self, data):
        # zero pairs (scanned), ties, moduli above the float maximum and
        # budgets down to 1, which still read both neighbors: the same pick
        # and distinct reads as the reference, which scans one index per call
        n = 1 << data.draw(st.integers(2, 8))
        center = 2 * data.draw(st.integers(0, n // 2 - 1))
        budget = data.draw(st.one_of(st.just(1), st.integers(1, n // 2)))
        spectrum = np.array(data.draw(st.lists(st.sampled_from(PROBE_VALUES), min_size=n, max_size=n)))
        batched, reference = RecordingAccessor(spectrum), RecordingAccessor(spectrum)
        assert _probe(batched, center, budget) == odd_probe(reference, center, budget)
        assert batched.calls[0] == [(center + 1) % n, (center - 1) % n]  # the pair in one call
        assert len(batched.calls) <= 2  # and at most one scan
        reads = [set(itertools.chain.from_iterable(a.calls)) for a in (batched, reference)]
        assert reads[0] == reads[1]
        assert batched.read_count == reference.read_count == len(reads[1])

    @pytest.mark.parametrize("budget", [1, 2, 3, 32])
    @pytest.mark.parametrize(
        "odd_values, want",
        [
            ({17: 2, 15: 2}, (17, 2)),  # a tie: the right neighbor
            ({17: 1, 15: 1.6e308 * (1 - 1j)}, (15, 1.6e308 * (1 - 1j))),  # a modulus above the float maximum
            ({7: 1j}, (7, 1j)),  # a zero pair whose scan finds 7
            ({}, (17, 0j)),  # a zero pair and a zero scan
            ({15: -3}, (15, -3)),  # a zero right neighbor
        ],
        ids=["tie", "above-max", "scan", "all-zero", "zero-right"],
    )
    def test_hand_made_pairs_match_one_read_per_scan_index(self, odd_values, want, budget):
        # N=64, center 16: the pair is 17 and 15, the scan 1, 3, 5, 7, ...
        spectrum = np.zeros(64, complex)
        spectrum[::2] = 1
        for index, value in odd_values.items():
            spectrum[index] = value
        batched, reference = RecordingAccessor(spectrum), RecordingAccessor(spectrum)
        got = _probe(batched, 16, budget)
        assert got == odd_probe(reference, 16, budget)
        # every budget reads both neighbors; 7, the fourth scan index, needs a budget of 6 or more
        assert got == (want if budget >= 6 or want[0] != 7 else (17, 0j))
        reads = [set(itertools.chain.from_iterable(a.calls)) for a in (batched, reference)]
        assert reads[0] == reads[1]
        assert batched.read_count == reference.read_count == len(reads[1])

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
        subsampled = acc.read(stride * np.arange(1 << (level + 1)))
        before = acc.read_count
        probe_next_to_peak(acc, subsampled)
        assert acc.read_count <= before + 2

    def test_zero_neighbors_take_the_largest_odd_value_of_one_scan_read(self):
        # the stride-8 subsample peaks at 0; its neighbors 1 and 63 and the
        # next odd index 3 are zero, and of 5 and 7 the larger, 7, is taken
        spectrum = np.zeros(64, complex)
        spectrum[::8] = 1
        spectrum[0] = 4
        spectrum[5], spectrum[7] = 2j, 9
        acc = RecordingAccessor(spectrum)
        odd, value = probe_next_to_peak(acc, acc.read(8 * np.arange(8)))
        assert (odd, value) == (7, 9)
        # both neighbors in one call, then the scan in one call: the first
        # odd indices, skipping 1, up to 8 probes in all
        assert acc.calls[1:] == [[1, 63], [3, 5, 7, 9, 11, 13]]

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
        # which the exact path reports after its fold and probe reads on a
        # fold that fits the model: x is 1/32 at 0 and 32, which fold onto 0
        spectrum[::2] = 1
        acc = CountingSpectrumAccessor(spectrum)
        with pytest.raises(ModelViolation, match="odd-indexed spectrum values probed all read zero"):
            reconstruct_exact(acc, 1 << level)
        assert acc.read_count == 4 << level


def transform_case(seed, m, shape):
    """(window, first_index, freq_index, length) of m entries drawn from seed; an int freq_index for shape ()."""
    rng = np.random.default_rng(seed)
    window = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    length = 2 << int(rng.integers(0, 30))
    freq = rng.integers(0, length, size=shape)
    first = int(rng.integers(0, 1 << 30))
    return (window, first, freq, length) if shape else (window, first, int(freq), length)


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

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 5000)),
        shape=st.sampled_from([(0,), (1,), (5,), (2, 3)]),
    )
    @example(seed=0, m=1, shape=(1,))  # numpy rounds this one-entry product by its operands' ranks
    @example(seed=0, m=4999, shape=(2, 3))  # padded: 71 blocks of 71 entries hold 5,041
    def test_array_form_matches_the_scalar_form_entry_by_entry(self, seed, m, shape):
        window, first, freq, length = transform_case(seed, m, shape)
        samples = window_spectrum_sample(window, first, freq, length)
        assert samples.shape == shape
        for index in np.ndindex(shape):
            scalar = window_spectrum_sample(window, first, int(freq[index]), length)
            assert type(scalar) is complex
            assert samples[index] == scalar

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.one_of(
            st.just(1),
            st.builds(lambda k, d: max(1, k * k + d), st.integers(1, 128), st.sampled_from([-1, 0, 1])),
            st.integers(1, 1 << 14),
        ),
        shape=st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
    )
    @example(seed=0, m=1 << 14, shape=(5,))
    def test_agrees_with_the_direct_sum(self, seed, m, shape):
        window, first, freq, length = transform_case(seed, m, shape)
        got = np.asarray(window_spectrum_sample(window, first, freq, length))
        want = np.asarray(reference_window_spectrum_sample(window, first, freq, length))
        assert got.shape == want.shape == shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(window).sum())

    def test_does_not_depend_on_the_blas_thread_count(self):
        # a threaded BLAS product rounds these sums differently with 1 and 2 threads
        script = (
            "import sys, numpy as np; from spfft.sparse_exact import window_spectrum_sample; "
            "rng = np.random.default_rng(3); w = rng.standard_normal(2**14) + 1j * rng.standard_normal(2**14); "
            "sys.stdout.buffer.write(np.complex128(window_spectrum_sample(w, 5, 12345, 2**20)).tobytes()); "
            "sys.stdout.buffer.write(window_spectrum_sample(w, 0, [12345, 4321, 77], 2**20).tobytes())"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            outputs.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout)
        assert len(outputs[0]) == 4 * 16
        assert outputs[0] == outputs[1]


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


class TestSupportLength:
    """Every entry point checks m, an integer in [1, N], before it reads the spectrum."""

    @pytest.mark.parametrize("m", [2.5, 3.0, "3", np.float64(3)], ids=["2.5", "3.0", "str", "float64"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_non_integer_m_is_invalid(self, entry, m):
        acc = CountingSpectrumAccessor(fft_forward(gen_sparse_signal(64, 3, 5)[0]))
        with pytest.raises(InvalidSupportLength, match="support length must be an integer"):
            ENTRY_POINTS[entry](acc, m)
        assert acc.read_count == 0

    @pytest.mark.parametrize("m", [0, 65])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_out_of_range_m_keeps_its_message(self, entry, m):
        acc = CountingSpectrumAccessor(np.zeros(64, complex))
        with pytest.raises(InvalidSupportLength, match=rf"^support length {m} outside \[1, 64\]$"):
            ENTRY_POINTS[entry](acc, m)
        assert acc.read_count == 0

    def test_numpy_integer_m_is_accepted(self):
        x, supp = gen_sparse_signal(64, 3, 5)
        rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), np.int64(3))
        assert rec.support == supp

    # seed 2264 is the corpus case fallback/256/256, whose windows of largest
    # energy (all of them the whole vector) started at 13 (exact) and 199 (10 dB)
    @pytest.mark.parametrize("snr_db", [math.inf, 10.0])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_full_length_support_is_the_dense_vector_unrotated(self, entry, snr_db):
        spectrum = gen_instance(256, 256, 2264, snr_db)[2]
        rec = ENTRY_POINTS[entry](CountingSpectrumAccessor(spectrum), 256)
        assert rec.support.first_index == 0
        assert np.array_equal(rec.values, fft_inverse(spectrum))


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
        assert rec.support.first_index >> 3 == 13  # 105 = 1 + 8 * 13: P = 8 > 6
        assert rec.samples_used == 10 <= 2 * 6 + 2
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
        with pytest.raises(ModelViolation, match="probed all read zero"):
            reconstruct_exact(acc, m)
        assert acc.read_count <= 1 << (ceil_log2(m) + 2)

    def test_zero_vector(self):
        rec = reconstruct_exact(CountingSpectrumAccessor(np.zeros(64, complex)), 4)
        assert not rec.signal.any()
        assert rec.support.first_index == 0
        assert rec.samples_used == 16  # the P = 8 fold reads and P odd probes, all zero
        assert rec.values.dtype == np.complex128 and rec.values.tobytes() == bytes(4 * 16)
        assert rec.mode == "sparse"

    def test_zero_vector_scans_its_odd_probes_in_one_call(self):
        # N = 2**20, m = 60,000: the P = 2**16 fold reads, the neighbor pair
        # and one scan of the P - 2 further odd probes, 2P reads in three calls
        acc = RecordingAccessor(np.zeros(1 << 20, complex))
        rec = reconstruct_exact(acc, 60_000)
        assert not rec.values.any() and rec.support.first_index == 0
        assert rec.samples_used == 131_072
        assert [len(call) for call in acc.calls] == [65_536, 2, 65_534]

    def test_period_half_input_scans_its_odd_probes_in_one_call(self):
        # every odd-indexed value of tile(y, 2) is zero: the P = 32 fold reads,
        # the pair and one scan of 30, then the model check
        y, _ = gen_sparse_signal(2048, 20, 3)
        acc = RecordingAccessor(fft_forward(np.tile(y, 2)))
        with pytest.raises(ModelViolation, match="probed all read zero"):
            reconstruct_exact(acc, 20)
        assert acc.read_count == 64
        assert [len(call) for call in acc.calls] == [32, 2, 30]

    def test_a_fold_that_cancels_is_not_the_zero_vector(self):
        # the support of y - roll(y, P) has 52 entries, in (m, 2P] = (20, 64];
        # its fold to P = 32 cancels, but its odd-indexed values do not
        y = gen_sparse_signal(4096, 20, 3)[0]
        acc = CountingSpectrumAccessor(fft_forward(y - np.roll(y, 32)))
        with pytest.raises(ModelViolation, match="window transform there vanished"):
            reconstruct_exact(acc, 20)
        assert acc.read_count == 34

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_an_aliased_support_raises(self, seed, data):
        # y - roll(y, P) sums to zero in every residue class mod P, and its
        # support, of m + P entries, is in (m, 2P]
        n = 1 << data.draw(st.integers(3, 12))
        m = data.draw(st.integers(1, n // 4))
        y, _ = gen_sparse_signal(n, m, seed)
        fold_len = 1 << m.bit_length()
        acc = CountingSpectrumAccessor(fft_forward(y - np.roll(y, fold_len)))
        with pytest.raises(ModelViolation):
            reconstruct_exact(acc, m)
        assert acc.read_count <= 2 * fold_len

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
        with pytest.raises(ModelViolation, match="shift quotient at odd index 1 is zero"):
            reconstruct_exact(CountingSpectrumAccessor(spectrum), 1)

    def test_support_length_validation(self):
        acc = CountingSpectrumAccessor(np.zeros(16, complex))
        with pytest.raises(InvalidSupportLength):
            reconstruct_exact(acc, 0)
        with pytest.raises(InvalidSupportLength):
            reconstruct_exact(acc, 17)

    def test_noisy_data_rejected(self, example_256):
        # the noise leaves energy in the fold outside the window: rejected
        # after the 8 fold reads, before any other
        spectrum = fft_forward(example_256)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            noisy = spectrum + 2.0 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
            acc = CountingSpectrumAccessor(noisy)
            with pytest.raises(ModelViolation, match="fold residual"):
                reconstruct_exact(acc, 6)
            assert acc.read_count == 8

    @given(seed=st.integers(0, 2**32 - 1), snr_db=st.sampled_from([0.0, 10.0, 20.0, 60.0, 100.0]), data=st.data())
    def test_noisy_instances_never_give_a_vector(self, seed, snr_db, data):
        n = 1 << data.draw(st.integers(5, 12))
        m = data.draw(st.integers(1, n // 4))
        acc = CountingSpectrumAccessor(gen_instance(n, m, seed, snr_db)[2])
        with pytest.raises(ModelViolation):
            reconstruct_exact(acc, m)
        assert acc.read_count == 1 << m.bit_length()

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_support_at_most_m_is_recovered_from_p_plus_2_reads(self, seed, data):
        # P = 2**ceil_log2(m+1), the shortest power of two above m
        n = 1 << data.draw(st.integers(3, 12))
        m = data.draw(st.integers(1, n // 4))
        x, _ = gen_sparse_signal(n, data.draw(st.integers(1, m)), seed)
        rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), m)
        assert np.max(np.abs(rec.signal - x)) <= 1e-9 * np.max(np.abs(x))
        assert rec.samples_used == (1 << m.bit_length()) + 2 <= 2 * m + 2

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_support_longer_than_m_raises(self, seed, data):
        # a true support in (m, 2P] leaves energy outside every m-window of the fold
        n = 1 << data.draw(st.integers(3, 12))
        m = data.draw(st.integers(1, n // 4))
        true_len = data.draw(st.integers(m + 1, min(2 << m.bit_length(), n)))
        x, _ = gen_sparse_signal(n, true_len, seed)
        with pytest.raises(AlgorithmError):
            reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), m)

    def test_model_violation_reads_only_the_fold(self):
        # a dense vector: the residual check raises before the odd probe reads
        rng = np.random.default_rng(7)
        acc = CountingSpectrumAccessor(rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        with pytest.raises(ModelViolation, match="support at most 50"):
            reconstruct_exact(acc, 50)
        assert acc.read_count == 64

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
