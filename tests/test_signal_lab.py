import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import realized_snr_db, reference_add_noise, reference_unit_noise, splitmix64, splitmix64_at
from spfft import signal_lab
from spfft.dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_forward, fft_inverse
from spfft.errors import CannotCalibrate, InvalidSupportLength, ValidationError
from spfft.signal_lab import (
    ENDPOINT_MIN_MODULUS,
    NOISE_STREAM_SALT,
    NoiseSpec,
    _draw_instance,
    _root_sum_squares,
    _splitmix64,
    _unit_noise,
    _windows_error_l2_over_n,
    add_noise,
    error_l2_over_n,
    gen_instance,
    gen_sparse_signal,
    window_error_l2_over_n,
)
from spfft.sparse_exact import Reconstruction, reconstruct_exact

SRC = str(Path(__file__).resolve().parents[1] / "src")

# frozen output of gen_sparse_signal(64, 5, seed=42); guards the RNG contract
GOLDEN_SEED42_START = 19
GOLDEN_SEED42_VALUES = [
    (19, -6.2150875182709004, -6.10729017224219),
    (20, 7.353216297642923, -8.75503578203829),
    (21, -2.108370594345594, 7.535959348927598),
    (22, -2.6374309818172126, 5.340759820395878),
    (23, -1.3110749208081671, -3.00102765187315),
]


def minimal_support_length(x):
    # shortest cyclic window containing every nonzero entry
    n = len(x)
    nz = np.flatnonzero(np.abs(x) > 0)
    if len(nz) == 0:
        return 0
    gaps = np.diff(np.concatenate([nz, [nz[0] + n]]))
    return n - int(gaps.max()) + 1


class TestGenSparseSignal:
    def test_golden_seed42(self):
        x, supp = gen_sparse_signal(64, 5, 42)
        assert supp.first_index == GOLDEN_SEED42_START
        assert supp.length == 5
        for idx, re, im in GOLDEN_SEED42_VALUES:
            assert x[idx] == complex(re, im)
        outside = np.ones(64, dtype=bool)
        outside[supp.indices(64)] = False
        assert not x[outside].any()

    def test_deterministic(self):
        a, _ = gen_sparse_signal(256, 9, 7)
        b, _ = gen_sparse_signal(256, 9, 7)
        assert np.array_equal(a, b)

    def test_support_length_is_exact(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            n = 1 << int(rng.integers(3, 11))
            m = int(rng.integers(1, n // 2 + 1))
            x, supp = gen_sparse_signal(n, m, int(rng.integers(0, 2**62)))
            assert minimal_support_length(x) == m

    def test_endpoints_respect_floor(self):
        for seed in range(200):
            x, supp = gen_sparse_signal(128, 4, seed)
            window = x[supp.indices(128)]
            assert abs(window[0]) >= ENDPOINT_MIN_MODULUS
            assert abs(window[-1]) >= ENDPOINT_MIN_MODULUS

    def test_single_entry(self):
        x, supp = gen_sparse_signal(32, 1, 3)
        assert np.count_nonzero(x) == 1
        assert abs(x[supp.first_index]) >= ENDPOINT_MIN_MODULUS

    def test_dense_support(self):
        x, supp = gen_sparse_signal(16, 16, 5)
        assert supp.length == 16
        assert 0 <= supp.first_index < 16

    def test_entries_within_box(self):
        x, _ = gen_sparse_signal(1 << 10, 100, 8)
        assert np.max(np.abs(x.real)) <= 10
        assert np.max(np.abs(x.imag)) <= 10

    def test_rejects_bad_support_length(self):
        with pytest.raises(InvalidSupportLength):
            gen_sparse_signal(64, 0, 1)
        with pytest.raises(InvalidSupportLength):
            gen_sparse_signal(64, 65, 1)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3"])
    def test_rejects_non_integer_support_length(self, m):
        with pytest.raises(InvalidSupportLength, match="support length must be an integer"):
            gen_sparse_signal(64, m, 1)


class TestAddNoise:
    def test_infinite_snr_is_identity(self):
        s = fft_forward(gen_sparse_signal(64, 5, 2)[0])
        noisy, noise = add_noise(s, NoiseSpec(seed=0, snr_db=math.inf))
        assert np.array_equal(noisy, s)
        assert not noise.any()

    def test_infinite_snr_returns_the_spectrum_itself(self):
        s = fft_forward(gen_sparse_signal(64, 5, 2)[0])
        noisy, _ = add_noise(s, NoiseSpec(seed=0, snr_db=math.inf))
        assert np.shares_memory(noisy, s)

    @given(
        snr=st.sampled_from([0.0, 5.0, 13.0, 20.0, 37.5, 50.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_snr_calibration(self, snr, seed):
        s = fft_forward(gen_sparse_signal(256, 10, 123)[0])
        noisy, noise = add_noise(s, NoiseSpec(seed=seed, snr_db=snr))
        assert realized_snr_db(s, noise) == pytest.approx(snr, abs=0.01)
        assert np.array_equal(noisy, s + noise)

    def test_snr_mode_needs_nonzero_spectrum(self):
        with pytest.raises(CannotCalibrate):
            add_noise(np.zeros(16, complex), NoiseSpec(seed=0, snr_db=20.0))

    def test_spec_rejects_nan_snr(self):
        with pytest.raises(ValidationError):
            NoiseSpec(seed=0, snr_db=math.nan)

    def test_spec_rejects_minus_inf_snr(self):
        with pytest.raises(ValidationError, match="-inf"):
            NoiseSpec(seed=0, snr_db=-math.inf)

    @pytest.mark.parametrize(
        "snr, message", [(math.nan, "snr_db must not be NaN"), (-math.inf, "snr_db must not be -inf")]
    )
    def test_instance_rejects_the_level_before_any_draw(self, monkeypatch, snr, message):
        def refuse(*args):
            raise AssertionError("the signal was drawn or transformed")

        monkeypatch.setattr(signal_lab, "_draw_window", refuse)
        monkeypatch.setattr(signal_lab, "_unit_noise", refuse)
        monkeypatch.setattr(signal_lab, "fft_forward", refuse)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            gen_instance(1 << 22, 50, 4, snr)

    @pytest.mark.parametrize("scale, snr", [(1.0, -7000.0), (1.0, 7000.0), (1e140, -3400.0)])
    def test_noise_scale_out_of_float_range_cannot_calibrate(self, scale, snr):
        # 10**(snr/20) underflows to 0 or overflows, or the noise scale does
        s = scale * fft_forward(gen_sparse_signal(64, 5, 2)[0])
        with pytest.raises(CannotCalibrate, match="noise scale"):
            add_noise(s, NoiseSpec(seed=0, snr_db=snr))

    def test_inf_norm_scale_at_snr20(self):
        # instance model of the support-rate experiments: the mean noise
        # sup-norm at SNR 20 lands within 1.5x of 6.751 (scale-free in N)
        total = 0.0
        draws = 10
        for seed in range(draws):
            x, _ = gen_sparse_signal(1 << 16, 50, 9000 + seed)
            s = fft_forward(x)
            _, noise = add_noise(s, NoiseSpec(seed=seed, snr_db=20.0))
            total += np.max(np.abs(noise))
        mean_inf = total / draws
        assert 6.751 / 1.5 <= mean_inf <= 6.751 * 1.5


class TestInPlaceNoise:
    """add_noise draws the reference's noise to the bit, in less memory; gen_instance's noise is the stream's."""

    @pytest.mark.parametrize("n", [1, 2, 1 << 10, 1 << 16])
    @pytest.mark.parametrize("snr", [-20.0, 0.0, 10.0, 60.0])
    def test_noise_matches_the_reference_bytes(self, n, snr):
        def as_bytes(arrays):
            return [a.tobytes() for a in arrays]

        for seed in range(6):
            truth, support, noisy, noise = gen_instance(n, min(n, 7), seed, snr)
            spectrum = fft_forward(truth)
            # gen_instance's noise is sigma times the stream, sigma**2 = 2 ||x||**2 / 10**(snr/10)
            sigma = math.sqrt(2) * _root_sum_squares(truth[support.indices(n)]) / 10 ** (snr / 20)
            want = sigma * reference_unit_noise(seed ^ NOISE_STREAM_SALT, range(n))
            assert as_bytes((noisy, noise)) == as_bytes((spectrum + want, want))
            spec = NoiseSpec(seed=seed, snr_db=snr)
            assert as_bytes(add_noise(spectrum, spec)) == as_bytes(reference_add_noise(spectrum, spec))

    def test_peak_memory_is_two_complex_arrays(self):
        n = 1 << 16
        s = fft_forward(gen_sparse_signal(n, 50, 3)[0])
        tracemalloc.start()
        try:
            result = add_noise(s, NoiseSpec(seed=3, snr_db=20.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        # the one-expression draw peaks at 3 arrays: unit, noise and the noisy sum
        assert peak <= 2.25 * 16 * n


class TestNoiseStream:
    """The per-index SplitMix64 noise stream of gen_instance and the experiment's trials."""

    SEEDS = (0, 3 ^ NOISE_STREAM_SALT, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_is_the_sequential_generator(self, seed):
        # the first 2N outputs, N = 2^16: indices 0, 1 and N - 1 of the noise among them
        count = 2 << 16
        want = np.fromiter(itertools.islice(splitmix64(seed), count), dtype=np.uint64, count=count)
        assert _splitmix64(seed, np.arange(count, dtype=np.uint64)).tobytes() == want.tobytes()
        idx = np.array([0, 1, (1 << 16) - 1])
        assert _unit_noise(seed, idx).tobytes() == reference_unit_noise(seed, idx).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_indices_up_to_2_30(self, seed):
        idx = np.concatenate([np.random.default_rng(seed % 1000).integers(0, 1 << 30, 200), [(1 << 30) - 1]])
        counters = np.concatenate([2 * idx, 2 * idx + 1]).astype(np.uint64)
        assert _splitmix64(seed, counters).tolist() == [splitmix64_at(seed, int(i)) for i in counters]
        assert _unit_noise(seed, idx).tobytes() == reference_unit_noise(seed, idx).tobytes()

    def test_reads_do_not_depend_on_their_split_or_order(self):
        n = 1 << 18  # many blocks of gen_instance's noise
        draw = _draw_instance(n, 20, 9, 10.0)
        rng = np.random.default_rng(9)
        idx = rng.integers(0, n, 500)
        whole = draw.noise(idx)
        order = rng.permutation(len(idx))
        parts = np.array_split(order, [1, 7, 100, 333])
        split = np.empty_like(whole)
        for part in parts[::-1]:
            split[part] = draw.noise(idx[part])
        assert split.tobytes() == whole.tobytes()
        assert np.concatenate([draw.noise(np.array([k])) for k in idx]).tobytes() == whole.tobytes()
        # gen_instance materialises the same stream, NOISE_BLOCK indices at a time
        assert gen_instance(n, 20, 9, 10.0)[3][idx].tobytes() == whole.tobytes()

    def test_moments_of_the_unit_disc(self):
        count = 1 << 20
        u = np.abs(_unit_noise(5, np.arange(count)))
        assert u.max() < 1
        # E|u|^2 = 1/2 with Var |u|^2 = 1/3 - 1/4 = 1/12; E|u| = 2/3 with Var |u| = 1/2 - 4/9 = 1/18
        assert abs(np.mean(u**2) - 1 / 2) <= 5 * math.sqrt(1 / 12 / count)
        assert abs(np.mean(u) - 2 / 3) <= 5 * math.sqrt(1 / 18 / count)

    @pytest.mark.parametrize("snr", [0.0, 20.0, 40.0])
    def test_realised_snr_of_gen_instance_is_near_the_target(self, snr):
        # the noise's squared norm has relative spread 1/sqrt(3N), 0.01 dB at N = 2^16
        n = 1 << 16
        for seed in range(3):
            truth, _, _, noise = gen_instance(n, 50, seed, snr)
            assert realized_snr_db(fft_forward(truth), noise) == pytest.approx(snr, abs=0.1)

    @pytest.mark.parametrize("snr", [-7000.0, 7000.0])
    def test_noise_scale_out_of_float_range_cannot_calibrate(self, snr):
        with pytest.raises(CannotCalibrate, match="noise scale"):
            gen_instance(64, 4, 3, snr)


class TestBlasThreads:
    def test_noisy_instance_does_not_depend_on_the_blas_thread_count(self):
        # a threaded BLAS dot rounds the noise norm differently with 1 and 2 threads at this length
        script = (
            "import sys; from spfft.signal_lab import gen_instance; "
            "sys.stdout.buffer.write(gen_instance(2**18, 20, 5, 20.0)[2].tobytes())"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            outputs.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout)
        assert len(outputs[0]) == 16 * 2**18
        assert outputs[0] == outputs[1]


class TestErrorMetrics:
    def test_identical_vectors(self):
        x = np.ones(8, complex)
        assert error_l2_over_n(x, x) == 0.0

    def test_delta_of_height_n(self):
        x = np.zeros(16, complex)
        y = x.copy()
        y[3] = 16
        assert error_l2_over_n(x, y) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            error_l2_over_n(np.zeros(4), np.zeros(8))

    @pytest.mark.parametrize("j", range(0, 17))
    def test_matches_linalg_norm(self, j):
        rng = np.random.default_rng(700 + j)
        n = 1 << j
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = np.linalg.norm(x - y) / n
        assert abs(error_l2_over_n(x, y) - want) <= 1e-12 * want

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_norm_whose_squares_overflow_is_finite(self, scale):
        x = np.full(4, scale * (3 + 4j))
        assert error_l2_over_n(x, np.zeros(4)) == pytest.approx(scale * 5 * 2 / 4, rel=1e-15)


class TestWindowError:
    """window_error_l2_over_n against the dense error of result.signal."""

    @staticmethod
    def assert_matches_dense(truth, result):
        got = window_error_l2_over_n(truth, result.support, result.values, result.n)
        want = error_l2_over_n(truth, result.signal)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_wrapped_window(self):
        n, m = 1 << 10, 40
        truth, supp = gen_sparse_signal(n, m, 1)
        truth = np.roll(truth, n - 10 - supp.first_index)  # window 1014..1053 mod n
        result = reconstruct_exact(CountingSpectrumAccessor(fft_forward(truth)), m)
        assert result.support.first_index + m > n
        perturbed = Reconstruction(result.support, result.values + 0.01j, n, 0, "sparse")
        self.assert_matches_dense(truth, perturbed)
        self.assert_matches_dense(truth, result)

    @pytest.mark.parametrize("shift", [1, 25, 500, 1023])
    def test_misplaced_window(self, shift):
        n, m = 1 << 10, 40
        truth, supp = gen_sparse_signal(n, m, 2)
        window = SupportDescriptor((supp.first_index + shift) % n, m)
        values = truth[supp.indices(n)] * (1 - 0.5j)
        self.assert_matches_dense(truth, Reconstruction(window, values, n, 0, "sparse"))

    def test_all_zero_result(self):
        truth, _ = gen_sparse_signal(1 << 10, 40, 3)
        zero = reconstruct_exact(CountingSpectrumAccessor(np.zeros(1 << 10, complex)), 40)
        assert not zero.values.any()
        self.assert_matches_dense(truth, zero)
        assert window_error_l2_over_n(truth, zero.support, zero.values, zero.n) == pytest.approx(
            np.linalg.norm(truth) / (1 << 10), rel=1e-12
        )

    def test_parts_whose_squares_overflow_share_one_scale(self):
        # 1e300 in each of the two slices outside the window 5..6 and a
        # miss of 1e300 inside it: all three parts count
        truth = np.zeros(16, complex)
        truth[[0, 5, 15]] = 1e300
        got = window_error_l2_over_n(truth, SupportDescriptor(5, 2), np.zeros(2), 16)
        assert got == pytest.approx(math.sqrt(3) * 1e300 / 16, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            window_error_l2_over_n(np.zeros(8), SupportDescriptor(0, 2), np.zeros(2), 16)

    def test_value_count_mismatch(self):
        with pytest.raises(InvalidSupportLength, match=r"expected 4 window values, got shape \(3,\)"):
            window_error_l2_over_n(np.zeros(8), SupportDescriptor(6, 4), np.ones(3), 8)


class TestWindowsError:
    """_windows_error_l2_over_n against the dense error of the two embedded windows."""

    @pytest.mark.parametrize(
        "first, length, other_first, other_length",
        [
            (10, 40, 10, 40),  # the same window
            (1014, 40, 1014, 40),  # the same window, wrapped
            (10, 40, 30, 40),  # overlapping
            (1000, 40, 5, 40),  # overlapping across the wrap
            (10, 40, 500, 40),  # apart
            (10, 40, 12, 7),  # one inside the other
            (1020, 5, 0, 1024),  # a window of the whole length
        ],
    )
    def test_matches_the_dense_error(self, first, length, other_first, other_length):
        n = 1 << 10
        rng = np.random.default_rng(first + other_first)
        a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        b = rng.standard_normal(other_length) + 1j * rng.standard_normal(other_length)
        support, other = SupportDescriptor(first, length), SupportDescriptor(other_first, other_length)
        want = error_l2_over_n(support.embed(a, n), other.embed(b, n))
        assert _windows_error_l2_over_n(support, a, other, b, n) == pytest.approx(want, rel=1e-12, abs=0)

    def test_a_correct_placement_scores_as_the_truth_vector_does(self):
        # a reconstruction on the true window: the same bits as window_error_l2_over_n on the truth
        n, m = 1 << 12, 20
        truth, support = gen_sparse_signal(n, m, 5)
        result = reconstruct_exact(CountingSpectrumAccessor(fft_forward(truth)), m)
        assert result.support == support
        got = _windows_error_l2_over_n(support, truth[support.indices(n)], result.support, result.values, n)
        assert got.hex() == window_error_l2_over_n(truth, result.support, result.values, n).hex()

    def test_value_count_mismatch(self):
        with pytest.raises(InvalidSupportLength, match=r"expected 4 window values, got shape \(3,\)"):
            _windows_error_l2_over_n(SupportDescriptor(6, 4), np.ones(3), SupportDescriptor(0, 2), np.ones(2), 8)


class TestOracleInverse:
    """The dense inverse FFT that serves as the comparison baseline."""

    def test_round_trip(self):
        x, _ = gen_sparse_signal(256, 6, 17)
        assert np.max(np.abs(fft_inverse(fft_forward(x)) - x)) <= 1e-12 * np.max(
            np.abs(x)
        )

    def test_zero_spectrum(self):
        assert not fft_inverse(np.zeros(32, complex)).any()

    def test_noise_error_follows_energy_identity(self):
        # ||F^-1 e||_2 = ||e||_2 / sqrt(N) under the 1/N inverse convention
        x, _ = gen_sparse_signal(1 << 10, 20, 23)
        s = fft_forward(x)
        noisy, noise = add_noise(s, NoiseSpec(seed=5, snr_db=15.0))
        err = error_l2_over_n(fft_inverse(noisy), x)
        n = len(x)
        predicted = np.linalg.norm(noise) / (n * math.sqrt(n))
        assert err == pytest.approx(predicted, rel=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 10))
    def test_energy_identity_property(self, seed, j):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(1 << j) + 1j * rng.standard_normal(1 << j)
        lhs = np.linalg.norm(fft_inverse(noise))
        rhs = np.linalg.norm(noise) / math.sqrt(1 << j)
        assert lhs == pytest.approx(rhs, rel=1e-10)
