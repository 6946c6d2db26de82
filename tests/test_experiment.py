import itertools
import math
import re
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spfft import cli, experiment, signal_lab
from spfft.dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_forward, fft_inverse
from spfft.errors import CannotCalibrate, InvalidLength, InvalidOffset, InvalidSupportLength, ModelViolation, ValidationError
from spfft.experiment import ALGORITHMS, ExperimentConfig, _WindowAccessor, reconstruct, run_experiment, run_trial, trial_seed
from spfft.signal_lab import _draw_instance, error_l2_over_n, gen_instance, gen_sparse_signal
from spfft.spf1 import read_vector_file
from spfft.sparse_exact import reconstruct_dense, reconstruct_exact
from spfft.sparse_noisy import reconstruct_noisy

DIRECT = {
    "exact": reconstruct_exact,
    "noisy": reconstruct_noisy,
    "ifft-baseline": lambda accessor, m: reconstruct_dense(accessor, m, "baseline"),
}


def instance_spectrum(n, m, seed, snr_db):
    return gen_instance(n, m, seed, snr_db)[2]


class TestReconstruct:
    @pytest.mark.parametrize(
        "algorithm, n, m, mode",
        [
            ("exact", 4096, 20, "sparse"),
            ("exact", 64, 30, "fallback"),
            ("noisy", 4096, 20, "sparse"),
            ("noisy", 64, 30, "fallback"),
            ("ifft-baseline", 4096, 20, "baseline"),
            ("ifft-baseline", 64, 30, "baseline"),
        ],
    )
    def test_mode_of_each_path(self, algorithm, n, m, mode):
        spectrum = instance_spectrum(n, m, 1, math.inf)
        assert reconstruct(CountingSpectrumAccessor(spectrum), m, algorithm).mode == mode

    @pytest.mark.parametrize("n, m", [(4096, 20), (64, 30)])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_the_direct_call(self, algorithm, n, m):
        spectrum = instance_spectrum(n, m, 2, math.inf if algorithm == "exact" else 20.0)
        via = reconstruct(CountingSpectrumAccessor(spectrum), m, algorithm)
        direct = DIRECT[algorithm](CountingSpectrumAccessor(spectrum), m)
        assert type(via) is type(direct)
        assert np.array_equal(via.signal, direct.signal)
        assert via.support == direct.support
        assert via.samples_used == direct.samples_used

    @pytest.mark.parametrize("k", [-1050, -1000, -800, -600, 600, 800, 1000])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_support_survives_power_of_two_scaling(self, algorithm, k):
        # 2**k times the spectrum is 2**k times the signal: same support,
        # though the window energies of the raw entries under- or overflow
        for n, m, snr in ((4096, 20, math.inf), (4096, 20, 20.0), (64, 30, math.inf)):
            if algorithm == "exact" and snr != math.inf:
                continue
            spectrum = instance_spectrum(n, m, 4, snr)
            expected = reconstruct(CountingSpectrumAccessor(spectrum), m, algorithm).support
            scaled = np.ldexp(spectrum.view(np.float64), k).view(np.complex128)
            try:
                got = reconstruct(CountingSpectrumAccessor(scaled), m, algorithm).support
            except ValidationError:
                continue
            assert got == expected

    def test_unknown_algorithm_rejected(self):
        accessor = CountingSpectrumAccessor(np.zeros(64, complex))
        with pytest.raises(ValidationError):
            reconstruct(accessor, 4, "dense")


# run_experiment(ExperimentConfig(4096, m, snrs, 20, 5, algorithm)), data
# rows only; any change to the sparse paths must leave these unchanged.
# The finite-SNR rows are those of the per-index noise stream, whose noise
# columns and mean_err_ifft are expectations (run_trial)
GOLDEN = {
    ("noisy", 20, (0.0, 10.0, 20.0, math.inf)): [
        "0,20,90,0.0034837824148358592,0.0090374928069015988,52.350750299625602,34.900500199750397,156.90000000000001,2.2999999999999998",
        "10,20,100,0.0010811074339563363,0.0027513975755803994,15.937797189084174,10.625198126056116,138,2",
        "20,20,100,0.00035448713456324782,0.00089600090743813341,5.1901916577694056,3.4601277718462704,138,2",
        "inf,20,100,1.2292413306246851e-18,0,0,0,34,1",
    ],
    ("exact", 1, (math.inf,)): ["inf,20,100,0,0,0,0,4,0"],
    ("exact", 20, (math.inf,)): ["inf,20,100,1.1750440008139758e-18,0,0,0,34,0"],
}


class TestWindowSpectrum:
    """A sparse trial's window-backed spectrum against gen_instance's array of the same draw."""

    @staticmethod
    def both(n, m, seed, snr_db):
        return gen_instance(n, m, seed, snr_db)[2], _WindowAccessor(_draw_instance(n, m, seed, snr_db))

    @settings(max_examples=40, deadline=None)
    @given(
        j=st.integers(3, 14),
        snr_db=st.sampled_from([0.0, 20.0, math.inf]),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_reads_match_the_instance_spectrum(self, j, snr_db, seed, data):
        n = 1 << j
        m = data.draw(st.integers(1, n // 4))
        spectrum, accessor = self.both(n, m, seed, snr_db)
        tol = 1e-12 * np.abs(spectrum).max()
        stride = n >> data.draw(st.integers(0, j))
        for offset in range(stride):  # every full stride subsample of this stride: one length-Q FFT each
            idx = np.arange(offset, n, stride)
            assert np.abs(accessor.read(idx) - spectrum[idx]).max() <= tol
        points = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40)))
        assert np.abs(accessor.read(points) - spectrum[points]).max() <= tol
        assert accessor.read_count == n + len(points)

    @pytest.mark.parametrize("n, m", [(8, 1), (64, 16), (64, 17), (4096, 20), (4096, 4096)])
    @pytest.mark.parametrize("snr_db", [0.0, 20.0, math.inf])
    def test_read_all_is_the_instance_spectrum(self, n, m, snr_db):
        for seed in range(3):
            spectrum, accessor = self.both(n, m, seed, snr_db)
            assert accessor.read_all().tobytes() == spectrum.tobytes()
            assert accessor.read_count == n

    def test_reads_are_checked_as_the_array_accessor_checks_them(self):
        _, accessor = self.both(64, 4, 1, 10.0)
        for bad in ([64], [-1]):
            with pytest.raises(InvalidOffset):
                accessor.read(bad)
        assert accessor.read([]).shape == (0,) and accessor.read_count == 0

    def test_sparse_paths_decide_alike_on_both_backings(self):
        shapes = [(1 << 10, 3), (1 << 12, 20), (1 << 14, 50), (1 << 14, 1), (1 << 16, 300), (256, 65)]
        for (n, m), snr_db, seed in itertools.product(shapes, [0.0, 10.0, 20.0, 40.0, math.inf], range(4)):
            for algorithm in ("exact", "noisy") if snr_db == math.inf else ("noisy",):
                spectrum, accessor = self.both(n, m, seed, snr_db)
                want = reconstruct(CountingSpectrumAccessor(spectrum), m, algorithm)
                got = reconstruct(accessor, m, algorithm)
                fields = ("support", "samples_used", "mode", "vectors_used", "votes_stable", "blind_levels")
                assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], (n, m, snr_db, seed)
                assert np.allclose(got.values, want.values, rtol=0, atol=1e-9 * np.abs(want.values).max())


class TestGoldenExperiment:
    @pytest.mark.parametrize("algorithm, m, snr_list", list(GOLDEN))
    def test_rows_match_the_golden_values(self, algorithm, m, snr_list):
        csv = run_experiment(ExperimentConfig(4096, m, snr_list, 20, 5, algorithm))
        rows = [row.split(",") for row in csv.strip().split("\n")[1:]]
        golden = [row.split(",") for row in GOLDEN[algorithm, m, snr_list]]
        assert len(rows) == len(golden)
        for got, want in zip(rows, golden):
            # snr_db, trials, mu_correct_pct, mean_samples, mean_kappa_vectors exactly
            assert [got[i] for i in (0, 1, 2, 7, 8)] == [want[i] for i in (0, 1, 2, 7, 8)]
            # error and noise columns within rounding of the FFT and BLAS
            # builds; atol covers the rounding-level errors of exact recovery
            np.testing.assert_allclose(
                [float(v) for v in got[3:7]], [float(v) for v in want[3:7]], rtol=1e-9, atol=1e-15
            )


class TestBaselineExperiment:
    def test_sparse_error_is_the_baseline_error(self):
        config = ExperimentConfig(
            n=1024, m=5, snr_list=(0.0, 20.0, math.inf), trials=3, seed=4,
            algorithm="ifft-baseline",
        )
        for row in run_experiment(config).strip().split("\n")[1:]:
            fields = row.split(",")
            assert fields[3] == fields[4]  # mean_err_sparse == mean_err_ifft
            assert float(fields[7]) == 1024 and float(fields[8]) == 0

    def test_trial_reuses_the_dense_result(self):
        record = run_trial(256, 6, 10.0, 9, "ifft-baseline")
        assert record.err_sparse == record.err_ifft
        assert record.samples_used == 256


@pytest.fixture
def pools(monkeypatch) -> list:
    """The max_workers of each thread pool run_experiment starts."""
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", RecordingPool)
    return started


LONG = experiment._POOL_MIN_LENGTH
SWEEP_OP = ExperimentConfig(1 << 18, 50, (0.0, 10.0, 20.0, math.inf), 1, 7, "noisy")  # perfbench sweep's op
POOLED = {
    "dense": ExperimentConfig(LONG, 4, (10.0, 20.0, math.inf), 4, 5, "ifft-baseline"),
    "sparse": ExperimentConfig(2 * LONG, LONG // 2, (10.0, 20.0, math.inf), 4, 5, "noisy"),  # P = LONG
}


class TestExecutorChoice:
    """Trials shorter than _POOL_MIN_LENGTH run in the calling thread, longer ones in the pool."""

    def test_the_sweep_op_starts_no_pool(self, monkeypatch, pools):
        monkeypatch.setenv("SPFFT_THREADS", "2")
        run_experiment(SWEEP_OP)
        assert pools == []

    @pytest.mark.parametrize("config", [SWEEP_OP, *POOLED.values()], ids=["sweep-op", *POOLED])
    def test_one_thread_starts_no_pool(self, monkeypatch, pools, config):
        monkeypatch.setenv("SPFFT_THREADS", "1")
        run_experiment(config)
        assert pools == []

    @pytest.mark.parametrize("shape", list(POOLED))
    def test_a_long_sweep_starts_one_pool_of_thread_count_workers(self, monkeypatch, pools, shape):
        monkeypatch.setenv("SPFFT_THREADS", "3")
        run_experiment(POOLED[shape])
        assert pools == [3]

    @pytest.mark.parametrize(
        "n, m, algorithm, length",
        [
            (1 << 20, 4, "ifft-baseline", 1 << 20),
            (64, 17, "noisy", 64),  # m > n/4: the dense fallback
            (64, 16, "exact", 32),
            (1 << 20, LONG // 2 - 1, "exact", LONG // 2),
            (1 << 20, LONG // 2, "noisy", LONG),
        ],
    )
    def test_transform_length(self, n, m, algorithm, length):
        assert experiment._transform_length(n, m, algorithm) == length

    @pytest.mark.parametrize("shape", list(POOLED))
    def test_pooled_csv_does_not_depend_on_the_thread_count(self, monkeypatch, pools, shape):
        outputs = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("SPFFT_THREADS", threads)
            outputs.append(run_experiment(POOLED[shape]))
        assert pools == [2, 4]
        assert outputs[0] == outputs[1] == outputs[2]


class TestDenseBaselineScore:
    """err_ifft is the error of the dense inverse FFT: by Parseval's identity for sparse results."""

    @pytest.mark.parametrize("algorithm", ["noisy", "ifft-baseline"])
    @pytest.mark.parametrize("n", [1 << 10, 1 << 16])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, math.inf])
    def test_err_ifft_is_the_error_of_the_inverse_fft(self, algorithm, n, snr_db):
        for seed in range(5):
            truth, _, noisy, _ = gen_instance(n, 20, seed, snr_db)
            want = error_l2_over_n(truth, fft_inverse(noisy))
            got = run_trial(n, 20, snr_db, seed, algorithm).err_ifft
            if algorithm == "ifft-baseline":  # the baseline's own inverse FFT, to the same bits
                assert got.hex() == want.hex()
            elif snr_db == math.inf:  # exact data; only the rounding of the real inverse FFT is left
                assert got == 0.0
            else:
                # the expected error sigma / (sqrt(2) n), exactly
                assert got == _draw_instance(n, 20, seed, snr_db).sigma / (math.sqrt(2) * n)
                # the realised one is sigma sqrt(S) / (n sqrt(n)), S = sum |u_k|^2 over n indices,
                # with E S = n/2 and Var S = n/12 (Var |u|^2 = 1/12): S / (n/2) has relative spread
                # 1/sqrt(3n), its root half that; 5 of those bound each of these 30 ratios
                assert got == pytest.approx(want, rel=5 / (2 * math.sqrt(3 * n)))

    @pytest.mark.parametrize(
        "algorithm, snr_db", [("noisy", 20.0), ("noisy", math.inf), ("exact", math.inf), ("ifft-baseline", 20.0)]
    )
    def test_only_the_baseline_takes_an_fft_of_length_n(self, monkeypatch, algorithm, snr_db):
        n = 4096
        lengths = {"fft": [], "ifft": []}

        def recording(name):
            transform = getattr(np.fft, name)

            def record(a, *args, **kwargs):
                lengths[name].append(len(a))
                return transform(a, *args, **kwargs)

            return record

        for name in lengths:
            monkeypatch.setattr(np.fft, name, recording(name))
        record = run_trial(n, 20, snr_db, 3, algorithm)
        assert lengths["ifft"]  # the sparse paths' fold transforms are recorded too
        if algorithm == "ifft-baseline":  # the instance's spectrum and its dense inverse
            assert lengths == {"fft": [n], "ifft": [n]} and record.err_ifft == record.err_sparse
        else:  # the stride reads' short transforms of the window, and the folds
            assert lengths["fft"] and max(lengths["fft"] + lengths["ifft"]) < n
            assert record.err_ifft == 0.0 if snr_db == math.inf else record.err_ifft > 0.0

    @staticmethod
    def traced_peak(n, snr_db, algorithm="noisy"):
        run_trial(n, 50, snr_db, 3, algorithm)  # the warm-up: a first trial in the process traces more
        tracemalloc.start()
        try:
            run_trial(n, 50, snr_db, 3, algorithm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_of_a_noisy_trial(self):
        # the noise is drawn at the indices read alone: no length-N array at all
        assert self.traced_peak(1 << 22, 20.0) < 2**20

    @pytest.mark.parametrize("algorithm", ["exact", "noisy"])
    def test_peak_memory_of_a_noiseless_trial_is_sublinear(self, algorithm):
        # no length-N array at all: the window, the folds and the probes
        assert self.traced_peak(1 << 22, math.inf, algorithm) < 2**20

    @pytest.mark.parametrize("snr_db", [20.0, math.inf])
    def test_peak_memory_of_a_baseline_trial(self, snr_db):
        # truth, spectrum, the dense inverse and its locate copies; the noise array
        # (zeros at inf) is dropped before the reconstruction: 5.5 arrays, 6.5 if it were held
        n = 1 << 18
        assert self.traced_peak(n, snr_db, "ifft-baseline") <= 5.75 * 16 * n

    def test_noisy_trial_at_n_2_30(self):
        # a spectrum of 16 GiB, read at a few hundred indices
        n = 1 << 30
        run_trial(n, 50, 10.0, 3, "noisy")
        tracemalloc.start()
        try:
            record = run_trial(n, 50, 10.0, 3, "noisy")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.mu_correct and peak < 2**20


class TestExperimentChecks:
    @pytest.mark.parametrize(
        "n, m, error, message",
        [
            (100, 4, InvalidLength, "length must be a power of two, got 100"),
            (64, 0, InvalidSupportLength, "support length 0 outside [1, 64]"),
            (64, 65, InvalidSupportLength, "support length 65 outside [1, 64]"),
        ],
    )
    def test_bad_sizes_fail_before_any_spectrum_is_built(self, monkeypatch, n, m, error, message):
        def refuse(*args):
            raise AssertionError("a spectrum or the noise was built")

        # the forward FFT, the noise stream and the window-backed spectrum
        monkeypatch.setattr(signal_lab, "fft_forward", refuse)
        monkeypatch.setattr(signal_lab, "_unit_noise", refuse)
        monkeypatch.setattr(experiment, "_WindowAccessor", refuse)
        with pytest.raises(error) as caught:
            run_experiment(ExperimentConfig(n, m, (10.0, math.inf), 2, 0, "noisy"))
        assert str(caught.value) == message

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_window_cannot_calibrate_before_any_read(self, monkeypatch, algorithm):
        def refuse(*args):
            raise AssertionError("a spectrum or the noise was built")

        monkeypatch.setattr(signal_lab, "_draw_window", lambda n, m, seed: (np.zeros(m, complex), SupportDescriptor(0, m)))
        monkeypatch.setattr(signal_lab, "fft_forward", refuse)
        monkeypatch.setattr(signal_lab, "_unit_noise", refuse)
        monkeypatch.setattr(experiment, "_WindowAccessor", refuse)
        with pytest.raises(CannotCalibrate, match="^cannot target a finite SNR on a zero spectrum$"):
            run_trial(64, 4, 10.0, 3, algorithm)

    def test_unknown_algorithm_fails_in_the_config(self):
        with pytest.raises(ValidationError, match="algorithm must be one of"):
            ExperimentConfig(64, 4, (10.0,), 1, 0, "dense")

    @pytest.mark.parametrize("snr_list", [(60.0, math.inf), (math.inf, -3.0), (-math.inf,), (math.nan,)])
    def test_exact_at_a_finite_snr_fails_in_the_config(self, snr_list):
        with pytest.raises(ValidationError, match="^algorithm 'exact' needs exact data: every SNR must be inf$"):
            ExperimentConfig(4096, 20, snr_list, 2, 0, "exact")
        if not any(math.isnan(snr) or snr == -math.inf for snr in snr_list):  # not noise levels at all
            ExperimentConfig(4096, 20, snr_list, 2, 0, "noisy")

    @pytest.mark.parametrize(
        "snr, message", [(math.nan, "snr_db must not be NaN"), (-math.inf, "snr_db must not be -inf")]
    )
    @pytest.mark.parametrize("algorithm", ["noisy", "ifft-baseline"])
    def test_a_level_that_is_not_a_noise_level_fails_in_the_config(self, snr, message, algorithm):
        # NoiseSpec's rule and message, before any trial of the earlier levels
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ExperimentConfig(64, 4, (0.0, snr), 1, 0, algorithm)

    def test_no_trials_fails_in_the_config(self):
        with pytest.raises(ValidationError, match="^trials must be >= 1, got 0$"):
            ExperimentConfig(64, 4, (10.0,), 0, 0, "noisy")

    def test_bench_without_trials_fails_before_any_trial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an instance was drawn or reconstructed")

        monkeypatch.setattr(experiment, "gen_instance", refuse)
        monkeypatch.setattr(experiment, "reconstruct", refuse)
        with pytest.raises(ValidationError, match="^trials must be >= 1, got 0$"):
            experiment.run_bench([64], [4], 0, 1)


class TestNonFiniteScores:
    # noise near the float maximum: the noise l1 sum overflows to inf below
    # about -6100 dB; the error norms, whose squares overflow from about
    # -3080 dB, are scaled by a power of two first and stay finite
    @pytest.mark.parametrize(
        "algorithm, snr_db", [("noisy", -6120.0), ("noisy", -6110.0), ("ifft-baseline", -6110.0)]
    )
    def test_trial_with_a_score_that_overflows_is_rejected(self, algorithm, snr_db):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CannotCalibrate, match="^the scores of a trial at .* dB SNR are not finite$"):
                run_trial(64, 4, snr_db, 3, algorithm)

    def test_large_finite_scores_are_kept(self):
        for snr_db in (-3000.0, -3100.0, -6000.0):
            record = run_trial(64, 4, snr_db, 3, "noisy")
            # the noise is about 10**(-snr_db/20) times the spectrum, whose entries are about 10
            assert 10 ** (-snr_db / 20 - 2) < record.err_sparse < math.inf
            assert 10 ** (-snr_db / 20) < record.noise_l1_over_n < math.inf


class TestNoiselessScores:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_noise_is_not_scored_at_infinite_snr(self, algorithm):
        # at +inf the noise scale is 0 and no noise is drawn, so there is none to score
        assert _draw_instance(1024, 5, 3, math.inf).sigma == 0.0
        record = run_trial(1024, 5, math.inf, 3, algorithm)
        assert record.noise_inf == record.noise_l1_over_n == 0.0
        if algorithm == "exact":  # noisy data fail the exact path's fold residual check
            with pytest.raises(ModelViolation):
                run_trial(1024, 5, 10.0, 3, algorithm)
        else:
            assert run_trial(1024, 5, 10.0, 3, algorithm).noise_inf > 0


class TestReplay:
    """`spfft gen --seed <trial_seed(seed, i)> --snr <level>` writes trial i's instance."""

    @pytest.mark.parametrize(
        "n, m, snr_db, seed, index, algorithm",
        [
            (4096, 20, math.inf, 11, 3, "exact"),
            (1024, 5, 10.0, 7, 12, "noisy"),
            (64, 4, 0.0, 2**40 + 3, 1, "noisy"),
        ],
    )
    def test_gen_writes_the_trial_spectrum(self, tmp_path, capsys, n, m, snr_db, seed, index, algorithm):
        replay = trial_seed(seed, index)
        prefix = tmp_path / "trial"
        argv = ["gen", "--n", str(n), "--m", str(m), "--seed", str(replay), "--snr", str(snr_db)]
        assert cli.main([*argv, "--out-prefix", str(prefix)]) == 0
        payload, _ = read_vector_file(f"{prefix}.freq.spf1")
        assert np.asarray(payload).tobytes() == gen_instance(n, m, replay, snr_db)[2].tobytes()
        capsys.readouterr()
        assert cli.main(["reconstruct", f"{prefix}.freq.spf1", "--m", str(m), "--algorithm", algorithm]) == 0
        reported = int(re.search(r"samples_used=(\d+)", capsys.readouterr().out).group(1))
        assert reported == run_trial(n, m, snr_db, replay, algorithm).samples_used


class TestBenchTimes:
    def test_times_are_positive_integers(self):
        rows = [line.split(",") for line in experiment.run_bench([1024], [5], 2, 3).strip().split("\n")[1:]]
        assert [row[2] for row in rows] == ["exact", "ifft"]
        for row in rows:
            assert row[3].isdigit() and int(row[3]) > 0

    def test_bench_times_reconstruct_over_the_instance_array(self, monkeypatch):
        drawn, calls, clock = [], [], [0]

        def fake_instance(n, m, seed, snr_db):
            drawn.append((n, m, seed, snr_db))
            spectrum = np.full(n, len(drawn), dtype=np.complex128)
            return None, None, spectrum, None

        def fake_reconstruct(accessor, m, algorithm):
            # a plain accessor over the drawn array; the clock advances only in here
            assert type(accessor) is CountingSpectrumAccessor
            calls.append((len(accessor), m, algorithm, accessor.read(0)[0].real))
            clock[0] += 2 * len(calls)
            return types.SimpleNamespace(samples_used=m + len(calls))

        monkeypatch.setattr(experiment, "gen_instance", fake_instance)
        monkeypatch.setattr(experiment, "reconstruct", fake_reconstruct)
        monkeypatch.setattr(experiment.time, "perf_counter_ns", lambda: clock[0])
        csv = experiment.run_bench([64, 128], [4], 2, 5)

        def cell(n, first):  # per algorithm a warm-up on the first seed, then the trials
            seeds = [trial_seed(5, i) for i in (first, first, first + 1)]
            return [(n, 4, s, math.inf) for _ in ("exact", "ifft-baseline") for s in seeds]

        # both algorithms of a cell run on the same seeds, which run on across cells
        assert drawn == cell(64, 0) + cell(128, 2)
        # each call reconstructs the array drawn just before it: the k-th draw holds k
        algorithms = ["exact"] * 3 + ["ifft-baseline"] * 3
        cells = [(64, a) for a in algorithms] + [(128, a) for a in algorithms]
        assert calls == [(n, 4, a, float(k)) for k, (n, a) in enumerate(cells, 1)]
        assert csv.split("\n")[1:] == ["64,4,exact,5,7", "64,4,ifft,11,10", "128,4,exact,17,13", "128,4,ifft,23,16", ""]


def forbid_embed(monkeypatch):
    def refuse(self, values, n):
        raise AssertionError("the length-N vector was built")

    monkeypatch.setattr(SupportDescriptor, "embed", refuse)


def count_embed(monkeypatch) -> list:
    """The lengths of the vectors SupportDescriptor.embed builds from now on."""
    calls = []
    embed = SupportDescriptor.embed

    def counting(self, values, n):
        calls.append(n)
        return embed(self, values, n)

    monkeypatch.setattr(SupportDescriptor, "embed", counting)
    return calls


class TestDenseVectorOnDemand:
    """SupportDescriptor.embed builds a result's length-N vector only when signal is read
    (gen_sparse_signal builds each truth with it)."""

    @pytest.mark.parametrize("n, m", [(4096, 20), (64, 30)])
    def test_reconstructions_do_not_embed(self, monkeypatch, n, m):
        spectrum = instance_spectrum(n, m, 4, math.inf)
        forbid_embed(monkeypatch)
        for algorithm in ("exact", "noisy"):
            result = DIRECT[algorithm](CountingSpectrumAccessor(spectrum), m)
            assert result.values.shape == (m,)
        assert not reconstruct_exact(CountingSpectrumAccessor(np.zeros(n, complex)), m).values.any()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_experiment_does_not_embed(self, monkeypatch, algorithm):
        snrs = (math.inf,) if algorithm == "exact" else (10.0, math.inf)
        calls = count_embed(monkeypatch)
        csv = run_experiment(ExperimentConfig(1024, 10, snrs, 3, 1, algorithm))
        assert len(csv.strip().split("\n")) == 1 + len(snrs)
        # a sparse trial reads and scores through the windows; an ifft-baseline
        # trial builds one truth, and no trial builds a result's signal
        assert calls == ([1024] * (3 * len(snrs)) if algorithm == "ifft-baseline" else [])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cli_reconstruct_without_out_does_not_embed(self, monkeypatch, tmp_path, capsys, algorithm):
        prefix = tmp_path / "case"
        snr = [] if algorithm == "exact" else ["--snr", "20"]
        cli.main(["gen", "--n", "4096", "--m", "20", "--seed", "6", "--out-prefix", str(prefix), *snr])
        capsys.readouterr()
        forbid_embed(monkeypatch)
        argv = ["reconstruct", f"{prefix}.freq.spf1", "--m", "20", "--algorithm", algorithm,
                "--truth", f"{prefix}.time.spf1"]
        assert cli.main(argv) == 0
        monkeypatch.undo()
        report = capsys.readouterr().out
        spectrum, _ = read_vector_file(f"{prefix}.freq.spf1")
        truth, _ = read_vector_file(f"{prefix}.time.spf1")
        result = reconstruct(CountingSpectrumAccessor(spectrum), 20, algorithm)
        err = float(re.search(r"err_l2_over_n=(\S+)", report).group(1))
        assert err == pytest.approx(error_l2_over_n(truth, result.signal), rel=1e-12)

    def test_signal_is_built_once_when_read(self, monkeypatch):
        x, _ = gen_sparse_signal(4096, 20, 8)
        calls = count_embed(monkeypatch)
        result = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), 20)
        assert calls == []
        signal = result.signal
        assert result.signal is signal and calls == [4096]
        assert np.array_equal(signal[result.support.indices(4096)], result.values)
        assert np.count_nonzero(signal) == np.count_nonzero(result.values)
