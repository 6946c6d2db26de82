import math
import re

import numpy as np
import pytest

from spfft import cli, experiment, signal_lab
from spfft.dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_forward
from spfft.errors import CannotCalibrate, InvalidLength, InvalidSupportLength, ValidationError
from spfft.experiment import ALGORITHMS, ExperimentConfig, TrialRecord, reconstruct, run_experiment, run_trial, trial_seed
from spfft.signal_lab import error_l2_over_n, gen_instance, gen_sparse_signal
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
# rows only; any change to the sparse paths must leave these unchanged
GOLDEN = {
    ("noisy", 20, (0.0, 10.0, 20.0, math.inf)): [
        "0,20,100,0.0033884370253651078,0.0090374928069015988,52.417120669719452,34.892823789148487,147.44999999999999,2.1499999999999999",
        "10,20,100,0.0010634468827080555,0.0027513975755803994,15.912931023079363,10.628377851452985,138,2",
        "20,20,100,0.00033946680379188068,0.00089600090743813341,5.1857952634279743,3.4603205033326083,138,2",
        "inf,20,100,1.4680845524637653e-18,2.9772856973766374e-18,0,0,138,2",
    ],
    ("exact", 1, (math.inf,)): ["inf,20,100,0,5.0037202162981062e-19,0,0,4,0"],
    ("exact", 20, (math.inf,)): ["inf,20,100,1.1750440008139758e-18,2.9477206580380604e-18,0,0,66,0"],
}


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
        def refuse(x):
            raise AssertionError("a spectrum was built")

        monkeypatch.setattr(signal_lab, "fft_forward", refuse)
        with pytest.raises(error) as caught:
            run_experiment(ExperimentConfig(n, m, (10.0, math.inf), 2, 0, "noisy"))
        assert str(caught.value) == message

    def test_unknown_algorithm_fails_in_the_config(self):
        with pytest.raises(ValidationError, match="algorithm must be one of"):
            ExperimentConfig(64, 4, (10.0,), 1, 0, "dense")


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


class TestTrialTimes:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_times_are_positive_integers(self, algorithm):
        record = run_trial(1024, 5, math.inf if algorithm == "exact" else 10.0, 3, algorithm)
        assert type(record.sparse_ns) is int and record.sparse_ns > 0
        assert type(record.dense_ns) is int and record.dense_ns > 0
        if algorithm == "ifft-baseline":
            assert record.dense_ns == record.sparse_ns

    def test_bench_averages_the_times_of_run_trial(self, monkeypatch):
        calls = []

        def fake_trial(n, m, snr_db, seed, algorithm):
            calls.append((n, m, snr_db, seed, algorithm))
            k = len(calls)
            return TrialRecord(True, 0.0, 0.0, m + k, 0, 0.0, 0.0, sparse_ns=2 * k, dense_ns=10 * k)

        monkeypatch.setattr(experiment, "run_trial", fake_trial)
        csv = experiment.run_bench([64, 128], [4], 2, 5)
        # per cell one warm-up trial, then the trials, whose seeds run on across cells
        cells = ((64, 0), (64, 0), (64, 1), (128, 2), (128, 2), (128, 3))
        assert calls == [(n, 4, math.inf, trial_seed(5, i), "exact") for n, i in cells]
        assert csv.split("\n")[1:] == ["64,4,exact,5,7", "64,4,ifft,25,64", "128,4,exact,11,10", "128,4,ifft,55,128", ""]


def forbid_embed(monkeypatch):
    def refuse(self, values, n):
        raise AssertionError("the length-N vector was built")

    monkeypatch.setattr(SupportDescriptor, "embed", refuse)


class TestDenseVectorOnDemand:
    """SupportDescriptor.embed builds the length-N vector only when signal is read."""

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
        forbid_embed(monkeypatch)
        csv = run_experiment(ExperimentConfig(1024, 10, snrs, 3, 1, algorithm))
        assert len(csv.strip().split("\n")) == 1 + len(snrs)

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
        calls = []
        embed = SupportDescriptor.embed

        def counting(self, values, n):
            calls.append(n)
            return embed(self, values, n)

        monkeypatch.setattr(SupportDescriptor, "embed", counting)
        x, _ = gen_sparse_signal(4096, 20, 8)
        result = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), 20)
        assert calls == []
        signal = result.signal
        assert result.signal is signal and calls == [4096]
        assert np.array_equal(signal[result.support.indices(4096)], result.values)
        assert np.count_nonzero(signal) == np.count_nonzero(result.values)
