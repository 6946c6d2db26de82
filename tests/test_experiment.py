import math

import numpy as np
import pytest

from spfft.dft_core import CountingSpectrumAccessor, fft_forward
from spfft.errors import ValidationError
from spfft.experiment import ALGORITHMS, ExperimentConfig, reconstruct, run_experiment, run_trial
from spfft.signal_lab import NOISE_STREAM_SALT, NoiseSpec, add_noise, gen_sparse_signal
from spfft.sparse_exact import reconstruct_dense, reconstruct_exact
from spfft.sparse_noisy import reconstruct_noisy

DIRECT = {
    "exact": reconstruct_exact,
    "noisy": reconstruct_noisy,
    "ifft-baseline": lambda accessor, m: reconstruct_dense(accessor, m, "baseline"),
}


def instance_spectrum(n, m, seed, snr_db):
    x, _ = gen_sparse_signal(n, m, seed)
    noisy, _ = add_noise(fft_forward(x), NoiseSpec(seed=seed ^ NOISE_STREAM_SALT, snr_db=snr_db))
    return noisy


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

    def test_max_vectors_reaches_the_noisy_algorithm(self):
        spectrum = instance_spectrum(4096, 20, 3, 0.0)
        via = reconstruct(CountingSpectrumAccessor(spectrum), 20, "noisy", max_vectors=3)
        direct = reconstruct_noisy(CountingSpectrumAccessor(spectrum), 20, 3)
        assert via.vectors_used == direct.vectors_used <= 3
        assert np.array_equal(via.signal, direct.signal)

    def test_unknown_algorithm_rejected(self):
        accessor = CountingSpectrumAccessor(np.zeros(64, complex))
        with pytest.raises(ValidationError):
            reconstruct(accessor, 4, "dense")


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
