"""The public surface: what `spfft` exports, the accessor's members, and
the one vector contract of the entry points that take a vector."""

import importlib
import types

import numpy as np
import pytest

import spfft
from spfft.dft_core import CountingSpectrumAccessor, fft_forward, fft_inverse
from spfft.errors import InvalidLength
from spfft.signal_lab import NoiseSpec, add_noise, error_l2_over_n
from spfft.sparse_exact import reconstruct_exact
from spfft.spf1 import DOMAIN_FREQ, write_vector_file

ENTRY_POINTS = {
    "fft_forward", "fft_inverse", "CountingSpectrumAccessor", "SupportDescriptor",
    "Reconstruction", "reconstruct_exact", "reconstruct_noisy", "reconstruct_dense",
    "reconstruct", "ExperimentConfig", "run_experiment", "gen_sparse_signal",
    "add_noise", "NoiseSpec", "read_vector_file", "write_vector_file",
    "DOMAIN_TIME", "DOMAIN_FREQ",
}
ERRORS = {
    "SpfftError", "ValidationError", "InvalidLength", "InvalidOffset",
    "InvalidSupportLength", "NonFiniteSpectrum", "CannotCalibrate", "WrongDomain",
    "FileFormatError", "AlgorithmError", "DegenerateQuotient", "NoisyQuotient", "ZeroSignal",
}

#: Public in their modules, not re-exported by spfft.
MODULE_ONLY = {
    "dft_core": ("MAX_LOG2_LEN", "log2_length", "support_length", "as_window"),
    "experiment": ("TrialRecord", "run_trial", "run_bench"),
    "signal_lab": ("error_l2_over_n", "philox_rng"),
    "sparse_exact": ("ceil_log2", "window_energies", "window_spectrum_sample"),
    "sparse_noisy": ("offset_periodization",),
}


def test_spfft_exports_the_entry_points_only():
    names = {
        name for name, value in vars(spfft).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == ENTRY_POINTS | ERRORS
    assert spfft.__version__


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names])
def test_internal_names_stay_in_their_modules(module, name):
    assert hasattr(importlib.import_module(f"spfft.{module}"), name)
    assert not hasattr(spfft, name)


def test_accessor_has_the_protocol_members_only():
    public = {name for name in dir(CountingSpectrumAccessor) if not name.startswith("_")}
    assert public == {"log2_len", "read", "read_all", "read_count"}
    assert "__len__" in vars(CountingSpectrumAccessor)


def test_read_of_an_int_returns_an_array():
    got = CountingSpectrumAccessor(np.arange(8) + 0j).read(3)
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [3]


SITES = {
    "fft_forward": fft_forward,
    "fft_inverse": fft_inverse,
    "accessor": CountingSpectrumAccessor,
    "reconstruct_exact": lambda x: reconstruct_exact(CountingSpectrumAccessor(x), 2),
    "add_noise at inf": lambda x: add_noise(x, NoiseSpec(seed=1, snr_db=np.inf)),
    "add_noise at 10 dB": lambda x: add_noise(x, NoiseSpec(seed=1, snr_db=10.0)),
    "error_l2_over_n": lambda x: error_l2_over_n(x, x),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("shape", [(8, 3), (16, 5), (1, 8)])
def test_two_dimensional_input_is_an_invalid_length(site, shape):
    with pytest.raises(InvalidLength, match=rf"shape \({shape[0]}, {shape[1]}\)"):
        SITES[site](np.ones(shape, dtype=np.complex128))


def test_two_dimensional_vector_file_is_not_written(tmp_path):
    path = tmp_path / "wide.spf1"
    with pytest.raises(InvalidLength, match=r"shape \(8, 2\)"):
        write_vector_file(path, np.ones((8, 2), dtype=np.complex128), DOMAIN_FREQ)
    assert not path.exists()


@pytest.mark.parametrize("site", ["fft_forward", "accessor", "add_noise at inf"])
def test_scalar_is_an_invalid_length(site):
    with pytest.raises(InvalidLength, match=r"shape \(\)"):
        SITES[site](1.0)
