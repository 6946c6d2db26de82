"""Deterministic sublinear sparse inverse FFT for small-support vectors."""

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_forward, fft_inverse
from .errors import (
    AlgorithmError,
    CannotCalibrate,
    FileFormatError,
    InvalidLength,
    InvalidOffset,
    InvalidSupportLength,
    ModelViolation,
    NonFiniteSpectrum,
    SpfftError,
    ValidationError,
    WrongDomain,
)
from .experiment import ExperimentConfig, reconstruct, run_experiment
from .signal_lab import NoiseSpec, add_noise, gen_sparse_signal
from .sparse_exact import Reconstruction, reconstruct_dense, reconstruct_exact
from .sparse_noisy import reconstruct_noisy
from .spf1 import DOMAIN_FREQ, DOMAIN_TIME, read_vector_file, write_vector_file

__version__ = "0.1.0"
