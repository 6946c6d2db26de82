"""Deterministic sublinear sparse inverse FFT for small-support vectors."""

from .dft_core import (
    MAX_LOG2_LEN,
    CountingSpectrumAccessor,
    SupportDescriptor,
    fft_forward,
    fft_inverse,
    log2_length,
)
from .errors import (
    AlgorithmError,
    CannotCalibrate,
    DegenerateQuotient,
    FileFormatError,
    InvalidLength,
    InvalidOffset,
    InvalidSupportLength,
    NoisyQuotient,
    NonFiniteSpectrum,
    SpfftError,
    ValidationError,
    WrongDomain,
    ZeroSignal,
)
from .experiment import ExperimentConfig, TrialRecord, reconstruct, run_bench, run_experiment, run_trial
from .signal_lab import (
    NoiseSpec,
    add_noise,
    error_l2_over_n,
    gen_sparse_signal,
    philox_rng,
)
from .sparse_exact import (
    Reconstruction,
    ceil_log2,
    reconstruct_dense,
    reconstruct_exact,
    window_energies,
    window_spectrum_sample,
)
from .sparse_noisy import (
    offset_periodization,
    reconstruct_noisy,
)
from .spf1 import DOMAIN_FREQ, DOMAIN_TIME, read_vector_file, write_vector_file

__version__ = "0.1.0"
