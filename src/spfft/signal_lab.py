"""Test-signal generation, the noise model, and error metrics.

Random draws go through a counter-based Philox generator keyed directly
by the 64-bit seed, so that generated vectors and injected noise are
reproducible across platforms and golden files stay valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft_core import SupportDescriptor, log2_length
from .errors import CannotCalibrate, InvalidSupportLength, ValidationError

#: Nonzero floor for the two window endpoints, so the generated support
#: length is exactly the requested one.
ENDPOINT_MIN_MODULUS = 0.5

#: Stream separator: trial seed XOR this constant seeds the noise draw.
NOISE_STREAM_SALT = 0x9E3779B97F4A7C15


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by the seed's low 64 bits."""
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform complex noise, parametrized by a bound or a target SNR.

    Exactly one of bound (|noise_k| <= bound) and snr_db
    (20*log10(||spectrum||_2 / ||noise||_2), +inf for none) must be
    given.  shape "disc" draws uniformly from the complex disc; "box"
    draws Re and Im uniformly from a square inscribed in that disc.
    """

    seed: int
    snr_db: float | None = None
    bound: float | None = None
    shape: str = "disc"

    def __post_init__(self):
        if (self.snr_db is None) == (self.bound is None):
            raise ValidationError("exactly one of snr_db and bound must be set")
        if self.bound is not None and self.bound < 0:
            raise ValidationError(f"noise bound must be >= 0, got {self.bound}")
        if self.snr_db is not None and math.isnan(self.snr_db):
            raise ValidationError("snr_db must not be NaN")
        if self.shape not in ("disc", "box"):
            raise ValidationError(f"unknown noise shape {self.shape!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One reconstruction trial of the experiment harness."""

    n: int
    m: int
    snr_db: float
    mu_correct: bool
    err_sparse: float
    err_ifft: float
    samples_used: int
    vectors_used: int
    noise_inf: float
    noise_l1_over_n: float


def gen_sparse_signal(n: int, m: int, seed: int) -> tuple[np.ndarray, SupportDescriptor]:
    """Random vector supported on exactly m consecutive (cyclic) entries.

    The window start is uniform on [0, n); entries are i.i.d. uniform on
    the box [-10, 10]^2 in Re/Im; the two endpoints are redrawn until
    their modulus reaches ENDPOINT_MIN_MODULUS so the support length
    cannot collapse below m.  Deterministic given the seed.
    """
    log2_length(n)
    if not 1 <= m <= n:
        raise InvalidSupportLength(f"support length {m} outside [1, {n}]")
    rng = philox_rng(seed)
    first_index = int(rng.integers(0, n))
    values = rng.uniform(-10, 10, m) + 1j * rng.uniform(-10, 10, m)
    for end in (0,) if m == 1 else (0, m - 1):
        while abs(values[end]) < ENDPOINT_MIN_MODULUS:
            values[end] = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
    support = SupportDescriptor(first_index, m)
    return support.embed(values, n), support


def _l2_norm(v) -> float:
    """Euclidean norm of a complex vector as one dot over its float64 view.

    numpy.linalg's norm takes two strided dots over the real and imaginary
    parts of complex input, which stall under threaded OpenBLAS; the
    contiguous view needs one.
    """
    flat = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    return math.sqrt(flat @ flat)


def _unit_noise(n: int, shape: str, rng: np.random.Generator) -> np.ndarray:
    if shape == "disc":
        radius = np.sqrt(rng.random(n))
        angle = 2 * np.pi * rng.random(n)
        return radius * np.exp(1j * angle)
    # Box inscribed in the unit disc: component half-width 1/sqrt(2).
    half = 1 / np.sqrt(2)
    return half * (2 * rng.random(n) - 1) + 1j * half * (2 * rng.random(n) - 1)


def add_noise(spectrum, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Perturb a spectrum entrywise; returns (noisy, noise).

    In SNR mode the noise is drawn at unit scale and rescaled so the
    realized SNR hits the target exactly (up to rounding); an SNR of
    +inf means no noise.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = len(spectrum)
    log2_length(n)
    rng = philox_rng(spec.seed)
    if spec.bound is not None:
        noise = spec.bound * _unit_noise(n, spec.shape, rng) if spec.bound > 0 else np.zeros(n, dtype=np.complex128)
        return spectrum + noise, noise
    if math.isinf(spec.snr_db) and spec.snr_db > 0:
        return spectrum.copy(), np.zeros(n, dtype=np.complex128)
    signal_norm = _l2_norm(spectrum)
    if signal_norm == 0:
        raise CannotCalibrate("cannot target a finite SNR on a zero spectrum")
    unit = _unit_noise(n, spec.shape, rng)
    unit_norm = _l2_norm(unit)
    if unit_norm == 0:
        raise CannotCalibrate("degenerate zero noise draw")
    noise = (signal_norm / (unit_norm * 10 ** (spec.snr_db / 20))) * unit
    return spectrum + noise, noise


def error_l2_over_n(x, y) -> float:
    """Euclidean norm of the difference, divided by the length."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.shape != y.shape:
        raise ValidationError(f"length mismatch: {x.shape} vs {y.shape}")
    return _l2_norm(x - y) / len(x)
