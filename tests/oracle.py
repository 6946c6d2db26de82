"""Reference transforms and measurements used only by the tests.

The quadratic-time DFT is the independent oracle for the FFT pair; the
folding (periodization) operator and its spectral counterpart (stride
subsampling) state the identity the sparse algorithms rest on; the
recording accessor shows which spectrum values a call read, in order.
Imported by the test modules as ``oracle``.
"""

import math

import numpy as np

from spfft.dft_core import CountingSpectrumAccessor, log2_length
from spfft.errors import InvalidOffset, ValidationError


class InvalidLevel(ValidationError):
    """Folding or shift level outside the range a reference operator allows."""


def naive_dft(x) -> np.ndarray:
    """Direct O(N^2) forward transform; the independent reference oracle.

    Evaluated row-block by row-block so the largest temporary stays small.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    log2_length(n)
    roots = np.exp((-2j * np.pi / n) * np.arange(n))
    out = np.empty(n, dtype=np.complex128)
    cols = np.arange(n, dtype=np.int64)
    block = max(1, (1 << 20) // n)
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n), dtype=np.int64)
        out[lo : lo + len(rows)] = roots[np.outer(rows, cols) % n] @ x
    return out


def periodize(x, j: int) -> np.ndarray:
    """Fold x to length 2**j by summing over residue classes mod 2**j.

    ``periodize(x, J)`` is x itself; ``periodize(x, 0)`` is the one-entry
    sum of all components.
    """
    x = np.asarray(x, dtype=np.complex128)
    big = log2_length(len(x))
    if not 0 <= j <= big:
        raise InvalidLevel(f"folding level {j} outside [0, {big}]")
    return x.reshape(-1, 1 << j).sum(axis=0)


def subsample_spectrum(s, j: int) -> np.ndarray:
    """Every (N / 2**j)-th spectrum entry: the transform of periodize(x, j).

    Folding in time is stride subsampling in frequency:
    ``fft_forward(periodize(x, j)) == subsample_spectrum(fft_forward(x), j)``.
    """
    s = np.asarray(s, dtype=np.complex128)
    big = log2_length(len(s))
    if not 0 <= j <= big:
        raise InvalidLevel(f"subsampling level {j} outside [0, {big}]")
    return s[:: 1 << (big - j)].copy()


def modulation_check(x, j: int, shift_count: int, rel_tol: float = 1e-10) -> bool:
    """Test utility: does shifting by shift_count * 2**j modulate the spectrum?

    Verifies, via the quadratic-time oracle, that the cyclic shift
    ``y_k = x_{(k + shift_count * 2**j) mod N}`` has transform
    ``Y_l = exp(+2i*pi*l*shift_count / 2**(J-j)) * X_l`` to within
    ``rel_tol`` relative error.
    """
    x = np.asarray(x, dtype=np.complex128)
    big = log2_length(len(x))
    if not 0 <= j <= big - 1:
        raise InvalidLevel(f"shift level {j} outside [0, {big - 1}]")
    period = 1 << (big - j)
    if not 0 <= shift_count < period:
        raise InvalidOffset(f"shift count {shift_count} outside [0, {period})")
    y = np.roll(x, -(1 << j) * shift_count)
    spectrum = naive_dft(x)
    shifted_spectrum = naive_dft(y)
    exponents = (np.arange(len(x), dtype=np.int64) * shift_count) % period
    expected = np.exp((2j * np.pi / period) * exponents) * spectrum
    scale = np.max(np.abs(spectrum))
    return bool(np.max(np.abs(shifted_spectrum - expected)) <= rel_tol * max(scale, 1e-300))


def realized_snr_db(spectrum, noise) -> float:
    """20*log10(||spectrum||_2 / ||noise||_2)."""
    return 20 * math.log10(np.linalg.norm(spectrum) / np.linalg.norm(noise))


class RecordingAccessor(CountingSpectrumAccessor):
    """Counting accessor that also keeps the index list of every read call."""

    def __init__(self, spectrum):
        super().__init__(spectrum)
        self.calls: list[list[int]] = []

    def read(self, indices):
        self.calls.append(np.atleast_1d(indices).tolist())
        return super().read(indices)
