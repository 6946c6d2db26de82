"""Discrete Fourier transform core for power-of-two lengths.

Convention used throughout the package: the forward transform is
``X_k = sum_j x_j * w**(j*k)`` with ``w = exp(-2i*pi/N)`` and no scale
factor; the inverse carries the conjugate kernel and the ``1/N`` factor.

Besides the FFT pair, which wraps numpy.fft and enforces the
power-of-two length contract, this module provides the quadratic-time
reference transform used as an independent test oracle, the folding
(periodization) operator and its spectral counterpart (stride
subsampling), and a spectrum accessor that counts how many distinct
Fourier values an algorithm consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLength, InvalidLevel, InvalidOffset, InvalidSupportLength

#: Largest supported log2 length; keeps all index arithmetic in int64.
MAX_LOG2_LEN = 30


def log2_length(n: int) -> int:
    """Return J for a valid length N = 2**J, raising InvalidLength otherwise."""
    if not isinstance(n, (int, np.integer)):
        raise InvalidLength(f"length must be an integer, got {type(n).__name__}")
    if n < 1 or n & (n - 1):
        raise InvalidLength(f"length must be a power of two, got {n}")
    j = int(n).bit_length() - 1
    if j > MAX_LOG2_LEN:
        raise InvalidLength(f"length 2**{j} exceeds the supported maximum 2**{MAX_LOG2_LEN}")
    return j


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


def fft_forward(x) -> np.ndarray:
    """Forward FFT via numpy.fft, restricted to the package's lengths.

    Parameters
    ----------
    x : array_like
        Complex vector whose length is a power of two (at most 2**30).

    Returns
    -------
    np.ndarray
        The unscaled forward transform under the exp(-2i*pi/N) kernel.
    """
    x = np.asarray(x, dtype=np.complex128)
    log2_length(len(x))
    return np.fft.fft(x)


def fft_inverse(s) -> np.ndarray:
    """Inverse FFT: conjugate kernel with the 1/N factor."""
    s = np.asarray(s, dtype=np.complex128)
    log2_length(len(s))
    return np.fft.ifft(s)


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


@dataclass(frozen=True)
class SupportDescriptor:
    """Cyclic index window {(first_index + r) mod N : r = 0..length-1}."""

    first_index: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidSupportLength(f"support length must be >= 1, got {self.length}")
        if self.first_index < 0:
            raise InvalidSupportLength(f"first index must be >= 0, got {self.first_index}")

    def indices(self, n: int) -> np.ndarray:
        """The window as explicit indices into a length-n vector."""
        if self.length > n:
            raise InvalidSupportLength(
                f"support length {self.length} exceeds vector length {n}"
            )
        return (self.first_index + np.arange(self.length, dtype=np.int64)) % n


class CountingSpectrumAccessor:
    """Random access to a spectrum that counts distinct indices read.

    The counter is the sublinearity witness of the reconstruction
    algorithms: it measures how many Fourier values were consumed, so a
    repeated read of the same index is free.  Returned values are
    bit-identical to the backing entries.
    """

    def __init__(self, spectrum):
        self._values = np.asarray(spectrum, dtype=np.complex128)
        self._log2_len = log2_length(len(self._values))
        self._seen = np.zeros(len(self._values), dtype=bool)
        self._read_count = 0

    def __len__(self) -> int:
        return len(self._values)

    @property
    def log2_len(self) -> int:
        return self._log2_len

    @property
    def read_count(self) -> int:
        """Number of distinct spectrum indices read so far."""
        return self._read_count

    @property
    def accessed_indices(self) -> set[int]:
        return set(np.flatnonzero(self._seen).tolist())

    def read(self, indices):
        """Read one index (int) or many (array); counts new distinct indices."""
        scalar = np.isscalar(indices)
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= len(self._values)):
            raise InvalidOffset(
                f"spectrum index out of range [0, {len(self._values)})"
            )
        distinct = np.unique(idx)
        self._read_count += int(np.count_nonzero(~self._seen[distinct]))
        self._seen[distinct] = True
        values = self._values[idx]
        return values[0] if scalar else values

    def read_all(self) -> np.ndarray:
        """Read the whole spectrum (the dense fallback path)."""
        self._seen[:] = True
        self._read_count = len(self._values)
        return self._values.copy()
