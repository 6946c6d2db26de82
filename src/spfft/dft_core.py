"""Discrete Fourier transform core for power-of-two lengths.

Convention used throughout the package: the forward transform is
``X_k = sum_j x_j * w**(j*k)`` with ``w = exp(-2i*pi/N)`` and no scale
factor; the inverse carries the conjugate kernel and the ``1/N`` factor.

Besides the FFT pair, which wraps numpy.fft and enforces the
power-of-two length contract, this module provides the cyclic support
window and a spectrum accessor that counts how many distinct Fourier
values an algorithm consumed and refuses non-finite ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLength, InvalidOffset, InvalidSupportLength, NonFiniteSpectrum

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

    def embed(self, values, n: int) -> np.ndarray:
        """Length-n vector holding values on the window and zeros elsewhere."""
        out = np.zeros(n, dtype=np.complex128)
        out[self.indices(n)] = values
        return out


def _require_finite(values, indices) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(indices[int(np.argmin(finite))])
        raise NonFiniteSpectrum(f"spectrum value at index {bad} is not finite")


class CountingSpectrumAccessor:
    """Random access to a spectrum that counts distinct indices read.

    The counter is the sublinearity witness of the reconstruction
    algorithms: it measures how many Fourier values were consumed, so a
    repeated read of the same index is free.  The indices read are kept
    in a set, so construction is O(1) and a read costs O(values read);
    the spectrum itself, for instance a memory-mapped file, is only
    touched where it is read.  Returned values are bit-identical to the
    backing entries; a NaN or infinite value among those read raises
    NonFiniteSpectrum, at a cost of O(values read).
    """

    def __init__(self, spectrum):
        self._values = np.asarray(spectrum, dtype=np.complex128)
        self._log2_len = log2_length(len(self._values))
        self._seen: set[int] = set()
        self._read_all = False

    def __len__(self) -> int:
        return len(self._values)

    @property
    def log2_len(self) -> int:
        return self._log2_len

    @property
    def read_count(self) -> int:
        """Number of distinct spectrum indices read so far."""
        return len(self._values) if self._read_all else len(self._seen)

    @property
    def accessed_indices(self) -> set[int]:
        return set(range(len(self._values))) if self._read_all else set(self._seen)

    def read(self, indices):
        """Read one index (int) or many (array); counts new distinct indices."""
        scalar = np.isscalar(indices)
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= len(self._values)):
            raise InvalidOffset(
                f"spectrum index out of range [0, {len(self._values)})"
            )
        values = self._values[idx]
        _require_finite(values, idx)
        if not self._read_all:
            self._seen.update(idx.tolist())
        return values[0] if scalar else values

    def read_all(self) -> np.ndarray:
        """Read the whole spectrum (the dense path), as a read-only view."""
        _require_finite(self._values, range(len(self._values)))
        self._read_all = True
        self._seen.clear()
        values = self._values.view()
        values.flags.writeable = False
        return values
