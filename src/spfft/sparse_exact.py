"""Sparse recovery from exact Fourier data.

A length-N vector that vanishes outside a cyclic window of m entries is
recovered from just under 4m spectrum values: one inverse FFT of length
2**(L+1), where L = ceil(log2 m), gives the folded vector; a sliding
window locates its support; and a single odd-indexed spectrum value pins
down which of the 2**(J-L-1) candidate placements of that window is the
true one, via a root-of-unity quotient and an inverse modulo a power of
two.  When m > N/4 no placement is left to resolve, and
reconstruct_dense, the one dense inverse FFT of the package, is used.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_inverse
from .errors import (
    AmbiguousSupport,
    DegenerateQuotient,
    InvalidLevel,
    InvalidSupportLength,
    NoisyQuotient,
    NotInvertible,
    ValidationError,
    ZeroSignal,
)


@dataclass(frozen=True)
class Reconstruction:
    """Recovered support window, its m values and how they were obtained.

    values holds the entries on support, a fresh array of support.length
    values; n is the length N of the recovered vector, which is zero
    outside the window.  signal, the N-length vector itself, is built
    on first access and cached; in "baseline" mode it is the whole dense
    inverse FFT, whose entries outside the window need not be zero.
    samples_used is the accessor's distinct-read count.  mode is
    "sparse" for the sublinear algorithms, "fallback" when they handed
    over to the dense inverse FFT (support length above N/4), and
    "baseline" for the dense inverse FFT requested as such.
    vectors_used counts the offset vectors of the noisy algorithm.
    """

    support: SupportDescriptor
    values: np.ndarray
    n: int
    samples_used: int
    mode: str
    vectors_used: int = 0

    @functools.cached_property
    def signal(self) -> np.ndarray:
        """The length-n vector: values on the support window, zeros elsewhere."""
        return self.support.embed(self.values, self.n)


@dataclass(frozen=True, kw_only=True)
class ExactReconstruction(Reconstruction):
    """Result of reconstruct_exact.

    On the sparse path samples_used is at most 2**(fold_level+1) + 2
    when the data fit the model, and 2**(fold_level+2) on any input.
    block_shift and phase_index are the resolved window placement
    (number of fold-length blocks) and the root-of-unity exponent it was
    derived from; both are 0 on the dense fallback path.
    """

    fold_level: int
    block_shift: int = 0
    phase_index: int = 0


def ceil_log2(m: int) -> int:
    """Smallest L with m <= 2**L."""
    return int(m - 1).bit_length()


def window_energies(values, window_len: int) -> np.ndarray:
    """Energy of every cyclic window of window_len entries.

    ``out[k] = sum_{l=k}^{k+window_len-1} |values[l mod n]|^2``, evaluated
    with prefix sums: the O(n) sliding recursion
    ``e_{k+1} = e_k - |v_k|^2 + |v_{k+window_len}|^2`` in vector form.
    """
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    if not 1 <= window_len <= n:
        raise InvalidSupportLength(f"window length {window_len} outside [1, {n}]")
    sq = values.real**2 + values.imag**2
    prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([sq, sq[:window_len]]))])
    return prefix[window_len : window_len + n] - prefix[:n]


def find_support_start(values, window_len: int) -> int:
    """First index of the max-energy cyclic window (smallest index on ties).

    Requires ``window_len <= n/2``: a vector supported on window_len
    entries then has a unique maximizing window.
    """
    values = np.asarray(values, dtype=np.complex128)
    if window_len >= 1 and 2 * window_len > len(values):
        raise AmbiguousSupport(
            f"window length {window_len} exceeds half the vector length {len(values)}"
        )
    return int(np.argmax(window_energies(values, window_len)))


def window_spectrum_sample(window, first_index: int, freq_index: int, length: int) -> complex:
    """One DFT sample of a window embedded at first_index in a length-`length` vector.

    ``sum_l window[l] * exp(-2i*pi * freq_index * (first_index + l) / length)``
    with exponents reduced mod length before evaluation.
    """
    window = np.asarray(window, dtype=np.complex128)
    offsets = first_index + np.arange(len(window), dtype=np.int64)
    exponents = (freq_index * offsets) % length
    return complex(window @ np.exp((-2j * np.pi / length) * exponents))


def mod_inverse_pow2(a: int, t: int) -> int:
    """Inverse of an odd integer a modulo 2**t."""
    if t < 1:
        raise InvalidLevel(f"modulus exponent must be >= 1, got {t}")
    if a % 2 == 0:
        raise NotInvertible(f"{a} is even and has no inverse mod 2**{t}")
    return pow(a % (1 << t), -1, 1 << t)


def _odd_probe(
    accessor: CountingSpectrumAccessor, center: int, probe_stride: int, budget: int
) -> tuple[int, complex]:
    """(index, value) of the larger of spectrum[center +- probe_stride].

    center is an even multiple of probe_stride.  Both neighbors are read
    in one call, cut to budget entries; the right one wins ties.  Only if
    all are exactly zero are the odd multiples probe_stride*(2k+1) read
    in turn, skipping those tried, until one is nonzero or budget
    distinct indices were probed; else (right neighbor, 0) is returned.
    A window of at most budget entries with a nonzero transform is
    nonzero at one of any budget distinct frequencies.
    """
    n = len(accessor)
    probes = np.array([center + probe_stride, center - probe_stride], dtype=np.int64)[:budget] % n
    values = accessor.read(probes)
    pick = int(np.argmax(np.abs(values)))
    if values[pick] != 0:
        return int(probes[pick]), complex(values[pick])
    tried = set(probes.tolist())
    for q in range(probe_stride, n, 2 * probe_stride):
        if len(tried) >= budget:
            break
        if q not in tried:
            tried.add(q)
            value = accessor.read(q)
            if value != 0:
                return q, complex(value)
    return int(probes[0]), 0j


def select_odd_sample(
    accessor: CountingSpectrumAccessor, fold_level: int, subsampled
) -> tuple[int, complex]:
    """Pick a reliably-nonzero odd-indexed spectrum value, frugally.

    subsampled is the stride subsample the sparse path has already read,
    ``spectrum[stride * r]`` for r < 2**(fold_level+1), so its argmax
    costs nothing; of its two (odd-indexed) neighbors, the one with
    larger modulus is returned, at a price of two new reads.  Returns
    (k, spectrum[2k+1]).  If both are exactly zero, odd indices 1, 3, 5,
    ... are scanned, up to 2**(fold_level+1) distinct probes in all; a
    nonzero vector with at most 2**fold_level <= N/4 support entries is
    not zero at all of them, so if every probe is, ZeroSignal is raised.
    """
    j = accessor.log2_len
    if not 0 <= fold_level < j - 1:
        raise InvalidLevel(f"fold level {fold_level} outside [0, {j - 1})")
    count = 1 << (fold_level + 1)
    if len(subsampled) != count:
        raise ValidationError(
            f"stride subsample has {len(subsampled)} values, fold level {fold_level} needs {count}"
        )
    stride = 1 << (j - fold_level - 1)
    index, value = _odd_probe(accessor, stride * int(np.argmax(np.abs(subsampled))), 1, count)
    if value == 0:
        raise ZeroSignal(f"all {count} odd-indexed spectrum values probed are zero")
    return index // 2, value


def resolve_shift(quotient: complex, k: int, t: int) -> tuple[int, int]:
    """Invert ``quotient = exp(-2i*pi*(2k+1)*shift / 2**t)`` for the shift.

    Rounds the phase to the nearest 2**t-th root of unity; a phase more
    than a quarter step away means the data cannot have come from an
    exact spectrum, and NoisyQuotient is raised.  Returns
    (block_shift, phase_index).
    """
    if abs(quotient) == 0:
        raise DegenerateQuotient("shift quotient is zero")
    modulus = 1 << t
    steps = -np.angle(quotient) * modulus / (2 * np.pi)
    nearest = round(steps)
    if abs(steps - nearest) > 0.25:
        raise NoisyQuotient(
            f"phase {steps:.6f} steps is {abs(steps - nearest):.3f} from the nearest "
            f"root-of-unity lattice point; data are not an exact spectrum"
        )
    phase_index = int(nearest) % modulus
    shift = (phase_index * mod_inverse_pow2((2 * k + 1) % modulus, t)) % modulus
    return shift, phase_index


def _base_fields(result: Reconstruction) -> dict:
    """The Reconstruction fields of result, to build a subclass from."""
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(Reconstruction)}


def reconstruct_dense(
    accessor: CountingSpectrumAccessor, support_len: int, mode: str = "fallback"
) -> Reconstruction:
    """Dense inverse FFT of the whole spectrum, with its max-energy window.

    The window is the cyclic support_len-window of largest energy,
    smallest start on ties, and values holds the inverse FFT on it.  In
    "fallback" mode signal is zero outside the window, as the sparse
    algorithms promise; in "baseline" mode signal is the dense inverse
    FFT whole, as the comparison baseline.
    """
    if mode not in ("fallback", "baseline"):
        raise ValidationError(f"dense mode must be 'fallback' or 'baseline', got {mode!r}")
    n = len(accessor)
    if not 1 <= support_len <= n:
        raise InvalidSupportLength(f"support length {support_len} outside [1, {n}]")
    dense = fft_inverse(accessor.read_all())
    support = SupportDescriptor(int(np.argmax(window_energies(dense, support_len))), support_len)
    result = Reconstruction(support, dense[support.indices(n)], n, accessor.read_count, mode)
    if mode == "baseline":
        result.__dict__["signal"] = dense  # the cached_property's slot
    return result


def reconstruct_exact(accessor: CountingSpectrumAccessor, support_len: int) -> ExactReconstruction:
    """Recover a vector with support length <= support_len from exact data.

    With L = ceil(log2 support_len) < J-1, the sparse path consumes at
    most 2**(L+1) + 2 < 4*support_len + 2 distinct spectrum values on
    such data, and never more than 2**(L+2) on any input; for
    L >= J-1 a single dense inverse FFT is the cheapest correct option
    and is used as the fallback.  The result holds the support_len
    window values; the N-length vector is built only when its signal
    is read.
    """
    n = len(accessor)
    j = accessor.log2_len
    if not 1 <= support_len <= n:
        raise InvalidSupportLength(f"support length {support_len} outside [1, {n}]")
    level = ceil_log2(support_len)

    if level >= j - 1:
        return ExactReconstruction(**_base_fields(reconstruct_dense(accessor, support_len)), fold_level=level)

    fold_len = 1 << (level + 1)
    stride = 1 << (j - level - 1)
    subsampled = accessor.read(stride * np.arange(fold_len, dtype=np.int64))
    folded = fft_inverse(subsampled)
    if not folded.any():
        return ExactReconstruction(
            SupportDescriptor(0, support_len),
            np.zeros(support_len, dtype=np.complex128),
            n,
            accessor.read_count,
            "sparse",
            fold_level=level,
        )

    start = find_support_start(folded, support_len)
    window = folded[(start + np.arange(support_len, dtype=np.int64)) % fold_len]

    k, odd_value = select_odd_sample(accessor, level, subsampled)
    reference = window_spectrum_sample(window, start, 2 * k + 1, n)
    if abs(reference) == 0:
        raise DegenerateQuotient("window transform vanished at the chosen odd index")
    shift, phase_index = resolve_shift(odd_value / reference, k, j - level - 1)

    return ExactReconstruction(
        SupportDescriptor((start + fold_len * shift) % n, support_len),
        window,
        n,
        accessor.read_count,
        "sparse",
        fold_level=level,
        block_shift=shift,
        phase_index=phase_index,
    )
