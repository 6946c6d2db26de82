"""Sparse recovery from exact Fourier data, and the stages both sparse paths share.

A length-N vector that vanishes outside a cyclic window of m entries is
recovered in stages, with L = ceil(log2 m):

- fold: the spectrum read at stride 2**(J-L-1), inverse transformed,
  is the vector folded to length 2**(L+1) (_fold);
- locate: the folded support starts at the argmax of window_energies,
  taken after scaling by a power of two (_scaled_energies);
- place: one odd-indexed spectrum value next to the subsample's peak
  (_peak, _odd_probe), divided by the transform of the folded window
  there, is a root of unity whose exponent fixes which of the
  2**(J-L-1) candidate placements is the true one (_resolve_shift).

That is just under 4m spectrum values in all.  sparse_noisy reuses the
fold, locate and probe stages.  When m > N/4 no placement is left to
resolve, and reconstruct_dense, the one dense inverse FFT of the
package, is used.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_inverse, support_length
from .errors import (
    DegenerateQuotient,
    InvalidSupportLength,
    NoisyQuotient,
    NonFiniteSpectrum,
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
    The window's placement is support.first_index.  The rest is set by
    the noisy algorithm only: vectors_used counts its offset vectors;
    votes_stable is False when its support vote exhausted the budget
    without two consecutive agreements (the last vote is still used --
    a best-effort answer, not an error); blind_levels lists the doubling
    levels j (a move there is by 2**j) whose probes all read zero, so
    that their "no move" was not decided by the data, and is empty on
    data that fit the model.
    """

    support: SupportDescriptor
    values: np.ndarray
    n: int
    samples_used: int
    mode: str
    vectors_used: int = 0
    votes_stable: bool = True
    blind_levels: list[int] = field(default_factory=list)

    @functools.cached_property
    def signal(self) -> np.ndarray:
        """The length-n vector: values on the support window, zeros elsewhere."""
        return self.support.embed(self.values, self.n)


def ceil_log2(m: int) -> int:
    """Smallest L with m <= 2**L."""
    return int(m - 1).bit_length()


def window_energies(values, window_len: int) -> np.ndarray:
    """Energy of every cyclic window of window_len entries.

    ``out[k] = sum_{l=k}^{k+window_len-1} |values[l mod n]|^2``, evaluated
    with prefix sums: the O(n) sliding recursion
    ``e_{k+1} = e_k - |v_k|^2 + |v_{k+window_len}|^2`` in vector form.
    NonFiniteSpectrum is raised when an energy is NaN or infinite: when
    a value is, or when the squares overflow, which the algorithms avoid
    by scaling each vector by a power of two first (_scaled_energies).
    """
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    if not 1 <= window_len <= n:
        raise InvalidSupportLength(f"window length {window_len} outside [1, {n}]")
    sq = values.real**2 + values.imag**2
    prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([sq, sq[:window_len]]))])
    energies = prefix[window_len : window_len + n] - prefix[:n]
    # the prefix sums do not decrease, and the last energy starts from the
    # last one used, so it is finite exactly when every energy is
    if not math.isfinite(energies[-1]):
        raise NonFiniteSpectrum(f"window energies of {n} values are not finite")
    return energies


def _peak_exponent(values) -> int:
    """e with the largest modulus of values in [2**(e-1), 2**e); 0 if they are all 0."""
    return math.frexp(np.abs(values).max())[1]


def _scaled_energies(values, window_len: int, e: int) -> np.ndarray:
    """window_energies(values * 2**-e) for a contiguous complex128 vector.

    With e = _peak_exponent(values) the largest square lies in [1/4, 1),
    so the energies of finite values neither overflow nor all underflow.
    At ordinary magnitudes the scaling is exact and keeps the argmax of
    the energies; np.ldexp applies it where 2.0**-e itself would overflow.
    """
    return window_energies(np.ldexp(values.view(np.float64), -e).view(np.complex128), window_len)


def window_spectrum_sample(window, first_index: int, freq_index: int, length: int) -> complex:
    """One DFT sample of a window embedded at first_index in a length-`length` vector.

    ``sum_l window[l] * exp(-2i*pi * freq_index * (first_index + l) / length)``
    with exponents reduced mod length before evaluation.
    """
    window = np.asarray(window, dtype=np.complex128)
    offsets = first_index + np.arange(len(window), dtype=np.int64)
    exponents = (freq_index * offsets) % length
    return complex(window @ np.exp((-2j * np.pi / length) * exponents))


def _fold(accessor: CountingSpectrumAccessor, level: int, offset: int = 0):
    """(subsampled, folded) at fold level `level`, for 0 <= offset < stride.

    subsampled is ``spectrum[stride * r + offset]`` for r < 2**(level+1),
    stride = 2**(J-level-1), and folded its inverse FFT: at offset 0
    the vector folded to length 2**(level+1), at any other offset that
    vector with each entry turned by a unit phase.
    """
    stride = 1 << (accessor.log2_len - level - 1)
    subsampled = accessor.read(stride * np.arange(2 << level, dtype=np.int64) + offset)
    return subsampled, fft_inverse(subsampled)


def _peak(accessor: CountingSpectrumAccessor, subsampled) -> int:
    """Spectrum index of the largest-modulus value of a stride subsample."""
    return len(accessor) // len(subsampled) * int(np.argmax(np.abs(subsampled)))


def _odd_probe(
    accessor: CountingSpectrumAccessor, center: int, probe_stride: int, budget: int
) -> tuple[int, complex]:
    """(index, value) of the larger of spectrum[center +- probe_stride].

    center is an even multiple of probe_stride < N/2.  Both neighbors
    are read in one call, cut to budget entries; the right one wins ties.
    Only if all are exactly zero are the odd multiples probe_stride*(2k+1)
    read in turn, skipping the neighbors, until one is nonzero or budget
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
    scan = (q for q in range(probe_stride, n, 2 * probe_stride) if q not in probes)
    for q in itertools.islice(scan, budget - len(probes)):
        value = accessor.read([q])[0]
        if value != 0:
            return q, complex(value)
    return int(probes[0]), 0j


def _resolve_shift(quotient: complex, odd: int, t: int) -> int:
    """Invert ``quotient = exp(-2i*pi * odd * shift / 2**t)`` for the shift.

    Rounds the phase to the nearest 2**t-th root of unity; a phase more
    than a quarter step away means the data cannot have come from an
    exact spectrum, and NoisyQuotient is raised.  Returns the shift in
    [0, 2**t).
    """
    modulus = 1 << t
    steps = -np.angle(quotient) * modulus / (2 * np.pi)
    nearest = round(steps)
    if abs(steps - nearest) > 0.25:
        raise NoisyQuotient(
            f"phase {steps:.6f} steps is {abs(steps - nearest):.3f} from the nearest "
            f"root-of-unity lattice point; data are not an exact spectrum"
        )
    return int(nearest) * pow(odd, -1, modulus) % modulus


def reconstruct_dense(
    accessor: CountingSpectrumAccessor, support_len: int, mode: str = "fallback"
) -> Reconstruction:
    """Dense inverse FFT of the whole spectrum, with its max-energy window.

    The window is the cyclic support_len-window of largest energy,
    smallest start on ties, and values holds the inverse FFT on it; at
    support_len = N every window is the whole vector, and start 0 is
    taken, so that values is the inverse FFT unrotated.  In
    "fallback" mode signal is zero outside the window, as the sparse
    algorithms promise; in "baseline" mode signal is the dense inverse
    FFT whole, as the comparison baseline.
    """
    if mode not in ("fallback", "baseline"):
        raise ValidationError(f"dense mode must be 'fallback' or 'baseline', got {mode!r}")
    n = len(accessor)
    support_length(support_len, n)
    dense = fft_inverse(accessor.read_all())
    energies = _scaled_energies(dense, support_len, _peak_exponent(dense))  # raises if they overflow
    support = SupportDescriptor(int(np.argmax(energies)) if support_len < n else 0, support_len)
    result = Reconstruction(support, dense[support.indices(n)], n, accessor.read_count, mode)
    if mode == "baseline":
        result.__dict__["signal"] = dense  # the cached_property's slot
    return result


def reconstruct_exact(accessor: CountingSpectrumAccessor, support_len: int) -> Reconstruction:
    """Recover a vector with support length <= support_len from exact data.

    With L = ceil_log2(support_len) < J-1, the sparse path's
    samples_used is at most 2**(L+1) + 2 < 4*support_len + 2 on such
    data, and never more than 2**(L+2) on any input; for L >= J-1 a
    single dense inverse FFT is the cheapest correct option and is used
    as the fallback.  The result holds the support_len window values,
    placed at support.first_index = start + 2**(L+1) * shift, with start
    the folded support start and shift the one the quotient resolved;
    the N-length vector is built only when its signal is read.
    """
    n = len(accessor)
    level = ceil_log2(support_length(support_len, n))
    if level >= accessor.log2_len - 1:
        return reconstruct_dense(accessor, support_len)

    subsampled, folded = _fold(accessor, level)
    start = int(np.argmax(_scaled_energies(folded, support_len, _peak_exponent(folded))))
    window = folded[SupportDescriptor(start, support_len).indices(len(folded))]
    shift = 0
    if folded.any():  # the zero vector, at start 0, has nothing to place
        # A nonzero vector with at most 2**L <= N/4 support entries is not
        # zero at all of 2**(L+1) distinct odd indices.
        odd, odd_value = _odd_probe(accessor, _peak(accessor, subsampled), 1, len(subsampled))
        if odd_value == 0:
            raise ZeroSignal(f"all {len(subsampled)} odd-indexed spectrum values probed are zero")
        reference = window_spectrum_sample(window, start, odd, n)
        if reference == 0:
            raise DegenerateQuotient("window transform vanished at the chosen odd index")
        quotient = odd_value / reference
        if quotient == 0:  # underflow: odd_value is nonzero, but tiny next to reference
            raise DegenerateQuotient("shift quotient is zero")
        shift = _resolve_shift(quotient, odd, accessor.log2_len - level - 1)

    return Reconstruction(
        SupportDescriptor((start + len(folded) * shift) % n, support_len),
        window,
        n,
        accessor.read_count,
        "sparse",
    )
