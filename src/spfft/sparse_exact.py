"""Sparse recovery from exact Fourier data, and the stages both sparse paths share.

A length-N vector that vanishes outside a cyclic window of m entries is
recovered in stages:

- fold: the spectrum read at stride N/P, inverse transformed, is the
  vector folded to length P, a power of two above m, which holds the
  window intact (_fold);
- locate: the folded support starts at the argmax of window_energies,
  taken after scaling by a power of two (_locate);
- check: the fold's energy outside that window, over its total, is the
  fold residual (_locate_residual, which also locates); on exact data it
  is rounding, and above RESIDUAL_TOLERANCE it raises ModelViolation
  before any further read;
- place: one odd-indexed spectrum value next to the subsample's peak
  (_peak, _probe: the larger of the two neighbors, or, if both read
  zero, the largest of one read of further odd values), divided by the
  transform of the folded window there, is a root of unity whose
  exponent fixes which of the N/P candidate placements is the true one
  (_resolve_shift); a quotient of zero or off that lattice raises
  ModelViolation.  _place runs this stage on any certified fold.

The exact path folds to P = 2**ceil_log2(m+1), the shortest power of
two above m, and reads P + 2 <= 2m + 2 spectrum values in all on
exact data, and 2P on the zero vector, in at most three read calls.
sparse_noisy runs the same fold, locate and check stages, and _place on
a fold the residual certifies; it folds to 2**(L+1), L = ceil(log2 m),
and grows from there only when the residual fails.
When m > N/4 the sparse paths hand over to reconstruct_dense, the one
dense inverse FFT of the package.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_inverse, support_length
from .errors import InvalidSupportLength, ModelViolation, NonFiniteSpectrum, ValidationError


@dataclass(frozen=True)
class Reconstruction:
    """Recovered support window, its m values and how they were obtained.

    values holds the entries on support, a fresh array of support.length
    values; n is the length N of the recovered vector, which is zero
    outside the window.  signal, the N-length vector itself, is built
    on first access and cached; in "baseline" mode it is the whole dense
    inverse FFT, whose entries outside the window need not be zero.
    samples_used is the accessor's read_count, the spectrum values the
    call read; no algorithm reads an index twice.  mode is
    "sparse" for the sublinear algorithms, "fallback" when they handed
    over to the dense inverse FFT (support length above N/4), and
    "baseline" for the dense inverse FFT requested as such.
    The window's placement is support.first_index.  The rest is set by
    the noisy algorithm only: vectors_used is the length of its grown
    fold over its first fold length 2**(L+1): 1 when the fold residual
    certified the exact path's fold of P entries, which the odd-sample
    quotient then placed, else 2, 4 or 8; votes_stable is True on a
    certified fold, and False when the growth stopped before two
    consecutive support starts agreed (the last start is still used -- a
    best-effort answer, not an error); blind_levels lists the doubling levels j (a move there is by
    2**j) whose probe pair read zero, so that their "no move" was not
    decided by the data; it is empty on a certified fold, which is not
    doubled, and on noisy data that fit the model.
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


#: Largest fold residual, the norm of the fold outside the located
#: window over the fold's norm, that fits the exact model: above it
#: reconstruct_exact raises, and at or below it reconstruct_noisy places
#: the same fold of length P ungrown, by the odd-sample quotient.
#: On exact data the outside entries are rounding of the FFTs: at most
#: 2.7e-16 on 2,400 instances with N from 2**6 to 2**18, 3.1e-16 at
#: N = 2**22 with P up to 2**21, and 0 on spectra scaled by 2**-1030 to
#: 2**-1060.  Noise gave at least
#: 1.5e-5 at 60 dB and 2.2e-7 at 100 dB on that fold (400 instances
#: each), and in a further draw at least 3.3e-5 at 60 dB, 9.1e-8 at
#: 100 dB, 1.8e-9 at 140 dB and 2.8e-11 at 180 dB (300 instances each,
#: N from 2**6 to 2**14); a true support in (m, 2P] gave at least 9.7e-4
#: (2,400).
RESIDUAL_TOLERANCE = 1e-12


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
    by scaling each vector by a power of two first (_scaled).
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


def _scaled(values) -> np.ndarray:
    """values, a contiguous complex128 vector, times 2**-e.

    e is the exponent of the largest modulus (in [2**(e-1), 2**e); 0 if
    all are 0): the largest square then lies in [1/4, 1), so the
    energies of finite values neither overflow nor all underflow.  At
    ordinary magnitudes the scaling is exact and keeps the argmax of the
    energies; np.ldexp applies it where 2.0**-e itself would overflow.
    """
    e = math.frexp(np.abs(values).max())[1]
    return np.ldexp(values.view(np.float64), -e).view(np.complex128)


def _locate(values, window_len: int) -> int:
    """Start of the max-energy cyclic window_len-window of values, the first on ties.

    The energies are those of the values scaled by a power of two (_scaled).
    """
    return int(window_energies(_scaled(values), window_len).argmax())


def _locate_residual(folded, window_len: int) -> tuple[int, float | None]:
    """(start, residual): _locate's start in folded, and the fold residual there.

    The fold residual is the norm of folded outside its window_len-window
    at start over the norm of folded, None when folded is zero.  The
    outside squares of the scaled fold (_scaled) are summed directly,
    not as a difference of prefix sums, so that exact data give
    rounding-level residuals at any fold length; the sum is numpy's
    single-threaded reduction, not a BLAS dot.
    """
    scaled = _scaled(folded)
    energies = window_energies(scaled, window_len)
    start = int(energies.argmax())
    window_energy = float(energies[start])
    if not window_energy:
        return start, None
    outside = np.concatenate((scaled, scaled))[start + window_len : start + len(scaled)].view(np.float64)
    outside_energy = float(np.einsum("i,i->", outside, outside))
    return start, math.sqrt(outside_energy / (outside_energy + window_energy))


def window_spectrum_sample(window, first_index: int, freq_index, length: int):
    """DFT samples of a window embedded at first_index in a length-`length` vector.

    ``sum_l window[l] * exp(-2i*pi * freq_index * (first_index + l) / length)``
    with exponents reduced mod length before evaluation.  For an int
    freq_index it is one complex; for an int array it is an array of
    that shape, entry by entry the same samples.

    Evaluated by baby steps and giant steps: for a window of m entries,
    b = ceil(sqrt(m)), q = ceil(m/b), each offset is l = b*k + r, and
    each sample is ``sum_k G_k * sum_r window[b*k + r] * B_r`` over the
    baby phases B_r at r < b and the giant phases G_k at first_index +
    b*k, k < q.  That is b + q exponentials (about 2*sqrt(m)) and about
    m multiply-adds per sample, where the direct sum takes m
    exponentials.  The window is zero-padded to q*b entries.  The int64
    exponents stay below 2**61 for freq_index < length <= 2**30 and
    first_index + b*q < 2**31.
    """
    window = np.asarray(window, dtype=np.complex128)
    m = len(window)
    b = math.isqrt(max(m - 1, 0)) + 1
    q = -(-m // b)
    steps = np.concatenate((np.arange(b), np.arange(first_index, first_index + b * q, b)))
    freq_index = np.asarray(freq_index, dtype=np.int64)[..., None]
    phases = np.exp((-2j * np.pi / length) * ((freq_index * steps) % length))
    blocks = np.zeros(q * b, dtype=np.complex128)
    blocks[:m] = window
    # two-operand einsums, numpy's own loops in one thread: a BLAS product rounds
    # with the thread count, and a three-operand einsum rounds the array form
    # unlike the scalar form
    partial = np.einsum("kr,...r->...k", blocks.reshape(q, b), phases[..., :b])
    samples = np.einsum("...k,...k->...", partial, phases[..., b:])
    return complex(samples) if samples.ndim == 0 else samples


def _fold(accessor: CountingSpectrumAccessor, level: int, offset: int = 0):
    """(subsampled, folded) at fold level `level`, for 0 <= offset < stride.

    subsampled is ``spectrum[stride * r + offset]`` for r < 2**(level+1),
    stride = N / 2**(level+1), and folded its inverse FFT: at offset 0
    the vector folded to length 2**(level+1), at any other offset that
    vector with each entry turned by a unit phase.
    """
    stride = len(accessor) >> (level + 1)
    subsampled = accessor.read(np.arange(offset, len(accessor), stride, dtype=np.int64))
    return subsampled, fft_inverse(subsampled)


def _peak(accessor: CountingSpectrumAccessor, subsampled) -> int:
    """Spectrum index of the largest-modulus value of a stride subsample."""
    return len(accessor) // len(subsampled) * int(np.abs(subsampled).argmax())


def _modulus(value: complex) -> float:
    """abs(value), or inf where the modulus overflows (Python's abs raises there, np.abs does not)."""
    try:
        return abs(value)
    except OverflowError:
        return math.inf


def _probe(accessor: CountingSpectrumAccessor, center: int, budget: int) -> tuple[int, complex]:
    """(index, value) of the largest-modulus odd probe read next to an even center.

    The neighbors spectrum[center +- 1] are read in one call.  If both
    read exactly zero, one further read, the scan, takes the odd indices
    in increasing order, skipping the pair, up to budget probes in all
    (none at a budget of two or less).  A window of at most budget
    entries with a nonzero transform is nonzero at one of any budget
    distinct frequencies.  The pick is the largest modulus, the first in
    the order right neighbor, left neighbor, scan: the right neighbor
    wins ties and is returned, with its zero, when all read zero.
    """
    n = len(accessor)
    indices = [(center + 1) % n, (center - 1) % n]
    read = accessor.read(indices).tolist()
    if budget > 2 and not any(read):
        scan = [q for q in range(1, n, 2)[:budget] if q not in indices][: budget - 2]
        indices, read = indices + scan, read + accessor.read(scan).tolist()
    best = max(read, key=_modulus)  # the first of the largest moduli
    return indices[read.index(best)], best


def _resolve_shift(quotient: complex, odd: int, t: int) -> int:
    """Invert ``quotient = exp(-2i*pi * odd * shift / 2**t)`` for the shift.

    Rounds the phase to the nearest 2**t-th root of unity.  A quotient
    of 0 (the odd values probed all read zero, the window transform
    vanished there, or the division underflowed) or a phase more than a
    quarter step away from the lattice means the data cannot have come
    from an exact spectrum, and ModelViolation is raised.  Returns the
    shift in [0, 2**t).
    """
    if quotient == 0:
        raise ModelViolation(
            f"shift quotient at odd index {odd} is zero: the odd-indexed spectrum values "
            f"probed all read zero, the window transform there vanished, or the quotient "
            f"underflowed; data are not an exact spectrum"
        )
    modulus = 1 << t
    steps = -cmath.phase(quotient) * modulus / (2 * math.pi)
    nearest = round(steps)
    if abs(steps - nearest) > 0.25:
        raise ModelViolation(
            f"shift quotient is {abs(steps - nearest):.3f} steps off its root-of-unity lattice "
            f"(phase {steps:.6f} steps); data are not an exact spectrum"
        )
    return int(nearest) * pow(odd, -1, modulus) % modulus


def _place(accessor: CountingSpectrumAccessor, subsampled, folded, start: int, residual, m: int):
    """(support, window): the m-window at start of a fold the residual certified, placed.

    subsampled is the offset-0 stride subsample whose inverse FFT is
    folded, and residual its fold residual at start (_locate_residual),
    None on a zero fold.  The odd probe next to the subsample's peak
    (_peak, _probe), divided by the window's transform there, resolves
    the shift among the N / len(folded) placements (_resolve_shift).  A
    zero fold is the zero vector, at start, only if every odd probe
    reads zero too: a nonzero vector with at most m < len(folded) <= N/2
    support entries is not zero at all of len(folded) distinct odd
    indices, and a longer support that cancels in the fold has a zero
    window transform there, which raises ModelViolation.
    """
    n = len(accessor)
    window = np.take(folded, np.arange(start, start + m), mode="wrap")
    odd, odd_value = _probe(accessor, _peak(accessor, subsampled), len(folded))
    shift = 0
    if residual is not None or odd_value:
        reference = window_spectrum_sample(window, start, odd, n)
        quotient = odd_value / reference if reference else 0j
        shift = _resolve_shift(quotient, odd, n.bit_length() - len(folded).bit_length())
    return SupportDescriptor((start + len(folded) * shift) % n, m), window


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
    start = _locate(dense, support_len)  # raises if the energies overflow
    support = SupportDescriptor(start if support_len < n else 0, support_len)
    result = Reconstruction(support, dense[support.indices(n)], n, accessor.read_count, mode)
    if mode == "baseline":
        result.__dict__["signal"] = dense  # the cached_property's slot
    return result


def reconstruct_exact(accessor: CountingSpectrumAccessor, support_len: int) -> Reconstruction:
    """Recover a vector with support length <= support_len from exact data.

    With m = support_len <= N/4, the spectrum is folded to length
    P = 2**ceil_log2(m+1), the shortest power of two above m, and the
    sparse path's samples_used is P + 2 <= 2m + 2 on such data, and
    never more than 2P on any input.  A fold residual above
    RESIDUAL_TOLERANCE, which noise or a support longer than m gives,
    raises ModelViolation after the P fold reads, before any other.  A
    zero fold is the zero vector, after 2P reads in three read calls
    (fold, neighbor pair, scan), only if the odd probes read zero too;
    a longer support that cancels in the fold raises
    ModelViolation in placement, as do odd probes that all read zero
    on a nonzero fold.  For m > N/4 a single dense inverse FFT is the
    cheapest correct option and is used as the fallback.  The result
    holds the m window values, placed at support.first_index =
    start + P * shift, with start the folded support start and shift
    the one the quotient resolved; the N-length vector is built only
    when its signal is read.
    """
    n = len(accessor)
    m = support_length(support_len, n)
    if m > n // 4:
        return reconstruct_dense(accessor, m)

    level = m.bit_length() - 1  # the fold of length P = 2**(level+1) = 2**ceil_log2(m+1)
    subsampled, folded = _fold(accessor, level)
    start, residual = _locate_residual(folded, m)
    if residual is not None and residual > RESIDUAL_TOLERANCE:
        raise ModelViolation(
            f"fold residual {residual:.3g} exceeds {RESIDUAL_TOLERANCE:g}: the data are not "
            f"the exact spectrum of a vector with support at most {m}"
        )
    support, window = _place(accessor, subsampled, folded, start, residual, m)
    return Reconstruction(support, window, n, accessor.read_count, "sparse")
