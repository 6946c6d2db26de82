"""Noise-robust sparse recovery from perturbed Fourier data.

The stages of the exact-data algorithm (sparse_exact), made robust:

- fold, locate and check: reconstruct_exact's own stages, the folded
  vector of length P = 2**ceil_log2(m+1), the start of its max-energy
  window and the fold residual outside it (_locate_residual).  A
  residual of at most RESIDUAL_TOLERANCE, or a zero fold, means exact
  data, which no averaging improves: that fold is placed as the exact
  path places it, by the odd-sample quotient (_place), and the stages
  below do not run.  On exact data the result is reconstruct_exact's.
- extend: any other fold is taken to the noisy first length 2**(L+1),
  L = ceil_log2(m).  When P is shorter (m not a power of two), the odd
  half of that stride subsample is read in one call and interleaved
  with the P subsample, its even half; the inverse FFT of the two is
  the fold of 2**(L+1) entries, the same bits as a direct fold, and its
  start is located again.
- grow: that fold is doubled in length, one level at a time, from the
  spectrum read at half the stride (offset_periodization, _join), until
  two consecutive starts agree or the fold is MAX_VECTORS times its
  first length (_grow).  Each longer fold averages twice as many
  spectrum values per entry, which halves the noise variance of its
  entries, and fixes one more low bit of the start.
- place: the folding length is doubled further, one level at a time,
  each level deciding "shift by half a period or not" by the matched
  filter: the sign of the real part of the predicted odd-indexed values
  times the conjugates of the measured ones, summed over the two
  neighbors of the spectral peak (_double).  The probes do not depend
  on the decisions, so all levels are read in one call, two values per
  level, and their predictions come from one window_spectrum_sample
  call; only the decisions run level by level.

The support values are the grown fold's window.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_inverse, support_length
from .errors import InvalidOffset, NonFiniteSpectrum
from .sparse_exact import (
    RESIDUAL_TOLERANCE,
    Reconstruction,
    _fold,
    _locate,
    _locate_residual,
    _peak,
    _place,
    _scaled,
    ceil_log2,
    reconstruct_dense,
    window_spectrum_sample,
)

#: Largest multiple of the first noisy fold length 2**(L+1) that the fold
#: may grow to, when the fold residual does not certify the P fold; each
#: doubling of the fold costs as many spectrum reads and as long an
#: inverse FFT as the fold it doubles.
MAX_VECTORS = 8


def offset_periodization(
    accessor: CountingSpectrumAccessor, offset: int, fold_level: int
) -> np.ndarray:
    """Inverse FFT of the stride-subsampled spectrum taken at an offset.

    With fold length 2**(fold_level+1) <= N and stride N / 2**(fold_level+1),
    offset 0 gives exactly the folded signal; any other offset
    multiplies each folded entry by a unit phase, so all offsets share
    the same entrywise modulus when the data are exact.  A fold_level
    outside [0, J-1] or an offset outside [0, stride) raises
    InvalidOffset before any read.
    """
    n = len(accessor)
    if not 0 <= fold_level < n.bit_length() - 1:
        raise InvalidOffset(f"fold level {fold_level} outside [0, {n.bit_length() - 2}]")
    stride = n >> (fold_level + 1)
    if not 0 <= offset < stride:
        raise InvalidOffset(f"subsampling offset {offset} outside [0, {stride})")
    return _fold(accessor, fold_level, offset)[1]


@functools.lru_cache(maxsize=None)
def _twiddles(q: int) -> np.ndarray:
    """exp(i*pi*k/q) for k < q, read-only: _join's twiddles, built once per length."""
    turns = np.exp((1j * np.pi / q) * np.arange(q))
    turns.flags.writeable = False
    return turns


def _join(folded, odd) -> np.ndarray:
    """The fold of twice the length from folded, of length Q, and its odd half.

    odd is offset_periodization at half the stride of folded: the
    difference of the two halves of the longer fold, each entry k turned
    by exp(-i*pi*k/Q).  One radix-2 butterfly undoes that.  Both inputs
    are halved before the twiddle product, so that no partial sum
    overflows where the longer fold is finite; one that is not finite
    is returned as such (_locate's energy check rejects it), without a
    numpy warning.
    """
    q = len(folded)
    half = folded / 2
    turned = _twiddles(q) * (odd / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([half + turned, half - turned])


def _grow(accessor: CountingSpectrumAccessor, folded, start: int, m: int):
    """Double the folded vector until its support start settles.

    folded is the first noisy fold, of 2**(L+1) entries, L = ceil_log2(m),
    on data whose P fold the residual did not certify, and start its
    located start.  Each step reads the spectrum at the odd multiples of
    half the current stride, new indices all, and joins their inverse
    FFT with the current fold of length Q into the fold of length 2Q
    (_join).  The start is located again, and the growth stops when it
    agrees with the one before mod Q, when the fold is MAX_VECTORS times
    its first length, or when it has the full length N.  Returns (folded, start, stable): the grown
    fold, the start in it, and whether the growth stopped on agreement.
    """
    stable = False
    longest = min(MAX_VECTORS * len(folded), len(accessor))
    while not stable and len(folded) < longest:
        q = len(folded)
        folded = _join(folded, offset_periodization(accessor, len(accessor) // q // 2, q.bit_length() - 2))
        previous, start = start, _locate(folded, m)
        stable = start % q == previous
    return folded, start, stable


def _double(accessor: CountingSpectrumAccessor, window, start: int, peak: int, level: int):
    """Grow the support start from the folded vector to the full length.

    window holds the m entries from start on of the vector folded to
    length 2**(level+1).  At each level j > level the folded support
    either stays at start or moves by 2**j.  The two cases flip the
    sign of every odd-indexed spectrum value of the level-(j+1)
    folding.  The level's two such values right next to peak, the
    spectral peak of the 2**(L+1) subsample, decide: there the
    underlying magnitude is near its maximum, which keeps the sign
    decision reliable deep into the noise.  The move is taken when
    ``Re sum predicted * conj(measured)`` over both neighbors is
    negative, the matched filter, which is the same test as
    ``sum |predicted - measured|**2 > sum |predicted + measured|**2``.
    The probes peak +- N/2**(j+1) depend only on the level, so every
    level's pair is read in one call, two values per level, and the
    transform of the window, scaled by a power of two (_scaled, which
    keeps the sign and the products in range), at every probe index in
    one window_spectrum_sample call of length N, with the window at
    start.  peak is a multiple of N/2**(level+1), so a window moved on
    by d, a sum of the moves below level j, turns the level's right
    probe by exp(-i*pi*d/2**j) and its left one by the conjugate: one
    scalar exponential per level.  A level whose pair reads exactly zero
    has a zero sum and, like a tie, goes to "no move"; a sum beyond the
    float range raises NonFiniteSpectrum.  Returns (first_index,
    blind_levels), blind_levels listing the levels j whose pair read
    zero.
    """
    n = len(accessor)
    levels = range(level + 1, n.bit_length() - 1)
    probes = [q for j in levels for q in ((peak + (n >> (j + 1))) % n, (peak - (n >> (j + 1))) % n)]
    values = accessor.read(probes).tolist()
    bases = window_spectrum_sample(_scaled(window), start, probes, n).tolist()
    first_index, blind = start, []
    for j, right, left, base_right, base_left in zip(levels, values[::2], values[1::2], bases[::2], bases[1::2]):
        turn = cmath.exp(-1j * math.pi * (first_index - start) / (1 << j))
        score = (turn * base_right * right.conjugate() + turn.conjugate() * base_left * left.conjugate()).real
        if not math.isfinite(score):  # a product above the float maximum
            raise NonFiniteSpectrum(f"doubling comparison at level {j} overflows")
        if not (right or left):
            blind.append(j)
        if score < 0:
            first_index += 1 << j
    return first_index, blind


def reconstruct_noisy(accessor: CountingSpectrumAccessor, support_len: int) -> Reconstruction:
    """Recover a vector with support length <= support_len from noisy data.

    Stages: fold to P = 2**ceil_log2(m+1), m = support_len, and locate,
    as reconstruct_exact does.  A fold whose residual is at most
    RESIDUAL_TOLERANCE, or that is zero, fits the exact model and is
    placed by the odd-sample quotient (_place): the result, its P + 2
    reads when the probe pair is nonzero and the ModelViolation where
    that placement raises it (a longer support that cancels in the
    fold, a nonzero fold whose odd probes all read zero) are
    reconstruct_exact's, with vectors_used 1.  Any other fold is taken
    to 2**(L+1) entries, L = ceil_log2(m), by one read of the odd half
    of that subsample when P is shorter, grown up to MAX_VECTORS times
    that length (each doubling costs as many spectrum reads as the fold
    it doubles) until the located start settles, and its window is
    placed by doubling the folding up to the full length, two reads per
    level (_double).  The result holds the support_len window values,
    placed at support.first_index; its signal, built only when read, is
    exactly zero outside the detected window.  vectors_used (the grown
    fold's length over 2**(L+1)), votes_stable (True on a certified
    fold or on agreement) and blind_levels report the growth and the
    doubling.  For support_len > N/4 the dense inverse FFT fallback is
    used (restricted to the best window).
    """
    n = len(accessor)
    m = support_length(support_len, n)
    if m > n // 4:
        return reconstruct_dense(accessor, m)

    subsampled, folded = _fold(accessor, m.bit_length() - 1)
    start, residual = _locate_residual(folded, m)
    if residual is None or residual <= RESIDUAL_TOLERANCE:
        support, window = _place(accessor, subsampled, folded, start, residual, m)
        return Reconstruction(support, window, n, accessor.read_count, "sparse", 1)
    first_len = 2 << ceil_log2(m)
    if len(folded) < first_len:  # the P subsample is the even half of the first noisy one
        both = np.empty(first_len, dtype=np.complex128)
        both[::2] = subsampled
        both[1::2] = accessor.read(np.arange(n // first_len, n, 2 * n // first_len))
        subsampled, folded = both, fft_inverse(both)
        start = _locate(folded, m)
    grown, start, stable = _grow(accessor, folded, start, m)
    window = grown[SupportDescriptor(start, m).indices(len(grown))]
    level = len(grown).bit_length() - 2  # the grown fold has 2**(level+1) entries
    first_index, blind = _double(accessor, window, start, _peak(accessor, subsampled), level)
    return Reconstruction(
        SupportDescriptor(first_index % n, m),
        window,
        n,
        accessor.read_count,
        "sparse",
        len(grown) // first_len,
        votes_stable=stable,
        blind_levels=blind,
    )
