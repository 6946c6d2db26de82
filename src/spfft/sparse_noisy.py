"""Noise-robust sparse recovery from perturbed Fourier data.

The stages of the exact-data algorithm (sparse_exact), made robust:

- fold, locate and check: as on exact data, the folded vector of length
  2**(L+1), the start of its max-energy window and the fold residual
  outside it (_locate_residual).
- grow: unless the residual is at most RESIDUAL_TOLERANCE or the fold is
  zero (exact data, which no averaging improves), the fold is doubled
  in length, one level at a time, from the spectrum read at half the
  stride (offset_periodization, _join), until two consecutive starts
  agree or the fold is MAX_VECTORS times its first length (_grow).
  Each longer fold averages twice as many spectrum values per entry,
  which halves the noise variance of its entries, and fixes one more
  low bit of the start.
- place: the folding length is doubled further, one level at a time,
  each level deciding "shift by half a period or not" from the sign
  agreement between a predicted and a measured odd-indexed value,
  probed next to the spectral peak by the exact path's _probe
  (_double).  The probes do not depend on the decisions, so all levels
  are read in one call and their predictions come from one
  window_spectrum_sample call; only the decisions run level by level.

The support values are the grown fold's window.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, support_length
from .errors import InvalidOffset, NonFiniteSpectrum
from .sparse_exact import (
    RESIDUAL_TOLERANCE,
    Reconstruction,
    _fold,
    _locate,
    _locate_residual,
    _peak,
    _probe,
    ceil_log2,
    reconstruct_dense,
    window_spectrum_sample,
)

#: Largest multiple of the first fold length 2**(L+1) that the fold may
#: grow to, when the fold residual does not certify the first fold; each
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
    turned = np.exp((1j * np.pi / q) * np.arange(q)) * (odd / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([half + turned, half - turned])


def _grow(accessor: CountingSpectrumAccessor, folded, m: int):
    """Double the folded vector until its support start settles.

    folded is the fold at level L = ceil_log2(m).  A fold whose residual
    outside its located window is at most RESIDUAL_TOLERANCE, or that is
    zero, fits the exact model and is returned as it is, with no read
    (_locate_residual, the exact path's check).  Otherwise each step
    reads the spectrum at the odd multiples of half the current stride,
    new indices all, and joins their inverse FFT with the current fold
    of length Q into the fold of length 2Q (_join).  The start is
    located again, and the growth stops when it agrees with the one
    before mod Q, when the fold is MAX_VECTORS times its first length,
    or when it has the full length N.  Returns (folded, level, start,
    stable): the grown fold, its level (2**(level+1) entries), the start
    in it, and whether the growth stopped on the residual or on
    agreement.
    """
    level = ceil_log2(m)
    start, residual = _locate_residual(folded, m)
    stable = residual is None or residual <= RESIDUAL_TOLERANCE
    longest = min(MAX_VECTORS * len(folded), len(accessor))
    while not stable and len(folded) < longest:
        q = len(folded)
        folded = _join(folded, offset_periodization(accessor, len(accessor) // q // 2, level))
        level += 1
        previous, start = start, _locate(folded, m)
        stable = start % q == previous
    return folded, level, start, stable


def _double(accessor: CountingSpectrumAccessor, window, start: int, peak: int, level: int):
    """Grow the support start from the folded vector to the full length.

    window holds the m entries from start on of the vector folded to
    length 2**(level+1).  At each level j > level the folded support
    either stays at start or moves by 2**j.  The two cases flip the
    sign of every odd-indexed spectrum value of the level-(j+1)
    folding, so one such value decides.  It is probed right next to
    peak, the spectral peak of the offset-0 subsample: there the
    underlying magnitude is near its maximum, which keeps the sign
    decision reliable deep into the noise (an arbitrary or measured-max
    probe does not).  The probes peak +- N/2**(j+1) depend only on the
    level, so every level's pair is read in one _probe call, and the
    window's transform at every level's probe index in one
    window_spectrum_sample call of length N, with the window at 0; the
    levels' decisions then turn it to the start found so far, one
    scalar product each.  A level whose pair reads exactly zero gets
    one more read call, its scan of further odd probes, and takes the
    largest modulus among them (_probe); each level reads at most
    max(m, 2) values, and one whose probes all read zero, like a tie,
    goes to "no move".  Returns (first_index, blind_levels),
    blind_levels listing the levels j whose probes all read zero.
    """
    n = len(accessor)
    levels = range(level + 1, n.bit_length() - 1)
    probes = _probe(accessor, peak, [n >> (j + 1) for j in levels], len(window))
    blind = [j for j, (_, value) in zip(levels, probes) if value == 0]
    bases = window_spectrum_sample(window, 0, [index for index, _ in probes], n)
    first_index = start
    for j, base, (index, value) in zip(levels, bases.tolist(), probes):
        predicted = base * cmath.exp((-2j * math.pi / n) * (index * first_index % n))
        try:
            move = abs(predicted - value) > abs(predicted + value)
        except OverflowError as exc:  # a modulus above the float maximum
            raise NonFiniteSpectrum(f"doubling comparison at level {j} overflows") from exc
        if move:
            first_index += 1 << j
    return first_index, blind


def reconstruct_noisy(accessor: CountingSpectrumAccessor, support_len: int) -> Reconstruction:
    """Recover a vector with support length <= support_len from noisy data.

    Stages: fold, locate, and, unless the fold residual certifies the
    first fold (at most RESIDUAL_TOLERANCE, or a zero fold), grow the
    fold up to MAX_VECTORS times its first length 2**(L+1) (each
    doubling costs as many spectrum reads as the fold it doubles) until
    the located start settles; place by doubling the folding up to the
    full length.  On exact data that is 2**(L+1) fold reads and two
    probes per doubling level, when no probe pair reads zero.  The
    result holds the support_len window values of the grown fold,
    placed at support.first_index, the start in the grown fold moved by
    the doubling; its signal, built only when read, is exactly zero
    outside the detected window.  vectors_used (the grown fold's length
    over 2**(L+1), 1 on a certified first fold), votes_stable (True on
    a certified first fold or on agreement) and blind_levels report the
    growth and the doubling.  For support_len > N/4 the dense inverse
    FFT fallback is used (restricted to the best window).
    """
    n = len(accessor)
    if support_length(support_len, n) > n // 4:
        return reconstruct_dense(accessor, support_len)

    subsampled, folded = _fold(accessor, ceil_log2(support_len))
    grown, grown_level, start, stable = _grow(accessor, folded, support_len)
    window = grown[SupportDescriptor(start, support_len).indices(len(grown))]
    first_index, blind = _double(accessor, window, start, _peak(accessor, subsampled), grown_level)
    return Reconstruction(
        SupportDescriptor(first_index % n, support_len),
        window,
        n,
        accessor.read_count,
        "sparse",
        len(grown) // len(folded),
        votes_stable=stable,
        blind_levels=blind,
    )
