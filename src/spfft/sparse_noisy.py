"""Noise-robust sparse recovery from perturbed Fourier data.

The stages of the exact-data algorithm (sparse_exact), made robust:

- fold: as on exact data, plus one more folded vector per offset,
  each the inverse FFT of the spectrum read at the same stride but a
  different offset (offset_periodization).  On exact data every such
  vector has entrywise the modulus of the folded signal.
- locate: the window energies of the vectors are summed, and their
  argmax voted on, until two consecutive votes agree or the budget of
  vectors runs out (_vote).
- place: the folding length is doubled one level at a time, each level
  deciding "shift by half a period or not" from the sign agreement
  between a predicted and a measured odd-indexed value, probed next to
  the spectral peak as on exact data (_double).
- average: the support entries are averaged over all offset vectors,
  after undoing each vector's per-entry phase, which divides the noise
  variance by the number of vectors (_average).
"""

from __future__ import annotations

import itertools

import numpy as np

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, support_length
from .errors import InvalidOffset, NonFiniteSpectrum
from .sparse_exact import (
    Reconstruction,
    _fold,
    _odd_probe,
    _peak,
    _peak_exponent,
    _scaled_energies,
    ceil_log2,
    reconstruct_dense,
    window_spectrum_sample,
)

#: Offset vectors the support vote may compute, the offset-0 one included;
#: each costs 2**(L+1) spectrum reads and one short inverse FFT.
MAX_VECTORS = 8


def offset_periodization(
    accessor: CountingSpectrumAccessor, offset: int, fold_level: int
) -> np.ndarray:
    """Inverse FFT of the stride-subsampled spectrum taken at an offset.

    With stride 2**(J-L-1) and fold length 2**(L+1), offset 0 gives
    exactly the folded signal; any other offset multiplies each folded
    entry by a unit phase, so all offsets share the same entrywise
    modulus when the data are exact.
    """
    stride = 1 << (accessor.log2_len - fold_level - 1)
    if not 0 <= offset < stride:
        raise InvalidOffset(f"subsampling offset {offset} outside [0, {stride})")
    return _fold(accessor, fold_level, offset)[1]


def _vote(accessor: CountingSpectrumAccessor, folded, m: int):
    """Vote on the folded support start over at most MAX_VECTORS offset vectors.

    The first vote uses the energies of folded, the offset-0 vector,
    alone; each later vote uses the running sum of all energy profiles
    computed so far.  Returns (start, stable, vectors, offsets): start
    is the last vote, stable is True when it agrees with the one before,
    False when the budget ran out first.  With stride 2**t, the offsets
    after 0 are 2**(t-1), ..., 2, 1, 3, 5, 7, ...: consecutive offsets
    stay maximally separated, and the odd ones match the odd-index
    probes of the doubling stage, so their reads overlap.  Every energy
    profile is scaled by the one power of two that suits folded, so
    their sum keeps its proportions.
    """
    level = ceil_log2(m)
    t = accessor.log2_len - level - 1
    vectors = [folded]
    offsets = [0]
    e = _peak_exponent(folded)
    energy_sum = _scaled_energies(folded, m, e)
    vote = int(np.argmax(energy_sum))
    more = itertools.chain((1 << r for r in reversed(range(t))), range(3, 1 << t, 2))
    for offset in itertools.islice(more, MAX_VECTORS - 1):
        vectors.append(offset_periodization(accessor, offset, level))
        offsets.append(offset)
        energy_sum += _scaled_energies(vectors[-1], m, e)
        previous, vote = vote, int(np.argmax(energy_sum))
        if vote == previous:
            return vote, True, vectors, offsets
    return vote, False, vectors, offsets


def _double(accessor: CountingSpectrumAccessor, window, start: int, peak: int):
    """Grow the support start from the folded vector to the full length.

    window holds the m folded entries from start on.  At each level j
    the folded support either stays at start or moves by 2**j.  The two
    cases flip the sign of every odd-indexed spectrum value of the
    level-(j+1) folding, so one such value decides.  It is probed right
    next to peak, the spectral peak of the offset-0 subsample: there the
    underlying magnitude is near its maximum, which keeps the sign
    decision reliable deep into the noise (an arbitrary or measured-max
    probe does not).  Each level makes at most m distinct reads; one
    whose probes all read zero, like a tie, goes to "no move".  Returns
    (first_index, blind_levels), blind_levels listing the levels j whose
    probes all read zero.
    """
    j_top = accessor.log2_len
    m = len(window)
    first_index = start
    blind: list[int] = []
    for j in range(ceil_log2(m) + 1, j_top):
        probe_stride = 1 << (j_top - j - 1)
        probe, measured = _odd_probe(accessor, peak, probe_stride, m)
        if measured == 0:
            blind.append(j)
        odd_index = probe // probe_stride  # odd by construction
        predicted = window_spectrum_sample(window, first_index, odd_index, 2 << j)
        try:
            move = abs(predicted - measured) > abs(predicted + measured)
        except OverflowError as exc:  # a modulus above the float maximum
            raise NonFiniteSpectrum(f"doubling comparison at level {j} overflows") from exc
        if move:
            first_index += 1 << j
    return first_index, blind


def _average(vectors, offsets, window_idx, positions, n: int) -> np.ndarray:
    """Phase-corrected mean of the support entries across offset vectors.

    window_idx are the entries of the window in every offset vector,
    positions the indices in [0, n) they stand for.  Each offset vector
    carries the support values multiplied by a known unit phase; undoing
    it and averaging leaves the signal untouched for exact data and
    shrinks the noise variance by the vector count.
    """
    phases = np.exp((2j * np.pi / n) * (np.outer(offsets, positions) % n))
    # row by row, as a running sum: numpy's pairwise sum would round differently
    return sum(np.take(vectors, window_idx, axis=1) * phases) / len(vectors)


def reconstruct_noisy(accessor: CountingSpectrumAccessor, support_len: int) -> Reconstruction:
    """Recover a vector with support length <= support_len from noisy data.

    Stages: fold, locate by an energy vote over at most MAX_VECTORS
    offset vectors (each costs 2**(L+1) spectrum reads), place by
    doubling the folding up to the full length, then average the support
    values over every offset vector computed.  The result holds the
    support_len averaged window values, placed at support.first_index,
    the voted start grown by the doubling moves; its signal, built only
    when read, is exactly zero outside the detected window.
    vectors_used, votes_stable and blind_levels report the vote and
    the doubling.  For fold levels within one of J the dense inverse
    FFT fallback is used (restricted to the best window).
    """
    n = len(accessor)
    level = ceil_log2(support_length(support_len, n))
    if level >= accessor.log2_len - 1:
        return reconstruct_dense(accessor, support_len)

    subsampled, folded = _fold(accessor, level)
    start, stable, vectors, offsets = _vote(accessor, folded, support_len)
    window_idx = SupportDescriptor(start, support_len).indices(len(folded))
    first_index, blind = _double(accessor, folded[window_idx], start, _peak(accessor, subsampled))
    support = SupportDescriptor(first_index % n, support_len)
    values = _average(vectors, offsets, window_idx, support.indices(n), n)
    return Reconstruction(
        support,
        values,
        n,
        accessor.read_count,
        "sparse",
        len(vectors),
        votes_stable=stable,
        blind_levels=blind,
    )
