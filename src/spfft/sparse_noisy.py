"""Noise-robust sparse recovery from perturbed Fourier data.

Three stabilizations on top of the exact-data algorithm:

1. The folded support is located by majority energy voting over several
   vectors, each the inverse FFT of the spectrum subsampled at the same
   stride but a different offset.  For exact data every such vector has
   entrywise the same modulus as the folded signal, so all votes agree;
   under noise, more vectors are drawn until two consecutive votes
   match or the budget runs out.
2. The true window placement is found by doubling the folding length one
   level at a time, deciding "shift by half a period or not" from the
   sign agreement between a predicted and a measured odd-indexed value.
3. The support entries are averaged over all offset vectors computed in
   step 1, after undoing each vector's per-entry phase, which divides
   the noise variance by the number of vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dft_core import CountingSpectrumAccessor, SupportDescriptor, fft_inverse
from .errors import InvalidOffset, InvalidSupportLength, NoVectors, ValidationError
from .sparse_exact import (
    Reconstruction,
    _base_fields,
    _odd_probe,
    ceil_log2,
    reconstruct_dense,
    window_energies,
    window_spectrum_sample,
)


@dataclass(frozen=True)
class NoisyReconstruction(Reconstruction):
    """Result of reconstruct_noisy, with per-stage diagnostics.

    start_votes holds the folded-support votes in the order they were
    cast; doubling_shifts has one entry per doubling level (True means
    the window moved by half the new period); votes_stable is False when
    the vote loop exhausted its budget without two consecutive
    agreements (the last vote is still used -- a best-effort answer, not
    an error).  blind_levels lists the doubling levels j (a move there
    is by 2**j) whose probes all read zero, so that their "no move" was
    not decided by the data; it is empty on data that fit the model.
    """

    start_votes: list[int] = field(default_factory=list)
    doubling_shifts: list[bool] = field(default_factory=list)
    votes_stable: bool = True
    blind_levels: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class SupportEstimate:
    """Outcome of the energy-vote stage: the vectors are reused later.

    subsampled holds the offset-0 stride subsample, the spectrum values
    whose inverse FFT is vectors[0]; the doubling stage takes its peak.
    """

    start: int
    vectors: list[np.ndarray]
    offsets: list[int]
    votes: list[int]
    stable: bool
    subsampled: np.ndarray


def offset_periodization(
    accessor: CountingSpectrumAccessor, offset: int, fold_level: int
) -> np.ndarray:
    """Inverse FFT of the stride-subsampled spectrum taken at an offset.

    With stride 2**(J-L-1) and fold length 2**(L+1), offset 0 gives
    exactly the folded signal; any other offset multiplies each folded
    entry by a unit phase, so all offsets share the same entrywise
    modulus when the data are exact.
    """
    j = accessor.log2_len
    fold_len = 1 << (fold_level + 1)
    stride = 1 << (j - fold_level - 1)
    if not 0 <= offset < stride:
        raise InvalidOffset(f"subsampling offset {offset} outside [0, {stride})")
    return fft_inverse(accessor.read(stride * np.arange(fold_len, dtype=np.int64) + offset))


def _offset_sequence(t: int):
    """Offsets to try after 0: descending powers of two, then odd values.

    2**(t-1), 2**(t-2), ..., 2, 1, 3, 5, 7, ...  keeps consecutive
    offsets maximally separated and matches the odd-index probes of the
    doubling stage, so their reads overlap.
    """
    for r in range(t - 1, -1, -1):
        yield 1 << r
    for odd in range(3, 1 << t, 2):
        yield odd


def estimate_support_start(
    accessor: CountingSpectrumAccessor,
    support_len: int,
    fold_level: int,
    max_vectors: int = 8,
) -> SupportEstimate:
    """Vote on the folded support start over offset vectors.

    The first vote uses the offset-0 energies alone; each later vote uses
    the running mean of all energy profiles computed so far.  Voting
    stops as soon as two consecutive votes agree, or when max_vectors is
    reached (then the estimate is flagged unstable).
    """
    t = accessor.log2_len - fold_level - 1
    subsampled = accessor.read((1 << t) * np.arange(1 << (fold_level + 1), dtype=np.int64))
    vectors = [fft_inverse(subsampled)]
    offsets = [0]
    energy_sum = window_energies(vectors[0], support_len)
    votes = [int(np.argmax(energy_sum))]
    stable = False
    more = _offset_sequence(t)
    while len(vectors) < max_vectors:
        offset = next(more, None)
        if offset is None:
            break
        vectors.append(offset_periodization(accessor, offset, fold_level))
        offsets.append(offset)
        energy_sum += window_energies(vectors[-1], support_len)
        votes.append(int(np.argmax(energy_sum)))
        if votes[-1] == votes[-2]:
            stable = True
            break
    return SupportEstimate(votes[-1], vectors, offsets, votes, stable, subsampled)


def refine_support(
    folded,
    start: int,
    accessor: CountingSpectrumAccessor,
    support_len: int,
    subsampled,
) -> tuple[int, list[bool], list[int]]:
    """Grow the support start from the folded vector to the full length.

    At each level j the folded support either stays at start or moves by
    2**j.  The two cases flip the sign of every odd-indexed spectrum
    value of the level-(j+1) folding, so one such value decides.  The
    probe is taken right next to the spectral peak located by
    subsampled, the stride subsample ``spectrum[stride * r]`` behind the
    folded vector, which the caller has already read: there the
    underlying magnitude is near its maximum, which keeps the sign
    decision reliable deep into the noise (an arbitrary or measured-max
    probe does not).  It is the probe of select_odd_sample, with at most
    support_len distinct reads per level; a level whose probes all read
    zero, like a tie, goes to "no move".  Returns (first_index, shifts,
    blind_levels): shifts[i] is the decision at level L+1+i, and
    blind_levels lists the levels j whose probes all read zero.
    """
    folded = np.asarray(folded, dtype=np.complex128)
    j_top = accessor.log2_len
    fold_len = len(folded)
    level = ceil_log2(fold_len) - 1
    if len(subsampled) != fold_len:
        raise ValidationError(
            f"stride subsample has {len(subsampled)} values, folded vector has {fold_len}"
        )
    window = folded[(start + np.arange(support_len, dtype=np.int64)) % fold_len]

    stride = 1 << (j_top - level - 1)
    peak = stride * int(np.argmax(np.abs(subsampled)))

    first_index = start
    shifts: list[bool] = []
    blind: list[int] = []
    for j in range(level + 1, j_top):
        probe_stride = 1 << (j_top - j - 1)
        probe, measured = _odd_probe(accessor, peak, probe_stride, support_len)
        if measured == 0:
            blind.append(j)
        odd_index = probe // probe_stride  # odd by construction
        predicted = window_spectrum_sample(window, first_index, odd_index, 1 << (j + 1))
        move = abs(predicted - measured) > abs(predicted + measured)
        shifts.append(bool(move))
        if move:
            first_index += 1 << j
    return first_index, shifts, blind


def average_support_values(
    vectors,
    offsets,
    start: int,
    block_shift: int,
    support_len: int,
    total_len: int,
) -> np.ndarray:
    """Phase-corrected mean of the support entries across offset vectors.

    Each offset vector carries the support values multiplied by a known
    unit phase; undoing it and averaging leaves the signal untouched for
    exact data and shrinks the noise variance by the vector count.
    """
    if len(vectors) == 0:
        raise NoVectors("support averaging needs at least one offset vector")
    if len(vectors) != len(offsets):
        raise ValidationError(
            f"{len(vectors)} vectors but {len(offsets)} offsets"
        )
    fold_len = len(vectors[0])
    window_idx = (start + np.arange(support_len, dtype=np.int64)) % fold_len
    positions = (start + fold_len * block_shift + np.arange(support_len, dtype=np.int64)) % total_len
    acc = np.zeros(support_len, dtype=np.complex128)
    for vector, offset in zip(vectors, offsets):
        exponents = (offset * positions) % total_len
        acc += vector[window_idx] * np.exp((2j * np.pi / total_len) * exponents)
    return acc / len(vectors)


def reconstruct_noisy(
    accessor: CountingSpectrumAccessor,
    support_len: int,
    max_vectors: int = 8,
) -> NoisyReconstruction:
    """Recover a vector with support length <= support_len from noisy data.

    Pipeline: energy-vote the folded support start over at most
    max_vectors offset vectors (each costs 2**(L+1) spectrum reads),
    double the folding up to the full length, then average the support
    values over every offset vector computed.  The result holds the
    support_len averaged window values; its signal, built only when
    read, is exactly zero outside the detected window.  For fold levels
    within one of J the dense inverse FFT fallback is used (restricted
    to the best window).
    """
    if max_vectors < 2:
        raise ValidationError(f"max_vectors must be >= 2, got {max_vectors}")
    n = len(accessor)
    j = accessor.log2_len
    if not 1 <= support_len <= n:
        raise InvalidSupportLength(f"support length {support_len} outside [1, {n}]")
    level = ceil_log2(support_len)

    if level >= j - 1:
        return NoisyReconstruction(**_base_fields(reconstruct_dense(accessor, support_len)))

    fold_len = 1 << (level + 1)
    estimate = estimate_support_start(accessor, support_len, level, max_vectors)
    first_index, shifts, blind = refine_support(
        estimate.vectors[0], estimate.start, accessor, support_len, estimate.subsampled
    )
    block_shift = (first_index - estimate.start) // fold_len

    values = average_support_values(
        estimate.vectors, estimate.offsets, estimate.start, block_shift, support_len, n
    )
    return NoisyReconstruction(
        SupportDescriptor(first_index % n, support_len),
        values,
        n,
        accessor.read_count,
        "sparse",
        len(estimate.vectors),
        start_votes=estimate.votes,
        doubling_shifts=shifts,
        votes_stable=estimate.stable,
        blind_levels=blind,
    )
