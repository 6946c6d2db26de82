"""Reference transforms and measurements used only by the tests.

The quadratic-time DFT is the independent oracle for the FFT pair; the
folding (periodization) operator and its spectral counterpart (stride
subsampling) state the identity the sparse algorithms rest on; the
recording accessor shows which spectrum values a call read, in order;
the odd probe that scans one index per call is the reference for the
exact placement's probe, and the per-level doubling for the batched
one; the integer SplitMix64 loop is the reference for the noise stream
of add_noise, gen_instance and the experiment's trials, and the
one-expression scaling of it for add_noise's in-place one; the direct sum of
the window transform is the reference for its baby-step giant-step
evaluation.
Imported by the test modules as ``oracle``.
"""

import math

import numpy as np

from spfft.dft_core import CountingSpectrumAccessor, log2_length
from spfft.errors import InvalidOffset, ValidationError
from spfft.signal_lab import NoiseSpec, _root_sum_squares
from spfft.sparse_exact import _modulus, window_spectrum_sample


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


def reference_window_spectrum_sample(window, first_index: int, freq_index, length: int):
    """sparse_exact.window_spectrum_sample as the direct sum: m exponentials per sample.

    ``sum_l window[l] * exp(-2i*pi * freq_index * (first_index + l) / length)``
    with exponents reduced mod length before evaluation; one complex for
    an int freq_index, an array of its shape for an int array.
    """
    window = np.asarray(window, dtype=np.complex128)
    offsets = first_index + np.arange(len(window), dtype=np.int64)
    freq_index = np.asarray(freq_index, dtype=np.int64)[..., None]
    phases = np.exp((-2j * np.pi / length) * ((freq_index * offsets) % length))
    # the window takes the phases' rank: numpy rounds a (1, 1) by (1,) product unlike
    # a 1-D one; summed by numpy in one thread: a BLAS dot rounds with the thread count
    samples = (window.reshape((1,) * (phases.ndim - 1) + (-1,)) * phases).sum(axis=-1)
    return complex(samples) if samples.ndim == 0 else samples


def reference_add_noise(spectrum, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """signal_lab.add_noise at a finite SNR, drawn and scaled in one expression each.

    The unit-disc noise is reference_unit_noise(spec.seed) at every
    index, scaled so that its norm is the spectrum's norm / 10**(snr_db/20).
    add_noise must return the same bytes.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = len(spectrum)
    unit = reference_unit_noise(spec.seed, range(n))
    scale = _root_sum_squares(spectrum) / (_root_sum_squares(unit) * 10 ** (spec.snr_db / 20))
    noise = scale * unit
    return spectrum + noise, noise


MASK64 = (1 << 64) - 1
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64(seed: int):
    """The sequential SplitMix64 generator in Python integers: yields its outputs in order, without end.

    Each call adds the increment to the 64-bit state and returns the
    state's mix64 (Steele, Lea & Flood, OOPSLA 2014).
    """
    state = seed & MASK64
    while True:
        state = (state + SPLITMIX_GAMMA) & MASK64
        yield _mix64(state)


def splitmix64_at(seed: int, i: int) -> int:
    """Output i of splitmix64(seed), from the state after its i + 1 additions: seed + (i + 1) * gamma mod 2**64."""
    return _mix64((seed + (i + 1) * SPLITMIX_GAMMA) & MASK64)


def reference_unit_noise(seed: int, idx) -> np.ndarray:
    """signal_lab._unit_noise: index k is sqrt(r) * exp(1j * (2 * pi * a)), with r and a
    the top 53 bits of splitmix64_at(seed, 2k) and of (seed, 2k + 1), times 2**-53.

    The integers and their conversions are Python's; the last expression
    is numpy's, as in _unit_noise, so that the two agree to the bit.
    """
    idx = [int(k) for k in idx]
    r = np.array([(splitmix64_at(seed, 2 * k) >> 11) * 2.0**-53 for k in idx])
    a = np.array([(splitmix64_at(seed, 2 * k + 1) >> 11) * 2.0**-53 for k in idx])
    return np.sqrt(r) * np.exp(1j * (2 * np.pi * a))


class RecordingAccessor(CountingSpectrumAccessor):
    """Counting accessor that also keeps the indices of every read that returned.

    calls holds one index list per read call, in order; a read_all call
    is the range of every index.  A read that raised served nothing and
    is not kept.
    """

    def __init__(self, spectrum):
        super().__init__(spectrum)
        self.calls: list[list[int] | range] = []

    def read(self, indices):
        values = super().read(indices)
        self.calls.append(np.atleast_1d(indices).tolist())
        return values

    def read_all(self):
        values = super().read_all()
        self.calls.append(range(len(self)))
        return values


def odd_probe(accessor, center: int, budget: int) -> tuple[int, complex]:
    """(index, value) of the largest-modulus odd probe next to an even center, one scan index per call.

    Both neighbors center +- 1 are read in one call, whatever the budget.
    Only if both are exactly zero are the odd indices read, one index per
    call in increasing order, skipping the neighbors, until budget
    distinct indices were probed or the odd indices run out.  The pick is
    the largest modulus, the first read on ties: the right neighbor
    first, and with its zero when all read zero.  sparse_exact._probe
    must return the same pair, and read the same indices, with its scan
    in one call.
    """
    n = len(accessor)
    probes = [(center + 1) % n, (center - 1) % n]
    values = accessor.read(probes).tolist()
    odd = 1
    while values[:2] == [0, 0] and len(probes) < budget and odd < n:
        if odd not in probes[:2]:
            probes.append(odd)
            values.append(complex(accessor.read([odd])[0]))
        odd += 2
    best = 0
    for k in range(1, len(probes)):
        if _modulus(values[k]) > _modulus(values[best]):
            best = k
    return probes[best], values[best]


def per_level_double(accessor, window, start: int, peak: int, level: int):
    """sparse_noisy._double one level at a time: (first_index, blind_levels).

    Each level reads its probe pair peak +- N/2**(j+1) with one call and
    predicts each probed value with one scalar window_spectrum_sample
    call at the start found so far, at the probe's odd index in the
    level's own length 2**(j+1), where _double takes the probe's index
    in the length N.  The level moves by 2**j when
    ``sum |predicted - measured|**2 > sum |predicted + measured|**2``
    over the pair, the matched filter that _double evaluates as the sign
    of ``Re sum predicted * conj(measured)``.
    """
    n = len(accessor)
    j_top = n.bit_length() - 1
    first_index = start
    blind = []
    for j in range(level + 1, j_top):
        probe_stride = 1 << (j_top - j - 1)
        probes = [(peak + probe_stride) % n, (peak - probe_stride) % n]
        measured = accessor.read(probes).tolist()
        if measured == [0, 0]:
            blind.append(j)
        predicted = [window_spectrum_sample(window, first_index, q // probe_stride, 2 << j) for q in probes]
        moved = sum(abs(p - v) ** 2 for p, v in zip(predicted, measured))
        kept = sum(abs(p + v) ** 2 for p, v in zip(predicted, measured))
        if moved > kept:
            first_index += 1 << j
    return first_index, blind
