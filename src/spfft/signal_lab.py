"""Test-signal generation, the noise model, and error metrics.

Random draws go through a counter-based Philox generator keyed directly
by the 64-bit seed, so that generated vectors and injected noise are
reproducible across platforms and golden files stay valid.  An
instance is drawn as its window, support and noise (_draw_instance):
gen_instance builds its truth and spectrum arrays, and the draw itself
serves its spectrum at any indices from the window, with no length-N
transform, which is how the experiment's sparse trials read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dft_core import SupportDescriptor, as_vector, as_window, fft_forward, log2_length, support_length
from .errors import CannotCalibrate, ValidationError
from .sparse_exact import window_spectrum_sample

#: Nonzero floor for the two window endpoints, so the generated support
#: length is exactly the requested one.
ENDPOINT_MIN_MODULUS = 0.5

#: Stream separator: trial seed XOR this constant seeds the noise draw.
NOISE_STREAM_SALT = 0x9E3779B97F4A7C15


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by the seed's low 64 bits."""
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


@dataclass(frozen=True)
class NoiseSpec:
    """Noise drawn uniformly from a complex disc, scaled to a target SNR.

    snr_db is 20*log10(||spectrum||_2 / ||noise||_2), +inf for none;
    -inf, infinite noise, is not a noise level.  ||spectrum||_2 is the
    norm of the exact spectrum: gen_instance and the experiment's trials
    take it by Parseval's identity as sqrt(N) * ||x||_2, and add_noise
    as the norm of the spectrum it is given.
    """

    seed: int
    snr_db: float

    def __post_init__(self):
        if math.isnan(self.snr_db):
            raise ValidationError("snr_db must not be NaN")
        if self.snr_db == -math.inf:
            raise ValidationError("snr_db must not be -inf")


def _draw_window(n: int, m: int, seed: int) -> tuple[np.ndarray, SupportDescriptor]:
    """gen_sparse_signal's draw as (values, support): the m window values, no length-n vector."""
    log2_length(n)
    support_length(m, n)
    rng = philox_rng(seed)
    first_index = int(rng.integers(0, n))
    values = rng.uniform(-10, 10, m) + 1j * rng.uniform(-10, 10, m)
    for end in (0,) if m == 1 else (0, m - 1):
        while abs(values[end]) < ENDPOINT_MIN_MODULUS:
            values[end] = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
    return values, SupportDescriptor(first_index, m)


def gen_sparse_signal(n: int, m: int, seed: int) -> tuple[np.ndarray, SupportDescriptor]:
    """Random vector supported on exactly m consecutive (cyclic) entries.

    The window start is uniform on [0, n); entries are i.i.d. uniform on
    the box [-10, 10]^2 in Re/Im; the two endpoints are redrawn until
    their modulus reaches ENDPOINT_MIN_MODULUS so the support length
    cannot collapse below m.  Deterministic given the seed.
    """
    values, support = _draw_window(n, m, seed)
    return support.embed(values, n), support


def _root_sum_squares(*parts) -> float:
    """Euclidean norm of complex vectors taken together.

    Each part's squares are summed by one single-threaded numpy
    reduction (einsum) over its contiguous float64 view, so the last bit
    does not depend on the BLAS thread count, as a threaded dot's does;
    add_noise's scale, hence every noisy instance, rests on it.  Only
    when that sum overflows (silently) are the parts summed again scaled
    by 2**-e, with 2**e just above their largest real or imaginary part,
    and the root scaled back by 2**e, so that a norm the float range
    holds is returned finite.
    """
    flats = [np.ascontiguousarray(part, dtype=np.complex128).view(np.float64) for part in parts]
    with np.errstate(over="ignore"):
        total = sum(float(np.einsum("i,i->", flat, flat)) for flat in flats)
    if total != math.inf:
        return math.sqrt(total)
    e = math.frexp(max(float(np.abs(flat).max(initial=0.0)) for flat in flats))[1]
    scaled = [np.ldexp(flat, -e) for flat in flats]
    return math.ldexp(math.sqrt(sum(float(np.einsum("i,i->", flat, flat)) for flat in scaled)), e)


def _draw_noise(n: int, spec: NoiseSpec, signal_norm: float) -> np.ndarray:
    """The noise add_noise adds at a finite SNR to a spectrum of n values and norm signal_norm.

    The noise is drawn at unit scale and rescaled so that its norm is
    signal_norm / 10**(snr_db/20).  CannotCalibrate is raised when the
    target cannot be hit: a zero signal_norm, or a noise scale that the
    float range cannot hold.  The noise is built in one length-n complex
    array, with two length-n float arrays (radius and angle, half a
    complex array each) while it is drawn: a peak of two complex arrays.
    """
    if signal_norm == 0:
        raise CannotCalibrate("cannot target a finite SNR on a zero spectrum")
    # uniform on the unit disc: the radius is drawn first, then the angle;
    # each step runs in place with the kernel and operand order of
    # sqrt(r) * exp(1j * (2 * pi * a)), so the noise is that product to the bit
    rng = philox_rng(spec.seed)
    radius = rng.random(n)
    np.sqrt(radius, out=radius)
    angle = rng.random(n)
    angle *= 2 * np.pi
    noise = 1j * angle
    del angle
    np.exp(noise, out=noise)
    np.multiply(radius, noise, out=noise)
    del radius
    unit_norm = _root_sum_squares(noise)
    try:
        scale = signal_norm / (unit_norm * 10 ** (spec.snr_db / 20))
    except (OverflowError, ZeroDivisionError):
        scale = math.nan
    if not 0 < scale < math.inf:
        raise CannotCalibrate(f"no finite nonzero noise scale reaches {spec.snr_db} dB SNR")
    np.multiply(scale, noise, out=noise)
    return noise


def add_noise(spectrum, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Perturb a spectrum entrywise; returns (noisy, noise).

    The noise is drawn at unit scale and rescaled so the realized SNR
    hits the target exactly (up to rounding); an SNR of +inf means no
    noise, and then noisy is the input array itself (as complex128), not
    a copy.  CannotCalibrate is raised when the target cannot be hit: a
    zero spectrum, or a noise scale that the float range cannot hold.

    Memory: the noise is drawn as _draw_noise draws it, in two
    complex arrays at its peak; the returned noisy and noise are the
    only length-N arrays that outlive the call, so its peak beyond the
    input is two complex arrays.
    """
    spectrum = as_vector(spectrum)
    n = len(spectrum)
    if spec.snr_db == math.inf:
        return spectrum, np.zeros(n, dtype=np.complex128)
    noise = _draw_noise(n, spec, _root_sum_squares(spectrum))
    return spectrum + noise, noise


@dataclass(eq=False)
class _Draw:
    """One instance as drawn: m window values at support in a length-n vector, and its noise.

    The spectrum is the forward FFT of the embedded window plus the
    noise: arrays() builds it whole, as gen_instance returns it, and
    draw[idx] computes it at idx alone from the window (the spectrum
    that experiment's sparse trials read, with no length-n FFT).
    """

    n: int
    support: SupportDescriptor
    window: np.ndarray
    spec: NoiseSpec
    _noise: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def noise(self) -> np.ndarray | None:
        """The noise, drawn on first access as add_noise draws it, or None at snr_db = +inf.

        It is calibrated against the exact spectrum's norm, sqrt(n) *
        ||window|| by Parseval's identity, so that no forward FFT is
        needed to draw it.  A draw belongs to one trial, on one thread;
        functools.cached_property is not used, as before Python 3.12 it
        draws under one lock for all instances, which serialises the
        trials of a thread pool.
        """
        if self._noise is None and self.spec.snr_db != math.inf:
            self._noise = _draw_noise(self.n, self.spec, math.sqrt(self.n) * _root_sum_squares(self.window))
        return self._noise

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        """The spectrum at an int64 index array in [0, n), computed from the window, plus the noise there.

        A full stride subsample, offset + (n/q) * arange(q) with offset
        < n/q, is one length-q FFT: that of the window turned by
        exp(-2i*pi * offset * (start + l) / n) and folded mod q, the
        periodization identity.  Any other read is window_spectrum_sample's.
        Either agrees with the FFT of the embedded window to rounding.
        """
        n, q, start = self.n, idx.size, self.support.first_index
        stride = n // q if q else 0
        if q and n % q == 0 and idx[0] < stride and np.array_equal(idx, idx[0] + stride * np.arange(q)):
            offsets = start + np.arange(len(self.window), dtype=np.int64)
            turned = self.window * np.exp((-2j * np.pi / n) * ((int(idx[0]) * offsets) % n))
            lead = start % q  # the window's first entry lands at lead in the fold
            rows = np.zeros(-(-(lead + len(turned)) // q) * q, dtype=np.complex128)
            rows[lead : lead + len(turned)] = turned
            values = np.fft.fft(rows.reshape(-1, q).sum(axis=0))
        else:
            values = window_spectrum_sample(self.window, start, idx, n)
        if self.noise is not None:
            values += self.noise[idx]
        return values

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(truth, spectrum): the window embedded, and its forward FFT plus the noise.

        Called before the noise is read, it transforms first and draws
        the noise after, so that the FFT's buffers and the noise draw's
        never coexist.
        """
        truth = self.support.embed(self.window, self.n)
        spectrum = fft_forward(truth)
        if self.noise is not None:
            spectrum += self.noise
        return truth, spectrum


def _draw_instance(n: int, m: int, seed: int, snr_db: float) -> _Draw:
    """The draw that gen_instance materialises: its window now, its noise when first read.

    The NoiseSpec is built first, so that a NaN or -inf snr_db is
    rejected before any draw.
    """
    spec = NoiseSpec(seed=seed ^ NOISE_STREAM_SALT, snr_db=snr_db)
    window, support = _draw_window(n, m, seed)
    return _Draw(n, support, window, spec)


def gen_instance(
    n: int, m: int, seed: int, snr_db: float
) -> tuple[np.ndarray, SupportDescriptor, np.ndarray, np.ndarray]:
    """One random instance: (truth, support, spectrum, noise).

    truth and support are gen_sparse_signal(n, m, seed); spectrum is the
    forward FFT of truth plus noise, drawn as add_noise draws it from
    the stream seed ^ NOISE_STREAM_SALT, but calibrated against the
    exact spectrum's norm by Parseval's identity, sqrt(n) * ||x||, not
    against the transform's summed squares (at snr_db = +inf the exact
    spectrum and zero noise).  `spfft gen` and every experiment trial
    draw their instances here (_draw_instance), so a trial's seed
    replays it: this function materialises the very draw that a trial
    reads through its window.  The NoiseSpec is built first, so that a
    NaN or -inf snr_db is rejected before any draw or transform.
    """
    draw = _draw_instance(n, m, seed, snr_db)
    truth, spectrum = draw.arrays()
    noise = np.zeros(n, dtype=np.complex128) if draw.noise is None else draw.noise
    return truth, draw.support, spectrum, noise


def error_l2_over_n(x, y) -> float:
    """Euclidean norm of the difference, divided by the length."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise ValidationError(f"length mismatch: {x.shape} vs {y.shape}")
    return _root_sum_squares(x - y) / len(x)


def _windows_error_l2_over_n(
    support: SupportDescriptor, values, other: SupportDescriptor, other_values, n: int
) -> float:
    """error_l2_over_n(support.embed(values, n), other.embed(other_values, n)) without a length-n vector.

    Each entry of other's window is taken to support's coordinates; on
    the overlap the two values are subtracted, and the entries of either
    window outside the other count whole.  O(m) work.
    """
    values = as_window(values, support.length)
    other_values = as_window(other_values, other.length)
    at = (other.first_index - support.first_index + np.arange(other.length, dtype=np.int64)) % n
    inside = at < support.length
    diff = values.copy()
    diff[at[inside]] -= other_values[inside]
    return _root_sum_squares(diff, other_values[~inside]) / n


def window_error_l2_over_n(truth, support: SupportDescriptor, values, n: int) -> float:
    """error_l2_over_n(truth, support.embed(values, n)) without the length-n vector.

    sqrt(E_off + ||truth_w - values||^2) / n, where w is the window and
    E_off the energy of truth outside it, summed directly over the at
    most two contiguous slices w leaves out (not as ||truth||^2 minus
    ||truth_w||^2, whose cancellation loses the small errors of an exact
    reconstruction).
    """
    truth = np.asarray(truth, dtype=np.complex128)
    if truth.shape != (n,):
        raise ValidationError(f"length mismatch: {truth.shape} vs ({n},)")
    start = support.first_index % n
    end = start + support.length
    outside = (truth[end - n : start],) if end > n else (truth[:start], truth[end:])
    return _root_sum_squares(*outside, truth[support.indices(n)] - as_window(values, support.length)) / n
