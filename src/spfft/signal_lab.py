"""Test-signal generation, the noise model, and error metrics.

Random draws are counter-based and keyed directly by the 64-bit seed,
so that generated vectors and injected noise are reproducible across
platforms and golden files stay valid: the window through a Philox
generator, and all noise, add_noise's and an instance's, through one
SplitMix64 stream evaluated at any index (_unit_noise).  An instance is
drawn as its window, support and noise scale (_draw_instance):
gen_instance builds its truth, spectrum and noise arrays, and the draw
itself serves its spectrum at any indices from the window and the
stream, with no length-N array, which is how the experiment's sparse
trials read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft_core import SupportDescriptor, as_vector, as_window, fft_forward, log2_length, support_length
from .errors import CannotCalibrate, ValidationError
from .sparse_exact import window_spectrum_sample

#: Nonzero floor for the two window endpoints, so the generated support
#: length is exactly the requested one.
ENDPOINT_MIN_MODULUS = 0.5

#: Stream separator: trial seed XOR this constant seeds the noise draw.
NOISE_STREAM_SALT = 0x9E3779B97F4A7C15

#: SplitMix64's increment, the odd integer nearest 2**64 / phi: output i of
#: the generator seeded with s is mix64(s + (i + 1) * gamma) mod 2**64.
SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)

#: Indices per block when the noise stream is materialised whole
#: (_unit_stream), so that its temporaries stay a few hundred KiB at any N.
NOISE_BLOCK = 1 << 12


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by the seed's low 64 bits."""
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


@dataclass(frozen=True)
class NoiseSpec:
    """Noise drawn uniformly from a complex disc, scaled to a target SNR.

    snr_db is 20*log10(||spectrum||_2 / ||noise||_2), +inf for none;
    -inf, infinite noise, is not a noise level.  add_noise hits it as
    realised: it rescales its draw so that the noise's own norm gives
    the target against the norm of the spectrum it is given.
    gen_instance and the experiment's trials hit it in expectation: the
    noise is a disc of radius sigma, sigma**2 = 2 ||x||**2 / 10**(snr_db/10),
    whose expected squared norm over the n values, n sigma**2 / 2, sets
    the target against the exact spectrum's norm sqrt(n) * ||x||_2
    (Parseval's identity); see _noise_scale.
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


def add_noise(spectrum, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Perturb a spectrum entrywise; returns (noisy, noise).

    The noise is the unit-disc stream keyed by spec.seed over every index
    (_unit_stream), the stream of gen_instance's noise, rescaled so the
    realized SNR hits the target exactly (up to rounding): its norm is
    ||spectrum|| / 10**(snr_db/20).  An SNR of +inf means no noise, and
    then noisy is the input array itself (as complex128), not a copy.
    CannotCalibrate is raised when the target cannot be hit: a zero
    spectrum, or a noise scale that the float range cannot hold.

    Memory: the noise is drawn and scaled in place in one length-N
    complex array, NOISE_BLOCK indices at a time; the returned noisy and
    noise are the only length-N arrays that outlive the call, so its
    peak beyond the input is two complex arrays.
    """
    spectrum = as_vector(spectrum)
    n = len(spectrum)
    if spec.snr_db == math.inf:
        return spectrum, np.zeros(n, dtype=np.complex128)
    signal_norm = _root_sum_squares(spectrum)
    if signal_norm == 0:
        raise CannotCalibrate("cannot target a finite SNR on a zero spectrum")
    noise = _unit_stream(spec.seed, n)
    unit_norm = _root_sum_squares(noise)
    try:
        scale = signal_norm / (unit_norm * 10 ** (spec.snr_db / 20))
    except (OverflowError, ZeroDivisionError):
        scale = math.nan
    if not 0 < scale < math.inf:
        raise CannotCalibrate(f"no finite nonzero noise scale reaches {spec.snr_db} dB SNR")
    np.multiply(scale, noise, out=noise)
    return spectrum + noise, noise


def _splitmix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Outputs number `counters` (a uint64 array) of the SplitMix64 generator seeded with seed.

    Output i is mix64(seed + (i + 1) * SPLITMIX_GAMMA) mod 2**64, the
    value the sequential generator (Steele, Lea & Flood, OOPSLA 2014)
    returns on its (i + 1)-th call, here at any i without the calls
    before it.  numpy's uint64 arithmetic wraps mod 2**64.
    """
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (counters + np.uint64(1)) * SPLITMIX_GAMMA
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _unit_noise(seed: int, idx: np.ndarray) -> np.ndarray:
    """The unit-disc noise stream keyed by seed, at the int64 indices idx.

    Index k takes r and a from SplitMix64 outputs 2k and 2k + 1, each as
    its top 53 bits times 2**-53, uniform on [0, 1), and is
    sqrt(r) * exp(1j * (2 * pi * a)): uniform on the unit disc, with
    E|u|**2 = 1/2 and E|u| = 2/3.  Each value depends on its index
    alone, so the stream read in any split or order gives the same bits.
    """
    counters = 2 * np.asarray(idx, dtype=np.int64).astype(np.uint64) + np.array([[0], [1]], dtype=np.uint64)
    r, a = (_splitmix64(seed, counters) >> np.uint64(11)) * 2.0**-53
    return np.sqrt(r) * np.exp(1j * (2 * np.pi * a))


def _unit_stream(seed: int, n: int) -> np.ndarray:
    """_unit_noise(seed, arange(n)), filled NOISE_BLOCK indices at a time into one complex array."""
    noise = np.empty(n, dtype=np.complex128)
    for lo in range(0, n, NOISE_BLOCK):
        noise[lo : lo + NOISE_BLOCK] = _unit_noise(seed, np.arange(lo, min(lo + NOISE_BLOCK, n)))
    return noise


def _noise_scale(window, snr_db: float) -> float:
    """sigma, the disc radius of an instance's noise at snr_db; 0.0 at +inf.

    sigma**2 = 2 ||window||**2 / 10**(snr_db/10): with E|u|**2 = 1/2 the
    noise's expected squared norm over n values is n * ||window||**2 /
    10**(snr_db/10), so the *expected* SNR against the exact spectrum's
    norm, sqrt(n) * ||window|| by Parseval's identity, is the target, at
    any n.  CannotCalibrate is raised when it cannot be: a zero window,
    or a sigma that the float range cannot hold.
    """
    if snr_db == math.inf:
        return 0.0
    norm = _root_sum_squares(window)
    if norm == 0:
        raise CannotCalibrate("cannot target a finite SNR on a zero spectrum")
    try:
        sigma = math.sqrt(2) * norm / 10 ** (snr_db / 20)
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not 0 < sigma < math.inf:
        raise CannotCalibrate(f"no finite nonzero noise scale reaches {snr_db} dB SNR")
    return sigma


@dataclass(frozen=True, eq=False)
class _Draw:
    """One instance as drawn: m window values at support in a length-n vector, and its noise.

    The spectrum is the forward FFT of the embedded window plus sigma
    times the unit-disc stream keyed by spec.seed (_unit_noise):
    arrays() builds it whole, as gen_instance returns it, and draw[idx]
    computes it at idx alone, from the window and the stream there (the
    spectrum that experiment's sparse trials read, with no length-n
    array).  sigma is _noise_scale's, 0.0 at snr_db = +inf.
    """

    n: int
    support: SupportDescriptor
    window: np.ndarray
    spec: NoiseSpec
    sigma: float

    def noise(self, idx: np.ndarray) -> np.ndarray:
        """The noise at an int64 index array: sigma * _unit_noise(spec.seed, idx)."""
        return self.sigma * _unit_noise(self.spec.seed, idx)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        """The spectrum at an int64 index array in [0, n), computed from the window, plus the noise there.

        A full stride subsample, offset + (n/q) * arange(q) with offset
        < n/q, is one length-q FFT: that of the window turned by
        exp(-2i*pi * offset * (start + l) / n) and folded mod q, the
        periodization identity.  Any other read is window_spectrum_sample's.
        Either agrees with the FFT of the embedded window to rounding;
        the noise is that of arrays(), to the bit.
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
        if self.sigma:
            values += self.noise(idx)
        return values

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(truth, spectrum, noise): the window embedded, its forward FFT plus the noise, and the noise.

        The noise is the stream over arange(n) (_unit_stream) times
        sigma, in place, so that it is noise(idx)'s to the bit; zeros at
        snr_db = +inf, where the spectrum is the FFT alone.
        """
        truth = self.support.embed(self.window, self.n)
        spectrum = fft_forward(truth)
        if not self.sigma:
            return truth, spectrum, np.zeros(self.n, dtype=np.complex128)
        noise = _unit_stream(self.spec.seed, self.n)
        np.multiply(self.sigma, noise, out=noise)
        spectrum += noise
        return truth, spectrum, noise


def _draw_instance(n: int, m: int, seed: int, snr_db: float) -> _Draw:
    """The draw that gen_instance materialises: its window and its noise scale, no length-n array.

    The NoiseSpec is built first, so that a NaN or -inf snr_db is
    rejected before any draw; the noise scale is set next, so that
    CannotCalibrate is raised before any spectrum value is computed.
    """
    spec = NoiseSpec(seed=seed ^ NOISE_STREAM_SALT, snr_db=snr_db)
    window, support = _draw_window(n, m, seed)
    return _Draw(n, support, window, spec, _noise_scale(window, snr_db))


def gen_instance(
    n: int, m: int, seed: int, snr_db: float
) -> tuple[np.ndarray, SupportDescriptor, np.ndarray, np.ndarray]:
    """One random instance: (truth, support, spectrum, noise).

    truth and support are gen_sparse_signal(n, m, seed); spectrum is the
    forward FFT of truth plus noise, sigma times the unit-disc stream
    keyed by seed ^ NOISE_STREAM_SALT (_unit_noise) at every index, with
    sigma**2 = 2 ||x||**2 / 10**(snr_db/10), so that the *expected* SNR
    against the exact spectrum's norm is the target (add_noise instead
    rescales the stream to hit a realised SNR); at snr_db = +inf the
    exact spectrum and zero noise.  `spfft gen` and every experiment
    trial draw their instances here (_draw_instance), so a trial's seed
    replays it: this function materialises the very draw that a trial
    reads through its window, its noise to the bit.  The NoiseSpec is
    built first, so that a NaN or -inf snr_db is rejected before any
    draw or transform.
    """
    draw = _draw_instance(n, m, seed, snr_db)
    truth, spectrum, noise = draw.arrays()
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
