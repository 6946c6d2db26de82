"""Test-signal generation, the noise model, and error metrics.

Random draws go through a counter-based Philox generator keyed directly
by the 64-bit seed, so that generated vectors and injected noise are
reproducible across platforms and golden files stay valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft_core import SupportDescriptor, as_vector, as_window, fft_forward, log2_length, support_length
from .errors import CannotCalibrate, ValidationError

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
    -inf, infinite noise, is not a noise level.
    """

    seed: int
    snr_db: float

    def __post_init__(self):
        if math.isnan(self.snr_db):
            raise ValidationError("snr_db must not be NaN")
        if self.snr_db == -math.inf:
            raise ValidationError("snr_db must not be -inf")


def gen_sparse_signal(n: int, m: int, seed: int) -> tuple[np.ndarray, SupportDescriptor]:
    """Random vector supported on exactly m consecutive (cyclic) entries.

    The window start is uniform on [0, n); entries are i.i.d. uniform on
    the box [-10, 10]^2 in Re/Im; the two endpoints are redrawn until
    their modulus reaches ENDPOINT_MIN_MODULUS so the support length
    cannot collapse below m.  Deterministic given the seed.
    """
    log2_length(n)
    support_length(m, n)
    rng = philox_rng(seed)
    first_index = int(rng.integers(0, n))
    values = rng.uniform(-10, 10, m) + 1j * rng.uniform(-10, 10, m)
    for end in (0,) if m == 1 else (0, m - 1):
        while abs(values[end]) < ENDPOINT_MIN_MODULUS:
            values[end] = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
    support = SupportDescriptor(first_index, m)
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

    The noise is drawn at unit scale and rescaled so the realized SNR
    hits the target exactly (up to rounding); an SNR of +inf means no
    noise, and then noisy is the input array itself (as complex128), not
    a copy.  CannotCalibrate is raised when the target cannot be hit: a
    zero spectrum, or a noise scale that the float range cannot hold.
    """
    spectrum = as_vector(spectrum)
    n = len(spectrum)
    if spec.snr_db == math.inf:
        return spectrum, np.zeros(n, dtype=np.complex128)
    signal_norm = _root_sum_squares(spectrum)
    if signal_norm == 0:
        raise CannotCalibrate("cannot target a finite SNR on a zero spectrum")
    # uniform on the unit disc: the radius is drawn first, then the angle
    rng = philox_rng(spec.seed)
    unit = np.sqrt(rng.random(n)) * np.exp(1j * (2 * np.pi * rng.random(n)))
    unit_norm = _root_sum_squares(unit)
    try:
        scale = signal_norm / (unit_norm * 10 ** (spec.snr_db / 20))
    except (OverflowError, ZeroDivisionError):
        scale = math.nan
    if not 0 < scale < math.inf:
        raise CannotCalibrate(f"no finite nonzero noise scale reaches {spec.snr_db} dB SNR")
    noise = scale * unit
    return spectrum + noise, noise


def gen_instance(
    n: int, m: int, seed: int, snr_db: float
) -> tuple[np.ndarray, SupportDescriptor, np.ndarray, np.ndarray]:
    """One random instance: (truth, support, spectrum, noise).

    truth and support are gen_sparse_signal(n, m, seed); spectrum is the
    forward FFT of truth perturbed by add_noise at snr_db, noise the
    perturbation, drawn from the stream seed ^ NOISE_STREAM_SALT (at
    snr_db = +inf the exact spectrum and zero noise).  `spfft gen` and
    every experiment trial draw their instances here, so a trial's seed
    replays it.
    """
    truth, support = gen_sparse_signal(n, m, seed)
    spectrum, noise = add_noise(fft_forward(truth), NoiseSpec(seed=seed ^ NOISE_STREAM_SALT, snr_db=snr_db))
    return truth, support, spectrum, noise


def error_l2_over_n(x, y) -> float:
    """Euclidean norm of the difference, divided by the length."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise ValidationError(f"length mismatch: {x.shape} vs {y.shape}")
    return _root_sum_squares(x - y) / len(x)


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
