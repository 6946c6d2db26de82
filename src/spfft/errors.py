"""Exception hierarchy shared by all spfft modules.

The split into validation / file-format / algorithm branches mirrors the
CLI exit codes (2 / 3 / 4).
"""


class SpfftError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SpfftError, ValueError):
    """Bad parameters or malformed inputs (CLI exit code 2)."""


class InvalidLength(ValidationError):
    """Vector length is not a supported power of two."""


class InvalidOffset(ValidationError):
    """Spectrum index or subsampling offset out of range."""


class InvalidSupportLength(ValidationError):
    """Support length outside [1, N]."""


class NonFiniteSpectrum(ValidationError):
    """A spectrum value read by an algorithm is NaN or infinite, or finite
    values are so large that their window energies or inverse FFT, or a
    doubling comparison of the noisy path, overflow."""


class CannotCalibrate(ValidationError):
    """A target SNR cannot be realized (zero spectrum, zero noise draw, or a
    noise scale outside the float range), or a trial's scores at it are
    not finite."""


class WrongDomain(ValidationError):
    """Vector file holds time-domain data where frequency-domain was expected,
    or vice versa."""


class FileFormatError(SpfftError):
    """Structurally invalid vector file (CLI exit code 3)."""


class AlgorithmError(SpfftError):
    """Reconstruction failed on the given data (CLI exit code 4)."""


class DegenerateQuotient(AlgorithmError):
    """The shift quotient is undefined or zero: the reference odd-indexed
    value vanished (0/0), or the quotient underflowed to 0."""


class NoisyQuotient(AlgorithmError):
    """Shift quotient too far from a root of unity: data are inconsistent
    with the exact-spectrum assumption."""


class ZeroSignal(AlgorithmError):
    """Every odd-indexed spectrum value probed is zero, which a nonzero
    vector with support at most m cannot give."""
