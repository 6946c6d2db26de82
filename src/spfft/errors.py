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
    """Support length that is not an integer in [1, N], or window values
    that are not one per window entry."""


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


class ModelViolation(AlgorithmError):
    """The data are not the exact spectrum of a vector with support at most
    m (noisy data, or a longer support): the fold has energy outside its
    best m-window, or the shift quotient is zero (the odd-indexed values
    probed all read zero, the window transform there vanished, or the
    division underflowed) or off its root-of-unity lattice."""
