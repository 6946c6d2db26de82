import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spfft.dft_core import fft_forward

settings.register_profile(
    "spfft",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("spfft")


@pytest.fixture
def example_256():
    """Known-answer instance: length 256, support of length 6 starting at 105."""
    x = np.zeros(256, dtype=np.complex128)
    x[105] = 8
    x[107] = -3
    x[108] = -5
    x[110] = 2
    return x


@pytest.fixture
def doubling_overflow_spectrum():
    """Length-4096 spectrum near the float maximum whose noisy doubling
    comparison |predicted +- measured| leaves the float range (m = 1)."""
    x = np.zeros(4096, dtype=np.complex128)
    x[100] = 8e307
    rng = np.random.default_rng(1)
    u, v = rng.random(4096), rng.random(4096)
    return fft_forward(x) + 0.64e308 * ((u - 0.5) + 1j * (v - 0.5))
