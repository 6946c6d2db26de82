"""The benchmark's per-layer names still point at spfft code that runs.

perfbench reports a layer it cannot find as 0, so a rename or a bypass
inside spfft would zero a per-layer metric without notice.  These tests
read BENCHMARK.json (and never write it).
"""

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import spfft
from spfft.dft_core import CountingSpectrumAccessor, fft_forward
from spfft.signal_lab import NoiseSpec, add_noise, gen_sparse_signal
from spfft.sparse_exact import reconstruct_exact
from spfft.sparse_noisy import reconstruct_noisy

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
MODULES = {info.name for info in pkgutil.iter_modules(spfft.__path__)}
FUNCTION_METRICS = [
    name
    for name in (metric["name"] for metric in SPEC["per_layer"])
    if len(name.split(".")) >= 3
    and name.split(".")[0] in MODULES
    and name.split(".")[1] != "accessor"
]


def test_there_are_function_metrics():
    assert "sparse_exact.window_energies.self_ms" in FUNCTION_METRICS


@pytest.mark.parametrize("name", FUNCTION_METRICS)
def test_per_layer_function_exists(name):
    module, function = name.split(".")[:2]
    assert callable(getattr(importlib.import_module(f"spfft.{module}"), function, None)), name


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the traced window helpers, wrapped where perfbench wraps them."""
    counts = {}
    namespaces = [spfft] + [importlib.import_module(f"spfft.{name}") for name in sorted(MODULES)]
    for module_name, function in (
        ("sparse_exact", "window_energies"),
        ("sparse_exact", "window_spectrum_sample"),
        ("sparse_noisy", "offset_periodization"),
    ):
        original = getattr(importlib.import_module(f"spfft.{module_name}"), function)
        counts[function] = 0

        def counted(*args, _original=original, _function=function, **kwargs):
            counts[_function] += 1
            return _original(*args, **kwargs)

        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, attr, counted)
    return counts


def test_reconstruct_exact_calls_the_traced_helpers(calls):
    x, supp = gen_sparse_signal(1 << 12, 20, 3)
    rec = reconstruct_exact(CountingSpectrumAccessor(fft_forward(x)), 20)
    assert rec.support == supp
    assert calls["window_energies"] >= 1
    assert calls["window_spectrum_sample"] >= 1


def test_reconstruct_noisy_calls_the_traced_helpers(calls):
    x, _ = gen_sparse_signal(1 << 12, 20, 3)
    noisy, _ = add_noise(fft_forward(x), NoiseSpec(seed=3, snr_db=10.0))
    rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 20)
    assert rec.mode == "sparse"
    assert calls["window_energies"] >= 1
    assert calls["window_spectrum_sample"] >= 1
    assert calls["offset_periodization"] >= 1
