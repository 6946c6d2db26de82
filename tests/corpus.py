"""Behaviour corpus of the reconstruction algorithms, pinned in data/corpus.json.

cases() builds about 1,000 seeded spectra of length N <= 2**14, each
with a declared support length m: exact data, noisy data from 0 to
40 dB, the dense fallback (m > N/4), zero and period-N/2 inputs,
supports longer than m, spectra scaled by 2**-1050 to 2**1000, spectra
near the float maximum, ones whose noisy doubling comparison overflows,
and NaN values.  Every case runs reconstruct_exact, reconstruct_noisy
and reconstruct_dense in both modes, each on a fresh accessor, and
record() reduces each call to one record: the discrete outcome, a hash
of the distinct indices read, and the values as their L2 norm and one
fixed seeded projection of their direction (raw bytes would change with
the FFT build).  test_corpus.py compares the records with the file.

    PYTHONPATH=src python tests/corpus.py --write   # regenerate the file

Regenerate only when a change is meant to change results, and say
which records changed and why, as for the golden experiment rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from spfft.dft_core import CountingSpectrumAccessor, fft_forward
from spfft.signal_lab import gen_instance, gen_sparse_signal
from spfft.sparse_exact import reconstruct_dense, reconstruct_exact
from spfft.sparse_noisy import reconstruct_noisy

PATH = Path(__file__).with_name("data") / "corpus.json"

RUNS = {
    "exact": reconstruct_exact,
    "noisy": reconstruct_noisy,
    "fallback": reconstruct_dense,
    "baseline": lambda accessor, m: reconstruct_dense(accessor, m, "baseline"),
}

#: A record is a JSON list: the case and run names, then these fields;
#: a failed call stores ERROR_FIELDS instead.
FIELDS = (
    "first_index", "length", "samples_used", "mode", "vectors_used",
    "votes_stable", "blind_levels", "reads", "norm", "proj_re", "proj_im",
)
ERROR_FIELDS = ("error", "message")

PROJECTION_SEED = 20150901


def instance(n, m, seed, snr_db):
    """The spectrum of the experiment trial with this seed and SNR."""
    return gen_instance(n, m, seed, snr_db)[2]


def cases():
    """Yield (name, spectrum, m) for every case, in a fixed order."""
    inf = math.inf
    sizes = [1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 33, 50, 64, 100, 129, 256, 500, 1025, 2000, 4096]
    for j in range(3, 15):
        n = 1 << j
        for m in (m for m in sizes if m <= n // 4):
            for seed in (1, 2):
                yield f"exact/{n}/{m}/{seed}", instance(n, m, 100 * j + seed, inf), m
    for j in range(6, 15):
        n = 1 << j
        for m in (m for m in (1, 3, 8, 20, 50) if m <= n // 4):
            for snr in (0.0, 5.0, 10.0, 20.0, 30.0, 40.0):
                yield f"noisy/{n}/{m}/{snr:g}", instance(n, m, 1000 * j + m, snr), m
    for j in range(3, 13):
        n = 1 << j
        for m in sorted({n // 4 + 1, n // 2, n - 1, n}):
            for snr in (inf, 10.0):
                yield f"fallback/{n}/{m}/{snr:g}", instance(n, m, 2000 + j + m, snr), m
    for j in range(3, 15):
        n = 1 << j
        for m in sorted({1, 2, max(1, n // 8)}):
            yield f"zero/{n}/{m}", np.zeros(n, dtype=np.complex128), m
    for j in range(4, 15):
        n = 1 << j
        for m in (1, 3, 7):
            y, _ = gen_sparse_signal(n // 2, m, 3000 + j + m)
            yield f"period/{n}/{m}", fft_forward(np.tile(y, 2)), m
    for j in range(6, 15):
        n = 1 << j
        for m, true_len in ((1, 2), (4, 5), (4, 8), (10, 20), (16, 40)):
            for snr in (inf, 20.0):
                yield f"long/{n}/{m}/{true_len}/{snr:g}", instance(n, true_len, 4000 + j + m, snr), m
    bases = [(64, 3, inf), (4096, 20, inf), (1024, 5, inf), (64, 30, inf), (4096, 20, 20.0), (1024, 8, 5.0)]
    for k in (-1050, -1040, -1000, -900, -800, -600, -300, 300, 600, 800, 900, 1000):
        for b, (n, m, snr) in enumerate(bases):
            for seed in (1, 2, 3):
                spectrum = instance(n, m, 5000 + 10 * b + seed, snr)
                yield f"scaled/{k}/{n}/{m}/{snr:g}/{seed}", np.ldexp(spectrum.view(np.float64), k).view(np.complex128), m
    for peak in (1.0e308, 1.5e308, 1.7e308):
        for m in (1, 2, 4):
            spectrum = np.ones(64, dtype=np.complex128)
            spectrum[::2] = peak
            yield f"near-max/{peak:g}/{m}", spectrum, m
    for seed in range(1, 7):
        for m in (1, 2):
            x = np.zeros(4096, dtype=np.complex128)
            x[100] = 8e307
            rng = np.random.default_rng(seed)
            u, v = rng.random(4096), rng.random(4096)
            yield f"doubling-overflow/{seed}/{m}", fft_forward(x) + 0.64e308 * ((u - 0.5) + 1j * (v - 0.5)), m
    for n, m in ((64, 3), (1024, 5), (4096, 20)):
        for where in (0, 1, n // 2, n - 1, 7 * n // 16):
            spectrum = instance(n, m, 6000 + m, inf)
            spectrum[where] = np.nan
            yield f"nan/{n}/{m}/{where}", spectrum, m


def _magnitude(spectrum) -> float:
    """Largest finite real or imaginary part of the spectrum: the case's scale."""
    parts = np.abs(spectrum.view(np.float64))
    finite = parts[np.isfinite(parts)]
    return float(finite.max()) if finite.size else 0.0


def _norm_and_projection(values) -> tuple[float, complex]:
    """L2 norm of values, and a fixed seeded complex weighting of values / norm.

    Both are taken after scaling by a power of two, so that neither
    overflows nor loses subnormal values; zero values project to 0.
    """
    parts = values.view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1] if parts.size else 0
    scaled = np.ldexp(parts, -e).view(np.complex128)
    norm = float(np.linalg.norm(scaled))
    if not norm or not math.isfinite(norm):
        return math.ldexp(norm, e), complex(norm * 0.0)
    weights = np.random.Generator(np.random.Philox(key=PROJECTION_SEED)).standard_normal(2 * len(values))
    return math.ldexp(norm, e), complex(weights.view(np.complex128) @ (scaled / norm))


def reads_digest(accessor) -> str:
    """Short hash of the sorted distinct indices the accessor has read."""
    if accessor.read_count == len(accessor):
        indices = np.arange(len(accessor), dtype=np.int64)
    else:
        indices = np.sort(np.fromiter(accessor.accessed_indices, dtype=np.int64))
    return hashlib.blake2b(indices.tobytes(), digest_size=8).hexdigest()


def record(name, run, spectrum, m) -> list:
    """The record of run on a fresh accessor of the spectrum."""
    accessor = CountingSpectrumAccessor(spectrum)
    try:
        with np.errstate(all="ignore"):
            result = RUNS[run](accessor, m)
    except Exception as exc:  # the exception is the behaviour pinned
        return [name, run, type(exc).__name__, str(exc)]
    norm, proj = _norm_and_projection(result.values)
    return [
        name, run, result.support.first_index, result.support.length, result.samples_used,
        result.mode, result.vectors_used, result.votes_stable, result.blind_levels,
        reads_digest(accessor), norm, proj.real, proj.imag,
    ]


def fields(rec: list) -> dict:
    """The named fields of a record, after its case and run names."""
    names = FIELDS if len(rec) == 2 + len(FIELDS) else ERROR_FIELDS
    return dict(zip(names, rec[2:]))


def build():
    """Yield (record, magnitude) for every run of every case."""
    for name, spectrum, m in cases():
        magnitude = _magnitude(spectrum)
        for run in RUNS:
            yield record(name, run, spectrum, m), magnitude


def write(path=PATH) -> int:
    """Write one JSON record per line; returns the number of records."""
    lines = [json.dumps(rec, separators=(",", ":")) for rec, _ in build()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    return len(lines)


def load(path=PATH) -> list[list]:
    return json.loads(path.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/corpus.py --write")
    print(f"wrote {write()} records to {PATH}")
