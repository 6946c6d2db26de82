"""The three benchmark workloads.

Every workload is a closed loop driven by one client: it issues the next
op only after the previous one returned.  Set-up builds the inputs from
the seed through spfft's own generators; the program sees only those
inputs.  An op's timer covers the call into spfft and nothing else:
preparing the next input and checking the output run between ops.

Each op returns an OpRecord.  ``units`` is what the op counts as
(one reconstruction, or the trials of one sweep call); a unit fails on
an exception, a nonzero CLI exit or an output that fails its check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spfft
from spfft import cli, dft_core, experiment, sparse_exact
from spfft.signal_lab import NOISE_STREAM_SALT, NoiseSpec

SNRS = (0.0, 10.0, 20.0, math.inf)
MEM_SUPPORTS = (4, 50, 500)
#: Acceptance-test-1 bound on the exact path's max error, relative to max|x|.
EXACT_TOL = 1e-9


def derive_seed(seed: int, tag: str, index: int) -> int:
    """A 64-bit instance seed from the run seed, the workload and an index."""
    digest = hashlib.blake2b(f"{seed}/{tag}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class OpRecord:
    seconds: float
    units: int = 1
    failed: int = 0
    reads: float = 0.0  # distinct spectrum reads, summed over units
    placed: int = 0  # units whose support start is correct
    err_sparse: float = 0.0  # summed over the units scored for err_ratio
    err_dense: float = 0.0


@dataclass
class Instance:
    """One generated input: the truth is kept as its window only."""

    m: int
    start: int
    window: np.ndarray
    peak: float
    spectrum: np.ndarray


def make_instance(n: int, m: int, seed: int) -> Instance:
    x, support = spfft.gen_sparse_signal(n, m, seed)
    window = x[support.indices(n)].copy()
    return Instance(m, support.first_index, window, float(np.max(np.abs(window))), spfft.fft_forward(x))


def score(signal: np.ndarray, support, inst: Instance, n: int):
    """(placed, stray, max_err) of a reconstruction.

    stray counts nonzero entries outside the reported window, which the
    algorithm promises are exactly zero; max_err is None when the window
    is misplaced.
    """
    inside = signal[support.indices(n)]
    stray = np.count_nonzero(signal.view(np.float64)) - np.count_nonzero(inside.view(np.float64))
    if support.first_index != inst.start or support.length != inst.m:
        return False, stray, None
    return True, stray, float(np.max(np.abs(inside - inst.window)))


class Workload:
    name = ""
    units_per_op = 1
    #: Whether ops score err_ratio; a workload that does not reports 1.
    scores_err_ratio = False

    def __init__(self, seed: int):
        self.seed = seed

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build every input from scratch, replacing any earlier build, and warm up."""
        raise NotImplementedError

    def op(self, k: int) -> OpRecord:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ExactMem(Workload):
    """Sparse exact path on an in-memory spectrum pool at N = 2^20."""

    name = "exact-mem"
    pool_size = 6

    def __init__(self, seed, tiny):
        super().__init__(seed)
        self.n = 1 << (12 if tiny else 20)
        self.pool: list[Instance] = []

    def params(self):
        return {"N": self.n, "m": list(MEM_SUPPORTS), "pool": self.pool_size}

    def setup(self):
        self.pool = []
        for i in range(self.pool_size):
            inst = make_instance(self.n, MEM_SUPPORTS[i % 3], derive_seed(self.seed, self.name, i))
            sparse_exact.reconstruct_exact(dft_core.CountingSpectrumAccessor(inst.spectrum), inst.m)
            self.pool.append(inst)

    def op(self, k):
        inst = self.pool[k % self.pool_size]
        tic = time.perf_counter()
        accessor = dft_core.CountingSpectrumAccessor(inst.spectrum)
        result = sparse_exact.reconstruct_exact(accessor, inst.m)
        seconds = time.perf_counter() - tic
        placed, stray, max_err = score(result.signal, result.support, inst, self.n)
        budget = (1 << (sparse_exact.ceil_log2(inst.m) + 1)) + 2
        ok = placed and stray == 0 and max_err <= EXACT_TOL * inst.peak and result.samples_used <= budget
        return OpRecord(seconds, failed=0 if ok else 1, reads=result.samples_used, placed=int(placed))


def parse_csv(text: str) -> list[dict[str, float]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


class Sweep(Workload):
    """spfft experiment: one trial per SNR level per call, at N = 2^18, m = 50.

    At 2^20 a run holds about 56 trials, too few for steady accuracy
    figures and for a steady memory peak (the peak depends on whether the
    two pool threads' largest temporaries happen to coincide); 2^18 gives
    about four times as many, and the dense FFTs still dominate.
    """

    name = "sweep"
    units_per_op = len(SNRS)
    scores_err_ratio = True
    m = 50
    warmups = 2

    def __init__(self, seed, tiny):
        super().__init__(seed)
        self.n = 1 << (12 if tiny else 18)

    def params(self):
        return {"N": self.n, "m": self.m, "snr_db": [str(s) for s in SNRS], "trials_per_level": 1,
                "algorithm": "noisy", "threads": experiment.thread_count()}

    def _config(self, snrs, index):
        return experiment.ExperimentConfig(
            n=self.n, m=self.m, snr_list=snrs, trials=1,
            seed=derive_seed(self.seed, self.name, index), algorithm="noisy",
        )

    def setup(self):
        for w in range(self.warmups):
            experiment.run_experiment(self._config(SNRS, -1 - w))

    def op(self, k):
        config = self._config(SNRS, k)
        tic = time.perf_counter()
        text = experiment.run_experiment(config)
        seconds = time.perf_counter() - tic
        record = OpRecord(seconds, units=self.units_per_op)
        try:
            rows = parse_csv(text)
        except (ValueError, IndexError):
            rows = []
        if [row.get("snr_db") for row in rows] != list(SNRS) or any(r["trials"] != 1 for r in rows) \
                or rows[-1]["mu_correct_pct"] != 100.0:
            record.failed = record.units
            return record
        record.placed = round(sum(r["mu_correct_pct"] / 100 for r in rows))
        record.reads = sum(r["mean_samples"] for r in rows)
        # Only levels with every trial placed: a misplaced window's error
        # is the whole signal, and mu_correct_pct already counts it.
        for row in rows:
            if math.isfinite(row["snr_db"]) and row["mu_correct_pct"] == 100.0:
                record.err_sparse += row["mean_err_sparse"]
                record.err_dense += row["mean_err_ifft"]
        return record


class CliFile(Workload):
    """spfft reconstruct, in process, over SPF1 files at N = 2^22."""

    name = "cli-file"
    #: (algorithm, m, snr_db) per file: exact and noisy files interleaved.
    files = (("exact", 50, math.inf), ("noisy", 500, 20.0), ("exact", 500, math.inf), ("noisy", 50, 20.0))
    report = re.compile(r"mu=(\d+) .*samples_used=(\d+)")

    def __init__(self, seed, tiny, workdir: Path):
        super().__init__(seed)
        self.n = 1 << (12 if tiny else 22)
        self.workdir = workdir
        self.entries: list[tuple[list[str], int, bool]] = []  # argv, true start, noisy?

    def params(self):
        return {"N": self.n, "files": [f"{a}:m={m}:snr={s}" for a, m, s in self.files]}

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.entries = []
        for i, (algorithm, m, snr) in enumerate(self.files):
            seed = derive_seed(self.seed, self.name, i)
            x, support = spfft.gen_sparse_signal(self.n, m, seed)
            spectrum = spfft.fft_forward(x)
            del x
            if algorithm == "noisy":
                spectrum, _ = spfft.add_noise(spectrum, NoiseSpec(seed=seed ^ NOISE_STREAM_SALT, snr_db=snr))
            freq = self.workdir / f"case{i}.freq.spf1"
            spfft.write_vector_file(freq, spectrum, spfft.DOMAIN_FREQ)
            del spectrum
            argv = ["reconstruct", str(freq), "--m", str(m), "--algorithm", algorithm]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            self.entries.append((argv, support.first_index, algorithm == "noisy"))

    def op(self, k):
        argv, start, noisy = self.entries[k % len(self.entries)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            tic = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - tic
        found = self.report.search(out.getvalue())
        record = OpRecord(seconds)
        if code != 0 or found is None:
            record.failed = 1
            return record
        placed = int(found.group(1)) == start
        record.reads = int(found.group(2))
        record.placed = int(placed)
        if not noisy and not placed:
            record.failed = 1
        return record

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ExactMem, Sweep, CliFile)}
