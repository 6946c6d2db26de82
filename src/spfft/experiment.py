"""Reproducible experiment and benchmark harnesses behind the CLI.

Trials run in a thread pool (capped by the SPFFT_THREADS environment
variable), but every trial owns its own seed, accessor and generator
stream, and rows are aggregated in (snr, trial) order, so the emitted
CSV is byte-identical regardless of scheduling.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dft_core import CountingSpectrumAccessor, fft_inverse, log2_length
from .errors import CannotCalibrate, ValidationError
from .signal_lab import error_l2_over_n, gen_instance, window_error_l2_over_n
from .sparse_exact import Reconstruction, reconstruct_dense, reconstruct_exact
from .sparse_noisy import reconstruct_noisy

ALGORITHMS = ("exact", "noisy", "ifft-baseline")

CSV_HEADER = (
    "snr_db,trials,mu_correct_pct,mean_err_sparse,mean_err_ifft,"
    "mean_noise_inf,mean_noise_l1_over_N,mean_samples,mean_kappa_vectors"
)

BENCH_HEADER = "N,m,algorithm,mean_ns,samples_used"


@dataclass(frozen=True)
class TrialRecord:
    """The scores of one reconstruction trial of the experiment harness."""

    mu_correct: bool
    err_sparse: float
    err_ifft: float
    samples_used: int
    vectors_used: int
    noise_inf: float
    noise_l1_over_n: float
    sparse_ns: int
    dense_ns: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment sweep (trials x SNR levels).

    n and m are checked where every trial starts, in gen_sparse_signal,
    before any O(N) work; the algorithm is checked here, since a trial
    meets it only after drawing its instance.
    """

    n: int
    m: int
    snr_list: tuple[float, ...]
    trials: int
    seed: int
    algorithm: str = "noisy"

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_list:
            raise ValidationError("snr_list must not be empty")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )


def thread_count() -> int:
    """Worker-pool size: SPFFT_THREADS if set, else the CPU count."""
    raw = os.environ.get("SPFFT_THREADS")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValidationError(f"SPFFT_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValidationError(f"SPFFT_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def trial_seed(seed: int, index: int) -> int:
    """Per-trial stream: seed XOR the trial's global index."""
    return (seed ^ index) & 0xFFFFFFFFFFFFFFFF


def reconstruct(accessor: CountingSpectrumAccessor, m: int, algorithm: str) -> Reconstruction:
    """Run one of ALGORITHMS."""
    if algorithm == "exact":
        return reconstruct_exact(accessor, m)
    if algorithm == "noisy":
        return reconstruct_noisy(accessor, m)
    if algorithm == "ifft-baseline":
        return reconstruct_dense(accessor, m, "baseline")
    raise ValidationError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")


def reconstruction_error(truth, result: Reconstruction) -> float:
    """error_l2_over_n(truth, result.signal), from the window unless the result is dense."""
    if result.mode == "baseline":
        return error_l2_over_n(truth, result.signal)
    return window_error_l2_over_n(truth, result.support, result.values, result.n)


def run_trial(n: int, m: int, snr_db: float, seed: int, algorithm: str) -> TrialRecord:
    """Generate, perturb, reconstruct, and score one instance.

    sparse_ns times the reconstruction, dense_ns the dense inverse FFT
    that err_ifft scores; for ifft-baseline the reconstruction is that
    inverse, and dense_ns = sparse_ns.  CannotCalibrate is raised when a
    score is not finite: noise near the float maximum makes the noise l1
    sum overflow.
    """
    truth, support, noisy, noise = gen_instance(n, m, seed, snr_db)
    accessor = CountingSpectrumAccessor(noisy)
    tic = time.perf_counter_ns()
    result = reconstruct(accessor, m, algorithm)
    sparse_ns = time.perf_counter_ns() - tic
    err_sparse = reconstruction_error(truth, result)
    if result.mode == "baseline":
        err_ifft, dense_ns = err_sparse, sparse_ns
    else:
        tic = time.perf_counter_ns()
        dense = fft_inverse(noisy)
        dense_ns = time.perf_counter_ns() - tic
        err_ifft = error_l2_over_n(truth, dense)
    noise_abs = np.abs(noise)
    noise_inf = float(np.max(noise_abs))
    noise_l1_over_n = float(np.sum(noise_abs)) / n
    if not np.isfinite([err_sparse, err_ifft, noise_inf, noise_l1_over_n]).all():
        raise CannotCalibrate(f"the scores of a trial at {snr_db} dB SNR are not finite")
    return TrialRecord(
        mu_correct=result.support.first_index == support.first_index,
        err_sparse=err_sparse,
        err_ifft=err_ifft,
        samples_used=result.samples_used,
        vectors_used=result.vectors_used,
        noise_inf=noise_inf,
        noise_l1_over_n=noise_l1_over_n,
        sparse_ns=sparse_ns,
        dense_ns=dense_ns,
    )


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def summarize(records: list[TrialRecord], snr_db: float) -> str:
    """One CSV row aggregating the records of a single SNR level."""
    trials = len(records)
    pct = 100.0 * sum(r.mu_correct for r in records) / trials
    cols = [
        _g17(snr_db),
        str(trials),
        _g17(pct),
        _g17(float(np.mean([r.err_sparse for r in records]))),
        _g17(float(np.mean([r.err_ifft for r in records]))),
        _g17(float(np.mean([r.noise_inf for r in records]))),
        _g17(float(np.mean([r.noise_l1_over_n for r in records]))),
        _g17(float(np.mean([r.samples_used for r in records]))),
        _g17(float(np.mean([r.vectors_used for r in records]))),
    ]
    return ",".join(cols)


def run_experiment(config: ExperimentConfig) -> str:
    """Run the sweep and render the CSV (header plus one row per SNR)."""
    errors = np.geterr()  # the caller's floating-point error handling, which threads do not inherit

    def worker(index):
        with np.errstate(**errors):
            return run_trial(
                config.n,
                config.m,
                config.snr_list[index // config.trials],
                trial_seed(config.seed, index),
                config.algorithm,
            )

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        results = list(pool.map(worker, range(len(config.snr_list) * config.trials)))

    lines = [CSV_HEADER]
    for si, snr_db in enumerate(config.snr_list):
        records = results[si * config.trials : (si + 1) * config.trials]
        lines.append(summarize(records, snr_db))
    return "\n".join(lines) + "\n"


def run_bench(n_list, m_list, trials: int, seed: int) -> str:
    """Time the sparse exact path against the dense inverse FFT.

    Each (n, m) cell runs one untimed warm-up trial, then `trials`
    noiseless exact run_trial calls, trial i on trial_seed(seed, i)
    with i running on across cells; mean_ns is the mean of their
    sparse_ns (exact rows) or dense_ns (ifft rows).  BLAS threads are
    left at the library default.  The samples_used column reports the
    worst case over the trials (n for the dense rows).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    lines = [BENCH_HEADER]
    index = 0
    for n in n_list:
        log2_length(n)  # even for an empty m_list; run_trial checks each m
        for m in m_list:
            run_trial(n, m, math.inf, trial_seed(seed, index), "exact")  # the warm-up
            records = [run_trial(n, m, math.inf, trial_seed(seed, index + t), "exact") for t in range(trials)]
            index += trials
            samples = max(r.samples_used for r in records)
            lines.append(f"{n},{m},exact,{round(sum(r.sparse_ns for r in records) / trials)},{samples}")
            lines.append(f"{n},{m},ifft,{round(sum(r.dense_ns for r in records) / trials)},{n}")
    return "\n".join(lines) + "\n"
