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

from .dft_core import CountingSpectrumAccessor, log2_length
from .errors import CannotCalibrate, ValidationError
from .signal_lab import (
    NoiseSpec,
    _Draw,
    _draw_instance,
    _windows_error_l2_over_n,
    error_l2_over_n,
    gen_instance,
    window_error_l2_over_n,
)
from .sparse_exact import Reconstruction, reconstruct_dense, reconstruct_exact
from .sparse_noisy import reconstruct_noisy

ALGORITHMS = ("exact", "noisy", "ifft-baseline")

CSV_HEADER = (
    "snr_db,trials,mu_correct_pct,mean_err_sparse,mean_err_ifft,"
    "mean_noise_inf,mean_noise_l1_over_N,mean_samples,mean_kappa_vectors"
)

#: The TrialRecord fields whose means fill the CSV columns after mu_correct_pct.
MEAN_FIELDS = ("err_sparse", "err_ifft", "noise_inf", "noise_l1_over_n", "samples_used", "vectors_used")

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment sweep (trials x SNR levels).

    n and m are checked where every trial starts, in its window draw
    (signal_lab._draw_window), before any O(N) work.  Checked here is
    what a trial meets only after drawing its instance, or after every
    trial of the SNR levels before its own: the algorithm; "exact" at a finite SNR, whose first trial
    would fail the exact path's model check and stop the sweep; and
    every SNR level, by NoiseSpec's rule (no NaN, no -inf).
    """

    n: int
    m: int
    snr_list: tuple[float, ...]
    trials: int
    seed: int
    algorithm: str

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_list:
            raise ValidationError("snr_list must not be empty")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.algorithm == "exact" and any(snr != math.inf for snr in self.snr_list):
            raise ValidationError("algorithm 'exact' needs exact data: every SNR must be inf")
        for snr_db in self.snr_list:
            NoiseSpec(seed=0, snr_db=snr_db)  # raises on a NaN or -inf level


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


class _WindowAccessor(CountingSpectrumAccessor):
    """The counting accessor of a sparse trial: its reads compute the values from the window.

    Reads are checked and counted as CountingSpectrumAccessor's, over
    the draw's spectrum computed where it is read (draw[idx], the
    stride-subsample and point rules of signal_lab._Draw, and the noise
    stream at those indices), so that no length-N spectrum or noise is
    built.  read_all, which the dense fallback takes, builds the whole
    one: gen_instance's spectrum, bit for bit.
    """

    def __init__(self, draw: _Draw):
        self._values = draw  # len(draw) and draw[idx], where the base class reads an array
        self._served = 0
        self._read_all = False

    def read_all(self) -> np.ndarray:
        if isinstance(self._values, _Draw):
            self._values = self._values.arrays()[1]
        return super().read_all()


def run_trial(n: int, m: int, snr_db: float, seed: int, algorithm: str) -> TrialRecord:
    """Draw, reconstruct and score one instance, gen_instance(n, m, seed, snr_db).

    The instance is drawn as its window, support and noise scale sigma
    (signal_lab._draw_instance); CannotCalibrate is raised there, before
    any read, when no sigma reaches snr_db.  A sparse trial ("exact" or
    "noisy") reads its spectrum through the window (_WindowAccessor),
    with the noise drawn at the indices read alone: no length-n array
    and no length-n FFT are built, and err_sparse is taken between the
    true and the recovered window.  An ifft-baseline trial builds
    gen_instance's arrays and scores the dense inverse against that
    truth, and err_ifft = err_sparse.

    The noise columns are expectations over the noise, not its realised
    values, so that no trial takes an O(n) step to score them:
    noise_inf is sigma, the disc's radius, the bound of every |noise|,
    and noise_l1_over_n is (2 sigma n / 3) / n, the expected l1 sum
    over n (E|u| = 2/3), evaluated in that order, so that it overflows
    where n sigma does.  For a sparse trial err_ifft is the expected
    error of an exact dense inverse FFT of the noisy spectrum,
    ||ifft(noise)|| / n = ||noise|| / (n sqrt(n)) by Parseval's identity,
    with E||noise||**2 = n sigma**2 / 2: sigma / (sqrt(2) n).  At
    snr_db = +inf sigma is 0, and so are these three scores.
    CannotCalibrate is raised when a score is not finite: noise near
    the float maximum makes n sigma overflow.
    """
    draw = _draw_instance(n, m, seed, snr_db)
    sigma = draw.sigma
    if algorithm == "ifft-baseline":
        truth, spectrum, _ = draw.arrays()
        result = reconstruct(CountingSpectrumAccessor(spectrum), m, algorithm)
        err_sparse = err_ifft = error_l2_over_n(truth, result.signal)
    else:
        result = reconstruct(_WindowAccessor(draw), m, algorithm)
        err_sparse = _windows_error_l2_over_n(draw.support, draw.window, result.support, result.values, n)
        err_ifft = sigma / (math.sqrt(2) * n)
    noise_l1_over_n = 2 * sigma * n / 3 / n
    if not np.isfinite([err_sparse, err_ifft, sigma, noise_l1_over_n]).all():
        raise CannotCalibrate(f"the scores of a trial at {snr_db} dB SNR are not finite")
    return TrialRecord(
        mu_correct=result.support.first_index == draw.support.first_index,
        err_sparse=err_sparse,
        err_ifft=err_ifft,
        samples_used=result.samples_used,
        vectors_used=result.vectors_used,
        noise_inf=sigma,
        noise_l1_over_n=noise_l1_over_n,
    )


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def summarize(records: list[TrialRecord], snr_db: float) -> str:
    """One CSV row aggregating the records of a single SNR level."""
    pct = 100.0 * sum(r.mu_correct for r in records) / len(records)
    means = [np.mean([getattr(r, name) for r in records]) for name in MEAN_FIELDS]
    return ",".join([_g17(snr_db), str(len(records)), *map(_g17, [pct, *means])])


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


def _timed_reconstruct(n: int, m: int, seed: int, algorithm: str) -> tuple[int, int]:
    """(ns, samples_used) of reconstruct over the noiseless spectrum gen_instance draws with this seed.

    Only the reconstruct call is timed, not the draw or the accessor.
    """
    accessor = CountingSpectrumAccessor(gen_instance(n, m, seed, math.inf)[2])
    tic = time.perf_counter_ns()
    result = reconstruct(accessor, m, algorithm)
    return time.perf_counter_ns() - tic, result.samples_used


def run_bench(n_list, m_list, trials: int, seed: int) -> str:
    """Time the sparse exact path against the dense inverse FFT.

    Each (n, m) cell runs, for the exact path and then for ifft-baseline,
    one untimed warm-up and then `trials` timed reconstruct calls, call i
    over the noiseless spectrum of gen_instance(n, m, trial_seed(seed, i),
    inf), held in an array, with i running on across cells (both
    algorithms of a cell use the same seeds); mean_ns is the mean time
    of those calls alone, as reconstruct_exact or
    reconstruct_dense(..., "baseline") runs them.  BLAS threads are left
    at the library default.  The samples_used column reports the worst
    case over the calls (n for the dense rows).
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    lines = [BENCH_HEADER]
    index = 0
    for n in n_list:
        log2_length(n)  # even for an empty m_list; gen_instance checks each m
        for m in m_list:
            seeds = [trial_seed(seed, index + t) for t in range(trials)]
            index += trials
            for algorithm, label in (("exact", "exact"), ("ifft-baseline", "ifft")):
                _timed_reconstruct(n, m, seeds[0], algorithm)  # the warm-up
                times, reads = zip(*(_timed_reconstruct(n, m, s, algorithm) for s in seeds))
                lines.append(f"{n},{m},{label},{round(sum(times) / trials)},{max(reads)}")
    return "\n".join(lines) + "\n"
