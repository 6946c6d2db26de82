"""Command-line interface: gen, reconstruct, experiment, bench.

Exit codes: 0 success, 2 validation error, 3 I/O or file-format error,
4 algorithm failure on the given data.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from .dft_core import CountingSpectrumAccessor
from .errors import AlgorithmError, SpfftError, ValidationError, WrongDomain
from .experiment import (
    ALGORITHMS,
    ExperimentConfig,
    reconstruct,
    reconstruction_error,
    run_bench,
    run_experiment,
)
from .signal_lab import gen_instance
from .spf1 import DOMAIN_FREQ, DOMAIN_TIME, read_vector_file, write_vector_file

DEFAULT_EXPERIMENT_N = 1 << 16


def _number_list(text: str, kind: type) -> list:
    """The comma-separated values of text as kind (int or float); empty parts are skipped."""
    try:
        return [kind(part) for part in text.split(",") if part]
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ValidationError(f"expected comma-separated {noun}, got {text!r}") from exc


def _cmd_gen(args) -> int:
    snr = math.inf if args.snr is None else args.snr
    signal, support, spectrum, _ = gen_instance(args.n, args.m, args.seed, snr)
    meta = [f"n={args.n}", f"m={args.m}", f"mu={support.first_index}", f"seed={args.seed}"]
    if args.snr is not None:
        meta.append(f"snr_db={args.snr}")
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_vector_file(Path(str(prefix) + ".time.spf1"), signal, DOMAIN_TIME)
    write_vector_file(Path(str(prefix) + ".freq.spf1"), spectrum, DOMAIN_FREQ)
    Path(str(prefix) + ".meta.txt").write_text("\n".join(meta) + "\n")
    print(f"wrote {prefix}.time.spf1, {prefix}.freq.spf1, {prefix}.meta.txt (mu={support.first_index})")
    return 0


def _cmd_reconstruct(args) -> int:
    spectrum, domain = read_vector_file(args.input)
    if domain != DOMAIN_FREQ:
        raise WrongDomain(f"{args.input} holds time-domain data, need frequency-domain")
    accessor = CountingSpectrumAccessor(spectrum)

    tic = time.perf_counter()
    result = reconstruct(accessor, args.m, args.algorithm)
    wall_ms = 1e3 * (time.perf_counter() - tic)

    report = (
        f"mu={result.support.first_index} m={args.m} algorithm={args.algorithm} "
        f"mode={result.mode} samples_used={result.samples_used} wall_ms={wall_ms:.3f}"
    )
    if args.truth is not None:
        truth, truth_domain = read_vector_file(args.truth)
        if truth_domain != DOMAIN_TIME:
            raise WrongDomain(f"{args.truth} holds frequency-domain data, need time-domain")
        report += f" err_l2_over_n={reconstruction_error(truth, result):.17g}"
    if args.out is not None:
        write_vector_file(args.out, result.signal, DOMAIN_TIME)
        report += f" out={args.out}"
    print(report)
    return 0


def _emit(csv_text: str, out: str | None) -> None:
    """Write csv_text to the file out, or to stdout when no file is named."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv_text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(csv_text)


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        n=args.n,
        m=args.m,
        snr_list=tuple(_number_list(args.snr, float)),
        trials=args.trials,
        seed=args.seed,
        algorithm=args.algorithm,
    )
    _emit(run_experiment(config), args.out)
    return 0


def _cmd_bench(args) -> int:
    _emit(run_bench(_number_list(args.n, int), _number_list(args.m, int), args.trials, args.seed), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spfft",
        description="Sublinear sparse inverse FFT for vectors with a short cyclic support window.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance as SPF1 files")
    gen.add_argument("--n", type=int, required=True, help="vector length (power of two)")
    gen.add_argument("--m", type=int, required=True, help="support window length")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--snr", type=float, default=None, help="perturb the spectrum at this SNR (dB)")
    gen.add_argument("--out-prefix", required=True, help="writes PREFIX.{time,freq}.spf1 and PREFIX.meta.txt")
    gen.set_defaults(func=_cmd_gen)

    rec = sub.add_parser("reconstruct", help="recover a vector from a frequency-domain SPF1 file")
    rec.add_argument("input", help="frequency-domain SPF1 file")
    rec.add_argument("--m", type=int, required=True, help="known support length bound")
    rec.add_argument("--algorithm", choices=ALGORITHMS, default="exact")
    rec.add_argument("--truth", default=None, help="time-domain SPF1 file to score against")
    rec.add_argument("--out", default=None, help="write the recovered vector here")
    rec.set_defaults(func=_cmd_reconstruct)

    exp = sub.add_parser("experiment", help="SNR sweep; emits one CSV row per level")
    exp.add_argument("--n", type=int, default=DEFAULT_EXPERIMENT_N)
    exp.add_argument("--m", type=int, default=50)
    exp.add_argument("--snr", default="0,5,10,15,20,25,30,35,40,45,50", help="comma-separated dB values (inf = noiseless)")
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--algorithm", choices=ALGORITHMS, default="noisy")
    exp.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    exp.set_defaults(func=_cmd_experiment)

    bench = sub.add_parser("bench", help="wall-time of the sparse path vs the dense inverse FFT")
    bench.add_argument("--n", required=True, help="comma-separated lengths (powers of two)")
    bench.add_argument("--m", required=True, help="comma-separated support lengths")
    bench.add_argument("--trials", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the error line below says what overflowed; numpy's warnings would precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (SpfftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 4 if isinstance(exc, AlgorithmError) else 3


if __name__ == "__main__":
    sys.exit(main())
