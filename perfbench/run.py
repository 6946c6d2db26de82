"""spfft benchmark: run one workload and print its metrics.

Run from the repository root (the spfft sources are imported from ./src):

    python3 perfbench/run.py --workload exact-mem --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs half the time untraced, then half traced, and
reports the per-layer metrics and the tracing overhead; its spans are
written to perfbench/out/.  Report lines go to stdout; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: setup_s is the median time of this many complete builds of the inputs.
SETUP_REPEATS = 3


def import_spfft(root: Path):
    """Import spfft from root/src, refusing any other copy."""
    package = root / "src" / "spfft"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no spfft sources at {package}; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import spfft

    if Path(spfft.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported spfft from {spfft.__file__}, expected {package}")
    return spfft


def git_commit(root: Path) -> str:
    """HEAD of root/.git, read from its files; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_runtime() -> dict:
    """Config string and thread count of the OpenBLAS that numpy loaded, if found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"config": config().decode(), "threads": threads()}
    return {}


def environment(root: Path, args, workload) -> dict:
    import numpy as np
    from spfft import experiment

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "experiment_threads": experiment.thread_count(),
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": openblas_runtime(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPFFT_THREADS")},
    }


def measure(workload, seconds: float, tracer=None) -> list:
    """Run ops back to back for `seconds`; failures are recorded, not raised."""
    from workloads import OpRecord

    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not records or time.perf_counter() < deadline:
        tic = time.perf_counter()
        try:
            if tracer is None:
                record = workload.op(k)
            else:
                with tracer.op(k):
                    record = workload.op(k)
        except Exception as exc:  # an op that raises is a failed op; keep going
            print(f"op {k} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            units = workload.units_per_op
            record = OpRecord(time.perf_counter() - tic, units=units, failed=units)
        records.append(record)
        k += 1
    return records


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(records, setup_times, scores_err_ratio: bool) -> dict[str, float]:
    ms = [1e3 * r.seconds for r in records]
    units = sum(r.units for r in records)
    err_ratio = 1.0  # the README says why a workload may not score it
    if scores_err_ratio:
        dense = sum(r.err_dense for r in records)
        err_ratio = sum(r.err_sparse for r in records) / dense if dense else float("nan")
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": quantile(ms, 0.5),
        "latency_p90_ms": quantile(ms, 0.9),
        "throughput_per_s": units / sum(r.seconds for r in records),
        "reads_per_op": sum(r.reads for r in records) / units,
        "mu_correct_pct": 100.0 * sum(r.placed for r in records) / units,
        "err_ratio": err_ratio,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def units_of(spec_list) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in spec_list}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at N = 2^12 (smoke test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    import_spfft(root)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import tracing
    import workloads
    from spfft import experiment

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    if cls is workloads.CliFile:
        workload = cls(args.seed, tiny, HERE / "work" / f"cli-{os.getpid()}")
    else:
        workload = cls(args.seed, tiny)

    try:
        print("env " + json.dumps(environment(root, args, workload)))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            tic = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - tic)
        print(f"setup: built {SETUP_REPEATS} times, {', '.join(f'{t:.3f}' for t in setup_times)} s")
        if args.trace == 0:
            records = measure(workload, args.seconds)
            values = end_to_end(records, setup_times, workload.scores_err_ratio)
            spec_units = units_of(spec["end_to_end"])
        else:
            records = measure(workload, args.seconds / 2)
            plain_ms = [1e3 * r.seconds for r in records]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            records += traced
            traced_ms = [1e3 * r.seconds for r in traced]
            values = tracing.layer_metrics(tracer.spans, len(traced), experiment.thread_count())
            values["tail.p99_ms"] = quantile(plain_ms, 0.99)
            values["tail.max_ms"] = max(plain_ms)
            values["trace.overhead_pct"] = 100.0 * (quantile(traced_ms, 0.5) / quantile(plain_ms, 0.5) - 1)
            for name in sorted(values):
                print(f"layer {name} = {values[name]:.6g}")
            if tracer.absent:
                print("layer names absent from this spfft: " + ", ".join(tracer.absent))
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
            spec_units = units_of(spec["per_layer"])
    finally:
        workload.close()

    attempted = sum(r.units for r in records)
    failed = sum(r.failed for r in records)
    print(f"ops: {len(records)} (the latency sample count), units {attempted}, "
          f"failed {failed}, failed_frac = {failed / attempted:.6g}")
    if args.trace == 0:
        for name, unit in spec_units.items():
            print(f"metric {name} = {values[name]:.6g} {unit}")
    # A layer that did not run reads 0; a non-finite value (no unit was
    # scored) is reported as 0 and makes the run incorrect.
    raw = {name: float(values.get(name, 0.0)) for name in spec_units}
    metrics = {name: {"value": v if math.isfinite(v) else 0.0, "unit": spec_units[name]} for name, v in raw.items()}
    correct = failed == 0 and all(math.isfinite(v) for v in raw.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
