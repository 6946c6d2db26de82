"""Run a workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads exact-mem,sweep --seeds 1-10 [--out FILE]

Runs perfbench/run.py once per seed (sequentially, from the repository
root) and prints, per metric, the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median,
against the metric's bound from BENCHMARK.json.  --trace 1 summarises
the per-layer metrics instead.  --out writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma-separated list")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        stats = summarize(results, bounds)
        summary[workload] = {"seeds": seed_list(args.seeds), "seconds": seconds,
                             "failed": sum(r["failed"] for r in results),
                             "attempted": sum(r["attempted"] for r in results), "metrics": stats}
        for name, s in stats.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f}  third {s['bound'] / 3:.3f}"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:42s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {spread}{bound}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
