"""Tier-1 twins of console-script checks: the same commands, inputs, pins and bounds.

Checks that need a fresh process (an environment variable read when
numpy loads, or a process's peak resident memory) run
`python -m spfft.cli` or `python -c` in a subprocess; the rest run
in process through spfft.cli.main.  Each twin replaces its check in
the workflow's console-script step.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spfft.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(args, **env):
    """Run the interpreter on args with src importable and env added; returns the completed process."""
    full_env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, *args], env=full_env, capture_output=True, text=True, check=True)


def test_noisy_gen_does_not_depend_on_the_blas_thread_count(tmp_path):
    files = []
    for threads in ("1", "2"):
        prefix = tmp_path / f"t{threads}"
        argv = ["gen", "--n", "262144", "--m", "20", "--seed", "4", "--snr", "20", "--out-prefix", str(prefix)]
        run_python(["-m", "spfft.cli", *argv], OPENBLAS_NUM_THREADS=threads)
        files.append(Path(f"{prefix}.freq.spf1").read_bytes())
    assert len(files[0]) > 16 * 262144
    assert files[0] == files[1], "the noisy instance depends on the BLAS thread count"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak from /proc/self/status")
def test_gen_peak_memory_at_n_2_22(tmp_path):
    # the instance's truth, spectrum and noise: three N-length complex arrays of 64 MiB.
    # The child reports its own peak, VmHWM: on Linux its ru_maxrss would keep,
    # across exec, the peak of the process that spawned it, here the test run's
    script = (
        "from spfft.cli import main; "
        f"code = main(['gen', '--n', '4194304', '--m', '50', '--seed', '4', '--snr', '20', "
        f"'--out-prefix', {str(tmp_path / 'big')!r}]); "
        "peak = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')][0]; "
        "print(code, int(peak) / 1024)"
    )
    code, peak = run_python(["-c", script]).stdout.split()[-2:]
    assert code == "0"
    assert float(peak) < 265, f"spfft gen at N = 2^22 peaked at {float(peak):.1f} MiB"


def test_parseval_score_of_the_dense_baseline_is_its_inverse_fft_error(tmp_path):
    # noisy trials score the dense baseline by Parseval; ifft-baseline trials of the same instances run the inverse FFT
    columns = {}
    for algorithm in ("noisy", "ifft-baseline"):
        out = tmp_path / f"{algorithm}.csv"
        argv = ["experiment", "--n", "4096", "--m", "20", "--snr", "0,20", "--trials", "3", "--seed", "5",
                "--algorithm", algorithm, "--out", str(out)]
        assert main(argv) == 0
        with open(out) as rows:
            columns[algorithm] = [float(row["mean_err_ifft"]) for row in csv.DictReader(rows)]
    parseval, dense = columns["noisy"], columns["ifft-baseline"]
    assert len(parseval) == len(dense) == 2
    assert all(math.isclose(p, d, rel_tol=1e-12) for p, d in zip(parseval, dense)), (parseval, dense)
