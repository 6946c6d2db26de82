"""Acceptance suite: one test per top-level criterion.

Each test prints a single `ACCEPTANCE <n> PASS: ...` line (visible with
pytest -s or -rA) after its assertions; stated runtime budgets are
asserted too.
"""

import time

import numpy as np

from oracle import modulation_check, naive_dft, periodize, subsample_spectrum
from spfft.dft_core import CountingSpectrumAccessor, fft_forward, fft_inverse
from spfft.experiment import ExperimentConfig, run_experiment
from spfft.signal_lab import NoiseSpec, add_noise, error_l2_over_n, gen_sparse_signal
from spfft.sparse_exact import ceil_log2, reconstruct_exact
from spfft.sparse_noisy import offset_periodization, reconstruct_noisy


def known_example():
    x = np.zeros(256, dtype=np.complex128)
    x[105], x[107], x[108], x[110] = 8, -3, -5, 2
    return x


def test_1_exact_recovery_and_sample_budget():
    tic = time.perf_counter()
    rng = np.random.default_rng(20260809)
    sizes = [1 << 10, 1 << 12, 1 << 14, 1 << 16]
    for trial in range(200):
        n = sizes[trial % 4]
        m = int(rng.integers(1, n // 8 + 1))
        x, supp = gen_sparse_signal(n, m, int(rng.integers(0, 2**62)))
        accessor = CountingSpectrumAccessor(fft_forward(x))
        rec = reconstruct_exact(accessor, m)
        assert rec.support.first_index == supp.first_index
        budget = (1 << (ceil_log2(m) + 1)) + 2
        assert rec.samples_used <= budget <= 4 * m + 2
        assert np.max(np.abs(rec.signal - x)) <= 1e-9 * np.max(np.abs(x))
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 200 exact recoveries, budget <= 4m+2, {elapsed:.1f}s")


def test_2_known_example_exact_and_noisy():
    tic = time.perf_counter()
    x = known_example()
    spectrum = fft_forward(x)

    exact = reconstruct_exact(CountingSpectrumAccessor(spectrum), 6)
    assert exact.support.first_index == 105
    assert np.max(np.abs(exact.signal - x)) <= 1e-9 * 8

    clean = reconstruct_noisy(CountingSpectrumAccessor(spectrum), 6)
    assert clean.support.first_index == 105
    assert np.max(np.abs(clean.signal - x)) <= 1e-9 * 8

    sparse_mean = dense_mean = 0.0
    for draw in range(50):
        noisy, _ = add_noise(spectrum, NoiseSpec(seed=60_000 + draw, snr_db=20.0))
        rec = reconstruct_noisy(CountingSpectrumAccessor(noisy), 6)
        sparse_mean += error_l2_over_n(x, rec.signal) / 50
        dense_mean += error_l2_over_n(x, fft_inverse(noisy)) / 50
    assert sparse_mean < dense_mean
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 2 PASS: mu=105 both algorithms; SNR-20 mean error "
        f"{sparse_mean:.2e} < dense {dense_mean:.2e}, {elapsed:.1f}s"
    )


def test_3_support_identification_rates():
    tic = time.perf_counter()
    config = ExperimentConfig(
        n=1 << 16,
        m=50,
        snr_list=(0.0, 5.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        trials=100,
        seed=1234,
        algorithm="noisy",
    )
    rows = run_experiment(config).strip().split("\n")[1:]
    rates = {float(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    assert rates[0.0] >= 70.0
    assert rates[5.0] >= 85.0
    for snr in (15.0, 20.0, 25.0, 30.0, 35.0, 40.0):
        assert rates[snr] == 100.0
    elapsed = time.perf_counter() - tic
    assert elapsed < 180.0
    print(
        f"\nACCEPTANCE 3 PASS: mu rates {rates[0.0]:.0f}%@0dB {rates[5.0]:.0f}%@5dB, "
        f"100% at 15-40dB, {elapsed:.0f}s"
    )


def test_4_noisy_algorithm_beats_dense_inverse_at_every_snr():
    tic = time.perf_counter()
    config = ExperimentConfig(
        n=1 << 16,
        m=50,
        snr_list=tuple(float(s) for s in range(0, 51, 5)),
        trials=100,
        seed=77,
        algorithm="noisy",
    )
    rows = run_experiment(config).strip().split("\n")[1:]
    for row in rows:
        fields = row.split(",")
        snr, err_sparse, err_dense = float(fields[0]), float(fields[3]), float(fields[4])
        assert err_sparse <= err_dense, f"sparse error above dense at SNR {snr}"
    elapsed = time.perf_counter() - tic
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 4 PASS: sparse mean error <= dense inverse at 11 SNR levels, {elapsed:.0f}s")


def test_5_transform_identity_suites():
    tic = time.perf_counter()
    rng = np.random.default_rng(555)

    def random_signal(j):
        n = 1 << j
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    # folding: the transform of the folded vector is the strided spectrum
    for _ in range(100):
        j_total = int(rng.integers(2, 13))
        x = random_signal(j_total)
        spectrum = naive_dft(x)
        j = int(rng.integers(0, j_total + 1))
        lhs = naive_dft(periodize(x, j))
        rhs = subsample_spectrum(spectrum, j)
        scale = np.max(np.abs(spectrum))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    # shifting: a cyclic shift multiplies the spectrum by a unit phase
    for _ in range(100):
        j_total = int(rng.integers(2, 13))
        x = random_signal(j_total)
        j = int(rng.integers(0, j_total))
        count = int(rng.integers(0, 1 << (j_total - j)))
        assert modulation_check(x, j, count)

    # offset subsampling: every offset preserves the folded modulus
    for _ in range(100):
        j_total = int(rng.integers(5, 13))
        n = 1 << j_total
        level = int(rng.integers(1, j_total - 1))
        m = int(rng.integers(max(1, (1 << level) // 2), (1 << level) + 1))
        x, _ = gen_sparse_signal(n, m, int(rng.integers(0, 2**62)))
        accessor = CountingSpectrumAccessor(naive_dft(x))
        offset = int(rng.integers(0, 1 << (j_total - level - 1)))
        z = offset_periodization(accessor, offset, level)
        folded_mag = np.abs(periodize(x, level + 1))
        assert np.max(np.abs(np.abs(z) - folded_mag)) <= 1e-10 * max(folded_mag.max(), 1e-300)

    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5 PASS: 3 identity suites x 100 instances vs quadratic oracle, {elapsed:.0f}s")


def test_6_sublinear_runtime_at_full_scale():
    tic = time.perf_counter()
    n, m = 1 << 22, 50
    x, supp = gen_sparse_signal(n, m, 424242)
    spectrum = fft_forward(x)

    # warm-up: first calls of both paths, untimed
    reconstruct_exact(CountingSpectrumAccessor(spectrum), m)
    fft_inverse(spectrum)

    t0 = time.perf_counter()
    rec = reconstruct_exact(CountingSpectrumAccessor(spectrum), m)
    sparse_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    dense = fft_inverse(spectrum)
    dense_time = time.perf_counter() - t0

    assert rec.support.first_index == supp.first_index
    assert np.max(np.abs(rec.signal - x)) <= 1e-9 * np.max(np.abs(x))
    assert rec.samples_used <= 202
    assert dense_time >= 2 * sparse_time, (sparse_time, dense_time)
    assert np.max(np.abs(dense - x)) <= 1e-9 * np.max(np.abs(x))
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 6 PASS: sparse {1e3 * sparse_time:.1f}ms vs dense "
        f"{1e3 * dense_time:.0f}ms at N=2^22, {rec.samples_used} samples, {elapsed:.0f}s"
    )


def test_7_experiment_csv_determinism(tmp_path, monkeypatch):
    from spfft.cli import main

    outputs = []
    for threads, name in (("1", "a.csv"), ("4", "b.csv"), ("4", "c.csv")):
        monkeypatch.setenv("SPFFT_THREADS", threads)
        out = tmp_path / name
        code = main([
            "experiment", "--n", "1024", "--m", "5", "--snr", "10,20,inf",
            "--trials", "8", "--seed", "99", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("\nACCEPTANCE 7 PASS: byte-identical CSV across runs and SPFFT_THREADS settings")
