import gc
import math
import re
import struct
import threading
import warnings

import numpy as np
import pytest

from oracle import RecordingAccessor
from spfft import experiment, signal_lab
from spfft.cli import main
from spfft.dft_core import CountingSpectrumAccessor, fft_forward, fft_inverse
from spfft.errors import FileFormatError
from spfft.experiment import ALGORITHMS, ExperimentConfig, reconstruct, run_experiment
from spfft.signal_lab import gen_sparse_signal
from spfft.spf1 import DOMAIN_FREQ, DOMAIN_TIME, read_vector_file, write_vector_file


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestVectorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = 1 << int(rng.integers(0, 7))
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150) + 1j * rng.standard_normal(n)
            path = tmp_path / "vec.spf1"
            domain = int(rng.integers(0, 2))
            write_vector_file(path, values, domain)
            back, got_domain = read_vector_file(path)
            assert got_domain == domain
            assert back.tobytes() == values.astype(np.complex128).tobytes()

    def test_payload_is_a_read_only_array(self, tmp_path):
        path = tmp_path / "mapped.spf1"
        write_vector_file(path, np.arange(8) + 1j, DOMAIN_FREQ)
        values, _ = read_vector_file(path)
        assert type(values) is np.ndarray
        assert values.dtype == np.complex128
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0

    def test_payload_outlives_the_file_object(self, tmp_path):
        # read_vector_file closed the file; the array holds the mapping
        path = tmp_path / "kept.spf1"
        written = random_vector(1 << 10, 4)
        write_vector_file(path, written, DOMAIN_FREQ)
        values, _ = read_vector_file(path)
        gc.collect()
        assert values.tobytes() == written.tobytes()

    def test_bad_domain_flag_writes_no_file(self, tmp_path):
        path = tmp_path / "flag.spf1"
        with pytest.raises(FileFormatError, match="domain flag must be 0 or 1, got 2"):
            write_vector_file(path, np.ones(8, complex), 2)
        assert not path.exists()

    def test_special_values_survive(self, tmp_path):
        values = np.array([np.inf + 0j, -np.inf * 1j, np.nan + 1j, -0.0 - 0.0j])
        path = tmp_path / "special.spf1"
        write_vector_file(path, values, DOMAIN_TIME)
        back, _ = read_vector_file(path)
        assert back.tobytes() == values.astype(np.complex128).tobytes()

    def test_rewriting_a_mapped_file_keeps_its_bytes(self, tmp_path):
        # values maps the file that the write truncates
        path = tmp_path / "same.spf1"
        write_vector_file(path, random_vector(1 << 12, 3), DOMAIN_FREQ)
        before = path.read_bytes()
        write_vector_file(path, read_vector_file(path)[0], DOMAIN_FREQ)
        assert path.read_bytes() == before

    def test_layout_is_fixed(self, tmp_path):
        path = tmp_path / "layout.spf1"
        write_vector_file(path, np.array([1 + 2j, 3 - 4j]), DOMAIN_FREQ)
        raw = path.read_bytes()
        assert raw[:4] == b"SPF1"
        assert struct.unpack_from("<H", raw, 4)[0] == 1
        assert raw[6] == 1 and raw[7] == 0
        assert struct.unpack_from("<Q", raw, 8)[0] == 2
        assert len(raw) == 16 + 32
        assert struct.unpack_from("<dd", raw, 16) == (1.0, 2.0)

    @pytest.mark.parametrize(
        "mangle,needle",
        [
            (lambda b: b"XXXX" + b[4:], "offset 0"),
            (lambda b: b[:4] + b"\x02\x00" + b[6:], "offset 4"),
            (lambda b: b[:6] + b"\x07" + b[7:], "offset 6"),
            (lambda b: b[:7] + b"\x01" + b[8:], "offset 7"),
            (lambda b: b[:8] + struct.pack("<Q", 3) + b[16:], "offset 8"),
            (lambda b: b[:-8], "offset 16"),
            (lambda b: b + b"\x00" * 4, "offset 16"),
            (lambda b: b[:10], "header"),
        ],
    )
    def test_malformed_files_name_the_offset(self, tmp_path, mangle, needle):
        path = tmp_path / "bad.spf1"
        write_vector_file(path, np.arange(4) + 0j, DOMAIN_TIME)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(FileFormatError, match=needle):
            read_vector_file(path)



class TestGenCommand:
    def test_writes_round_trippable_pair(self, tmp_path, capsys):
        prefix = tmp_path / "case"
        assert main(["gen", "--n", "256", "--m", "6", "--seed", "3", "--out-prefix", str(prefix)]) == 0
        time_vec, d_time = read_vector_file(f"{prefix}.time.spf1")
        freq_vec, d_freq = read_vector_file(f"{prefix}.freq.spf1")
        assert (d_time, d_freq) == (DOMAIN_TIME, DOMAIN_FREQ)
        assert np.max(np.abs(fft_inverse(freq_vec) - time_vec)) <= 1e-12 * np.max(np.abs(time_vec))
        meta = (tmp_path / "case.meta.txt").read_text()
        x, supp = gen_sparse_signal(256, 6, 3)
        assert f"mu={supp.first_index}" in meta
        assert "m=6" in meta and "seed=3" in meta

    def test_noisy_gen_records_snr(self, tmp_path):
        prefix = tmp_path / "noisy"
        assert main(["gen", "--n", "128", "--m", "4", "--seed", "1", "--snr", "20",
                     "--out-prefix", str(prefix)]) == 0
        assert "snr_db=20" in (tmp_path / "noisy.meta.txt").read_text()

    def test_invalid_length_exits_2(self, tmp_path):
        assert main(["gen", "--n", "100", "--m", "5", "--out-prefix", str(tmp_path / "x")]) == 2

    def test_nan_snr_exits_2_before_any_transform(self, tmp_path, monkeypatch, capsys):
        def refuse(x):
            raise AssertionError("a spectrum was built")

        monkeypatch.setattr(signal_lab, "fft_forward", refuse)
        argv = ["gen", "--n", "64", "--m", "4", "--snr=nan", "--out-prefix", str(tmp_path / "x")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: snr_db must not be NaN\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("snr", ["-inf", "-7000", "7000"])
    def test_unreachable_snr_exits_2(self, tmp_path, capsys, snr):
        prefix = tmp_path / "x"
        assert main(["gen", "--n", "64", "--m", "4", f"--snr={snr}", "--out-prefix", str(prefix)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())


class TestReconstructCommand:
    def test_exact_reconstruction_report(self, tmp_path, capsys):
        prefix = tmp_path / "case"
        main(["gen", "--n", "256", "--m", "6", "--seed", "3", "--out-prefix", str(prefix)])
        capsys.readouterr()
        out = tmp_path / "rec.spf1"
        code = main([
            "reconstruct", f"{prefix}.freq.spf1", "--m", "6",
            "--truth", f"{prefix}.time.spf1", "--out", str(out),
        ])
        assert code == 0
        report = capsys.readouterr().out
        x, supp = gen_sparse_signal(256, 6, 3)
        assert f"mu={supp.first_index}" in report
        assert "mode=sparse" in report and "samples_used=" in report and "wall_ms=" in report
        err = float(report.split("err_l2_over_n=")[1].split()[0])
        assert err <= 1e-9
        recovered, domain = read_vector_file(out)
        assert domain == DOMAIN_TIME
        assert np.max(np.abs(recovered - x)) <= 1e-9 * np.max(np.abs(x))

    def test_full_support_uses_fallback(self, tmp_path, capsys):
        prefix = tmp_path / "dense"
        main(["gen", "--n", "64", "--m", "64", "--seed", "2", "--out-prefix", str(prefix)])
        capsys.readouterr()
        assert main(["reconstruct", f"{prefix}.freq.spf1", "--m", "64"]) == 0
        assert "mode=fallback" in capsys.readouterr().out

    def test_noisy_beats_baseline_on_same_file(self, tmp_path, capsys):
        prefix = tmp_path / "n20"
        main(["gen", "--n", "256", "--m", "6", "--seed", "9", "--snr", "20", "--out-prefix", str(prefix)])
        capsys.readouterr()
        errs = {}
        for algorithm in ("noisy", "ifft-baseline"):
            assert main([
                "reconstruct", f"{prefix}.freq.spf1", "--m", "6",
                "--algorithm", algorithm, "--truth", f"{prefix}.time.spf1",
            ]) == 0
            report = capsys.readouterr().out
            errs[algorithm] = float(report.split("err_l2_over_n=")[1].split()[0])
        assert errs["noisy"] < errs["ifft-baseline"]

    def test_time_domain_input_rejected(self, tmp_path):
        prefix = tmp_path / "case"
        main(["gen", "--n", "64", "--m", "4", "--seed", "1", "--out-prefix", str(prefix)])
        assert main(["reconstruct", f"{prefix}.time.spf1", "--m", "4"]) == 2

    def test_frequency_domain_truth_exits_2(self, tmp_path, capsys):
        prefix = tmp_path / "case"
        main(["gen", "--n", "64", "--m", "4", "--seed", "1", "--out-prefix", str(prefix)])
        capsys.readouterr()
        freq = f"{prefix}.freq.spf1"
        assert main(["reconstruct", freq, "--m", "4", "--truth", freq]) == 2
        assert capsys.readouterr() == ("", f"error: {freq} holds frequency-domain data, need time-domain\n")

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["reconstruct", str(tmp_path / "absent.spf1"), "--m", "4"]) == 3

    def test_exact_algorithm_on_noisy_data_exits_4(self, tmp_path):
        # the noise leaves energy in the fold outside the window
        prefix = tmp_path / "bad"
        main(["gen", "--n", "256", "--m", "6", "--seed", "1", "--snr", "10", "--out-prefix", str(prefix)])
        assert main(["reconstruct", f"{prefix}.freq.spf1", "--m", "6", "--algorithm", "exact"]) == 4

    def test_period_half_spectrum_exits_4(self, tmp_path, capsys):
        # x = tile(y, 2) has an all-zero odd half: no odd probe can place
        # the window, and the exact path gives up after a bounded scan
        y, _ = gen_sparse_signal(2048, 20, 3)
        path = tmp_path / "tiled.freq.spf1"
        write_vector_file(path, fft_forward(np.tile(y, 2)), DOMAIN_FREQ)
        assert main(["reconstruct", str(path), "--m", "20", "--algorithm", "exact"]) == 4
        captured = capsys.readouterr()
        assert "odd-indexed spectrum values probed all read zero" in captured.err
        assert captured.out == ""

    def test_bad_support_length_exits_2(self, tmp_path):
        prefix = tmp_path / "case2"
        main(["gen", "--n", "64", "--m", "4", "--seed", "1", "--out-prefix", str(prefix)])
        assert main(["reconstruct", f"{prefix}.freq.spf1", "--m", "0"]) == 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_non_finite_spectrum_exits_2(self, tmp_path, capsys, algorithm):
        x, _ = gen_sparse_signal(4096, 20, 3)
        spectrum = fft_forward(x)
        spectrum[0] = np.nan
        path = tmp_path / "nan.freq.spf1"
        write_vector_file(path, spectrum, DOMAIN_FREQ)
        assert main(["reconstruct", str(path), "--m", "20", "--algorithm", algorithm]) == 2
        captured = capsys.readouterr()
        assert "index 0 is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_spectrum_whose_window_energies_overflow_exits_2(self, tmp_path, capsys, algorithm):
        # finite values whose inverse transform overflows
        spectrum = np.ones(64, dtype=complex)
        spectrum[::2] = 1.7e308
        path = tmp_path / "huge.freq.spf1"
        write_vector_file(path, spectrum, DOMAIN_FREQ)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["reconstruct", str(path), "--m", "2", "--algorithm", algorithm]) == 2
        assert [str(w.message) for w in caught] == []  # no numpy RuntimeWarning before the error
        count = 64 if algorithm == "ifft-baseline" else 4
        assert capsys.readouterr() == ("", f"error: window energies of {count} values are not finite\n")

    def test_doubling_comparison_that_overflows_exits_2(self, tmp_path, capsys, doubling_overflow_spectrum):
        path = tmp_path / "near-max.freq.spf1"
        write_vector_file(path, doubling_overflow_spectrum, DOMAIN_FREQ)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["reconstruct", str(path), "--m", "1", "--algorithm", "noisy"]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", "error: doubling comparison at level 7 overflows\n")

    @pytest.mark.parametrize("algorithm", ["exact", "noisy"])
    def test_non_finite_value_never_read_is_ignored(self, tmp_path, capsys, algorithm):
        # only the payload entries the algorithm reads are checked (index 0,
        # always read, exits 2: see test_non_finite_spectrum_exits_2)
        x, support = gen_sparse_signal(4096, 20, 3)
        spectrum = fft_forward(x)
        accessor = RecordingAccessor(spectrum)
        reconstruct(accessor, 20, algorithm)
        unread = min(set(range(4096)).difference(*accessor.calls))
        spectrum[unread] = np.nan
        path = tmp_path / "nan.freq.spf1"
        write_vector_file(path, spectrum, DOMAIN_FREQ)
        assert main(["reconstruct", str(path), "--m", "20", "--algorithm", algorithm]) == 0
        assert f"mu={support.first_index} " in capsys.readouterr().out

    def test_out_may_overwrite_the_input(self, tmp_path, capsys):
        prefix = tmp_path / "case5"
        main(["gen", "--n", "256", "--m", "6", "--seed", "3", "--out-prefix", str(prefix)])
        capsys.readouterr()
        path = f"{prefix}.freq.spf1"
        assert main(["reconstruct", path, "--m", "6", "--out", path]) == 0
        recovered, domain = read_vector_file(path)
        assert domain == DOMAIN_TIME
        x, _ = gen_sparse_signal(256, 6, 3)
        assert np.max(np.abs(recovered - x)) <= 1e-9 * np.max(np.abs(x))

    @pytest.mark.parametrize("m", [6, 100])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_out_may_overwrite_the_input_on_every_path(self, tmp_path, algorithm, m):
        # values must be a fresh array, not a view of the mapped input file
        prefix = tmp_path / "case"
        main(["gen", "--n", "256", "--m", str(m), "--seed", "3", "--out-prefix", str(prefix)])
        path = f"{prefix}.freq.spf1"
        spectrum, _ = read_vector_file(path)
        want = reconstruct(CountingSpectrumAccessor(np.array(spectrum)), m, algorithm).signal
        del spectrum
        assert main(["reconstruct", path, "--m", str(m), "--algorithm", algorithm, "--out", path]) == 0
        got, _ = read_vector_file(path)
        assert got.tobytes() == want.tobytes()

    def test_baseline_mode_is_reported(self, tmp_path, capsys):
        prefix = tmp_path / "case4"
        main(["gen", "--n", "256", "--m", "6", "--seed", "1", "--out-prefix", str(prefix)])
        capsys.readouterr()
        assert main(["reconstruct", f"{prefix}.freq.spf1", "--m", "6", "--algorithm", "ifft-baseline"]) == 0
        assert "mode=baseline samples_used=256" in capsys.readouterr().out


class TestReadPins:
    """samples_used of the console checks, on the same `spfft gen --n 65536 --seed 4` inputs.

    The report's count is that of the reads through the memory-mapped file.
    """

    @pytest.mark.parametrize(
        "m, snr, algorithm, reads",
        [
            (20, [], "exact", 34),  # the fold of P = 32 and the probe pair
            (20, [], "noisy", 34),  # the exact path's stages on exact data: its P + 2
            (20, ["--snr", "20"], "noisy", 146),  # a grown fold of 128, then 2 at each of 9 levels
            (1, ["--snr", "20"], "noisy", 32),  # a grown fold of 4, then 2 at each of 14 levels
        ],
    )
    def test_samples_used(self, tmp_path, capsys, m, snr, algorithm, reads):
        prefix = tmp_path / "c"
        assert main(["gen", "--n", "65536", "--m", str(m), "--seed", "4", *snr, "--out-prefix", str(prefix)]) == 0
        capsys.readouterr()
        assert main([
            "reconstruct", f"{prefix}.freq.spf1", "--m", str(m), "--algorithm", algorithm,
            "--truth", f"{prefix}.time.spf1",
        ]) == 0
        assert f" samples_used={reads} " in capsys.readouterr().out

    def test_out_file_round_trips(self, tmp_path, capsys):
        prefix = tmp_path / "c"
        assert main(["gen", "--n", "65536", "--m", "20", "--seed", "4", "--out-prefix", str(prefix)]) == 0
        assert main(["reconstruct", f"{prefix}.freq.spf1", "--m", "20", "--out", str(tmp_path / "out.spf1")]) == 0
        capsys.readouterr()
        x = read_vector_file(f"{prefix}.time.spf1")[0]
        y = read_vector_file(tmp_path / "out.spf1")[0]
        assert np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(x)), "out file does not round-trip"

    @pytest.mark.parametrize(
        "shift, algorithm",
        [
            pytest.param(32, "exact", id="exact"),
            pytest.param(32, "noisy", id="noisy"),
            pytest.param(64, "noisy", id="alias64-noisy"),  # cancels in the 2^(L+1) = 64 fold too
        ],
    )
    def test_a_support_that_cancels_in_the_fold_exits_4(self, tmp_path, capsys, shift, algorithm):
        # y - roll(y, 32) cancels in the fold of P = 32 entries, but its odd
        # probes do not read zero; both paths reject it in placement
        y = gen_sparse_signal(65536, 20, 3)[0]
        path = tmp_path / "alias.freq.spf1"
        write_vector_file(path, fft_forward(y - np.roll(y, shift)), DOMAIN_FREQ)
        assert main(["reconstruct", str(path), "--m", "20", "--algorithm", algorithm]) == 4
        captured = capsys.readouterr()
        assert "window transform there vanished" in captured.err and captured.out == ""

    def test_mu_is_invariant_under_a_2_pow_minus_600_scale(self, tmp_path, capsys):
        prefix = tmp_path / "c"
        assert main(["gen", "--n", "65536", "--m", "20", "--seed", "4", "--out-prefix", str(prefix)]) == 0
        spectrum = read_vector_file(f"{prefix}.freq.spf1")[0]
        tiny = tmp_path / "tiny.freq.spf1"
        write_vector_file(tiny, np.ldexp(spectrum.view(np.float64), -600).view(np.complex128), DOMAIN_FREQ)
        capsys.readouterr()
        mus = []
        for path in (f"{prefix}.freq.spf1", tiny):
            assert main(["reconstruct", str(path), "--m", "20"]) == 0
            mus.append(re.search(r"\bmu=\d+", capsys.readouterr().out).group())
        assert mus[0] == mus[1], f"spectrum scaled by 2^-600 gave {mus[1]}, the original {mus[0]}"


class TestRepeatedMain:
    def test_successive_calls_keep_codes_and_text(self, tmp_path, capsys):
        prefix = tmp_path / "case"
        freq = f"{prefix}.freq.spf1"
        calls = [
            (["gen", "--n", "256", "--m", "6", "--seed", "3", "--out-prefix", str(prefix)], 0),
            (["reconstruct", freq, "--m", "6", "--algorithm", "noisy"], 0),
            (["reconstruct", freq, "--m", "0"], 2),
            (["reconstruct", freq, "--m", "6", "--bogus"], 2),
        ]
        rounds = []
        for _ in range(2):
            texts = []
            for argv, code in calls:
                assert main(argv) == code
                captured = capsys.readouterr()
                texts.append((re.sub(r"wall_ms=\S+", "", captured.out), captured.err))
            rounds.append(texts)
        assert rounds[0] == rounds[1]
        (gen_out, _), (rec_out, _), (_, bad_m_err), (_, bad_flag_err) = rounds[0]
        assert gen_out.startswith("wrote ") and "mode=sparse" in rec_out
        assert bad_m_err == "error: support length 0 outside [1, 256]\n"
        assert "unrecognized arguments: --bogus" in bad_flag_err


class TestExperimentCommand:
    def test_csv_schema_and_noiseless_row(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = main([
            "experiment", "--n", "1024", "--m", "5", "--snr", "inf", "--trials", "3",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "snr_db,trials,mu_correct_pct,mean_err_sparse,mean_err_ifft,"
            "mean_noise_inf,mean_noise_l1_over_N,mean_samples,mean_kappa_vectors"
        )
        fields = lines[1].split(",")
        assert fields[0] == "inf" and fields[1] == "3"
        assert float(fields[2]) == 100.0
        assert float(fields[3]) <= 1e-9

    def test_csv_goes_to_stdout_without_out(self, capsys):
        assert main(["experiment", "--n", "64", "--m", "4", "--snr", "10,inf", "--trials", "2", "--seed", "3"]) == 0
        config = ExperimentConfig(64, 4, (10.0, math.inf), 2, 3, "noisy")
        assert capsys.readouterr() == (run_experiment(config), "")

    def test_exact_algorithm_at_a_finite_snr_exits_2_before_any_trial(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "run_trial", refuse)
        argv = ["experiment", "--n", "4096", "--m", "20", "--snr", "60,inf", "--trials", "2", "--algorithm", "exact"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: algorithm 'exact' needs exact data: every SNR must be inf\n")

    def test_nan_snr_level_exits_2_before_any_trial(self, monkeypatch, capsys):
        real, calls = experiment.run_trial, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiment, "run_trial", counting)
        assert main(["experiment", "--n", "65536", "--m", "50", "--snr", "0,nan", "--trials", "60"]) == 2
        assert capsys.readouterr() == ("", "error: snr_db must not be NaN\n")
        assert calls == []

    def test_exact_algorithm_column(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert main([
            "experiment", "--n", "1024", "--m", "5", "--snr", "inf", "--trials", "2",
            "--seed", "1", "--algorithm", "exact", "--out", str(out),
        ]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[8]) == 0.0  # no offset vectors on the exact path
        assert float(row[7]) <= 4 * 5 + 2

    def test_overflow_in_a_worker_thread_gives_one_error_line(self, capsys):
        # noise near the float maximum: the trials' transforms overflow; these
        # short trials run in the calling thread, and the first trial's error, in
        # its grown fold of 32 values, stops the sweep (the second trial's names 8 values)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["experiment", "--n", "64", "--m", "4", "--snr=-6125", "--trials", "2"]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", "error: window energies of 32 values are not finite\n")

    def test_overflow_in_a_pool_thread_gives_one_error_line(self, monkeypatch, capsys):
        # dense trials of N = 8192 run in the pool, whose threads get the caller's
        # floating-point error handling from run_experiment, not from the CLI's errstate
        real, threads = experiment.run_trial, []

        def recording(*args):
            threads.append(threading.current_thread() is threading.main_thread())
            return real(*args)

        monkeypatch.setattr(experiment, "run_trial", recording)
        monkeypatch.setenv("SPFFT_THREADS", "2")
        argv = ["experiment", "--n", "8192", "--m", "4", "--snr=-6125", "--trials", "2", "--algorithm", "ifft-baseline"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", "error: window energies of 8192 values are not finite\n")
        assert threads == [False, False]

    @pytest.mark.parametrize(
        "threads, message",
        [
            ("abc", "SPFFT_THREADS must be an integer, got 'abc'"),
            ("0", "SPFFT_THREADS must be >= 1, got 0"),
            ("-1", "SPFFT_THREADS must be >= 1, got -1"),
        ],
    )
    def test_bad_thread_count_exits_2(self, monkeypatch, capsys, threads, message):
        monkeypatch.setenv("SPFFT_THREADS", threads)
        assert main(["experiment", "--n", "64", "--m", "4", "--trials", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unparsable_snr_list_exits_2(self, capsys):
        assert main(["experiment", "--n", "64", "--m", "4", "--snr", "x,1", "--trials", "1"]) == 2
        assert capsys.readouterr() == ("", "error: expected comma-separated numbers, got 'x,1'\n")

    def test_empty_snr_list_exits_2(self, tmp_path):
        assert main(["experiment", "--n", "1024", "--m", "5", "--snr", "", "--trials", "1"]) == 2

    @pytest.mark.parametrize("snr", ["-inf", "-7000", "7000", "20,-inf"])
    def test_unreachable_snr_exits_2(self, tmp_path, capsys, snr):
        out = tmp_path / "exp.csv"
        code = main(["experiment", "--n", "64", "--m", "4", f"--snr={snr}", "--trials", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestBenchCommand:
    def test_schema_and_budget(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main([
            "bench", "--n", "4096,16384", "--m", "6", "--trials", "2", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,m,algorithm,mean_ns,samples_used"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[2] for r in rows} == {"exact", "ifft"}
        for r in rows:
            if r[2] == "exact":
                assert int(r[4]) <= 4 * int(r[1]) + 2
            else:
                assert int(r[4]) == int(r[0])

    def test_csv_goes_to_stdout_without_out(self, capsys):
        assert main(["bench", "--n", "64", "--m", "4", "--trials", "1"]) == 0
        out, err = capsys.readouterr()
        lines = out.split("\n")
        assert (lines[0], len(lines), lines[-1], err) == ("N,m,algorithm,mean_ns,samples_used", 4, "", "")
        assert [line.split(",")[2] for line in lines[1:3]] == ["exact", "ifft"]

    def test_rejects_non_power_of_two(self):
        assert main(["bench", "--n", "1000", "--m", "5", "--trials", "1"]) == 2

    def test_bad_support_length_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n", "64", "--m", "0", "--trials", "1", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: support length 0 outside [1, 64]\n")
        assert not out.exists()
