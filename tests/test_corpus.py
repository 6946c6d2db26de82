"""Every reconstruction of the behaviour corpus matches data/corpus.json,
no run, in the corpus or on the edge shapes drawn here, reads a
spectrum index twice, and the sparse paths decide alike with the window
transform evaluated directly, on instances longer than the corpus holds."""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import corpus
from oracle import RecordingAccessor, reference_window_spectrum_sample
from spfft import sparse_exact, sparse_noisy
from spfft.dft_core import fft_forward
from spfft.signal_lab import gen_instance, gen_sparse_signal

#: The values' norm and projection are compared at this relative
#: tolerance, plus an absolute one of ATOL times the case's magnitude
#: (its largest spectrum part), which covers the rounding of exact
#: recovery, as the golden experiment rows' atol does.
RTOL = 1e-9
ATOL = 1e-12

FLOATS = ("norm", "proj_re", "proj_im")


def _close(got: float, want: float, atol: float) -> bool:
    return abs(got - want) <= atol + RTOL * abs(want)


def differences(got: list, want: list, magnitude: float) -> list[str]:
    """The names of the fields in which got differs from want."""
    g, w = corpus.fields(got), corpus.fields(want)
    if g.keys() != w.keys():
        return ["outcome"]
    diff = [key for key in g if key not in FLOATS and g[key] != w[key]]
    if "norm" in w:
        atol = ATOL * magnitude
        if not _close(g["norm"], w["norm"], atol):
            diff.append("norm")
        # the projection is of values / norm, so its absolute tolerance is relative to the norm
        proj_atol = atol / w["norm"] if w["norm"] else 0.0
        diff += [key for key in ("proj_re", "proj_im") if not _close(g[key], w[key], proj_atol)]
    return diff


def read_faults(got: list, calls: list) -> list[str]:
    """What breaks the read contract in a run: no index is read twice, so
    samples_used is the number of distinct indices read."""
    reads = list(itertools.chain.from_iterable(calls))
    distinct = len(set(reads))
    faults = [f"{len(reads) - distinct} indices read again"] if distinct < len(reads) else []
    samples_used = corpus.fields(got).get("samples_used", distinct)
    if samples_used != distinct:
        faults.append(f"samples_used {samples_used} for {distinct} distinct reads")
    return faults


def test_every_record_matches_the_corpus():
    stored = corpus.load()
    built = list(corpus.build())
    assert [rec[:2] for rec, _, _ in built] == [rec[:2] for rec in stored], "the case list changed"
    failures = []
    for (got, magnitude, calls), want in zip(built, stored):
        diff = differences(got, want, magnitude) + read_faults(got, calls)
        if diff:
            failures.append(f"{want[0]} {want[1]}: {', '.join(diff)}: {want[2:]} -> {got[2:]}")
    assert not failures, f"{len(failures)} of {len(stored)} records differ:\n" + "\n".join(failures[:20])


@settings(max_examples=200)
@given(
    j=st.integers(2, 14),
    shape=st.sampled_from(["instance", "period", "zero"]),
    snr_db=st.sampled_from([math.inf, 40.0, 10.0, 0.0, -10.0]),
    max_vectors=st.sampled_from([1, 2, 8]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_no_run_reads_an_index_twice(j, shape, snr_db, max_vectors, seed, data):
    # the edge shapes of the corpus, drawn afresh: every run on one spectrum
    n = 1 << j
    m = data.draw(st.one_of(
        st.just(1),
        st.integers(1, j).map(lambda k: (1 << k) - 1),
        st.sampled_from([n // 4, n // 4 + 1]),
        st.integers(1, n),
    ))
    if shape == "instance":
        spectrum = gen_instance(n, m, seed, snr_db)[2]
    elif shape == "period":  # period N / 2**p
        period = n >> data.draw(st.integers(1, j))
        y, _ = gen_sparse_signal(period, min(m, period), seed)
        spectrum = fft_forward(np.tile(y, n // period))
    else:
        spectrum = np.zeros(n, dtype=np.complex128)
    with mock.patch.object(sparse_noisy, "MAX_VECTORS", max_vectors):
        for run in corpus.RUNS:
            accessor = RecordingAccessor(spectrum)
            got = corpus.record("drawn", run, accessor, m)
            assert read_faults(got, accessor.calls) == [], got


def test_sparse_paths_decide_as_with_the_direct_window_transform():
    # baby-step giant-step phases round unlike the direct sum (oracle); on
    # 300 seeded instances up to N = 2**18, no start, read, blind level or
    # error may change with it
    rng = np.random.default_rng(20150902)
    sparse = 0
    for _ in range(300):
        j = int(rng.integers(8, 19))
        m = int(2 ** rng.uniform(0, math.log2(min(2000, 1 << (j - 2)))))
        snr_db = float(rng.choice([-3.0, 0.0, 5.0, 10.0, 20.0, math.inf]))
        spectrum = gen_instance(1 << j, m, int(rng.integers(2**32)), snr_db)[2]
        for run in ("exact", "noisy"):
            got = corpus.record("drawn", run, RecordingAccessor(spectrum), m)
            with (
                mock.patch.object(sparse_exact, "window_spectrum_sample", reference_window_spectrum_sample),
                mock.patch.object(sparse_noisy, "window_spectrum_sample", reference_window_spectrum_sample),
            ):
                want = corpus.record("drawn", run, RecordingAccessor(spectrum), m)
            assert got == want, (j, m, snr_db)
            sparse += corpus.fields(got).get("mode") == "sparse"
    assert sparse >= 300  # every noisy run, and the exact runs on exact data, place by the transform
