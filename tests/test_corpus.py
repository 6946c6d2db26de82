"""Every reconstruction of the behaviour corpus matches data/corpus.json."""

import corpus

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


def test_every_record_matches_the_corpus():
    stored = corpus.load()
    built = list(corpus.build())
    assert [rec[:2] for rec, _ in built] == [rec[:2] for rec in stored], "the case list changed"
    failures = []
    for (got, magnitude), want in zip(built, stored):
        diff = differences(got, want, magnitude)
        if diff:
            failures.append(f"{want[0]} {want[1]}: {', '.join(diff)}: {want[2:]} -> {got[2:]}")
    assert not failures, f"{len(failures)} of {len(stored)} records differ:\n" + "\n".join(failures[:20])
