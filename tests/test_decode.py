import itertools
import math

import numpy as np
import pytest

from pooltest.decode import (
    PipelineResult,
    SubsetParams,
    comp_decode,
    dd_decode,
    dd_pad_frontend,
    deletion_pipeline,
    family_size,
    ml_oracle,
    subset_decode,
)
from pooltest.design import DesignSpec, TestDesign, bernoulli_design
from pooltest.errors import CapExceededError, ParameterError
from pooltest.model import DefectiveSet, generate_outcomes
from pooltest.reference import brute_force_subset_argmax, family_argmax, naive_satisfying_sets
from pooltest.util import LN2, floor_tol


def random_instance(rng, n_hi=14, k_hi=5):
    n = int(rng.integers(3, n_hi))
    T = int(rng.integers(2, 14))
    rows = []
    for _ in range(T):
        m = rng.random(n) < rng.uniform(0.1, 0.5)
        rows.append(tuple(int(i) + 1 for i in np.flatnonzero(m)))
    d = TestDesign.from_rows(n, rows)
    k = int(rng.integers(1, min(k_hi, n) + 1))
    members = tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False) + 1))
    s = DefectiveSet(n, members)
    return d, s, generate_outcomes(d, s)


# ---------------------------------------------------------------------------
# comp and dd


def test_comp_dd_worked_example():
    d = TestDesign.from_rows(6, [(1, 2), (2, 3), (4,), (5, 6)])
    y = generate_outcomes(d, DefectiveSet(6, (2, 4)))
    assert tuple(y.astype(int).tolist()) == (1, 1, 1, 0)
    # 5 and 6 sit in the negative test; everyone else survives
    assert comp_decode(d, y) == (1, 2, 3, 4)
    # test 3 contains survivor 4 alone, pinning it; tests 1 and 2 are ambiguous
    assert dd_decode(d, y) == (4,)


def test_comp_contains_truth_dd_within_truth():
    rng = np.random.default_rng(10)
    for _ in range(200):
        d, s, y = random_instance(rng)
        comp = set(comp_decode(d, y))
        dd = set(dd_decode(d, y))
        truth = set(s.members)
        assert truth <= comp
        assert dd <= truth
        assert dd <= comp


def test_comp_positive_only_design():
    # no negative tests: comp keeps everyone
    d = TestDesign.from_rows(3, [(1, 2, 3)])
    y = generate_outcomes(d, DefectiveSet(3, (2,)))
    assert comp_decode(d, y) == (1, 2, 3)
    assert dd_decode(d, y) == ()


# ---------------------------------------------------------------------------
# exhaustive maximum likelihood


def test_ml_oracle_returns_lex_smallest_satisfying_set():
    rng = np.random.default_rng(11)
    for _ in range(60):
        d, s, y = random_instance(rng, n_hi=11, k_hi=4)
        sets = naive_satisfying_sets(d, y, s.k)
        assert ml_oracle(d, y, s.k) == sets[0]


def test_ml_oracle_inconsistent_inputs():
    d = TestDesign.from_rows(4, [(1,), (2,), (3, 4)])
    y = (1, 1, 0)  # needs both 1 and 2 defective, so k=1 cannot explain it
    with pytest.raises(ParameterError, match="no size-k set"):
        ml_oracle(d, y, 1)


def test_ml_oracle_mode_and_cap():
    d = TestDesign.from_rows(30, [tuple(range(1, 31))])
    with pytest.raises(CapExceededError):
        ml_oracle(d, (1,), 15, cap=100)


# ---------------------------------------------------------------------------
# candidate families


def _family_by_scan(base, size, radius, n):
    # every size-``size`` subset of 1..n within Hamming ``radius`` of the base
    return [
        cand
        for cand in itertools.combinations(range(1, n + 1), size)
        if len(set(base) ^ set(cand)) <= radius
    ]


def test_family_size_counts_the_enumeration():
    n = 9
    for base_size in range(1, 6):
        base = tuple(range(1, base_size + 1))
        for size in range(1, base_size + 1):
            for radius in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 10.0):
                fam = _family_by_scan(base, size, radius, n)
                assert len(fam) == family_size(base_size, size, radius, n)


def test_candidate_family_empty_when_radius_too_small():
    # dropping from 5 to 3 members costs Hamming distance 2 at minimum
    assert _family_by_scan((1, 2, 3, 4, 5), 3, 1.0, 8) == []
    assert family_size(5, 3, 1.0, 8) == 0


def test_subset_argmax_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(60):
        d, s, y = random_instance(rng, n_hi=10, k_hi=4)
        base = dd_pad_frontend(d, y, s.k)
        for eta in (0.2, 0.34, 0.5):
            size = math.floor((1.0 - eta) * s.k + 1e-9)
            if size == 0:
                continue
            radius = 3.0 * eta * s.k
            params = SubsetParams(eta_minus=eta)
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore")
                got = subset_decode(d, y, s.k, params)
            expect = brute_force_subset_argmax(d, y, base, size, radius)
            assert got == tuple(expect)


# ---------------------------------------------------------------------------
# subset decoding


def test_dd_pad_frontend_sizes():
    d = TestDesign.from_rows(6, [(1, 2), (2, 3), (4,), (5, 6)])
    y = generate_outcomes(d, DefectiveSet(6, (2, 4)))
    # dd gives (4,); comp survivors 1, 2, 3 pad it up
    assert dd_pad_frontend(d, y, 3) == (1, 2, 4)
    assert dd_pad_frontend(d, y, 1) == (4,)
    assert len(dd_pad_frontend(d, y, 4)) == 4


def test_dd_pad_frontend_inconsistent_inputs_fall_back():
    d = TestDesign.from_rows(3, [(1, 2, 3)])
    y = (0,)  # everything sits in a negative test
    assert dd_pad_frontend(d, y, 2) == (1, 2)


def test_subset_decode_recovers_from_separating_design():
    d = TestDesign.from_rows(5, [(1,), (2,), (3,), (4,), (5,)])
    y = generate_outcomes(d, DefectiveSet(5, (1, 3, 5)))
    est = subset_decode(d, y, 3, SubsetParams(eta_minus=0.25))
    # size floor(0.75 * 3) = 2; ties resolve to the lexicographically smallest
    assert est == (1, 3)


def test_subset_decode_zero_size_warns():
    d = TestDesign.from_rows(3, [(1, 2, 3)])
    y = (1,)
    with pytest.warns(UserWarning, match="rounds to zero"):
        assert subset_decode(d, y, 1, SubsetParams(eta_minus=0.9)) == ()


def test_subset_decode_nothing_explained_warns():
    d = TestDesign.from_rows(4, [(1, 2), (3, 4)])
    y = (0, 0)
    with pytest.warns(UserWarning, match="no candidate explained"):
        assert subset_decode(d, y, 2, SubsetParams(eta_minus=0.4)) == ()


def test_subset_decode_provided_frontend():
    d = TestDesign.from_rows(5, [(1,), (2,), (3,), (4,), (5,)])
    y = generate_outcomes(d, DefectiveSet(5, (2, 4)))
    params = SubsetParams(eta_minus=0.4, frontend="provided", provided=(2, 4))
    assert subset_decode(d, y, 2, params) == (2,)
    bad = SubsetParams(eta_minus=0.4, frontend="provided", provided=(1, 2, 3))
    with pytest.raises(ParameterError, match="size 3, expected 2"):
        subset_decode(d, y, 2, bad)


def test_subset_decode_family_cap_refuses():
    d = bernoulli_design(20, 15, 0.2, seed=0)
    y = generate_outcomes(d, DefectiveSet(20, (3, 7, 11)))
    params = SubsetParams(eta_minus=0.34, family_cap=1)
    with pytest.raises(CapExceededError):
        subset_decode(d, y, 3, params)


def test_subset_decode_hill_climb_over_cap():
    d = bernoulli_design(20, 15, 0.2, seed=0)
    y = generate_outcomes(d, DefectiveSet(20, (3, 7, 11)))
    params = SubsetParams(eta_minus=0.34, family_cap=1, hill_climb=True)
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore")
        est = subset_decode(d, y, 3, params)
    # target size floor(0.66 * 3) = 1; the heuristic may also come back empty
    assert len(est) in (0, 1)


def test_subset_decode_provided_outside_ground_set_raises():
    # the exact search (default cap), the hill climb and the refusal (cap 1
    # against a family of 2) all check the base first
    d = TestDesign.from_rows(5, [(1, 2), (2, 3), (4, 5), (1, 5)])
    y = generate_outcomes(d, DefectiveSet(5, (2, 5)))
    for bad in ((0, 2), (2, 6)):
        for knobs in (dict(), dict(family_cap=1, hill_climb=True), dict(family_cap=1)):
            params = SubsetParams(eta_minus=0.4, frontend="provided", provided=bad, **knobs)
            with pytest.raises(ParameterError, match="not contained in the ground set"):
                subset_decode(d, y, 2, params)


def test_subset_argmax_matches_family_scan_at_benchmark_shape():
    # the shape of the subset-local benchmark workload
    n, k, T, eta = 500, 10, 98, 0.1
    size = floor_tol((1.0 - eta) * k)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        d = bernoulli_design(n, T, LN2 / k, rng)
        truth = tuple(sorted((rng.choice(n, size=k, replace=False) + 1).tolist()))
        y = generate_outcomes(d, DefectiveSet(n, truth))
        base = dd_pad_frontend(d, y, k)
        got = subset_decode(d, y, k, SubsetParams(eta_minus=eta))
        assert got == family_argmax(d, y, base, size, 3.0 * eta * k)
        # the provided base keeps all but one true member and adds a non-defective
        outside = [i for i in range(1, n + 1) if i not in truth]
        provided = tuple(sorted(truth[1:] + (outside[seed],)))
        params = SubsetParams(eta_minus=eta, frontend="provided", provided=provided)
        got = subset_decode(d, y, k, params)
        assert got == family_argmax(d, y, provided, size, 3.0 * eta * k)

        r = deletion_pipeline(DesignSpec("bernoulli"), n, k, T, 0.1, inner="subset", seed=seed, eta_minus=0.2)
        y_reduced = generate_outcomes(r.design, r.reduced_truth)
        base = dd_pad_frontend(r.design, y_reduced, r.k_hi)
        expect = family_argmax(
            r.design, y_reduced, base, floor_tol(0.8 * r.k_lo), 3.0 * 0.2 * r.k_hi
        )
        assert r.estimate == tuple(r.kept[j - 1] for j in expect)


# hill-climb estimates recorded while every item was tried as a swap-in,
# before the search skipped items that explain no test
HILL_CLIMB_PINNED = {
    0: ((50, 70, 84, 109, 248, 250), (50, 84, 109, 145, 248, 250)),
    1: ((17, 34, 40, 47, 77, 90), (17, 40, 77, 90, 140, 216)),
    2: ((46, 51, 68, 130, 181, 255), (46, 51, 68, 130, 181, 255)),
    3: ((32, 47, 53, 90, 96, 206), (47, 53, 90, 96, 205, 206)),
}


def test_hill_climb_outputs_pinned():
    n, k = 300, 8
    for seed, expect in HILL_CLIMB_PINNED.items():
        rng = np.random.default_rng(seed)
        d = bernoulli_design(n, 60, 0.693 / k, rng)
        truth = tuple(sorted((rng.choice(n, size=k, replace=False) + 1).tolist()))
        y = generate_outcomes(d, DefectiveSet(n, truth))
        provided = (truth[0] + 1,) + truth[1:]
        got = tuple(
            subset_decode(d, y, k, params)
            for params in (
                SubsetParams(eta_minus=0.25, family_cap=1, hill_climb=True),
                SubsetParams(
                    eta_minus=0.25, frontend="provided", provided=provided, family_cap=1, hill_climb=True
                ),
            )
        )
        assert got == expect


def test_subset_params_validation():
    with pytest.raises(ParameterError):
        SubsetParams(eta_minus=1.0)
    with pytest.raises(ParameterError):
        SubsetParams(eta_minus=0.1, frontend="weird")
    with pytest.raises(ParameterError):
        SubsetParams(eta_minus=0.1, frontend="provided")
    with pytest.raises(ParameterError):
        SubsetParams(eta_minus=0.1, radius_mult=0.0)
    # a repeated item could come back as an estimate that repeats it
    with pytest.raises(ParameterError, match="repeats an item"):
        SubsetParams(eta_minus=0.2, frontend="provided", provided=(2, 2, 5), radius_mult=1.7)


# ---------------------------------------------------------------------------
# the deletion pipeline


SPEC = DesignSpec("bernoulli")


def test_pipeline_validation():
    with pytest.raises(ParameterError):
        deletion_pipeline(SPEC, 100, 5, 40, alpha=0.0)
    with pytest.raises(ParameterError):
        deletion_pipeline(SPEC, 100, 5, 40, alpha=1.0)
    with pytest.raises(ParameterError, match="exhaustive ml"):
        deletion_pipeline(SPEC, 100, 5, 40, alpha=0.1, inner="ml")
    with pytest.raises(ParameterError):
        deletion_pipeline(SPEC, 100, 5, 40, alpha=0.1, xi=0.2)
    # the subset inner decoder checks its knobs as subset_decode does
    for bad in (dict(eta_minus=1.0), dict(radius_mult=0)):
        with pytest.raises(ParameterError):
            deletion_pipeline(SPEC, 100, 5, 40, alpha=0.1, inner="subset", **bad)


def test_pipeline_is_deterministic():
    a = deletion_pipeline(SPEC, 120, 6, 50, alpha=0.2, seed=13)
    b = deletion_pipeline(SPEC, 120, 6, 50, alpha=0.2, seed=13)
    assert a.estimate == b.estimate
    assert a.deleted == b.deleted
    assert a.defectives == b.defectives
    assert a.design == b.design
    c = deletion_pipeline(SPEC, 120, 6, 50, alpha=0.2, seed=14)
    assert (a.estimate, a.deleted) != (c.estimate, c.deleted)


def test_pipeline_bookkeeping():
    n, alpha = 150, 0.25
    res = deletion_pipeline(SPEC, n, 7, 60, alpha=alpha, seed=3)
    # deleted and kept partition the ground set
    assert sorted(res.deleted + res.kept) == list(range(1, n + 1))
    assert set(res.estimate).isdisjoint(res.deleted)
    assert set(res.estimate) <= set(res.kept)
    assert res.design.n == len(res.kept)
    assert res.design.T == 60
    assert res.k_lo == res.k_hi  # both hold the expected retained count


def test_pipeline_deletion_count():
    from pooltest.util import round_half_up

    n, alpha = 150, 0.25
    res = deletion_pipeline(SPEC, n, 7, 60, alpha=alpha, seed=3)
    assert len(res.deleted) == round_half_up((alpha - alpha / 100.0) * n)
    res = deletion_pipeline(SPEC, n, 7, 60, alpha=alpha, xi=alpha, seed=3)
    assert res.deleted == ()  # xi = alpha deletes nothing


def test_pipeline_comp_inner_keeps_retained_truth():
    for seed in range(15):
        res = deletion_pipeline(SPEC, 80, 4, 120, alpha=0.15, inner="comp", seed=seed)
        retained = set(res.defectives.members) & set(res.kept)
        assert retained <= set(res.estimate)
        # the reduced-label truth maps back to exactly the retained defectives
        assert res.reduced_truth.n == len(res.kept)
        assert [res.kept[j - 1] for j in res.reduced_truth.members] == sorted(retained)


def test_pipeline_subset_inner_runs():
    res = deletion_pipeline(SPEC, 60, 4, 80, alpha=0.1, inner="subset", eta_minus=0.25, seed=5)
    assert isinstance(res, PipelineResult)
    assert not res.refused
    assert set(res.estimate) <= set(res.kept)


def test_pipeline_subset_inner_refuses_at_cap():
    res = deletion_pipeline(
        SPEC, 60, 4, 80, alpha=0.1, inner="subset", eta_minus=0.25, seed=5, family_cap=0
    )
    assert res.refused
    assert res.estimate == ()
