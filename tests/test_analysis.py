import itertools
import math

import numpy as np
import pytest

from pooltest.analysis import (
    ExplainScorer,
    clean_items,
    explained_tests,
    good_test_counts,
    masking_report,
    posterior_uniformity_check,
    satisfying_sets,
    set_hamming,
)
from pooltest.decode import comp_decode, dd_decode
from pooltest.design import DesignSpec, TestDesign, bernoulli_design, build_design, ncc_design
from pooltest.errors import CapExceededError, ParameterError
from pooltest.model import DefectiveSet, PriorSpec, generate_outcomes, sample_defectives
from pooltest.reference import (
    naive_comp,
    naive_explained,
    naive_good_counts,
    naive_masked_items,
    naive_outcomes,
    naive_satisfying_sets,
)
from pooltest.util import LN2


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


# regression instance: item 7 is in zero tests, items 5 and 6 sit in negative
# tests, so the only clean member of candidate (4, 5, 6) is the isolated item 4
REGRESSION_DESIGN = TestDesign.from_rows(
    7, [(), (1, 2, 5), (5,), (2,), (2, 5, 6), (3, 5, 6), (5, 6)]
)
REGRESSION_TRUTH = DefectiveSet(7, (2, 3, 4))


# ---------------------------------------------------------------------------
# distances and clean items


def test_set_hamming():
    assert set_hamming((1, 2, 3), (2, 3, 4)) == 2
    assert set_hamming((), (1, 2)) == 2
    assert set_hamming((5,), (5,)) == 0
    a = DefectiveSet(10, (1, 2))
    b = DefectiveSet(10, (2, 3))
    assert set_hamming(a, b) == 2
    # worded as the design readers word it, by model._ground
    with pytest.raises(ParameterError, match=r"^ground sets differ: n=10 vs n=11$"):
        set_hamming(DefectiveSet(10, (1,)), DefectiveSet(11, (1,)))


def test_clean_items_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d, s, y = random_instance(rng)
        clean = clean_items(d, y)
        for i in range(1, d.n + 1):
            expect = all(y[t - 1] for t in d.col(i))
            assert clean[i - 1] == expect
        # every defective is clean: its tests are all positive
        for i in s.members:
            assert clean[i - 1]


EMPTY_COLUMN_DESIGNS = {
    # items 1, 4 and 6 are in no test: the first, a middle and the last column
    "first-middle-last": (6, [(2, 3), (3, 5), (2,)]),
    # runs of empty columns at both ends: items 1-2 and 5-8
    "runs-at-both-ends": (8, [(3, 4), (4,), (3,)]),
    "empty-tests": (4, [(), (1, 2), (), (2, 3), ()]),
    "no-entries": (5, [(), (), ()]),
    "one-item": (1, [(1,), ()]),
    "only-the-last-item": (5, [(5,), (5,)]),
}


@pytest.mark.parametrize("name", sorted(EMPTY_COLUMN_DESIGNS))
def test_clean_items_on_empty_columns_and_tests(name):
    # every outcome vector; an item in no test is clean under all of them
    n, rows = EMPTY_COLUMN_DESIGNS[name]
    d = TestDesign.from_rows(n, rows)
    for y in itertools.product((False, True), repeat=d.T):
        y = np.array(y)
        clean = clean_items(d, y)
        assert clean.dtype == bool and clean.shape == (n,)
        assert (np.flatnonzero(clean) + 1).tolist() == naive_comp(d, y)


def test_clean_items_on_bernoulli_designs():
    # sparse rows leave many empty columns, in runs, anywhere in the view
    rng = np.random.default_rng(4)
    for n, T, p in ((30, 8, 0.05), (40, 12, 0.03), (9, 6, 0.5), (50, 3, 0.01)):
        for seed in range(5):
            d = bernoulli_design(n, T, p, seed)
            for y in (np.zeros(T, bool), np.ones(T, bool), rng.random(T) < 0.5):
                assert (np.flatnonzero(clean_items(d, y)) + 1).tolist() == naive_comp(d, y)


# ---------------------------------------------------------------------------
# explain counts


def test_truth_explains_every_positive_test():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d, s, y = random_instance(rng)
        ec = explained_tests(d, y, s)
        assert ec.explained == tuple((np.flatnonzero(y) + 1).tolist())
        assert ec.count == int(y.sum())


def test_explained_tests_matches_naive():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d, s, y = random_instance(rng)
        k = int(rng.integers(0, min(5, d.n) + 1))
        cand = tuple(sorted(int(i) for i in rng.choice(d.n, size=k, replace=False) + 1))
        ec = explained_tests(d, y, cand)
        assert list(ec.explained) == naive_explained(d, y, cand)


def test_explained_tests_regression_instance():
    y = generate_outcomes(REGRESSION_DESIGN, REGRESSION_TRUTH)
    assert tuple(y.astype(int).tolist()) == (0, 1, 0, 1, 1, 1, 0)
    ec = explained_tests(REGRESSION_DESIGN, y, (4, 5, 6))
    assert ec.explained == ()
    assert ec.count == 0
    # the truth still explains everything
    assert explained_tests(REGRESSION_DESIGN, y, REGRESSION_TRUTH).count == 4


def test_explained_tests_rejects_items_outside_the_ground_set():
    # item 0 would read item 3's clean flag through a negative index
    d = TestDesign.from_rows(3, [(1,), (3,)])
    y = np.array([True, False])
    for cand in [(0,), (4,), (1, 4)]:
        with pytest.raises(ParameterError, match=r"^need 1 <= item <= 3, got [04]$"):
            explained_tests(d, y, cand)


def test_explain_scorer_agrees_with_explained_tests():
    rng = np.random.default_rng(4)
    empty_clean = 0
    for _ in range(50):
        d, s, y_truth = random_instance(rng)
        # the all-negative outcomes leave no test to explain
        for y in (y_truth, np.zeros(d.T, dtype=bool)):
            scorer = ExplainScorer(d, y)
            for _ in range(10):
                k = int(rng.integers(0, min(5, d.n) + 1))
                cand = tuple(sorted(int(i) for i in rng.choice(d.n, size=k, replace=False) + 1))
                assert scorer.count(cand) == explained_tests(d, y, cand).count
            # masks, live items and positive mask as built one test at a time
            clean = set(naive_comp(d, y.astype(int).tolist()))
            masks = [
                sum(1 << t for t in (d.col(i) - 1).tolist()) if i in clean else 0 for i in range(1, d.n + 1)
            ]
            assert scorer.masks == masks
            assert scorer.live == [i for i, m in enumerate(masks, 1) if m]
            assert scorer.positive == sum(1 << t for t in np.flatnonzero(y).tolist())
            empty_clean += sum(1 for i in clean if d.col(i).size == 0)
    # clean items in no test are not live
    assert empty_clean > 0


def test_explain_scorer_regression_instance():
    y = generate_outcomes(REGRESSION_DESIGN, REGRESSION_TRUTH)
    scorer = ExplainScorer(REGRESSION_DESIGN, y)
    assert scorer.count((4, 5, 6)) == 0
    assert scorer.count((2, 3, 4)) == 4
    assert scorer.union_mask((4, 5, 6)) == 0


# ---------------------------------------------------------------------------
# good tests and masking


def test_good_test_counts_matches_naive():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d, s, _ = random_instance(rng)
        assert good_test_counts(d, s) == naive_good_counts(d, s)


def test_good_test_counts_singleton():
    d = TestDesign.from_rows(4, [(1, 2), (2,), (3, 4)])
    s = DefectiveSet(4, (2, 3))
    # test 1 holds defective 2 with non-defective 1; test 2 holds 2 alone;
    # test 3 holds defective 3 with non-defective 4
    assert good_test_counts(d, s) == {2: 2, 3: 1}


def test_masking_report_matches_naive():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d, s, _ = random_instance(rng)
        rep = masking_report(d, s)
        assert list(rep.masked_items) == naive_masked_items(d, s)
        members = set(s.members)
        assert rep.masked_defectives == sum(1 for i in rep.masked_items if i in members)
        assert rep.masked_nondefectives == sum(1 for i in rep.masked_items if i not in members)


def test_defectives_in_no_test():
    # items 3, 5, 7 and 8 are in no test; the sets put such defectives
    # between others and last, where each owns no column entry
    d = TestDesign.from_rows(8, [(1, 2), (2, 4), (4, 6), (1, 6)])
    for members in [(1, 3, 4, 5, 8), (3, 5, 8), (1, 8), (2, 3), (8,)]:
        s = DefectiveSet(8, members)
        assert good_test_counts(d, s) == naive_good_counts(d, s)
        assert list(masking_report(d, s).masked_items) == naive_masked_items(d, s)


def test_masking_report_regression_instance():
    rep = masking_report(REGRESSION_DESIGN, REGRESSION_TRUTH)
    # defective 4 and non-defective 7 appear in zero tests (vacuously masked);
    # non-defective 1 only appears alongside defective 2
    assert rep.masked_items == (1, 4, 7)
    assert rep.masked_defectives == 1
    assert rep.masked_nondefectives == 2
    assert rep.zero_test_items == 2


def test_masked_defective_is_undetectable():
    # flipping a masked defective to healthy leaves the outcomes unchanged
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        d, s, y = random_instance(rng)
        rep = masking_report(d, s)
        for i in rep.masked_items:
            if i not in s.members:
                continue
            reduced = DefectiveSet(d.n, tuple(j for j in s.members if j != i))
            assert np.array_equal(generate_outcomes(d, reduced), y)
            checked += 1
    assert checked > 20


def test_masking_report_checks_ground_set():
    with pytest.raises(ParameterError, match="ground sets differ"):
        masking_report(REGRESSION_DESIGN, DefectiveSet(9, (1,)))


@pytest.mark.parametrize("analysis", [good_test_counts, masking_report, generate_outcomes])
def test_defective_set_readers_check_the_ground_set(analysis):
    # all three refuse a set over 4 items on a design over 5, with one message
    design = TestDesign.from_rows(5, [(1, 2), (3,), (4, 5)])
    with pytest.raises(ParameterError, match=r"^ground sets differ: n=5 vs n=4$"):
        analysis(design, DefectiveSet(4, (1,)))


# ---------------------------------------------------------------------------
# the gathered tests of a defective set: outcomes, good tests and masking


def _check_against_naive(d, s):
    assert generate_outcomes(d, s).astype(int).tolist() == naive_outcomes(d, s.members)
    assert good_test_counts(d, s) == naive_good_counts(d, s)
    rep = masking_report(d, s)
    assert list(rep.masked_items) == naive_masked_items(d, s)
    members = set(s.members)
    assert rep.masked_defectives == sum(1 for i in rep.masked_items if i in members)


def test_gather_callers_on_an_empty_defective_set():
    # the iid prior can draw no defective at all
    for d in (REGRESSION_DESIGN, ncc_design(300, 40, 3, seed=2)):
        s = DefectiveSet(d.n, ())
        assert not generate_outcomes(d, s).any()
        assert good_test_counts(d, s) == {}
        rep = masking_report(d, s)
        assert rep.masked_defectives == 0
        assert rep.masked_nondefectives == rep.zero_test_items
        _check_against_naive(d, s)


def test_gather_callers_with_items_in_no_test():
    # items 2, 5 and 8 sit in no test; the defective sets mix them with covered items
    d = TestDesign.from_rows(9, [(1, 3), (3, 4, 9), (), (6, 7), (1, 6)])
    for members in ((2,), (2, 5, 8), (1, 2), (3, 5, 6), (1, 2, 3, 4, 5, 6, 7, 8, 9)):
        s = DefectiveSet(9, members)
        _check_against_naive(d, s)
    assert good_test_counts(d, DefectiveSet(9, (2, 3, 5))) == {2: 0, 3: 2, 5: 0}


@pytest.mark.parametrize("kind", ["ncc", "bernoulli"])
def test_gather_callers_match_naive_at_n_2000(kind):
    n, T, k = 2000, 200, 25
    spec = DesignSpec(kind)
    for seed in range(2):
        d = build_design(spec, n, T, k, seed)
        s = sample_defectives(PriorSpec("combinatorial", k=k), n, seed + 100)
        _check_against_naive(d, s)


# ---------------------------------------------------------------------------
# masking identities: a non-defective is masked exactly when comp keeps it


@pytest.mark.parametrize("T", [1035, 1293, 1552])
def test_masking_identities_at_the_c8_shape(T):
    n, k = 16384, 128
    for seed in range(3):
        d = build_design(DesignSpec("ncc"), n, T, k, seed)
        s = sample_defectives(PriorSpec("combinatorial", k=k), n, seed + 100)
        y = generate_outcomes(d, s)
        comp = set(comp_decode(d, y))
        assert masking_report(d, s).masked_nondefectives == len(comp) - k
        assert set(dd_decode(d, y)) <= set(s.members) <= comp


@pytest.mark.parametrize("k", [6, 268])  # about n^0.3 and n^0.9
def test_masking_and_clean_items_match_naive_at_n_500(k):
    n = 500
    T = math.ceil(k * math.log(n / k) / LN2**2)
    for seed in range(2):
        d = build_design(DesignSpec("ncc"), n, T, k, seed)
        s = sample_defectives(PriorSpec("combinatorial", k=k), n, seed + 100)
        _check_against_naive(d, s)
        y = generate_outcomes(d, s)
        comp = naive_comp(d, y)
        assert (np.flatnonzero(clean_items(d, y)) + 1).tolist() == comp
        assert masking_report(d, s).masked_nondefectives == len(comp) - k


# ---------------------------------------------------------------------------
# satisfying sets


def test_satisfying_sets_matches_naive():
    rng = np.random.default_rng(8)
    for _ in range(60):
        d, s, y = random_instance(rng, n_hi=11, k_hi=4)
        got = satisfying_sets(d, y, s.k)
        assert got == naive_satisfying_sets(d, y, s.k)
        assert s.members in got
        assert got == sorted(got)  # lexicographic


def test_satisfying_sets_cap():
    d = TestDesign.from_rows(30, [tuple(range(1, 31))])
    y = (1,)
    with pytest.raises(CapExceededError) as exc:
        satisfying_sets(d, y, 15, cap=1000)
    import math

    assert exc.value.estimate == math.comb(30, 15)


def test_satisfying_sets_cap_counts_every_item():
    # only items 1..4 are clean, so 6 pairs are enumerated, but the cap
    # compares C(30, 2) = 435
    d = TestDesign.from_rows(30, [(1, 2, 3, 4), tuple(range(5, 31))])
    y = (1, 0)
    with pytest.raises(CapExceededError) as exc:
        satisfying_sets(d, y, 2, cap=100)
    assert exc.value.estimate == math.comb(30, 2)
    assert satisfying_sets(d, y, 2, cap=435) == list(itertools.combinations(range(1, 5), 2))


def test_satisfying_sets_refuses_a_size_that_is_not_whole():
    d = TestDesign.from_rows(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ParameterError, match=r"^need k >= 0, got 1.5$"):
        satisfying_sets(d, [1, 1, 0, 1], 1.5)


def test_satisfying_sets_unique_when_design_separates():
    # each item in its own test: outcomes identify the set exactly
    d = TestDesign.from_rows(5, [(1,), (2,), (3,), (4,), (5,)])
    y = generate_outcomes(d, DefectiveSet(5, (2, 4)))
    assert satisfying_sets(d, y, 2) == [(2, 4)]


# ---------------------------------------------------------------------------
# posterior uniformity


UNIFORM_DESIGN = TestDesign.from_rows(6, [(1, 2, 3), (3, 4, 5), (1, 5, 6), (2, 4, 6)])


def test_uniformity_bins_partition_the_subsets():
    import math

    rep = posterior_uniformity_check(UNIFORM_DESIGN, k=2, trials=30_000, seed=0)
    assert rep.trials == 30_000
    assert sum(b.v_size for b in rep.bins) == math.comb(6, 2)
    assert sum(b.samples for b in rep.bins) == 30_000
    assert rep.skipped == sum(1 for b in rep.bins if b.p_value is None)


def test_uniform_sampler_passes():
    rep = posterior_uniformity_check(UNIFORM_DESIGN, k=2, trials=30_000, seed=0)
    assert any(b.p_value is not None for b in rep.bins)
    assert all(b.p_value > 0.005 for b in rep.bins if b.p_value is not None)


def test_biased_sampler_fails():
    def biased(rng, m, trials):
        w = np.linspace(1.0, 3.0, m)
        return rng.choice(m, size=trials, p=w / w.sum())

    rep = posterior_uniformity_check(UNIFORM_DESIGN, k=2, trials=30_000, seed=0, sampler=biased)
    assert rep.min_p() < 1e-6


@pytest.mark.parametrize("T", [64, 70])
def test_uniformity_check_takes_64_tests_and_more(T):
    # tests alternate {1,2} and {3,4}, so the 15 pairs fall into 4 outcome
    # bins: no positive test ({5,6}), the {1,2} tests only (5 pairs), the
    # {3,4} tests only (5) and all tests (4); the one-pair bin is skipped
    d = TestDesign.from_rows(6, [(1, 2), (3, 4)] * (T // 2))
    rep = posterior_uniformity_check(d, k=2, trials=3_000, seed=0)
    assert sorted(b.v_size for b in rep.bins) == [1, 4, 5, 5]
    assert rep.skipped == 1
    assert all(len(b.outcome) == T for b in rep.bins)


def test_uniformity_check_cap():
    d = TestDesign.from_rows(40, [(1, 2)])
    with pytest.raises(CapExceededError):
        posterior_uniformity_check(d, k=20, trials=100, seed=0)


@pytest.mark.parametrize("k", [7, -1])
def test_uniformity_check_rejects_k_outside_0_to_n(k):
    with pytest.raises(ParameterError, match=rf"^need 0 <= k <= 6, got {k}$"):
        posterior_uniformity_check(UNIFORM_DESIGN, k=k, trials=100, seed=0)


@pytest.mark.parametrize("trials", [2.5, 0])
def test_uniformity_check_refuses_a_trial_count_that_is_not_a_count(trials):
    d = TestDesign.from_rows(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ParameterError, match=rf"^need trials >= 1, got {trials}$"):
        posterior_uniformity_check(d, 2, trials, 0)


def test_uniformity_outcome_labels_are_consistent():
    rep = posterior_uniformity_check(UNIFORM_DESIGN, k=2, trials=5_000, seed=1)
    seen = set()
    for b in rep.bins:
        assert len(b.outcome) == UNIFORM_DESIGN.T
        assert b.outcome not in seen
        seen.add(b.outcome)
        # every set in the bin reproduces the bin's outcome
        members = [
            c
            for c in itertools.combinations(range(1, 7), 2)
            if tuple(generate_outcomes(UNIFORM_DESIGN, DefectiveSet(6, c)).astype(int).tolist()) == b.outcome
        ]
        assert len(members) == b.v_size


@pytest.mark.parametrize(
    "design",
    [TestDesign.from_rows(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), ncc_design(6, 4, 2, 0)],
    ids=["rows", "ncc"],
)
@pytest.mark.parametrize("outcomes", [[2, 0, 0, 0], [[1, 0], [0, 0]], [0.5, 0, 0, 1]], ids=["2", "2-d", "0.5"])
def test_outcomes_must_be_one_dimensional_zeros_and_ones(design, outcomes):
    with pytest.raises(ParameterError, match="^outcomes must"):
        comp_decode(design, outcomes)
    # zeros and ones of any dtype read as the bool array
    want = comp_decode(design, np.array([True, False, False, True]))
    assert comp_decode(design, [1, 0, 0, 1]) == comp_decode(design, np.array([1.0, 0, 0, 1])) == want
