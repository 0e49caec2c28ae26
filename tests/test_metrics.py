import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest.errors import ParameterError
from pooltest.metrics import (
    THETA_KNEE,
    Criterion,
    _score,
    chernoff_lower,
    chernoff_upper,
    chernoff_weak_lower,
    chernoff_weak_upper,
    evaluate,
    log2_binomial,
    r_star,
    rate,
    threshold_curve,
    write_threshold_csv,
    zeta,
)
from pooltest.metrics import tests_for_rate as minimal_tests
from pooltest.model import DefectiveSet
from pooltest.util import LN2, ceil_tol, floor_tol


# ---------------------------------------------------------------------------
# counting


def test_log2_binomial_small_exact():
    assert log2_binomial(4, 2) == math.log2(6)
    assert log2_binomial(10, 0) == 0.0
    assert log2_binomial(10, 10) == 0.0
    assert log2_binomial(5, 1) == math.log2(5)


def test_log2_binomial_large_matches_big_integer():
    # k > 64 exercises the summation path; big-int log2 is the oracle
    for n, k in ((300, 150), (1000, 100), (2048, 70), (4096, 1783)):
        exact = math.log2(math.comb(n, k))
        assert log2_binomial(n, k) == pytest.approx(exact, rel=1e-12)


def test_log2_binomial_rejects_bad_args():
    with pytest.raises(ParameterError):
        log2_binomial(5, 6)
    with pytest.raises(ParameterError):
        log2_binomial(-1, 0)


def test_rate_frozen_value():
    assert rate(4, 2, 5) == pytest.approx(0.5169925001442313, abs=1e-15)
    assert rate(4, 2, 5) == log2_binomial(4, 2) / 5


def test_tests_for_rate_is_minimal():
    for n, k, target in ((4, 2, LN2), (100, 10, 0.5), (100, 10, 1.0), (64, 8, 0.693)):
        T = minimal_tests(n, k, target)
        assert rate(n, k, T) <= target
        if T > 1:
            assert rate(n, k, T - 1) > target


def test_tests_for_rate_frozen_value():
    assert minimal_tests(4, 2, LN2) == 4


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_tests_for_rate_minimality_property(n, k, target):
    if k > n:
        k = n
    T = minimal_tests(n, k, target)
    assert T >= 1
    assert rate(n, k, T) <= target
    if T > 1:
        assert rate(n, k, T - 1) > target


# ---------------------------------------------------------------------------
# criteria


def test_criterion_validation():
    with pytest.raises(ParameterError):
        Criterion("nonsense")
    with pytest.raises(ParameterError):
        Criterion.subset(1.0)  # eta_minus must stay below 1
    with pytest.raises(ParameterError):
        Criterion.subset(-0.1)
    with pytest.raises(ParameterError):
        Criterion("asymmetric", alpha_fn=0.1)  # missing alpha_fp
    Criterion.superset(0.0)
    Criterion.two_sided(0.0)


def test_criterion_labels():
    assert Criterion.exact().label() == "exact"
    assert Criterion.subset(0.1).label() == "subset(0.1)"
    assert Criterion.superset(0.25).label() == "superset(0.25)"
    assert Criterion.two_sided(0.5).label() == "two-sided(0.5)"
    assert Criterion.asymmetric(0.1, 0.2).label() == "asymmetric(0.1,0.2)"


def test_evaluate_exact():
    out = evaluate(Criterion.exact(), (1, 2, 3), (1, 2, 3))
    assert out.success and out.false_negatives == 0 and out.false_positives == 0
    out = evaluate(Criterion.exact(), (1, 2, 3), (1, 2, 4))
    assert not out.success and out.false_negatives == 1 and out.false_positives == 1


def test_evaluate_subset():
    crit = Criterion.subset(0.4)
    truth = (1, 2, 3, 4, 5)
    assert evaluate(crit, truth, (1, 2, 3)).success  # floor(0.6 * 5) = 3 kept
    assert not evaluate(crit, truth, (1, 2)).success  # too small
    assert not evaluate(crit, truth, (1, 2, 3, 6)).success  # spurious item
    assert evaluate(crit, truth, truth).success


def test_evaluate_subset_tolerates_float_size_products():
    # (1 - 0.29) * 100 lands one ulp below 71; the size floor must still be 71
    crit = Criterion.subset(0.29)
    truth = tuple(range(1, 101))
    est71 = tuple(range(1, 72))
    est70 = tuple(range(1, 71))
    assert evaluate(crit, truth, est71).success
    assert not evaluate(crit, truth, est70).success


def test_evaluate_superset():
    crit = Criterion.superset(0.5)
    truth = (2, 4)
    assert evaluate(crit, truth, (2, 4, 7)).success  # ceil(1.5 * 2) = 3 allowed
    assert not evaluate(crit, truth, (2, 4, 6, 7)).success  # too big
    assert not evaluate(crit, truth, (2, 7)).success  # missed a defective


def test_evaluate_two_sided_and_asymmetric():
    truth = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    crit = Criterion.two_sided(0.2)
    assert evaluate(crit, truth, (1, 2, 3, 4, 5, 6, 7, 8, 11, 12)).success  # 2 out, 2 in
    assert not evaluate(crit, truth, (1, 2, 3, 4, 5, 6, 7, 11, 12, 13)).success
    crit = Criterion.asymmetric(0.3, 0.0)
    assert evaluate(crit, truth, (1, 2, 3, 4, 5, 6, 7)).success
    assert not evaluate(crit, truth, (1, 2, 3, 4, 5, 6, 7, 11)).success


def test_evaluate_accepts_defective_set_objects():
    from pooltest.model import DefectiveSet

    truth = DefectiveSet(10, (1, 5))
    assert evaluate(Criterion.exact(), truth, (1, 5)).success


def _frozenset_evaluate(c, truth, estimate):
    """evaluate's definition over frozensets: (success, fn, fp)."""
    t, e = frozenset(truth), frozenset(estimate)
    k, fn, fp = len(t), len(t - e), len(e - t)
    if c.kind == "exact":
        ok = fn == 0 and fp == 0
    elif c.kind == "subset":
        ok = fp == 0 and len(e) >= floor_tol((1.0 - c.eta_minus) * k)
    elif c.kind == "superset":
        ok = fn == 0 and len(e) <= ceil_tol((1.0 + c.eta_plus) * k)
    elif c.kind == "two-sided":
        ok = fn <= c.beta * k + 1e-9 and fp <= c.beta * k + 1e-9
    else:
        ok = fn <= c.alpha_fn * k + 1e-9 and fp <= c.alpha_fp * k + 1e-9
    return ok, fn, fp


SCORED_CRITERIA = (
    Criterion.exact(),
    Criterion.subset(0.2),
    Criterion.subset(0.0),
    Criterion.superset(0.5),
    Criterion.two_sided(0.25),
    Criterion.asymmetric(0.3, 0.1),
)


def _assert_scorers_agree(rng, n, truth, estimate):
    """_score and evaluate against the frozenset definition, on one instance
    over items 1..n."""
    t_items, e_items = truth.tolist(), estimate.tolist()
    for criterion in SCORED_CRITERIA:
        want = _frozenset_evaluate(criterion, t_items, e_items)
        out = _score(criterion, truth, rng.permutation(estimate), n)  # the estimate in any order
        assert (out.success, out.false_negatives, out.false_positives) == want
        # public inputs: unsorted lists, sets, DefectiveSets, repeats
        shuffled = rng.permutation(t_items).tolist()
        repeated = e_items + e_items[: int(rng.integers(0, len(e_items) + 1))]
        for t_in, e_in in (
            (shuffled, repeated),
            (set(t_items), set(e_items)),
            (DefectiveSet(n, tuple(t_items)), tuple(e_items)),
            (tuple(t_items), DefectiveSet(n, tuple(e_items))),
            (DefectiveSet(n, tuple(t_items)), DefectiveSet(n, tuple(e_items))),
            (DefectiveSet(n, tuple(truth)), DefectiveSet(n, tuple(estimate))),  # numpy integer members
            (truth, estimate[::-1]),
        ):
            public = evaluate(criterion, t_in, e_in)
            assert (public.success, public.false_negatives, public.false_positives) == want
            assert type(public.false_negatives) is int and type(public.false_positives) is int
        assert estimate.tolist() == e_items  # an array argument is left as it was


def test_array_scorer_agrees_with_the_frozenset_definition():
    rng = np.random.default_rng(41)
    for _ in range(400):
        n = int(rng.integers(1, 40))
        truth = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)) + 1
        # estimates near the truth: drop some members, add some outsiders
        kept = truth[rng.random(truth.size) < 0.8]
        extra = rng.choice(n, size=int(rng.integers(0, 4)), replace=True) + 1
        estimate = np.unique(np.concatenate([kept, extra]))
        _assert_scorers_agree(rng, n, truth, estimate)
    # estimates reaching past the truth's largest item, up to n, and empty sides
    for n, truth, estimate in (
        (9, [1, 2], [2, 9]),
        (9, [3], [1, 5, 8, 9]),
        (9, [2, 4], [4, 7]),
        (5, [], [3, 5]),
        (5, [4], []),
        (5, [], []),
        (1, [1], [1]),
    ):
        _assert_scorers_agree(rng, n, np.array(truth, dtype=np.int64), np.array(estimate, dtype=np.int64))
    # a whole-valued float is its item, as in a frozenset; a fraction is no item
    assert evaluate(Criterion.exact(), (1, 2), (2.0, 1.0)).success
    with pytest.raises(ParameterError, match="whole numbers"):
        evaluate(Criterion.exact(), (1, 2), (1.5, 2))
    # the same holds for a DefectiveSet, whose members are read as they are
    # only when they are integers
    assert evaluate(Criterion.exact(), DefectiveSet(2, (1, 2)), DefectiveSet(2, (1.0, 2.0))).success
    with pytest.raises(ParameterError, match="whole numbers"):
        evaluate(Criterion.exact(), DefectiveSet(2, (1, 2)), DefectiveSet(2, (1.5, 2)))


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_evaluate_rejects_items_below_one(bad):
    # the scorer indexes a mask over 1..n by item, where a negative item
    # would wrap around to a real one
    for truth, estimate in (((bad, 2), (2,)), ((1, 2), (bad, 2)), ((), (bad,)), ((bad,), ())):
        with pytest.raises(ParameterError, match=f"^need item >= 1, got {bad}$"):
            evaluate(Criterion.exact(), truth, estimate)


# ---------------------------------------------------------------------------
# thresholds


def test_zeta_closed_form():
    for theta in (0.5, 0.55, 0.7, 0.9):
        assert zeta(theta) == pytest.approx(LN2 * (1 - theta) / theta, abs=1e-15)
    assert zeta(0.7) == pytest.approx(0.2970630773828337, abs=1e-15)


def test_zeta_is_one_exactly_up_to_the_knee():
    assert THETA_KNEE == pytest.approx(0.4093838908503587, abs=1e-15)
    assert zeta(THETA_KNEE) == 1.0
    assert zeta(0.1) == 1.0
    assert zeta(0.4) == 1.0
    assert zeta(0.41) < 1.0
    assert zeta(0.41) == pytest.approx(LN2 * 0.59 / 0.41, abs=1e-15)


def test_zeta_domain():
    with pytest.raises(ParameterError):
        zeta(0.0)
    with pytest.raises(ParameterError):
        zeta(1.0)


def test_r_star_three_regimes():
    assert r_star(0.2) == 1.0
    assert r_star(0.45) == zeta(0.45)  # between the knee and 1/2
    assert LN2 < r_star(0.45) < 1.0
    assert r_star(0.5) == pytest.approx(LN2, abs=1e-15)
    assert r_star(0.7) == LN2  # zeta has dropped below ln 2
    assert r_star(0.9) == LN2


def test_threshold_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    thetas = [0.1, 0.3, 0.41, 0.5, 0.7, 0.9]
    write_threshold_csv(thetas, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(thetas)
    for row, theta in zip(rows, thetas):
        assert float(row["theta"]) == pytest.approx(theta, abs=1e-12)
        assert float(row["zeta"]) == pytest.approx(zeta(theta), abs=1e-12)
        assert float(row["r_star"]) == pytest.approx(r_star(theta), abs=1e-12)
        assert float(row["counting_bound"]) == 1.0


def test_threshold_curve_points():
    pts = threshold_curve([0.3, 0.6])
    assert [p.theta for p in pts] == [0.3, 0.6]
    assert pts[0].zeta == 1.0 and pts[1].zeta < 1.0


# ---------------------------------------------------------------------------
# tail bounds


def test_chernoff_frozen_values():
    assert chernoff_lower(10, 0.5, 1.0) == pytest.approx(math.exp(-5.0), abs=0)
    assert chernoff_weak_lower(10, 0.5, 1.0) == pytest.approx(math.exp(-2.5), abs=0)
    assert chernoff_weak_upper(10, 0.5, 1.0) == pytest.approx(math.exp(-5.0 / 3.0), abs=0)
    expo = 2.0 * math.log(2.0) - 1.0
    assert chernoff_upper(10, 0.5, 1.0) == pytest.approx(math.exp(-5.0 * expo), rel=1e-15)


def test_chernoff_domains():
    with pytest.raises(ParameterError):
        chernoff_upper(0, 0.5, 0.5)
    with pytest.raises(ParameterError):
        chernoff_upper(10, 1.5, 0.5)
    with pytest.raises(ParameterError):
        chernoff_upper(10, 0.5, 0.0)
    with pytest.raises(ParameterError):
        chernoff_lower(10, 0.5, 1.1)  # lower tail caps at delta = 1
    chernoff_upper(10, 0.5, 3.0)  # upper tail takes any positive delta


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=1, max_value=1000),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1e-4, max_value=1.0),
)
def test_strong_bounds_never_exceed_weak(n, mu, delta):
    assert chernoff_lower(n, mu, delta) <= chernoff_weak_lower(n, mu, delta) * (1 + 1e-12)
    assert chernoff_upper(n, mu, delta) <= chernoff_weak_upper(n, mu, delta) * (1 + 1e-12)


def test_bounds_are_probabilities_in_range():
    for delta in (0.1, 0.5, 1.0):
        for f in (chernoff_upper, chernoff_lower, chernoff_weak_upper, chernoff_weak_lower):
            v = f(50, 0.2, delta)
            assert 0.0 < v <= 1.0
