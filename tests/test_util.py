import re

import numpy as np
import pytest

from pooltest.analysis import posterior_uniformity_check
from pooltest.decode import SubsetParams, family_size
from pooltest.design import DesignSpec, TestDesign, bernoulli_design, build_design, ncc_design
from pooltest.errors import ParameterError
from pooltest.harness import ExperimentConfig, masking_sweep, wilson_interval
from pooltest import metrics
from pooltest.model import DefectiveSet, PriorSpec, k_from_theta
from pooltest.oracle import oracle_check
from pooltest.util import (
    LN2,
    ceil_tol,
    floor_tol,
    mix_seed,
    require_count,
    require_real,
    round_half_up,
    splitmix64,
)


def test_round_half_up():
    assert round_half_up(2.0) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(2.6) == 3
    assert round_half_up(0.5) == 1


def test_floor_tol_snaps_near_integers():
    # 0.57 * 100 is 56.99999999999999 in floats; a raw floor loses one
    assert 0.57 * 100 < 57
    assert floor_tol(0.57 * 100) == 57
    assert floor_tol(70.5) == 70
    # 1.1 * 200 sits one ulp above 220; a raw ceil overshoots
    assert 1.1 * 200 > 220
    assert ceil_tol(1.1 * 200) == 220
    assert ceil_tol(87.5) == 88
    assert floor_tol(-0.5) == -1  # no snapping away from true halves


def test_ceil_tol_plain_values():
    assert ceil_tol(3.0) == 3
    assert ceil_tol(3.0000001) == 4
    assert ceil_tol(3.0 + 1e-12) == 3


def test_splitmix64_is_stable():
    # fixed points of the published mixing function
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) != splitmix64(0)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_mix_seed_depends_on_every_part_and_order():
    assert mix_seed(1, 2, 3) != mix_seed(1, 2, 4)
    assert mix_seed(1, 2, 3) != mix_seed(3, 2, 1)
    assert mix_seed(7) == mix_seed(7)
    assert 0 <= mix_seed(123, 456) < 2**64


def test_ln2_constant():
    assert LN2 == pytest.approx(0.6931471805599453, abs=0)


def test_require_count_reads_whole_numbers_only():
    assert require_count("n", 3) == 3
    got = require_count("n", np.int64(7))
    assert got == 7 and type(got) is int
    assert require_count("k", 0, low=0) == 0
    for bad in (0, -2, 2.0, 2.5, None, "3", float("nan")):
        with pytest.raises(ParameterError, match=rf"^need n >= 1, got {bad!r}$"):
            require_count("n", bad)


def test_require_count_quotes_a_string_and_no_number():
    # a numpy scalar's repr would read np.float64(2.5), so only a string is quoted
    with pytest.raises(ParameterError, match=r"^need n >= 1, got 2.5$"):
        require_count("n", np.float64(2.5))
    with pytest.raises(ParameterError, match=r"^need 1 <= n <= 5, got '3'$"):
        require_count("n", "3", high=5)


def test_require_count_reads_a_range_in_one_message_form():
    assert require_count("k", 0, low=0, high=0) == 0
    assert require_count("k", np.int64(5), high=5) == 5
    for bad in (0, 6, 2.5, None):
        with pytest.raises(ParameterError, match=rf"^need 1 <= k <= 5, got {bad}$"):
            require_count("k", bad, high=5)
    # low=None reads a whole number of any sign, as a seed is
    assert require_count("seed", -(2**70), low=None) == -(2**70)
    for bad in (1.5, "3", None):
        with pytest.raises(ParameterError, match=rf"^need a whole number seed, got {bad!r}$"):
            require_count("seed", bad, low=None)


def _config(**sizes):
    fields = {"n": 50, "k": 3, "T": 20, "trials": 2, "decoder": "dd", **sizes}
    return ExperimentConfig(design=DesignSpec("ncc"), criterion=metrics.Criterion.exact(), **fields)


# a size that is not a whole number, each at a caller of require_count
FRACTIONAL_SIZES = {
    "config-T": lambda: _config(T=20.5),
    "config-k": lambda: _config(k=2.5),
    "config-n": lambda: _config(n=50.0),
    "config-trials": lambda: _config(trials=2.0),
    "ncc-L": lambda: ncc_design(10, 5, 2.5, 0),
    "bernoulli-T": lambda: bernoulli_design(10, 5.5, 0.2, 0),
    "prior-k": lambda: PriorSpec("combinatorial", k=2.5),
    "masking-trials": lambda: masking_sweep(50, 0.5, [0.5], DesignSpec("ncc"), 2.5),
    "oracle-instances": lambda: oracle_check("explained-naive", instances=2.5),
    "chernoff-n": lambda: metrics.chernoff_upper(5.5, 0.2, 0.3),
    "chernoff-nan-delta": lambda: metrics.chernoff_upper(5, 0.2, float("nan")),
    "rate-T": lambda: metrics.rate(10, 3, 4.5),
    "tests-for-rate-n": lambda: metrics.tests_for_rate(10.5, 3, 0.5),
    "bernoulli-build-k": lambda: build_design(DesignSpec("bernoulli"), 20, 10, 2.5, 0),
    "ncc-build-k": lambda: build_design(DesignSpec("ncc"), 20, 10, 2.5, 0),
    "defective-set-n": lambda: DefectiveSet(2.5, (1, 2)),
    "wilson-successes": lambda: wilson_interval(2.5, 10),
    "wilson-total": lambda: wilson_interval(2, 10.5),
    "family-size": lambda: family_size(5, 4.5, 2.0, 20),
    "family-n": lambda: family_size(5, 4, 2.0, 20.5),
    "uniformity-k": lambda: posterior_uniformity_check(
        TestDesign.from_rows(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), 2.5, 10, 0
    ),
}


@pytest.mark.parametrize("case", FRACTIONAL_SIZES)
def test_a_size_that_is_not_whole_is_refused(case):
    # the config cases are refused when the config is made, before any trial
    with pytest.raises(ParameterError):
        FRACTIONAL_SIZES[case]()


# a size above its greatest value, each refused in the one message form;
# wilson_interval's, posterior_uniformity_check's and _dd_pad's have their own tests
SIZES_ABOVE_THEIR_GREATEST = {
    "config-k": (lambda: _config(n=10, k=11), "need 1 <= k <= 10, got 11"),
    "ncc-L": (lambda: ncc_design(10, 5, 6, 0), "need 1 <= L <= 5, got 6"),
    "log2-binomial-k": (lambda: metrics.log2_binomial(5, 6), "need 0 <= k <= 5, got 6"),
    "rate-k": (lambda: metrics.rate(5, 6, 3), "need 1 <= k <= 5, got 6"),
    "tests-for-rate-k": (lambda: metrics.tests_for_rate(5, 0, 0.5), "need 1 <= k <= 5, got 0"),
    "family-base": (lambda: family_size(6, 4, 2.0, 5), "need 0 <= base_size <= 5, got 6"),
}


@pytest.mark.parametrize("case", SIZES_ABOVE_THEIR_GREATEST)
def test_a_size_above_its_greatest_value_is_refused(case):
    call, message = SIZES_ABOVE_THEIR_GREATEST[case]
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def _pipeline(**knobs):
    return _config(decoder="pipeline", **knobs)


# every real-valued input, as a call of the value, and a value just outside
# its interval
REAL_INPUTS = {
    "theta-k": (lambda v: k_from_theta(100, v), 1.0),
    "theta-zeta": (lambda v: metrics.zeta(v), 0.0),
    "target-rate": (lambda v: metrics.tests_for_rate(100, 5, v), 0.0),
    "criterion-eta-minus": (lambda v: metrics.Criterion.subset(v), 1.0),
    "criterion-eta-plus": (lambda v: metrics.Criterion.superset(v), -1e-12),
    "criterion-beta": (lambda v: metrics.Criterion.two_sided(v), -1e-12),
    "criterion-alpha-fn": (lambda v: metrics.Criterion.asymmetric(v, 0.1), -1e-12),
    "criterion-alpha-fp": (lambda v: metrics.Criterion.asymmetric(0.1, v), -1e-12),
    "mu-upper": (lambda v: metrics.chernoff_upper(5, v, 0.5), 1.0),
    "mu-lower": (lambda v: metrics.chernoff_weak_lower(5, v, 0.5), 0.0),
    "delta-upper": (lambda v: metrics.chernoff_weak_upper(5, 0.2, v), 0.0),
    "delta-lower": (lambda v: metrics.chernoff_lower(5, 0.2, v), 1.0 + 1e-12),
    "bernoulli-p": (lambda v: bernoulli_design(10, 5, v, 0), 1.0),
    "design-nu": (lambda v: DesignSpec("ncc", nu=v), 0.0),
    "design-p-override": (lambda v: DesignSpec("bernoulli", p_override=v), 1.0),
    "iid-q": (lambda v: PriorSpec("iid", q=v), 0.0),
    "eta-minus": (lambda v: SubsetParams(v), 1.0),
    "radius-mult": (lambda v: SubsetParams(0.1, radius_mult=v), 0.0),
    "family-radius": (lambda v: family_size(5, 4, v, 20), -1e-12),
    "pipeline-alpha": (lambda v: _pipeline(alpha=v), 1.0),
    "pipeline-xi": (lambda v: _pipeline(alpha=0.1, xi=v), 0.1 + 1e-12),
}


@pytest.mark.parametrize("case", REAL_INPUTS)
def test_a_real_input_outside_its_interval_is_refused(case):
    # a string, NaN, an infinity and a value just past an end, each a
    # ParameterError in the one form, never a TypeError
    call, outside = REAL_INPUTS[case]
    for bad in ("0.5", float("nan"), float("inf"), outside):
        with pytest.raises(ParameterError, match=f"^need .*, got {re.escape(repr(bad))}$"):
            call(bad)


# each interval shape in use: its wording, and whether it takes in 0 and its top
REAL_SHAPES = {
    "need 0 < x < 1": (dict(high=1), False, False),
    "need 0 <= x < 1": (dict(high=1, low_closed=True), True, False),
    "need 0 < x <= 1": (dict(high=1, high_closed=True), False, True),
    "need x > 0": (dict(), False, None),
    "need x >= 0": (dict(low_closed=True), True, None),
    "need 0 <= x <= 0.25": (dict(high=0.25, low_closed=True, high_closed=True), True, True),
}


@pytest.mark.parametrize("bound", REAL_SHAPES)
def test_require_real_reads_each_interval_shape(bound):
    shape, takes_zero, takes_top = REAL_SHAPES[bound]
    assert require_real("x", np.float64(0.125), **shape) == 0.125
    for value, taken in ((0, takes_zero), (shape.get("high"), takes_top)):
        if taken:
            assert require_real("x", value, **shape) == value
        elif value is not None:
            with pytest.raises(ParameterError, match=f"^{re.escape(bound)}, got {value}$"):
                require_real("x", value, **shape)
    for bad in (-0.5, float("-inf"), None, "0.1", 10**400):
        with pytest.raises(ParameterError, match=f"^{re.escape(bound)}, got "):
            require_real("x", bad, **shape)
