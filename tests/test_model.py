import hashlib
import itertools
import math
import pathlib
import tempfile

import numpy as np
import pytest
from scipy import stats

from pooltest import decode, model
from pooltest.analysis import explained_tests, set_hamming
from pooltest.decode import deletion_pipeline
from pooltest.design import DesignSpec, TestDesign, bernoulli_design, load_design
from pooltest.errors import DesignFormatError, ParameterError
from pooltest.metrics import Criterion, EvalOutcome, evaluate
from pooltest.model import (
    DefectiveSet,
    PriorSpec,
    _draw,
    generate_outcomes,
    k_from_theta,
    sample_defectives,
)
from pooltest.reference import naive_outcomes


# ---------------------------------------------------------------------------
# sizes


def test_k_from_theta_frozen_values():
    # 4096^0.9 = 1782.887... rounds to 1783; 16384^0.5 is exactly 128
    assert k_from_theta(4096, 0.9) == 1783
    assert k_from_theta(16384, 0.5) == 128
    assert k_from_theta(100, 0.5) == 10
    assert k_from_theta(1000, 1.0 / 3.0) == 10


def test_k_from_theta_floors_at_one():
    assert k_from_theta(2, 0.1) == 1
    assert k_from_theta(10, 0.01) == 1


def test_k_from_theta_rounds_half_up():
    # n^theta = sqrt(2) * sqrt(2) style midpoints are rare; use an exact one:
    # 4^0.5 = 2 exactly, 2^0.5 = 1.414 -> 1
    assert k_from_theta(4, 0.5) == 2
    assert k_from_theta(2, 0.5) == 1


def test_k_from_theta_domain():
    with pytest.raises(ParameterError):
        k_from_theta(0, 0.5)
    with pytest.raises(ParameterError):
        k_from_theta(100, 0.0)
    with pytest.raises(ParameterError):
        k_from_theta(100, 1.5)


# ---------------------------------------------------------------------------
# sets and outcomes


def test_defective_set_basics():
    s = DefectiveSet(10, (2, 5, 7))
    assert s.k == 3
    assert 5 in s and 4 not in s
    assert [i for i in range(12) if i in s] == [2, 5, 7]  # below, between and past the members
    assert np.int64(7) in s and 7.5 not in s
    assert 1 not in DefectiveSet(10, ())
    assert list(s) == [2, 5, 7]


def test_defective_set_of_sorts_and_dedups():
    s = DefectiveSet.of(10, [7, 2, 5, 2])
    assert s.members == (2, 5, 7)


# the public readers of an item collection that take any order and repeats,
# each as a function of the collection; every one reads it through
# model._item_array
_EXPLAIN_DESIGN = TestDesign.from_rows(4, [(1,), (2,), (3, 4)])
SET_READERS = {
    "DefectiveSet.of": lambda items: DefectiveSet.of(4, items),
    "evaluate": lambda items: evaluate(Criterion.exact(), (1, 2), items),
    "set_hamming": lambda items: set_hamming((1, 3), items),
    "explained_tests": lambda items: explained_tests(_EXPLAIN_DESIGN, [1, 1, 0], items),
}


def _load_rows(n, rows):
    """load_design of a file holding the rows, each item written by str."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "design.txt")
        path.write_text(f"{len(rows)} {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        return load_design(path)


# every public reader of item indices: the set readers, and the readers that
# keep the items in their order, cols_of and the ones that need them strictly
# increasing, the second row of a design and of a design file among them
ITEM_READERS = {
    **SET_READERS,
    "cols_of": lambda items: _EXPLAIN_DESIGN.cols_of(items),
    "provided": lambda items: decode.SubsetParams(0.5, frontend="provided", provided=tuple(items)),
    "DefectiveSet": lambda items: DefectiveSet(4, items),
    "from_rows": lambda items: TestDesign.from_rows(4, [(1,), items]),
    "load_design": lambda items: _load_rows(4, [(1,), items]),
}


def _refusal(reader):
    """The error a reader raises for an item that is not whole, and its
    wording: a design file holds text, so load_design refuses such an item
    as a token that is not an integer."""
    if reader == "load_design":
        return DesignFormatError, "is not an integer"
    return ParameterError, "items must be whole numbers"


@pytest.mark.parametrize("reader", sorted(ITEM_READERS))
def test_item_readers_reject_non_whole_items(reader):
    error, message = _refusal(reader)
    for items in ([1.5], (2, 1.7), np.array([1.0, 2.5])):
        with pytest.raises(error, match=message):
            ITEM_READERS[reader](items)


# one of every kind of non-item, each refused by every reader with no numpy
# warning on the way; an int beyond int64 is refused as out of range
NON_ITEMS = {
    "string": "a",
    "None": None,
    "complex": 1 + 0j,
    "nested": (1, 2),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "2**70": 2**70,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NON_ITEMS)
@pytest.mark.parametrize("reader", sorted(ITEM_READERS))
def test_item_readers_refuse_every_non_item(reader, bad):
    error, message = _refusal(reader)
    if bad == "2**70":
        message = rf"need 1 <= item <= \d+, got {2**70}$"
    with pytest.raises(error, match=message):
        ITEM_READERS[reader]((1, NON_ITEMS[bad]))


@pytest.mark.parametrize("reader", sorted(SET_READERS))
def test_item_readers_read_every_collection_of_items_alike(reader):
    # each is the set {1, 2}: repeats, order, whole floats and container type
    # change nothing
    collections = (
        lambda: (2, 1, 2),
        lambda: [2.0, 1.0],
        lambda: {2, 1},
        lambda: frozenset({1, 2}),
        lambda: (i for i in (2, 1)),
        lambda: np.array([2, 1, 2], dtype=np.int32),
        lambda: np.array([1.0, 2.0]),
        lambda: DefectiveSet(4, (1, 2)),
        lambda: DefectiveSet(4, (1.0, 2.0)),
    )
    want = {
        "DefectiveSet.of": DefectiveSet(4, (1, 2)),
        "evaluate": evaluate(Criterion.exact(), (1, 2), (1, 2)),
        "set_hamming": 2,
        "explained_tests": explained_tests(_EXPLAIN_DESIGN, [1, 1, 0], (1, 2)),
    }[reader]
    assert want != SET_READERS[reader]((1, 3))  # the readers tell {1, 2} from {1, 3}
    for make in collections:
        assert SET_READERS[reader](make()) == want


# an item below 1, or above the ground set a reader knows, each refused in
# require_count's form for "item", after the row it is in for a design's rows
ITEMS_OUT_OF_RANGE = {
    "set_hamming-below-1": (lambda: set_hamming([-5, 0], [1]), "need item >= 1, got -5"),
    "set_hamming-past-n": (
        lambda: set_hamming(DefectiveSet.of(10, [1]), [50]), "need 1 <= item <= 10, got 50"
    ),
    "set_hamming-past-n-second": (
        lambda: set_hamming([50], DefectiveSet.of(10, [1])), "need 1 <= item <= 10, got 50"
    ),
    "DefectiveSet.of": (lambda: DefectiveSet.of(4, [1, 5]), "need 1 <= item <= 4, got 5"),
    "DefectiveSet": (lambda: DefectiveSet(4, (1, 5)), "need 1 <= item <= 4, got 5"),
    "DefectiveSet-past-int64": (
        lambda: DefectiveSet(2**64, (2**63,)), f"need 1 <= item <= {2**63 - 1}, got {2**63}"
    ),
    "explained_tests": (
        lambda: explained_tests(_EXPLAIN_DESIGN, [1, 1, 0], (0, 2)), "need 1 <= item <= 4, got 0"
    ),
    "evaluate": (lambda: evaluate(Criterion.exact(), (1, 2), (0, 2)), "need item >= 1, got 0"),
    "provided": (
        lambda: decode.SubsetParams(0.5, frontend="provided", provided=(0, 2)), "need item >= 1, got 0"
    ),
    "cols_of": (lambda: _EXPLAIN_DESIGN.cols_of([2, 0]), "need 1 <= item <= 4, got 0"),
    "from_rows": (lambda: TestDesign.from_rows(4, [(1,), (2, 5)]), "test 2: need 1 <= item <= 4, got 5"),
    "load_design": (lambda: _load_rows(4, [(1,), (2, 5)]), "line 3: need 1 <= item <= 4, got 5"),
}


@pytest.mark.parametrize("case", ITEMS_OUT_OF_RANGE)
def test_an_item_out_of_range_is_refused(case):
    call, message = ITEMS_OUT_OF_RANGE[case]
    with pytest.raises(DesignFormatError if case == "load_design" else ParameterError, match=f"^{message}$"):
        call()


def test_evaluate_reads_items_far_past_the_sets_sizes():
    # the scorer's mask covers the union of the two sets, not 1..10**12
    assert evaluate(Criterion.exact(), (1,), (10**12,)) == EvalOutcome(False, 1, 1)
    assert evaluate(Criterion.exact(), (10**12, 5), (5, 10**12)) == EvalOutcome(True, 0, 0)


def test_defective_set_keeps_its_members_as_ints():
    s = DefectiveSet(4, (1.0, 2.0))
    assert s.members == (1, 2) and all(type(i) is int for i in s.members)
    assert all(type(i) is int for i in DefectiveSet(4, np.array([1, 3], dtype=np.int32)).members)
    # an int past 2**53 beside a float is read exactly, not through float64
    assert DefectiveSet(2**60, (1.0, 2**53 + 1)).members == (1, 2**53 + 1)
    # so no reader of a DefectiveSet (good_test_counts, masking_report,
    # generate_outcomes) can receive a fractional member
    with pytest.raises(ParameterError, match=r"^items must be whole numbers, got \[1.5\]$"):
        DefectiveSet(4, (1.5, 2))


def test_defective_set_validation():
    with pytest.raises(ParameterError):
        DefectiveSet(5, (0,))
    with pytest.raises(ParameterError):
        DefectiveSet(5, (6,))
    with pytest.raises(ParameterError):
        DefectiveSet(5, (3, 2))  # must be sorted strictly increasing
    with pytest.raises(ParameterError):
        DefectiveSet(5, (2, 2))
    DefectiveSet(5, ())  # empty is legal


@pytest.mark.parametrize(
    "members, message",
    [
        ((0, 5, 3), "need 1 <= item <= 10, got 0"),
        ((3, 3), "members must be strictly increasing"),
        ((1, 11), "need 1 <= item <= 10, got 11"),
        ((2, 7, 5, 12), "need 1 <= item <= 10, got 12"),  # a member out of range is named before the order
        ((4, 12, 11), "need 1 <= item <= 10, got 12"),
    ],
)
def test_defective_set_names_the_first_offending_member(members, message):
    with pytest.raises(ParameterError) as err:
        DefectiveSet(10, members)
    assert str(err.value) == message


def test_generate_outcomes_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        T = int(rng.integers(1, 12))
        rows = []
        for _ in range(T):
            m = rng.random(n) < 0.3
            rows.append(tuple(int(i) + 1 for i in np.flatnonzero(m)))
        d = TestDesign.from_rows(n, rows)
        k = int(rng.integers(0, min(4, n) + 1))
        members = tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False) + 1))
        s = DefectiveSet(n, members)
        y = generate_outcomes(d, s)
        assert y.dtype == bool and y.shape == (T,)
        assert y.astype(int).tolist() == naive_outcomes(d, members)


def test_generate_outcomes_checks_ground_set():
    d = bernoulli_design(10, 5, 0.3, seed=0)
    with pytest.raises(ParameterError, match="ground sets differ"):
        generate_outcomes(d, DefectiveSet(11, (1,)))


# ---------------------------------------------------------------------------
# priors


def test_prior_spec_validation_and_labels():
    with pytest.raises(ParameterError):
        PriorSpec("weird", k=3)
    with pytest.raises(ParameterError):
        PriorSpec("iid")  # q required
    with pytest.raises(ParameterError):
        PriorSpec("iid", q=1.5)
    with pytest.raises(ParameterError):
        PriorSpec("combinatorial")  # k required
    with pytest.raises(ParameterError):
        PriorSpec("iid-pad", k=0)
    assert PriorSpec("iid", q=0.25).label() == "iid(0.25)"
    assert PriorSpec("combinatorial", k=5).label() == "combinatorial(5)"
    assert PriorSpec("iid-trim", k=2).label() == "iid-trim(2)"


def test_combinatorial_prior_is_uniform():
    # chi-square over all 15 subsets of size 2 from 6 items
    n, k, trials = 6, 2, 6000
    counts = {c: 0 for c in itertools.combinations(range(1, n + 1), k)}
    prior = PriorSpec("combinatorial", k=k)
    for seed in range(trials):
        s = sample_defectives(prior, n, seed=seed)
        assert s.k == k
        counts[s.members] += 1
    _, p = stats.chisquare(list(counts.values()))
    assert p > 1e-4


def test_combinatorial_prior_is_deterministic():
    prior = PriorSpec("combinatorial", k=3)
    a = sample_defectives(prior, 50, seed=99)
    b = sample_defectives(prior, 50, seed=99)
    assert a == b


def test_iid_prior_marginal_density():
    prior = PriorSpec("iid", q=0.2)
    n, trials = 400, 200
    total = 0
    for seed in range(trials):
        total += sample_defectives(prior, n, seed=seed).k
    mean = total / trials
    sd = math.sqrt(0.2 * 0.8 * n / trials)
    assert abs(mean - 0.2 * n) < 5 * sd


def test_trim_prior_never_overshoots():
    n, k = 500, 20
    prior = PriorSpec("iid-trim", k=k)
    sizes = [sample_defectives(prior, n, seed=s).k for s in range(200)]
    assert all(size <= k for size in sizes)
    assert any(size == k for size in sizes)  # trimming hits the target when it can
    # the inflated density overshoots in the typical draw, so undershoots are rare
    assert sum(size < k for size in sizes) < 50


def test_pad_prior_never_undershoots():
    # the deflated density needs sqrt(k) > ln n to stay positive
    n, k = 500, 60
    prior = PriorSpec("iid-pad", k=k)
    sizes = [sample_defectives(prior, n, seed=s).k for s in range(200)]
    assert all(size >= k for size in sizes)
    assert any(size == k for size in sizes)


def test_two_step_density_domain_error():
    # (k + sqrt(k) ln n) / n > 1 for k = 4, n = 5
    prior = PriorSpec("iid-trim", k=4)
    with pytest.raises(ParameterError, match="falls outside"):
        sample_defectives(prior, 5, seed=0)


def test_prior_k_cannot_exceed_n():
    prior = PriorSpec("combinatorial", k=6)
    with pytest.raises(ParameterError, match=r"^need 1 <= k <= 5, got 6$"):
        sample_defectives(prior, 5, seed=0)


# (n, k) of the draw grid: k = n, tiny and dense sets, and shapes where the
# two-step densities fall outside (0, 1)
DRAW_GRID = [(1, 1), (7, 3), (50, 3), (200, 40), (1000, 120), (4096, 1783)]
DRAW_KINDS = ("combinatorial", "iid", "iid-trim", "iid-pad")
# sha256 of the grid's draws and refusals, hashed while sample_defectives
# still built its tuple in each branch; made with numpy 2.4.6
DRAW_FINGERPRINT = "7fb8dc3df2c39a7f83a3c7d90318e2c5fa0473804558a71e40155497e2da3eae"


def _grid_prior(kind, n, k):
    return PriorSpec("iid", q=k / n if k < n else 0.5) if kind == "iid" else PriorSpec(kind, k=k)


def test_array_draw_is_the_public_draw():
    h = hashlib.sha256()
    refused = 0
    for kind in DRAW_KINDS:
        for n, k in DRAW_GRID:
            prior = _grid_prior(kind, n, k)
            for seed in range(5):
                try:
                    public = sample_defectives(prior, n, seed).members
                except ParameterError:
                    with pytest.raises(ParameterError):
                        _draw(prior, n, seed)
                    refused += 1
                    h.update(b"refused;")
                    continue
                draw = _draw(prior, n, seed)
                assert draw.dtype == np.int64 and draw.ndim == 1
                assert tuple(draw.tolist()) == public
                assert (draw.size == 0 or 1 <= draw[0] and draw[-1] <= n) and np.all(np.diff(draw) > 0)
                h.update(draw.tobytes() + b";")
    # both two-step kinds at n = 1, where q' = 1, and iid-pad where sqrt(k) < ln n
    assert refused == 20
    assert h.hexdigest() == DRAW_FINGERPRINT, (
        f"prior draws changed: sha256 {h.hexdigest()} (running numpy {np.__version__})"
    )


# Draws whose sorted sample without replacement has a population above 10,000,
# with sizes below, inside and above numpy's band population // 50 < size <=
# population // 20 (see model._sorted_sample): (kind, n, k) prior draws, and
# pipeline deletions of d items out of BAND_PIPELINE_N at xi = 0. The two-step
# kinds' sample sizes are random; their shapes put every seed on one side.
BAND_DRAW_GRID = [
    ("combinatorial", 10001, 200),
    ("combinatorial", 10001, 201),
    ("combinatorial", 10001, 500),
    ("combinatorial", 10001, 501),
    ("combinatorial", 16384, 327),
    ("combinatorial", 16384, 328),
    ("combinatorial", 16384, 819),
    ("combinatorial", 16384, 820),
    ("iid-trim", 1 << 20, 600000),
    ("iid-trim", 65536, 55000),
    ("iid-trim", 65536, 20000),
    ("iid-pad", 65536, 5000),
    ("iid-pad", 65536, 20000),
    ("iid-pad", 65536, 45000),
]
BAND_PIPELINE_N = 16384
BAND_DELETIONS = (327, 328, 819, 820)
# sha256 of the band grid's draws and pipeline sets, hashed while every call
# site still drew with a shuffled rng.choice; made with numpy 2.4.6
BAND_FINGERPRINT = "8df0c15b9c76ed505cc00ddf72ab9dc3954606fceaa1bdec6e0a53922156d43a"


def _band_grid_hash(site=lambda name: None) -> str:
    """sha256 of the band grid's draws (3 seeds each) and of every set a
    pipeline trial returns; ``site`` is told which call site draws next."""
    h = hashlib.sha256()
    for kind, n, k in BAND_DRAW_GRID:
        site(kind)
        for seed in range(3):
            h.update(_draw(PriorSpec(kind, k=k), n, seed).tobytes() + b";")
    site("truth")
    for d in BAND_DELETIONS:
        r = deletion_pipeline(DesignSpec("ncc"), BAND_PIPELINE_N, 20, 200, d / BAND_PIPELINE_N, seed=d, xi=0.0)
        for part in (r.defectives.members, r.deleted, r.kept, r.reduced_truth.members, r.estimate):
            h.update(np.asarray(part, dtype=np.int64).tobytes() + b";")
        h.update(b"refused;" if r.refused else b"decoded;")
    return h.hexdigest()


def _band_side(population, size):
    if size <= population // 50:
        return "below"
    return "inside" if size <= population // 20 else "above"


def test_draws_around_the_shuffle_band_are_pinned(monkeypatch):
    # every call site of _sorted_sample sees a population above 10,000 and
    # sizes below, inside and above the band
    sides = {}
    current = ["truth"]
    sample = model._sorted_sample

    def recording(name=None):
        def draw(rng, population, size):
            where = name or current[0]
            if where != "truth":  # the pipeline's k = 20 truth lies outside the grid
                assert population > 10000
                sides.setdefault(where, set()).add(_band_side(population, size))
            return sample(rng, population, size)

        return draw

    monkeypatch.setattr(model, "_sorted_sample", recording())
    monkeypatch.setattr(decode, "_sorted_sample", recording("deletion"))
    digest = _band_grid_hash(lambda name: current.__setitem__(0, name))
    assert sides == {name: {"below", "inside", "above"} for name in ("combinatorial", "iid-trim", "iid-pad", "deletion")}
    assert digest == BAND_FINGERPRINT, (
        f"draws around numpy's shuffle band changed: sha256 {digest} (running numpy {np.__version__})"
    )


@pytest.mark.parametrize("n", [10000, 10001, 16384])
def test_sorted_sample_is_the_sorted_shuffled_choice(n):
    for size in (n // 50, n // 50 + 1, n // 20, n // 20 + 1):
        for seed in range(3):
            want = np.sort(np.random.default_rng(seed).choice(n, size, replace=False, shuffle=True))
            got = model._sorted_sample(np.random.default_rng(seed), n, size)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, size, seed)
