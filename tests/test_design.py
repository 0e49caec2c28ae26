import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pooltest.design
from pooltest import reference
from pooltest.analysis import ExplainScorer, _defective_columns, clean_items, masking_report
from pooltest.decode import comp_decode, dd_decode
from pooltest.design import (
    DesignSpec,
    TestDesign,
    _key_layout,
    bernoulli_design,
    build_design,
    load_design,
    ncc_design,
    save_design,
)
from pooltest.errors import DesignFormatError, ParameterError
from pooltest.model import DefectiveSet, generate_outcomes
from pooltest.util import LN2, round_half_up


def small_design():
    return TestDesign.from_rows(5, [(1, 3), (2, 3, 5), (), (4,)])


def _stored_dtype(name, n, T):
    """The dtype a design stores: the flats in the key dtype, the pointers in int64."""
    return _key_layout(n, T)[2] if name.endswith("flat") else np.int64


# ---------------------------------------------------------------------------
# the matrix container


def test_from_rows_basic_shape():
    d = small_design()
    assert d.n == 5 and d.T == 4
    assert d.entry_count == 6
    assert list(d.row(1)) == [1, 3]
    assert list(d.row(2)) == [2, 3, 5]
    assert list(d.row(3)) == []
    assert list(d.row(4)) == [4]


def test_row_col_duality():
    d = small_design()
    assert list(d.col(3)) == [1, 2]  # tests containing item 3
    assert list(d.col(1)) == [1]
    assert list(d.col(4)) == [4]
    # membership agrees in both directions
    for t in range(1, d.T + 1):
        for i in d.row(t):
            assert t in d.col(int(i))
    for i in range(1, d.n + 1):
        for t in d.col(i):
            assert i in d.row(int(t))


def test_reference_dense_worked_example():
    assert reference.dense(small_design()) == [
        [1, 0, 1, 0, 0],
        [0, 1, 1, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
    ]


def test_from_rows_rejects_out_of_range():
    with pytest.raises(ParameterError, match="^test 2: need 1 <= item <= 5, got 6$"):
        TestDesign.from_rows(5, [(1,), (2, 6)])
    with pytest.raises(ParameterError, match="^test 1: need 1 <= item <= 5, got 0$"):
        TestDesign.from_rows(5, [(0, 2)])


def test_from_rows_rejects_unsorted_or_duplicate():
    with pytest.raises(ParameterError, match="test 1: items must be strictly increasing"):
        TestDesign.from_rows(5, [(3, 1)])
    with pytest.raises(ParameterError, match="test 2: items must be strictly increasing"):
        TestDesign.from_rows(5, [(1,), (2, 2)])


def test_from_rows_refuses_an_item_that_is_not_whole():
    with pytest.raises(ParameterError, match=r"^test 2: items must be whole numbers, got \[1.7\]$"):
        TestDesign.from_rows(3, [(1,), (1.7,)])
    assert TestDesign.from_rows(3, [(2.0,)]) == TestDesign.from_rows(3, [(2,)])
    # a string is no item, even one that spells a whole number
    with pytest.raises(ParameterError, match=r"^test 1: items must be whole numbers, got \['1'\]$"):
        TestDesign.from_rows(5, [("1",)])


@pytest.mark.parametrize("item", [float("nan"), float("inf"), float("-inf")])
def test_from_rows_refuses_an_item_that_is_not_finite(item):
    with pytest.raises(ParameterError, match=rf"^test 1: items must be whole numbers, got \[{item}\]$"):
        TestDesign.from_rows(4, [(item,)])


def test_design_equality():
    a = small_design()
    b = TestDesign.from_rows(5, [(1, 3), (2, 3, 5), (), (4,)])
    c = TestDesign.from_rows(5, [(1, 3), (2, 3, 5), (), (5,)])
    assert a == b
    assert a != c
    assert a != TestDesign.from_rows(6, [(1, 3), (2, 3, 5), (), (4,)])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_csr_views_agree_with_dense(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    T = data.draw(st.integers(min_value=1, max_value=10))
    rows = []
    for _ in range(T):
        members = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
        rows.append(tuple(sorted(members)))
    d = TestDesign.from_rows(n, rows)
    dense = np.array(reference.dense(d))
    for t in range(1, T + 1):
        assert list(d.row(t)) == [i + 1 for i in np.flatnonzero(dense[t - 1])]
    for i in range(1, n + 1):
        assert list(d.col(i)) == [t + 1 for t in np.flatnonzero(dense[:, i - 1])]
    assert d.entry_count == int(dense.sum())


def test_cols_of_concatenates_columns():
    d = TestDesign.from_rows(6, [(1, 3), (2, 3, 5), (), (4,)])  # item 6 is in no test
    for items in ((), (6,), (3, 6, 1), (5, 3), (6, 6, 2), tuple(range(1, 7))):
        got = d.cols_of(items)
        assert got.dtype == _key_layout(6, 4)[2]
        assert got.tolist() == [int(t) for i in items for t in d.col(i)]
    big = ncc_design(2000, 150, 4, seed=1)
    items = np.random.default_rng(0).choice(2000, size=300, replace=False) + 1
    assert np.array_equal(big.cols_of(items), np.concatenate([big.col(int(i)) for i in items]))
    for bad in ((0,), (7,), (1, 7)):
        with pytest.raises(ParameterError):
            d.cols_of(bad)


def test_widest_int32_layout_holds_its_largest_key():
    # bt + bn = 15 + 16 = 31: item n in test T packs to 2**31 - 1 in both key orders
    n, T = 1 << 16, 1 << 15
    assert _key_layout(n, T) == (15, 16, np.int32)
    d = TestDesign.from_rows(n, [(1, n)] + [()] * (T - 2) + [(2, n)])
    assert d.row(T).tolist() == [2, n] and d.row(1).tolist() == [1, n]
    assert d.col(n).tolist() == [1, T] and d.col(2).tolist() == [T]
    assert d.cols_of([n, 1, 2]).tolist() == [1, T, 1, T]
    assert d.row_ptr.tolist()[-2:] == d.col_ptr.tolist()[-2:] == [2, 4]
    for name in ("row_flat", "row_ptr", "col_flat", "col_ptr"):
        assert getattr(d, name).dtype == _stored_dtype(name, n, T), name


def test_design_memory_is_int32_flats_and_int64_pointers():
    # the C8 shape at its base budget; int64 flats would store 8 bytes per entry each
    n, T = 16384, 1293
    d = ncc_design(n, T, 7, seed=31)
    stored = sum(a.nbytes for a in (d.row_flat, d.row_ptr, d.col_flat, d.col_ptr))
    assert stored == 4 * 2 * d.entry_count + 8 * (n + 1) + 8 * (T + 1)


def test_row_view_is_built_once_on_demand(tmp_path, monkeypatch):
    n, T, L, seed = 500, 90, 6, 1
    want = reference.ncc_rows(n, T, L, seed)
    want_rows = (want.row_flat, want.row_ptr)
    save_design(want, tmp_path / "want.txt")
    builds = []

    def counting(*args):
        builds.append(args)
        return real(*args)

    real = pooltest.design._row_view
    monkeypatch.setattr(pooltest.design, "_row_view", counting)
    got = ncc_design(n, T, L, seed)
    assert got._rows is None
    assert got == want and got.entry_count == want.entry_count  # both read the columns
    assert not builds
    assert got.row(3).tolist() == want.row(3).tolist()
    save_design(got, tmp_path / "got.txt")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    assert len(builds) == 1
    for a, b in zip((got.row_flat, got.row_ptr), want_rows):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# random ensembles


def test_bernoulli_determinism():
    a = bernoulli_design(50, 30, 0.2, seed=7)
    b = bernoulli_design(50, 30, 0.2, seed=7)
    c = bernoulli_design(50, 30, 0.2, seed=8)
    assert a == b
    assert a != c


def test_bernoulli_rejects_bad_p():
    for p in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            bernoulli_design(10, 5, p, seed=0)


def test_bernoulli_inclusion_frequency():
    # p = 0.3: each (test, item) entry is present independently
    n, T, p = 40, 500, 0.3
    d = bernoulli_design(n, T, p, seed=123)
    frac = d.entry_count / (n * T)
    sd = math.sqrt(p * (1 - p) / (n * T))
    assert abs(frac - p) < 5 * sd


def test_bernoulli_positive_test_fraction():
    # with k = 10 defectives and p = ln2 / k, the chance a test is positive is
    # 1 - (1 - p)^k = 0.5124395609995183; check the Monte Carlo fraction
    from pooltest.model import DefectiveSet, generate_outcomes

    n, T, k = 200, 2000, 10
    p = LN2 / k
    d = bernoulli_design(n, T, p, seed=42)
    y = generate_outcomes(d, DefectiveSet(n, tuple(range(1, k + 1))))
    frac = sum(y) / T
    target = 0.5124395609995183
    sd = math.sqrt(target * (1 - target) / T)
    assert abs(frac - target) < 5 * sd


def _rows(d):
    return [d.row(t).tolist() for t in range(1, d.T + 1)]


def _assert_mean_and_variance(sample, mean, var):
    """Sample mean and variance each within 5 of their normal-theory standard
    errors, sqrt(var / N) and var sqrt(2 / (N - 1))."""
    N = len(sample)
    assert abs(np.mean(sample) - mean) < 5 * math.sqrt(var / N)
    assert abs(np.var(sample, ddof=1) - var) < 5 * var * math.sqrt(2 / (N - 1))


@pytest.mark.parametrize(
    "n, T, p, seed",
    [
        (40, 30, 0.1, 0),
        (500, 98, LN2 / 10, 3),
        (25, 12, 0.5, 1),  # p >= 1/3: numpy's geometric searches instead of inverting
        (7, 20, 0.9, 2),
    ],
)
@pytest.mark.parametrize("as_generator", [False, True])
def test_bernoulli_rows_nest_by_prefix(n, T, p, seed, as_generator):
    def fresh():
        return np.random.default_rng(seed) if as_generator else seed

    full = _rows(bernoulli_design(n, T, p, fresh()))
    for prefix in (1, 2, T // 2, T - 1, T):
        assert _rows(bernoulli_design(n, prefix, p, fresh())) == full[:prefix]


class _ShortDraws(np.random.Generator):
    """Hands out at most 7 geometric gaps per call, so a build takes many chunks."""

    def geometric(self, p, size=None):
        return super().geometric(p, size=min(size, 7))


def test_bernoulli_draw_does_not_depend_on_the_chunk_size():
    for n, T, p, seed in ((40, 30, 0.1, 0), (25, 12, 0.5, 1), (3, 2, 0.99, 2)):
        assert bernoulli_design(n, T, p, _ShortDraws(np.random.PCG64(seed))) == bernoulli_design(
            n, T, p, seed
        )


@pytest.mark.parametrize("n, T, p", [(50, 40, 0.1), (20, 10, 0.5)])
def test_bernoulli_entry_count_is_binomial(n, T, p):
    # over fixed seeds; a builder that fixed the total count would show a variance near 0
    counts = [bernoulli_design(n, T, p, seed).entry_count for seed in range(2000)]
    _assert_mean_and_variance(counts, T * n * p, T * n * p * (1 - p))


@pytest.mark.parametrize("n, T, p", [(200, 5000, 0.05), (30, 3000, 0.4)])
def test_bernoulli_row_weights_are_binomial(n, T, p):
    for seed in (0, 1):
        weights = np.diff(bernoulli_design(n, T, p, seed).row_ptr)
        _assert_mean_and_variance(weights, n * p, n * p * (1 - p))


@pytest.mark.parametrize(
    "n, T, p",
    [
        (1, 40, 0.3),
        (60, 1, 0.3),
        (1, 1, 0.5),
        (30, 20, 0.99),
        (1 << 16, 1 << 15, 1e-6),  # keys need bt + bn = 31 bits: the widest int32 layout
        (1 << 17, 1 << 15, 1e-6),  # keys need bt + bn = 32 bits: the int64 branch
    ],
)
def test_bernoulli_edge_shapes_match_their_rows(n, T, p):
    for seed in range(3):
        got = bernoulli_design(n, T, p, seed)
        want = TestDesign.from_rows(n, _rows(got))
        for name in ("row_flat", "row_ptr", "col_flat", "col_ptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == _stored_dtype(name, n, T) and np.array_equal(a, b), name


def test_bernoulli_with_a_tiny_p_draws_no_entries():
    # gaps near 2**63: summed uncapped, they wrap around int64 back into the grid
    for seed in range(4):
        assert bernoulli_design(100, 10, 1e-20, seed).entry_count == 0


def test_bernoulli_memory_follows_the_entries_not_the_grid():
    # 16.7M cells and about 1,700 entries: a byte per cell would trace 16 MB
    tracemalloc.start()
    try:
        d = bernoulli_design(4096, 4096, 1e-4, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < d.entry_count < 3000
    assert peak < 1 << 20


def test_ncc_column_weights_bounded_by_l():
    # every item makes L draws, so it lands in 1..L distinct tests
    d = ncc_design(30, 20, 5, seed=3)
    for i in range(1, 31):
        assert 1 <= len(d.col(i)) <= 5


def test_row_and_col_refuse_an_index_outside_the_design():
    d = small_design()  # 4 tests over 5 items
    for call, message in (
        (lambda: d.row(0), "need 1 <= test <= 4, got 0"),
        (lambda: d.row(5), "need 1 <= test <= 4, got 5"),
        (lambda: d.col(0), "need 1 <= item <= 5, got 0"),
        (lambda: d.col(6), "need 1 <= item <= 5, got 6"),
    ):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            call()


def test_ncc_rejects_bad_l():
    with pytest.raises(ParameterError):
        ncc_design(10, 5, 0, seed=0)
    with pytest.raises(ParameterError):
        ncc_design(10, 5, 6, seed=0)  # L cannot exceed T


def test_ncc_column_weight_is_l_with_collisions_collapsed():
    # each item lands in exactly L draws; distinct tests only are kept.
    # with T = 4, L = 4 the expected distinct count is 4 * (1 - (3/4)^4)
    T, L, n = 4, 4, 4000
    d = ncc_design(n, T, L, seed=11)
    weights = [len(d.col(i)) for i in range(1, n + 1)]
    mean = sum(weights) / n
    assert max(weights) <= L
    assert abs(mean - 2.734375) < 0.05


def test_ncc_determinism():
    a = ncc_design(25, 12, 3, seed=9)
    assert a == ncc_design(25, 12, 3, seed=9)
    assert a != ncc_design(25, 12, 3, seed=10)


def _entries(flat, ptr):
    """The (segment, index) pairs of a CSR view, sorted, both 1-based."""
    return sorted(zip(np.repeat(np.arange(1, ptr.size), np.diff(ptr)).tolist(), flat.tolist()))


@pytest.mark.parametrize(
    "n, T, L, seeds",
    [
        (40, 12, 3, range(4)),  # the fingerprint shapes
        (500, 90, 6, range(4)),
        (2000, 150, 4, range(4)),
        (16384, 1293, 7, (31,)),
        (1 << 17, 1 << 15, 1, (5,)),  # keys need bt + bn = 32 bits: the int64 branch
        (1, 1, 1, range(2)),
        (9, 1, 1, range(2)),
        (1, 7, 7, range(2)),
        (30, 5, 5, range(2)),  # L = T
        (1 << 16, 1 << 15, 1, (5,)),  # keys need bt + bn = 31 bits: the widest int32 layout
    ],
)
def test_ncc_design_matches_the_test_by_test_oracle(n, T, L, seeds):
    for seed in seeds:
        got = ncc_design(n, T, L, seed)
        want = reference.ncc_rows(n, T, L, seed)
        for name in ("row_flat", "row_ptr", "col_flat", "col_ptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == _stored_dtype(name, n, T) and np.array_equal(a, b), name
        # the column view against the draws themselves, the row view as its transpose
        draws = np.random.default_rng(seed).integers(0, T, size=(n, L), dtype=np.int64)
        cols = _entries(got.col_flat, got.col_ptr)
        assert cols == [(i + 1, t + 1) for i, row in enumerate(draws.tolist()) for t in sorted(set(row))]
        assert _entries(got.row_flat, got.row_ptr) == sorted((t, i) for i, t in cols)


@pytest.mark.parametrize(
    "n, T, L",
    [
        (40, 12, 3),  # the fingerprint shapes
        (500, 90, 6),
        (2000, 150, 4),
        (16384, 1293, 7),
        (7, 5, 3),  # an odd draw count
        (1 << 17, 1 << 15, 1),  # keys need bt + bn = 32 bits: the int64 branch
    ],
)
def test_ncc_leaves_a_passed_generator_where_the_int64_draw_does(n, T, L):
    # the oracle suites thread one Generator through many builds, so every
    # later draw depends on where a build leaves it
    for seed in range(2):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        ncc_design(n, T, L, rng)
        ref.integers(0, T, size=n * L, dtype=np.int64)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "n, T, L, dtype",
    [
        (1 << 17, 1 << 15, 2, np.int32),  # keys need bt + bn = 32 bits: int64 keys, int32 draws
        (64, 19000, 13, np.int32),  # T and L about those of n = 2^20 at theta 0.5
        (3, (1 << 31) - 1, 2, np.int32),
        (2, 1 << 31, 1, np.int32),  # the largest test, 2**31 - 1, still fits int32
        (1, (1 << 31) + 1, 1, np.int64),  # past it the draws are int64
    ],
)
def test_ncc_draws_are_int32_whatever_the_key_width(n, T, L, dtype):
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    d = ncc_design(n, T, L, rng)
    want = ref.integers(0, T, size=(n, L), dtype=np.int64)
    assert d._draws.dtype == dtype and np.array_equal(d._draws, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert d._cols is None  # the column view waits for its first read
    if n == 1 << 17:
        oracle = reference.ncc_rows(n, T, L, 4)
        for name in ("col_flat", "col_ptr"):
            a, b = getattr(d, name), getattr(oracle, name)
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name
        twin = TestDesign(n, T, d.col_flat, d.col_ptr)
        items = np.random.default_rng(0).integers(1, n + 1, size=70_000)  # positions need int64 keys
        assert np.array_equal(d.cols_of(items), twin.cols_of(items))
        y = np.random.default_rng(1).random(T) < 0.9
        assert np.array_equal(clean_items(d, y), clean_items(twin, y))


def _same(a, b) -> bool:
    """Deep equality of reader outputs: arrays must agree in dtype too."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _readings(d, seed) -> list:
    """What decoders and analyses read of a design: columns of random items
    (repeats included), outcomes of random truths, clean masks, comp, dd,
    explain masks and masking, under the truth's outcomes and random ones."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(4):
        out.append(d.cols_of(rng.integers(1, d.n + 1, size=int(rng.integers(0, 2 * d.n + 1)))))
        k = int(rng.integers(0, d.n + 1))
        s = DefectiveSet(d.n, tuple((np.sort(rng.choice(d.n, size=k, replace=False)) + 1).tolist()))
        y = generate_outcomes(d, s)
        out += [y, _defective_columns(d, s.members), masking_report(d, s)]
        for outcomes in (y, rng.random(d.T) < 0.7):
            scorer = ExplainScorer(d, outcomes)
            out += [clean_items(d, outcomes), comp_decode(d, outcomes), dd_decode(d, outcomes)]
            out += [scorer.live, scorer.masks, scorer.positive]
    return out


_SHAPE_RNG = np.random.default_rng(23)


@pytest.mark.parametrize(
    "n, T, L",
    [
        (40, 12, 3),
        (300, 60, 5),
        (200, 50, 1),
        (30, 6, 6),  # L = T: many repeated draws
        (1, 9, 4),
        (17, 1, 1),
        (1, 1, 1),
    ]
    + [
        (int(n), int(T), int(_SHAPE_RNG.integers(1, T + 1)))
        for n, T in zip(_SHAPE_RNG.integers(1, 600, size=4), _SHAPE_RNG.integers(1, 120, size=4))
    ],
)
def test_ncc_draws_read_like_their_column_view(n, T, L):
    fresh = ncc_design(n, T, L, seed=n + T + L)
    got = _readings(fresh, 1)
    counted = fresh.entry_count, hash(fresh), repr(fresh)
    assert fresh._cols is None and fresh._rows is None  # no reader built a view
    read = ncc_design(n, T, L, seed=n + T + L)
    twin = TestDesign(n, T, read.col_flat, read.col_ptr)  # read's column view is built first
    want = f"TestDesign(T={T}, n={n}, entries={twin.entry_count}, kind=ncc)"
    assert counted == (twin.entry_count, hash(twin), want)
    assert _same(_readings(read, 1), got) and _same(_readings(twin, 1), got)
    # a design holding draws reads them even once its views exist, so a
    # held column view that disagrees with them changes no reading
    stale = ncc_design(n, T, L, seed=n + T + L)
    stale.row_flat
    stale._cols = (stale.col_flat[:0], np.zeros(n + 1, dtype=np.int64))
    assert _same(_readings(stale, 1), got)
    assert all(_same(fresh.col(i), twin.col(i)) for i in range(1, n + 1))
    assert fresh.entry_count == twin.entry_count and fresh == twin and twin == fresh


# ---------------------------------------------------------------------------
# specs


def test_spec_defaults_and_labels():
    s = DesignSpec("bernoulli")
    assert s.nu == LN2
    assert s.label() == "bernoulli"
    assert DesignSpec("ncc").label() == "ncc"
    assert DesignSpec("explicit", path="designs/a.txt").label() == "file:designs/a.txt"


def test_spec_validation():
    with pytest.raises(ParameterError):
        DesignSpec("mystery")
    with pytest.raises(ParameterError):
        DesignSpec("explicit")  # needs a path
    with pytest.raises(ParameterError):
        DesignSpec("bernoulli", nu=0.0)


@pytest.mark.parametrize(
    "kind, override",
    [
        ("bernoulli", {"p_override": float("nan")}),
        ("bernoulli", {"p_override": 0.0}),
        ("bernoulli", {"p_override": 1.5}),
        ("ncc", {"L_override": 0}),
        ("ncc", {"L_override": 2.5}),
        ("ncc", {"p_override": 0.1}),
        ("bernoulli", {"L_override": 3}),
    ],
)
def test_spec_checks_its_overrides_when_made(kind, override):
    with pytest.raises(ParameterError, match="p_override|L_override"):
        DesignSpec(kind, **override)


def test_build_bernoulli_uses_nu_over_k():
    spec = DesignSpec("bernoulli", nu=1.0)
    d = build_design(spec, n=60, T=40, k=4, seed=0)
    assert d.metadata["kind"] == "bernoulli"
    assert d.metadata["p"] == pytest.approx(0.25)
    assert d == bernoulli_design(60, 40, 0.25, seed=0)


def test_build_bernoulli_p_override():
    spec = DesignSpec("bernoulli", p_override=0.5)
    d = build_design(spec, n=20, T=10, k=3, seed=1)
    assert d.metadata["p"] == 0.5


def test_build_ncc_rounds_l():
    # L = round_half_up(nu * T / k)
    spec = DesignSpec("ncc")
    d = build_design(spec, n=100, T=60, k=8, seed=2)
    expect = round_half_up(LN2 * 60 / 8)
    assert d.metadata["kind"] == "ncc"
    assert d.metadata["L"] == expect
    assert d == ncc_design(100, 60, expect, seed=2)


def test_build_ncc_l_override():
    spec = DesignSpec("ncc", L_override=2)
    d = build_design(spec, n=30, T=15, k=5, seed=4)
    assert d.metadata["L"] == 2


def test_build_random_kinds_need_positive_k():
    for spec in (DesignSpec("bernoulli"), DesignSpec("ncc")):
        with pytest.raises(ParameterError, match="needs k >= 1"):
            build_design(spec, n=20, T=10, k=0, seed=0)


def test_build_explicit_checks_dimensions(tmp_path):
    path = tmp_path / "d.txt"
    save_design(small_design(), path)
    spec = DesignSpec("explicit", path=str(path))
    d = build_design(spec, n=5, T=4, k=2, seed=0)
    assert d == small_design()
    with pytest.raises(ParameterError, match="explicit design is 4 x 5"):
        build_design(spec, n=5, T=6, k=2, seed=0)


# ---------------------------------------------------------------------------
# the file format


def test_save_load_round_trip(tmp_path):
    d = small_design()  # includes an empty test
    path = tmp_path / "design.txt"
    save_design(d, path)
    back = load_design(path)
    assert back == d


def test_save_load_round_trip_random(tmp_path):
    d = bernoulli_design(40, 25, 0.15, seed=5)
    path = tmp_path / "design.txt"
    save_design(d, path)
    assert load_design(path) == d


def test_file_format_shape(tmp_path):
    path = tmp_path / "design.txt"
    save_design(small_design(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "4 5"
    assert len(lines) == 5
    assert lines[1] == "1 3"
    assert lines[3] == ""


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4\n1 2\n")
    with pytest.raises(DesignFormatError, match="line 1: expected header 'T n'"):
        load_design(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty file, expected 'T n' header"),
        ("a b\n", "line 1: header fields must be integers"),
        ("0 5\n", "line 1: T and n must be positive, got T=0, n=5"),
    ],
)
def test_load_rejects_a_bad_header_line(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DesignFormatError, match=f"^{message}$"):
        load_design(path)


def test_load_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 5\n1 x\n2\n")
    with pytest.raises(DesignFormatError, match=r"line 2: 'x' is not an integer"):
        load_design(path)


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 5\n2 2\n")
    with pytest.raises(DesignFormatError, match="line 2: items must be strictly increasing"):
        load_design(path)


def test_load_rejects_unsorted(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 5\n3 1\n")
    with pytest.raises(DesignFormatError, match="line 2: items must be strictly increasing"):
        load_design(path)


def test_load_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 5\n1 9\n")
    with pytest.raises(DesignFormatError, match="^line 2: need 1 <= item <= 5, got 9$"):
        load_design(path)


def test_load_rejects_wrong_test_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 5\n1 2\n3\n")
    with pytest.raises(DesignFormatError):
        load_design(path)


# ---------------------------------------------------------------------------
# fingerprints: the arrays of every constructor, pinned byte for byte

FINGERPRINT_NUMPY = "2.4.6"  # the numpy version the pinned hashes were made with
FINGERPRINTS = {
    "ncc": "8fc7a6a082043e2c3f201146881626d2bdf0bb0d0434e62dac2d14bee2d86db5",
    "bernoulli": "e8c1afbc0b7773638db812a24b4214328262ab2187d3b7781b527825ccc2cbcc",
    "from_rows": "541466537180a8299307c18f51e731966a28f3af9873470b1595bfbf38254c26",
    "load_design": "0bf9e1ba1201ccbdb0e828142a10620b56aca44431c9a7390956822af5ad2f50",
}


def _fingerprint(designs) -> str:
    h = hashlib.sha256()
    for d in designs:
        h.update(f"{d.T} {d.n}\n".encode())
        for a in (d.row_flat, d.row_ptr, d.col_flat, d.col_ptr):
            h.update(f"{a.dtype.str} {a.size}\n".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _random_rows(n, T, seed):
    """T sorted rows of 0..5 items each; leaves empty tests and empty items."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, min(n, 5) + 1, size=T)
    return [np.sort(rng.choice(n, size=int(w), replace=False)) + 1 for w in weights]


def _fingerprint_designs(kind, tmp_path):
    if kind == "ncc":
        shapes = ((40, 12, 3), (500, 90, 6), (2000, 150, 4))
        grid = [ncc_design(n, T, L, seed) for n, T, L in shapes for seed in range(4)]
        return grid + [ncc_design(16384, 1293, 7, seed=31)]  # the C8 size at its base budget
    if kind == "bernoulli":
        shapes = ((40, 12, 0.03), (500, 90, 0.02), (2000, 150, 0.004))
        return [bernoulli_design(n, T, p, seed) for n, T, p in shapes for seed in range(4)]
    shapes = ((1, 1), (7, 3), (60, 25), (300, 40))
    if kind == "from_rows":
        return [TestDesign.from_rows(n, _random_rows(n, T, s)) for n, T in shapes for s in range(3)]
    designs = []
    for j, (n, T) in enumerate(shapes):
        for seed in range(3, 6):
            path = tmp_path / f"design_{j}_{seed}.txt"
            rows = _random_rows(n, T, seed)
            lines = [f"{T} {n}"] + [" ".join(str(int(i)) for i in row) for row in rows]
            path.write_text("\n".join(lines) + "\n")
            designs.append(load_design(path))
    return designs


@pytest.mark.parametrize("kind", sorted(FINGERPRINTS))
def test_design_fingerprint(kind, tmp_path):
    got = _fingerprint(_fingerprint_designs(kind, tmp_path))
    assert got == FINGERPRINTS[kind], (
        f"{kind} designs changed: sha256 {got}, pinned {FINGERPRINTS[kind]} with numpy "
        f"{FINGERPRINT_NUMPY} (running numpy {np.__version__})"
    )
