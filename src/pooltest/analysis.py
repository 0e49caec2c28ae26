"""Structural analysis of a design/outcome pair.

The notions here drive both decoding and error analysis:

* an item is *clean* when it appears in no negative test;
* a positive test is *explained* by a candidate set when the set contains a
  clean item included in that test;
* a test is *good* for a defective item when it contains that item and no
  other defective;
* an item is *masked* when every test containing it also contains some other
  defective (items in no tests at all satisfy this vacuously and are counted
  separately);
* the *satisfying sets* of (design, outcomes, k) are the size-k sets that
  reproduce the outcomes exactly. Conditioned on the outcomes, a uniformly
  drawn defective set is uniform over them, which posterior_uniformity_check
  verifies empirically.

Outcomes are a length-T bool array. Per-defective counts are bincounts over an
owner index of the defectives' columns; ExplainScorer is the one place tests
become integer bitmasks. A trial's decoders and masking read one _Instance:
the design, its outcomes and its clean mask, computed once from the
defective set as a sorted int64 array. A trial's masking counts are counts
over masks; only masking_report lists the masked items.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design import TestDesign
from .errors import CapExceededError, ParameterError
from .model import DefectiveSet, _ground, _item_array, _members_on
from .util import require_count

DEFAULT_ENUM_CAP = 2_000_000
# posterior_uniformity_check: bins with fewer than this many samples per
# satisfying set are skipped, and C(n, k) above the cap is refused
UNIFORMITY_MIN_BIN_FACTOR = 5
UNIFORMITY_ENUM_CAP = 100_000


def _bits(outcomes, T: int) -> np.ndarray:
    """The outcomes as a length-T bool array; they must be one-dimensional
    and hold only 0 and 1, which a bool array does without a scan."""
    b = np.asarray(outcomes)
    if b.shape != (T,):
        raise ParameterError(f"outcomes must have shape ({T},), got {b.shape}")
    bits = b.astype(bool, copy=False)
    if b.dtype != bool and not np.array_equal(bits, b):
        raise ParameterError(f"outcomes must be 0 or 1, got {b[bits != b][:3].tolist()}")
    return bits


def set_hamming(a, b) -> int:
    """Hamming distance |a \\ b| + |b \\ a| between two index sets, each
    read by model._item_array on the ground set of whichever is a
    DefectiveSet, if either is; two DefectiveSets must share it (model._ground)."""
    n = _ground(getattr(a, "n", None), getattr(b, "n", None))
    return np.setxor1d(_item_array(a, n), _item_array(b, n), assume_unique=True).size


def clean_items(design: TestDesign, positive: np.ndarray) -> np.ndarray:
    """Boolean mask over items: True when the item is in no negative test.

    Read off each item's tests: an ncc design gathers, for each of its L
    draw slots, whether the drawn test is negative; any other design looks
    up each column entry's test and ORs the lookups over each column with
    one reduceat. When ``positive`` are the outcomes of a defective set, a
    non-defective is clean exactly when it is masked (every test containing
    it has a defective), which masking_report relies on.
    """
    return design._clean(_bits(positive, design.T))


@dataclass(frozen=True)
class _Instance:
    """A design, its outcomes and its clean mask, built once per trial and
    read by every decoder and analysis of it.

    ``columns`` is _defective_columns of the defective set the outcomes came
    from, for an instance built from that set; masking reads it.
    """

    design: TestDesign
    positive: np.ndarray
    clean: np.ndarray
    columns: tuple | None = None


def _instance(design: TestDesign, outcomes) -> _Instance:
    """The instance of (design, outcomes)."""
    positive = _bits(outcomes, design.T)
    return _Instance(design, positive, design._clean(positive))


def _truth_instance(design: TestDesign, members: np.ndarray) -> _Instance:
    """The instance of a defective set's own outcomes, read off the per-test
    counts of its columns, which it keeps. ``members`` is the set as a
    sorted int64 array of items of the design."""
    columns = _defective_columns(design, members)
    positive = columns[3][1:] > 0
    return _Instance(design, positive, design._clean(positive), columns)


@dataclass(frozen=True)
class ExplainCount:
    explained: tuple
    count: int


def explained_tests(design: TestDesign, outcomes, candidate) -> ExplainCount:
    """Positive tests explained by the candidate set.

    A member explains a test when the test contains it and the member sits in
    no negative test; the explained set of the candidate is the union of its
    clean members' columns. The candidate is read by model._item_array on
    the design's ground set.
    """
    clean = clean_items(design, outcomes)
    members = _item_array(candidate, design.n)
    tests = np.unique(design.cols_of(members[clean[members - 1]]))
    return ExplainCount(tuple(tests.tolist()), int(tests.size))


class ExplainScorer:
    """Explain counts of many candidates on one instance, from integer test
    bitmasks (bit t - 1 for test t): the package's one builder of them.

    ``live`` lists the live items in order: clean ones (in ``clean``) that sit
    in some test. ``masks[i - 1]`` holds a live item i's tests and is 0 for
    every other item, and ``positive`` is the mask of the positive tests. A
    candidate's explained count is the popcount of the OR over its members'
    masks.
    """

    def __init__(self, design: TestDesign, outcomes):
        self._read(_instance(design, outcomes))

    @classmethod
    def _of(cls, inst: _Instance) -> "ExplainScorer":
        scorer = cls.__new__(cls)
        scorer._read(inst)
        return scorer

    def _read(self, inst: _Instance) -> None:
        self.clean = inst.clean
        clean = np.flatnonzero(self.clean) + 1
        tests, owner = inst.design._columns(clean)
        lens = np.bincount(owner, minlength=clean.size)
        in_tests = lens > 0
        self.live = clean[in_tests].tolist()
        self.masks = [0] * inst.design.n
        bits = (tests - 1).tolist()  # the live items' tests, item after item
        start = 0
        for i, end in zip(self.live, np.cumsum(lens[in_tests]).tolist()):
            self.masks[i - 1] = sum(1 << t for t in bits[start:end])
            start = end
        self.positive = int.from_bytes(np.packbits(inst.positive, bitorder="little").tobytes(), "little")

    def union_mask(self, candidate) -> int:
        m = 0
        for i in candidate:
            m |= self.masks[i - 1]
        return m

    def count(self, candidate) -> int:
        return self.union_mask(candidate).bit_count()


def _defective_columns(design: TestDesign, members):
    """(members of a defective set or of the comp survivors, their concatenated
    columns, each column entry's owner as a position in the members, per-test
    member counts indexed by test). A per-member count is a bincount over
    ``owner``; a member in no test owns no entry and counts 0."""
    idx = np.asarray(members, dtype=np.int64)
    tests, owner = design._columns(idx)
    # intp once, where bincount and the counts[tests] gathers would each cast the key dtype
    tests = tests.astype(np.intp, copy=False)
    return idx, tests, owner, np.bincount(tests, minlength=design.T + 1)


def _good_counts(columns) -> np.ndarray:
    """For each member of a _defective_columns tuple, the number of its tests
    that hold no other member: dd's and masking's one count. A member's own
    entry counts it in its test, so a count of 1 leaves no other."""
    idx, tests, owner, counts = columns
    return np.bincount(owner[counts[tests] == 1], minlength=idx.size)


def good_test_counts(design: TestDesign, s: DefectiveSet) -> dict:
    """For each defective, the number of tests containing it and no other defective."""
    columns = _defective_columns(design, _members_on(design, s))
    return dict(zip(columns[0].tolist(), _good_counts(columns).tolist()))


@dataclass(frozen=True)
class MaskingReport:
    masked_defectives: int
    masked_nondefectives: int
    masked_items: tuple
    zero_test_items: int


def masking_report(design: TestDesign, s: DefectiveSet) -> MaskingReport:
    """Which items are masked by the defective set.

    A defective is masked when each of its tests has another defective; a
    non-defective is masked when each of its tests has any defective. Items
    appearing in zero tests are masked vacuously and also counted in
    zero_test_items.

    A non-defective is masked exactly when it is clean under the outcomes of
    ``s``: its tests all hold a defective just when they are all positive.
    So the non-defectives come from clean_items, and only the defectives'
    own columns are read for the "another defective in every test" check.
    """
    inst = _truth_instance(design, _members_on(design, s))
    defective = _masked_defectives(inst)
    masked = inst.clean.copy()
    masked[inst.columns[0] - 1] = defective
    items = np.flatnonzero(masked) + 1
    masked_defectives = int(np.count_nonzero(defective))
    return MaskingReport(
        masked_defectives=masked_defectives,
        masked_nondefectives=int(items.size) - masked_defectives,
        masked_items=tuple(items.tolist()),
        zero_test_items=design._empty_columns(),
    )


def _masked_defectives(inst: _Instance) -> np.ndarray:
    """Boolean mask over the members of the defective set an instance was
    built from: True when each of the member's tests holds another one."""
    return _good_counts(inst.columns) == 0


def _masking_counts(inst: _Instance) -> tuple:
    """(masked defectives, masked non-defectives) of the defective set an
    instance was built from, the counts of masking_report.

    A defective sits in positive tests only, so it is clean, and the masked
    non-defectives are the clean items other than the defectives.
    """
    k = inst.columns[0].size
    return int(np.count_nonzero(_masked_defectives(inst))), int(np.count_nonzero(inst.clean)) - k


def satisfying_sets(design: TestDesign, outcomes, k: int, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All size-k sets reproducing the outcomes, in lexicographic order.

    Only the clean items' k-subsets can, so only they are enumerated; the
    call still refuses when C(n, k) exceeds ``cap``.
    """
    return _satisfying_sets(_instance(design, outcomes), require_count("k", k, low=0), cap)


def _satisfying_sets(inst: _Instance, k: int, cap: int) -> list:
    n = inst.design.n
    total = math.comb(n, k)
    if total > cap:
        raise CapExceededError(f"C({n}, {k}) = {total} exceeds enumeration cap {cap}", estimate=total)
    scorer = ExplainScorer._of(inst)
    clean = (np.flatnonzero(scorer.clean) + 1).tolist()
    return [c for c in itertools.combinations(clean, k) if scorer.union_mask(c) == scorer.positive]


@dataclass(frozen=True)
class UniformityBin:
    outcome: tuple
    v_size: int
    samples: int
    p_value: float | None  # None when the bin was skipped


@dataclass(frozen=True)
class UniformityReport:
    bins: tuple
    skipped: int
    trials: int

    def min_p(self) -> float:
        ps = [b.p_value for b in self.bins if b.p_value is not None]
        return min(ps) if ps else float("nan")


def posterior_uniformity_check(
    design: TestDesign,
    k: int,
    trials: int,
    seed,
    sampler=None,
) -> UniformityReport:
    """Chi-square check that, given the outcomes, the truth is uniform over
    the satisfying sets.

    Defective sets are drawn uniformly over all size-k subsets (a vectorized
    equivalent of the combinatorial prior); ``sampler(rng, m, trials)`` can
    replace the draw with any distribution over subset indices 0..m-1, e.g.
    to verify that a biased sampler is rejected. Outcome bins with fewer than
    UNIFORMITY_MIN_BIN_FACTOR * |satisfying sets| samples are skipped and
    counted; k outside 0..n raises ParameterError, and C(n, k) above
    UNIFORMITY_ENUM_CAP raises CapExceededError.
    Subsets are grouped by Python-int outcome bitmasks, so any T works.
    """
    k = require_count("k", k, low=0, high=design.n)
    trials = require_count("trials", trials)
    from scipy import stats  # the package's only scipy use; importing it costs about a second

    total = math.comb(design.n, k)
    if total > UNIFORMITY_ENUM_CAP:
        raise CapExceededError(
            f"C({design.n}, {k}) = {total} exceeds enumeration cap {UNIFORMITY_ENUM_CAP}",
            estimate=total,
        )
    # under all-positive outcomes every item is clean and keeps its full column
    scorer = ExplainScorer(design, np.ones(design.T, dtype=bool))
    groups: dict = {}
    for j, combo in enumerate(itertools.combinations(range(1, design.n + 1), k)):
        groups.setdefault(scorer.union_mask(combo), []).append(j)
    rng = np.random.default_rng(seed)
    if sampler is None:
        idx = rng.integers(0, total, size=trials)
    else:
        idx = np.asarray(sampler(rng, total, trials), dtype=np.int64)
    sample_counts = np.bincount(idx, minlength=total)

    bins = []
    skipped = 0
    for key in sorted(groups):
        members = groups[key]
        observed = sample_counts[members]
        n_bin = int(observed.sum())
        outcome = tuple(int((key >> t) & 1) for t in range(design.T))
        if n_bin < UNIFORMITY_MIN_BIN_FACTOR * len(members) or len(members) < 2:
            skipped += 1
            bins.append(UniformityBin(outcome, len(members), n_bin, None))
            continue
        stat = stats.chisquare(observed)
        bins.append(UniformityBin(outcome, len(members), n_bin, float(stat.pvalue)))
    return UniformityReport(tuple(bins), skipped, trials)
