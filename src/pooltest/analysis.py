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
become integer bitmasks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design import TestDesign
from .errors import CapExceededError, ParameterError
from .model import DefectiveSet

DEFAULT_ENUM_CAP = 2_000_000
# posterior_uniformity_check: bins with fewer than this many samples per
# satisfying set are skipped, and C(n, k) above the cap is refused
UNIFORMITY_MIN_BIN_FACTOR = 5
UNIFORMITY_ENUM_CAP = 100_000


def _bits(outcomes, T: int) -> np.ndarray:
    b = np.asarray(outcomes, dtype=bool)
    if b.size != T:
        raise ParameterError(f"outcome length {b.size} does not match T={T}")
    return b


def _member_tuple(s) -> tuple:
    members = getattr(s, "members", None)
    return tuple(sorted(int(i) for i in (members if members is not None else s)))


def set_hamming(a, b) -> int:
    """Hamming distance between two index sets: |a \\ b| + |b \\ a|."""
    sa = frozenset(_member_tuple(a))
    sb = frozenset(_member_tuple(b))
    na = getattr(a, "n", None)
    nb = getattr(b, "n", None)
    if na is not None and nb is not None and na != nb:
        raise ParameterError(f"ground sets differ: {na} vs {nb}")
    return len(sa ^ sb)


def clean_items(design: TestDesign, positive: np.ndarray) -> np.ndarray:
    """Boolean mask over items: True when the item is in no negative test.

    Read off the row view: every item of a negative test is marked. When
    ``positive`` are the outcomes of a defective set, a non-defective is
    clean exactly when it is masked (every test containing it has a
    defective), which masking_report relies on.
    """
    clean = np.ones(design.n + 1, dtype=bool)  # indexed by the 1-based items; entry 0 unused
    negative_entries = np.repeat(np.logical_not(positive), np.diff(design.row_ptr))
    # intp indices take numpy's fast scatter; int32 ones are cast in buffered chunks
    clean[design.row_flat[negative_entries].astype(np.intp, copy=False)] = False
    return clean[1:]


@dataclass(frozen=True)
class ExplainCount:
    explained: tuple
    count: int


def explained_tests(design: TestDesign, outcomes, candidate) -> ExplainCount:
    """Positive tests explained by the candidate set.

    A member explains a test when the test contains it and the member sits in
    no negative test; the explained set of the candidate is the union of its
    clean members' columns.
    """
    clean = clean_items(design, _bits(outcomes, design.T))
    members = np.asarray(_member_tuple(candidate), dtype=np.int64)
    if np.any((members < 1) | (members > design.n)):
        raise ParameterError(f"candidate {tuple(members.tolist())} not contained in [1, {design.n}]")
    tests = np.unique(design.cols_of(members[clean[members - 1]]))
    return ExplainCount(tuple(tests.tolist()), int(tests.size))


class ExplainScorer:
    """Explain counts of many candidates on one instance, from integer test
    bitmasks (bit t - 1 for test t): the package's one builder of them.

    ``masks[i - 1]`` holds item i's tests when it is clean (in ``clean``) and
    is 0 otherwise; ``live`` lists the items with a nonzero mask in order, and
    ``positive`` is the mask of the positive tests. A candidate's explained
    count is the popcount of the OR over its members' masks.
    """

    def __init__(self, design: TestDesign, outcomes):
        positive = _bits(outcomes, design.T)
        self.clean = clean_items(design, positive)
        self.masks = [0] * design.n
        for i in np.flatnonzero(self.clean).tolist():
            self.masks[i] = sum(1 << t for t in (design.col(i + 1) - 1).tolist())
        self.live = [i for i, m in enumerate(self.masks, 1) if m]
        self.positive = sum(1 << t for t in np.flatnonzero(positive).tolist())

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
    # intp once, where bincount and the counts[tests] gathers would each cast the key dtype
    tests = design.cols_of(idx).astype(np.intp, copy=False)
    owner = np.repeat(np.arange(idx.size), design.col_ptr[idx] - design.col_ptr[idx - 1])
    return idx, tests, owner, np.bincount(tests, minlength=design.T + 1)


def good_test_counts(design: TestDesign, s: DefectiveSet) -> dict:
    """For each defective, the number of tests containing it and no other defective."""
    idx, tests, owner, counts = _defective_columns(design, s.members)
    return dict(zip(idx.tolist(), np.bincount(owner[counts[tests] == 1], minlength=idx.size).tolist()))


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
    if s.n != design.n:
        raise ParameterError(f"ground sets differ: design n={design.n}, set n={s.n}")
    idx, tests, owner, counts = _defective_columns(design, s.members)
    masked = clean_items(design, counts[1:] > 0)
    masked[idx - 1] = np.bincount(owner[counts[tests] < 2], minlength=idx.size) == 0
    masked_defectives = int(masked[idx - 1].sum())
    items = np.flatnonzero(masked) + 1
    return MaskingReport(
        masked_defectives=masked_defectives,
        masked_nondefectives=int(items.size) - masked_defectives,
        masked_items=tuple(items.tolist()),
        zero_test_items=int(np.count_nonzero(design.col_ptr[1:] == design.col_ptr[:-1])),
    )


def satisfying_sets(design: TestDesign, outcomes, k: int, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All size-k sets reproducing the outcomes, in lexicographic order.

    Only the clean items' k-subsets can, so only they are enumerated; the
    call still refuses when C(n, k) exceeds ``cap``.
    """
    total = math.comb(design.n, k)
    if total > cap:
        raise CapExceededError(
            f"C({design.n}, {k}) = {total} exceeds enumeration cap {cap}", estimate=total
        )
    scorer = ExplainScorer(design, outcomes)
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
    counted; C(n, k) above UNIFORMITY_ENUM_CAP raises CapExceededError.
    Subsets are grouped by Python-int outcome bitmasks, so any T works.
    """
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
