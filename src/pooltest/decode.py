"""Decoders for noiseless pooled tests.

* comp_decode: everything not ruled out by a negative test. Always a superset
  of the truth.
* dd_decode: items that appear as the only possible defective in some
  positive test. Always a subset of the truth, and of the comp estimate.
* ml_oracle: exhaustive maximum-likelihood over the satisfying sets.
* subset_decode: local search for a smaller set explaining as many positive
  tests as possible, for partial ("subset of the truth") recovery.
* deletion_pipeline: randomly delete a fraction of items up front, then run
  an inner decoder on the reduced instance; trades acceptable false
  negatives for a shorter test budget.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import ExplainScorer, clean_items, satisfying_sets, _bits
from .design import DesignSpec, TestDesign, build_design
from .errors import CapExceededError, ParameterError
from .model import DefectiveSet, PriorSpec, generate_outcomes, sample_defectives
from .util import floor_tol, mix_seed, round_half_up, segment_sum

DEFAULT_ML_CAP = 2_000_000
DEFAULT_FAMILY_CAP = 5_000_000


def comp_decode(design: TestDesign, outcomes) -> tuple:
    """Items appearing in no negative test, sorted."""
    pos = _bits(outcomes, design.T)
    clean = clean_items(design, pos)
    return tuple((np.flatnonzero(clean) + 1).tolist())


def dd_decode(design: TestDesign, outcomes) -> tuple:
    """Sole remaining candidates of positive tests.

    Start from the comp survivors (possible defectives); any positive test
    containing exactly one of them pins that item as defective.
    """
    pos = _bits(outcomes, design.T)
    clean = clean_items(design, pos)
    pd_flags = clean[design.row_flat - 1]
    per_test = segment_sum(pd_flags, design.row_ptr)
    sole = pos & (per_test == 1)
    if not sole.any():
        return ()
    entry_sole = np.repeat(sole, np.diff(design.row_ptr))
    found = np.unique(design.row_flat[entry_sole & pd_flags])
    return tuple(found.tolist())


def ml_oracle(design: TestDesign, outcomes, k: int, cap: int = DEFAULT_ML_CAP) -> tuple:
    """Exhaustive maximum likelihood over all size-k satisfying sets.

    Every satisfying set is equally likely under a uniform size-k prior; the
    lexicographically smallest is returned.
    """
    sets = satisfying_sets(design, outcomes, k, cap=cap)
    if not sets:
        raise ParameterError(
            "no size-k set reproduces the outcomes; inconsistent (design, outcomes, k)"
        )
    return sets[0]


# ---------------------------------------------------------------------------
# local search for partial recovery


def family_size(base_size: int, size: int, radius: float, n: int) -> int:
    """Number of size-``size`` sets within Hamming ``radius`` of the base set."""
    total = 0
    min_dist = base_size - size
    j_hi = (int(math.floor(radius)) - min_dist) // 2 if radius >= min_dist else -1
    for j in range(max(0, size - base_size), min(j_hi, size, n - base_size) + 1):
        total += math.comb(base_size, size - j) * math.comb(n - base_size, j)
    return total


@dataclass(frozen=True)
class SubsetParams:
    """Knobs for subset_decode.

    frontend is "dd-pad" (dd estimate padded with the lowest-index comp
    survivors up to size k), "ml" (exhaustive maximum likelihood), or
    "provided" with the size-k estimate passed in ``provided``.
    ``family_cap`` bounds the candidate enumeration; when exceeded the call
    refuses unless ``hill_climb`` enables the greedy swap heuristic.
    """

    eta_minus: float
    radius_mult: float = 3.0
    frontend: str = "dd-pad"
    provided: tuple | None = None
    ml_cap: int = DEFAULT_ML_CAP
    family_cap: int = DEFAULT_FAMILY_CAP
    hill_climb: bool = False

    def __post_init__(self):
        if not (0.0 <= self.eta_minus < 1.0):
            raise ParameterError(f"eta_minus must lie in [0, 1), got {self.eta_minus}")
        if self.frontend not in ("dd-pad", "ml", "provided"):
            raise ParameterError(f"unknown frontend {self.frontend!r}")
        if self.frontend == "provided" and self.provided is None:
            raise ParameterError("frontend 'provided' needs the provided estimate")
        if self.provided is not None and len(set(self.provided)) != len(self.provided):
            raise ParameterError(f"provided estimate repeats an item: {tuple(self.provided)}")
        if self.radius_mult <= 0:
            raise ParameterError(f"radius_mult must be positive, got {self.radius_mult}")


def dd_pad_frontend(design: TestDesign, outcomes, k: int) -> tuple:
    """dd estimate padded to size k with the lowest-index comp survivors."""
    est = list(dd_decode(design, outcomes))
    if len(est) >= k:
        return tuple(est[:k])
    have = set(est)
    for i in comp_decode(design, outcomes):
        if len(est) >= k:
            break
        if i not in have:
            est.append(i)
            have.add(i)
    for i in range(1, design.n + 1):
        # only reachable on inconsistent inputs where comp survivors run out
        if len(est) >= k:
            break
        if i not in have:
            est.append(i)
            have.add(i)
    return tuple(sorted(est))


def _argmax_explained(scorer: ExplainScorer, base, size, radius, n, family_cap, hill_climb):
    """Lexicographically smallest size-``size`` set within Hamming ``radius``
    of ``base`` with the most explained tests, or () when none explains any.

    Each candidate keeps size - j members of the base and adds j outside
    items, which pins its distance to |base| - size + 2j; the family is empty
    when radius < |base| - size. Only outside items with a nonzero test mask
    change a count, so the search enumerates their a-subsets and stands for
    each group by its smallest member, padded with the j - a smallest inert
    items. The family itself is never built; ``family_cap`` bounds its size.
    """
    count = family_size(len(base), size, radius, n)
    if family_cap is not None and count > family_cap:
        if hill_climb:
            return _hill_climb(scorer, base, size, radius, n)
        raise CapExceededError(
            f"candidate family has {count} members, cap is {family_cap}", estimate=count
        )
    if any(not (1 <= i <= n) for i in base):
        raise ParameterError("base set not contained in the ground set")
    min_dist = len(base) - size
    if size == 0 or radius < min_dist:
        return ()
    j_hi = min((int(math.floor(radius)) - min_dist) // 2, size, n - len(base))
    masks = scorer.masks
    base_set = set(base)
    outside = [i for i in range(1, n + 1) if i not in base_set]
    live = [i for i in outside if masks[i - 1]]
    inert = [i for i in outside if not masks[i - 1]]
    best = ()
    best_count = 0
    for j in range(max(0, size - len(base)), j_hi + 1):
        for kept in itertools.combinations(base, size - j):
            kept_mask = scorer.union_mask(kept)
            for a in range(max(0, j - len(inert)), min(j, len(live)) + 1):
                pad = tuple(inert[: j - a])
                for added in itertools.combinations(live, a):
                    c = (kept_mask | scorer.union_mask(added)).bit_count()
                    if c == 0 or c < best_count:
                        continue
                    cand = tuple(sorted(kept + added + pad))
                    if c > best_count or cand < best:
                        best = cand
                        best_count = c
    return best


def _hill_climb(scorer: ExplainScorer, base, size, radius, n):
    """Greedy single-swap ascent; a heuristic stand-in when the family is too
    large to enumerate, not an exact argmax."""
    base_set = set(base)
    live = [i for i in range(1, n + 1) if scorer.masks[i - 1]]
    current = list(base[:size])
    best_count = scorer.count(current)
    improved = True
    while improved:
        improved = False
        cur_set = set(current)
        best_swap = None
        for out in sorted(cur_set):
            # an item with no explained tests never makes a strict improvement
            for inn in live:
                if inn in cur_set:
                    continue
                trial = cur_set - {out} | {inn}
                if len(base_set ^ trial) > radius:
                    continue
                c = scorer.count(trial)
                if c > best_count:
                    best_count = c
                    best_swap = trial
        if best_swap is not None:
            current = sorted(best_swap)
            improved = True
    return tuple(sorted(current)) if best_count > 0 else ()


def subset_decode(design: TestDesign, outcomes, k: int, params: SubsetParams) -> tuple:
    """Search the neighborhood of a front-end estimate for the reduced-size
    set explaining the most positive tests.

    Scans candidates of size floor((1 - eta_minus) k) within Hamming radius
    radius_mult * eta_minus * k of the front-end estimate, keeping the first
    strict improvement over an initial best of (empty, 0 explained): ties go
    to the lexicographically smallest candidate, and the empty tuple comes
    back when no candidate explains any test.
    """
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    size = floor_tol((1.0 - params.eta_minus) * k)
    if size == 0:
        warnings.warn("target size (1 - eta_minus) * k rounds to zero; returning empty estimate")
        return ()
    if params.frontend == "ml":
        base = ml_oracle(design, outcomes, k, cap=params.ml_cap)
    elif params.frontend == "dd-pad":
        base = dd_pad_frontend(design, outcomes, k)
    else:
        base = tuple(sorted(int(i) for i in params.provided))
        if len(base) != k:
            raise ParameterError(f"provided front-end estimate has size {len(base)}, expected {k}")
    radius = params.radius_mult * params.eta_minus * k
    scorer = ExplainScorer(design, outcomes)
    est = _argmax_explained(scorer, base, size, radius, design.n, params.family_cap, params.hill_climb)
    if not est:
        warnings.warn("no candidate explained any positive test; returning empty estimate")
    return est


# ---------------------------------------------------------------------------
# deletion pipeline


@dataclass(frozen=True)
class PipelineResult:
    """One simulated run of the delete-then-decode pipeline, in original labels.

    ``design`` and ``reduced_truth`` are the exceptions: they live on the kept
    items, relabeled 1..len(kept) in increasing order. ``k_lo`` and ``k_hi``
    both hold k_mid, the expected retained defective count.
    """

    estimate: tuple
    defectives: DefectiveSet
    deleted: tuple
    kept: tuple
    k_lo: int
    k_hi: int
    design: TestDesign
    reduced_truth: DefectiveSet
    refused: bool = False


_PIPELINE_INNER = ("comp", "dd", "subset")


def _pipeline_deletions(n: int, alpha: float, xi: float | None, inner: str) -> int:
    """Number of items the pipeline deletes, round((alpha - xi) * n) with xi
    defaulting to alpha / 100, once alpha, xi and the inner decoder check out."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if inner not in _PIPELINE_INNER:
        raise ParameterError(
            f"inner decoder must be one of {_PIPELINE_INNER}, got {inner!r}; exhaustive ml "
            "needs the defective count exactly, which deletion leaves uncertain"
        )
    if xi is None:
        xi = alpha / 100.0
    if xi < 0 or xi > alpha:
        raise ParameterError(f"xi must lie in [0, alpha], got {xi}")
    d = round_half_up((alpha - xi) * n)
    if d >= n:
        raise ParameterError(f"deletion would remove all {n} items")
    return d


@dataclass(frozen=True)
class _Deletion:
    """One pipeline instance: the truth on the full ground set, the deleted
    and kept items, and the design and retained truth on the kept items,
    relabeled 1..len(kept) in increasing order."""

    truth: DefectiveSet
    deleted: np.ndarray
    kept: np.ndarray
    k_mid: int
    design: TestDesign
    reduced_truth: DefectiveSet

    def lift(self, est_reduced) -> tuple:
        """A sorted reduced-label estimate in original labels."""
        return tuple(self.kept[np.asarray(est_reduced, dtype=np.int64) - 1].tolist())


def _delete(spec: DesignSpec, prior: PriorSpec, n: int, k: int, T: int, d: int, seed):
    """Draw the truth from ``prior``, delete ``d`` uniform items and build a
    design for k_mid = round(k * kept / n) over the kept ones. Truth, design
    and deletion use the sub-streams 2, 1 and 3 of ``seed``."""
    truth = sample_defectives(prior, n, mix_seed(seed, 2))
    delete_rng = np.random.default_rng(mix_seed(seed, 3))
    deleted = np.sort(delete_rng.choice(n, size=d, replace=False)) + 1
    kept = np.setdiff1d(np.arange(1, n + 1), deleted, assume_unique=True)
    k_mid = max(1, round_half_up(k * kept.size / n))
    design = build_design(spec, kept.size, T, k_mid, mix_seed(seed, 1))
    members = np.asarray(truth.members, dtype=np.int64)
    retained = np.searchsorted(kept, members[np.isin(members, kept, assume_unique=True)]) + 1
    reduced = DefectiveSet(kept.size, tuple(retained.tolist()))
    return _Deletion(truth, deleted, kept, k_mid, design, reduced)


def _decode(name: str, design: TestDesign, outcomes, k: int, params=None, ml_cap=DEFAULT_ML_CAP):
    """(estimate, refused) of decoder ``name``: comp, dd, ml, or subset with
    ``params`` and its warnings silenced. A CapExceededError is a refusal,
    with an empty estimate."""
    try:
        if name == "comp":
            return comp_decode(design, outcomes), False
        if name == "dd":
            return dd_decode(design, outcomes), False
        if name == "ml":
            return ml_oracle(design, outcomes, k, cap=ml_cap), False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return subset_decode(design, outcomes, k, params), False
    except CapExceededError:
        return (), True


def deletion_pipeline(
    spec: DesignSpec,
    n: int,
    k: int,
    T: int,
    alpha: float,
    inner: str = "dd",
    seed=0,
    xi: float | None = None,
    eta_minus: float = 0.1,
    radius_mult: float = 3.0,
    family_cap: int = DEFAULT_FAMILY_CAP,
    hill_climb: bool = False,
) -> PipelineResult:
    """Delete a uniform fraction of items, then decode the survivors.

    round((alpha - xi) * n) items are deleted outright and declared
    non-defective (xi defaults to alpha / 100). The truth is a uniform size-k
    set on the full ground set (pipeline trials of the harness draw it from
    their configured prior instead, through the same deletion step); a design
    from ``spec`` is built over the remaining ground set and the inner
    decoder runs on the kept items, through the harness's decoder dispatch. The
    defective count is taken as k_mid, the expected retained count; the
    "subset" inner decoder is ``subset_decode`` at k_mid with a dd-pad front
    end and the given eta_minus, radius_mult, family_cap and hill_climb,
    without its warnings. The estimate never contains deleted items.
    """
    d = _pipeline_deletions(n, alpha, xi, inner)
    # built before any draw, so bad search knobs fail fast
    params = (
        SubsetParams(eta_minus, radius_mult=radius_mult, family_cap=family_cap, hill_climb=hill_climb)
        if inner == "subset"
        else None
    )
    cut = _delete(spec, PriorSpec("combinatorial", k=k), n, k, T, d, seed)
    y = generate_outcomes(cut.design, cut.reduced_truth)
    est, refused = _decode(inner, cut.design, y, cut.k_mid, params)
    return PipelineResult(
        estimate=cut.lift(est),
        defectives=cut.truth,
        deleted=tuple(cut.deleted.tolist()),
        kept=tuple(cut.kept.tolist()),
        k_lo=cut.k_mid,
        k_hi=cut.k_mid,
        design=cut.design,
        reduced_truth=cut.reduced_truth,
        refused=refused,
    )
