"""Decoders for noiseless pooled tests.

* comp_decode: everything not ruled out by a negative test. Always a superset
  of the truth.
* dd_decode: items that appear as the only possible defective in some
  positive test. Always a subset of the truth, and of the comp estimate.
* ml_oracle: exhaustive maximum-likelihood over the satisfying sets.
* subset_decode: search near a front-end estimate for a smaller set
  explaining as many positive tests as possible, for partial ("subset of the
  truth") recovery. It alone decides between the exact search, the hill
  climb and a refusal.
* deletion_pipeline: randomly delete a fraction of items up front, then run
  an inner decoder on the reduced instance; trades acceptable false
  negatives for a shorter test budget. It runs the harness's own pipeline
  trial.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import DEFAULT_ENUM_CAP, ExplainScorer, clean_items, satisfying_sets
from .analysis import _bits, _defective_columns
from .design import DesignSpec, TestDesign, build_design
from .errors import CapExceededError, ParameterError
from .model import DefectiveSet, PriorSpec, generate_outcomes, sample_defectives
from .util import floor_tol, mix_seed, round_half_up

DEFAULT_FAMILY_CAP = 5_000_000


def _survivors(design: TestDesign, outcomes) -> np.ndarray:
    """The comp survivors: items in no negative test, as a sorted int64 array."""
    return np.flatnonzero(clean_items(design, _bits(outcomes, design.T))) + 1


def _sole(design: TestDesign, survivors: np.ndarray) -> np.ndarray:
    """Survivors that are the only survivor of some test, sorted.

    Survivors sit in positive tests only, so counting over their own columns
    finds every positive test that holds exactly one of them.
    """
    _, tests, owner, counts = _defective_columns(design, survivors)
    return survivors[np.bincount(owner[counts[tests] == 1], minlength=survivors.size) > 0]


def comp_decode(design: TestDesign, outcomes) -> tuple:
    """Items appearing in no negative test, sorted."""
    return tuple(_survivors(design, outcomes).tolist())


def dd_decode(design: TestDesign, outcomes) -> tuple:
    """Sole remaining candidates of positive tests: the comp survivors that
    are the only survivor of some positive test, which pins them as defective."""
    return tuple(_sole(design, _survivors(design, outcomes)).tolist())


def ml_oracle(design: TestDesign, outcomes, k: int, cap: int = DEFAULT_ENUM_CAP) -> tuple:
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


def _swaps(base_size: int, size: int, radius: float, n: int) -> range:
    """The counts j of outside items a size-``size`` set within Hamming ``radius``
    of the base can hold; its distance is base_size - size + 2j."""
    min_dist = base_size - size
    j_hi = (int(math.floor(radius)) - min_dist) // 2 if radius >= min_dist else -1
    return range(max(0, size - base_size), min(j_hi, size, n - base_size) + 1)


def family_size(base_size: int, size: int, radius: float, n: int) -> int:
    """Number of size-``size`` sets within Hamming ``radius`` of the base set."""
    js = _swaps(base_size, size, radius, n)
    return sum(math.comb(base_size, size - j) * math.comb(n - base_size, j) for j in js)


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
    ml_cap: int = DEFAULT_ENUM_CAP
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
    """dd estimate padded to size k with the lowest-index comp survivors.

    The survivors are derived once; on inconsistent inputs where they run
    out, the lowest-index other items pad the rest.
    """
    survivors = _survivors(design, outcomes)
    est = _sole(design, survivors).tolist()
    if len(est) >= k:
        return tuple(est[:k])
    have = set(est)
    for i in itertools.chain(survivors.tolist(), range(1, design.n + 1)):
        if len(est) >= k:
            break
        if i not in have:
            est.append(i)
            have.add(i)
    return tuple(sorted(est))


def _argmax_explained(scorer: ExplainScorer, base, size, radius, n):
    """Lexicographically smallest size-``size`` set within Hamming ``radius``
    of ``base`` with the most explained tests, or () when none explains any.

    Each candidate keeps size - j members of the base and adds j outside
    items, for j in ``_swaps``. Only outside items with a nonzero test mask
    change a count, so the search enumerates their a-subsets and stands for
    each group by its smallest member, padded with the j - a smallest inert
    items. The family itself is never built.
    """
    base_set = set(base)
    live = [i for i in scorer.live if i not in base_set]
    skip = base_set.union(scorer.live)
    inert = [i for i in range(1, n + 1) if i not in skip]
    best = ()
    best_count = 0
    for j in _swaps(len(base), size, radius, n):
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


def _hill_climb(scorer: ExplainScorer, base, size, radius):
    """Greedy single-swap ascent; a heuristic stand-in when the family is too
    large to enumerate, not an exact argmax."""
    base_set = set(base)
    current = list(base[:size])
    best_count = scorer.count(current)
    improved = True
    while improved:
        improved = False
        cur_set = set(current)
        best_swap = None
        for out in sorted(cur_set):
            # an item with no explained tests never makes a strict improvement
            for inn in scorer.live:
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

    Candidates have size floor((1 - eta_minus) k) and lie within Hamming
    radius radius_mult * eta_minus * k of the front-end estimate, whose items
    must lie in 1..n. A family of at most ``family_cap`` members (no cap when
    None) gets the exact search: the most explained tests, ties to the
    lexicographically smallest candidate. A larger one gets the hill climb
    when ``hill_climb`` is set and a CapExceededError otherwise. The empty
    tuple comes back when no candidate explains any test.
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
    if any(not (1 <= i <= design.n) for i in base):
        raise ParameterError("base set not contained in the ground set")
    radius = params.radius_mult * params.eta_minus * k
    scorer = ExplainScorer(design, outcomes)
    count = family_size(len(base), size, radius, design.n)
    if params.family_cap is None or count <= params.family_cap:
        est = _argmax_explained(scorer, base, size, radius, design.n)
    elif params.hill_climb:
        est = _hill_climb(scorer, base, size, radius)
    else:
        raise CapExceededError(
            f"candidate family has {count} members, cap is {params.family_cap}", estimate=count
        )
    if not est:
        warnings.warn("no candidate explained any positive test; returning empty estimate")
    return est


# ---------------------------------------------------------------------------
# deletion pipeline


@dataclass(frozen=True)
class PipelineResult:
    """One run of the delete-then-decode pipeline.

    ``defectives`` is the truth on the full ground set, and ``estimate`` is in
    original labels, never holding a deleted item. ``design`` and
    ``reduced_truth`` live on the kept items, relabeled 1..len(kept) in
    increasing order. ``k_mid`` is the expected retained defective count, at
    which the inner decoder runs, and ``k_lo`` and ``k_hi`` read it back for
    the benchmark replay. ``refused`` marks a subset search over its cap,
    with an empty estimate.
    """

    defectives: DefectiveSet
    deleted: tuple
    kept: tuple
    k_mid: int
    design: TestDesign
    reduced_truth: DefectiveSet
    estimate: tuple
    refused: bool

    @property
    def k_lo(self) -> int:
        return self.k_mid

    @property
    def k_hi(self) -> int:
        return self.k_mid


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


def _decode(name: str, design: TestDesign, outcomes, k: int, params=None, ml_cap=DEFAULT_ENUM_CAP):
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


def _pipeline(spec, prior, n, k, T, d, seed, inner, params) -> PipelineResult:
    """One pipeline trial: draw the truth from ``prior``, delete ``d`` uniform
    items, build a design for k_mid = round(k * kept / n) over the kept ones,
    decode it with ``inner`` at k_mid and lift the estimate to original
    labels. Truth, design and deletion use the sub-streams 2, 1 and 3 of
    ``seed``."""
    truth = sample_defectives(prior, n, mix_seed(seed, 2))
    delete_rng = np.random.default_rng(mix_seed(seed, 3))
    deleted = np.sort(delete_rng.choice(n, size=d, replace=False)) + 1
    kept = np.setdiff1d(np.arange(1, n + 1), deleted, assume_unique=True)
    k_mid = max(1, round_half_up(k * kept.size / n))
    design = build_design(spec, kept.size, T, k_mid, mix_seed(seed, 1))
    members = np.asarray(truth.members, dtype=np.int64)
    retained = np.searchsorted(kept, members[np.isin(members, kept, assume_unique=True)]) + 1
    reduced = DefectiveSet(kept.size, tuple(retained.tolist()))
    est, refused = _decode(inner, design, generate_outcomes(design, reduced), k_mid, params)
    estimate = tuple(kept[np.asarray(est, dtype=np.int64) - 1].tolist())
    deleted, kept = tuple(deleted.tolist()), tuple(kept.tolist())
    return PipelineResult(truth, deleted, kept, k_mid, design, reduced, estimate, refused)


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
    set on the full ground set; the rest is the harness's own pipeline trial,
    which draws its truth from the configured prior instead: a design from
    ``spec`` over the kept items, and the inner decoder at k_mid, the expected
    retained count. The "subset" inner decoder is ``subset_decode`` with a
    dd-pad front end and the given eta_minus, radius_mult, family_cap and
    hill_climb, without its warnings. The estimate never contains deleted
    items.
    """
    d = _pipeline_deletions(n, alpha, xi, inner)
    # built before any draw, so bad search knobs fail fast
    params = (
        SubsetParams(eta_minus, radius_mult=radius_mult, family_cap=family_cap, hill_climb=hill_climb)
        if inner == "subset"
        else None
    )
    return _pipeline(spec, PriorSpec("combinatorial", k=k), n, k, T, d, seed, inner, params)
