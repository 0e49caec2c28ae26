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
  negatives for a shorter test budget. Its subset search is sized from the
  full k, so it can meet subset(eta_minus); ``_pipeline_setup`` states that
  rule for it and for the harness's config. It runs the harness's own
  pipeline trial; every other trial runs its decoder from one table,
  ``_DECODERS``.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analysis import DEFAULT_ENUM_CAP, ExplainScorer, _defective_columns, _good_counts, _instance
from .analysis import _Instance, _satisfying_sets, _truth_instance
from .design import DesignSpec, TestDesign, build_design
from .errors import CapExceededError, ParameterError
from .model import DefectiveSet, PriorSpec, _draw, _item_array, _sorted_sample
from .util import floor_tol, mix_seed, require_count, require_real, round_half_up

DEFAULT_FAMILY_CAP = 5_000_000


def _survivors(inst: _Instance) -> np.ndarray:
    """The comp survivors: items in no negative test, as a sorted int64 array."""
    return np.flatnonzero(inst.clean) + 1


def _sole(design: TestDesign, survivors: np.ndarray) -> np.ndarray:
    """Survivors that are the only survivor of some test, sorted.

    Survivors sit in positive tests only, so counting over their own columns
    finds every positive test that holds exactly one of them.
    """
    return survivors[_good_counts(_defective_columns(design, survivors)) > 0]


def comp_decode(design: TestDesign, outcomes) -> tuple:
    """Items appearing in no negative test, sorted."""
    return tuple(_survivors(_instance(design, outcomes)).tolist())


def dd_decode(design: TestDesign, outcomes) -> tuple:
    """Sole remaining candidates of positive tests: the comp survivors that
    are the only survivor of some positive test, which pins them as defective."""
    return tuple(_dd(_instance(design, outcomes)).tolist())


def _dd(inst: _Instance) -> np.ndarray:
    return _sole(inst.design, _survivors(inst))


def ml_oracle(design: TestDesign, outcomes, k: int, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """Exhaustive maximum likelihood over all size-k satisfying sets.

    Every satisfying set is equally likely under a uniform size-k prior; the
    lexicographically smallest is returned.
    """
    return _ml(_instance(design, outcomes), k, cap)


def _ml(inst: _Instance, k: int, cap: int) -> tuple:
    sets = _satisfying_sets(inst, require_count("k", k, low=0, high=inst.design.n), cap)
    if not sets:
        raise ParameterError(
            "no size-k set reproduces the outcomes; inconsistent (design, outcomes, k)"
        )
    return sets[0]


# ---------------------------------------------------------------------------
# local search for partial recovery


def _swaps(base_size: int, size: int, radius: float, n: int) -> range:
    """The counts j of outside items a size-``size`` set within Hamming ``radius``
    of the base can hold; its distance is base_size - size + 2j. The radius is
    floored with ``floor_tol``, as ``subset_decode`` snaps it, so a product
    one ulp below an integer keeps that integer."""
    j_hi = (floor_tol(radius) - (base_size - size)) // 2
    return range(max(0, size - base_size), min(j_hi, size, n - base_size) + 1)


def family_size(base_size: int, size: int, radius: float, n: int) -> int:
    """Number of size-``size`` sets within Hamming ``radius`` of the base set."""
    n, size = require_count("n", n, low=0), require_count("size", size, low=0)
    base_size = require_count("base_size", base_size, low=0, high=n)
    js = _swaps(base_size, size, require_real("radius", radius, low_closed=True), n)
    return sum(math.comb(base_size, size - j) * math.comb(n - base_size, j) for j in js)


@dataclass(frozen=True)
class SubsetParams:
    """Knobs for subset_decode.

    frontend is "dd-pad" (dd estimate padded with the lowest-index comp
    survivors up to size k), "ml" (exhaustive maximum likelihood), or
    "provided" with the size-k estimate passed in ``provided``.
    ``family_cap`` bounds the candidate enumeration (None: no cap); when
    exceeded the call refuses unless ``hill_climb`` enables the greedy swap
    heuristic. Both caps are whole numbers, at least 0.
    """

    eta_minus: float
    radius_mult: float = 3.0
    frontend: str = "dd-pad"
    provided: tuple | None = None
    ml_cap: int = DEFAULT_ENUM_CAP
    family_cap: int = DEFAULT_FAMILY_CAP
    hill_climb: bool = False

    def __post_init__(self):
        require_real("eta_minus", self.eta_minus, 1, low_closed=True)
        if self.frontend not in ("dd-pad", "ml", "provided"):
            raise ParameterError(f"unknown frontend {self.frontend!r}")
        if self.frontend == "provided" and self.provided is None:
            raise ParameterError("frontend 'provided' needs the provided estimate")
        if self.provided is not None and _item_array(self.provided).size != len(self.provided):
            raise ParameterError(f"provided estimate repeats an item: {tuple(self.provided)}")
        require_real("radius_mult", self.radius_mult)
        require_count("ml_cap", self.ml_cap, low=0)
        if self.family_cap is not None:  # None: no cap
            require_count("family_cap", self.family_cap, low=0)


def dd_pad_frontend(design: TestDesign, outcomes, k: int) -> tuple:
    """dd estimate padded to size k with the lowest-index comp survivors.

    The survivors are derived once; on inconsistent inputs where they run
    out, the lowest-index other items pad the rest. k must lie in 0..n.
    """
    return _dd_pad(_instance(design, outcomes), k)


def _dd_pad(inst: _Instance, k: int) -> tuple:
    n, k = inst.design.n, require_count("k", k, low=0, high=inst.design.n)
    survivors = _survivors(inst)
    chosen = set(_sole(inst.design, survivors).tolist()[:k])
    for i in itertools.chain(survivors.tolist(), range(1, n + 1)):
        if len(chosen) == k:
            break
        chosen.add(i)
    return tuple(sorted(chosen))


def _best_addition(mask: int, masks: list, a: int, start: int = 0) -> tuple:
    """(top count, positions) over the a-subsets of ``masks[start:]`` ORed
    into ``mask``: the most explained tests, and the positions of the first
    a-subset in lexicographic order that reaches it. Each subset costs one OR
    and one popcount; a = 1 is a single pass over the masks."""
    if a == 0:
        return mask.bit_count(), ()
    if a == 1:
        counts = [(mask | m).bit_count() for m in masks[start:]]
        top = max(counts)
        return top, (start + counts.index(top),)
    best = (-1, ())
    for x in range(start, len(masks) - a + 1):
        c, rest = _best_addition(mask | masks[x], masks, a - 1, x + 1)
        if c > best[0]:
            best = (c, (x,) + rest)
    return best


def _argmax_explained(scorer: ExplainScorer, base, size, radius, n):
    """Lexicographically smallest size-``size`` set within Hamming ``radius``
    of ``base`` with the most explained tests, or () when none explains any.

    Each candidate keeps size - j members of the base and adds j outside
    items, for j in ``_swaps``. Only live outside items (nonzero test mask)
    change a count, so the search takes a of them and stands for each group
    by its smallest member, padded with the j - a smallest inert items. The
    family itself is never built: each kept set is ORed once, and each
    addition to it costs one OR and one popcount.

    Within one kept set and one a, the candidates' lexicographic order is
    that of the added live items, so only the first addition reaching the
    top count can win there. A kept set is skipped when no addition can
    reach the best count so far, by either bound: its own count plus j times
    the widest live mask, or its OR with every live mask (``reach``). Its
    candidates would all explain fewer tests than the best, so skipping them
    keeps the tie-break; a tie with the best is never skipped, since it can
    be lexicographically smaller.
    """
    base_set = set(base)
    live = [i for i in scorer.live if i not in base_set]
    live_masks = [scorer.masks[i - 1] for i in live]
    widest = max((m.bit_count() for m in live_masks), default=0)
    reach = scorer.union_mask(live)
    js = _swaps(len(base), size, radius, n)
    skip = base_set.union(live)
    inert = list(itertools.islice((i for i in range(1, n + 1) if i not in skip), max(js, default=0)))
    best = ()
    best_count = 0
    for j in js:
        for kept in itertools.combinations(base, size - j):
            kept_mask = scorer.union_mask(kept)
            kc = kept_mask.bit_count()
            if kc + j * widest < best_count or (kept_mask | reach).bit_count() < best_count:
                continue
            for a in range(max(0, j - len(inert)), min(j, len(live)) + 1):
                c, added = _best_addition(kept_mask, live_masks, a)
                if c == 0 or c < best_count:
                    continue
                cand = tuple(sorted(kept + tuple(live[x] for x in added) + tuple(inert[: j - a])))
                if c > best_count or cand < best:
                    best = cand
                    best_count = c
    return best


def _hill_climb(scorer: ExplainScorer, base, size, radius):
    """Greedy single-swap ascent; a heuristic stand-in when the family is too
    large to enumerate, not an exact argmax.

    From ``base[:size]``, each step takes the first swap, over outgoing
    members in increasing order and then live incoming items in increasing
    order, that explains the most tests above the current count, among swaps
    within ``radius`` of the base. The rest of the set without each outgoing
    member is one OR of a prefix and a suffix, and a swap's distance is the
    set's own plus or minus one per item. An outgoing member is skipped when
    no incoming item can lift the rest past the best count, by the widest
    live mask or by the OR of all of them; only a strict improvement is
    taken, so the skip changes no step.
    """
    base_set = set(base)
    masks = scorer.masks
    # (item, mask, change in distance from the base when the item comes in)
    live = [(i, masks[i - 1], -1 if i in base_set else 1) for i in scorer.live]
    widest = max((m.bit_count() for _, m, _ in live), default=0)
    reach = scorer.union_mask(scorer.live)
    current = list(base[:size])
    best_count = scorer.count(current)
    while True:
        cur_set = set(current)
        dist = len(base_set ^ cur_set)
        best_swap = None
        # ORs of the members before and after each position
        member_masks = [masks[i - 1] for i in current]
        before = list(itertools.accumulate(member_masks, operator.or_, initial=0))
        after = list(itertools.accumulate(reversed(member_masks), operator.or_, initial=0))[::-1]
        for p, out in enumerate(current):
            rest = before[p] | after[p + 1]
            if rest.bit_count() + widest <= best_count or (rest | reach).bit_count() <= best_count:
                continue
            out_dist = dist + (1 if out in base_set else -1)
            for inn, m, step in live:
                if inn in cur_set or out_dist + step > radius:
                    continue
                c = (rest | m).bit_count()
                if c > best_count:
                    best_count = c
                    best_swap = (out, inn)
        if best_swap is None:
            return tuple(current) if best_count > 0 else ()
        out, inn = best_swap
        current = sorted(cur_set - {out} | {inn})


def _front_end(inst: _Instance, k: int, params: SubsetParams) -> tuple:
    """The size-k estimate of the front end that ``subset_decode`` searches around."""
    if params.frontend == "ml":
        base = _ml(inst, k, params.ml_cap)
    elif params.frontend == "dd-pad":
        base = _dd_pad(inst, k)
    else:
        base = tuple(_item_array(params.provided, inst.design.n).tolist())
        if len(base) != k:
            raise ParameterError(f"provided front-end estimate has size {len(base)}, expected {k}")
    return base


def subset_decode(design: TestDesign, outcomes, k: int, params: SubsetParams) -> tuple:
    """Search the neighborhood of a front-end estimate for the reduced-size
    set explaining the most positive tests.

    Candidates have size floor((1 - eta_minus) k) and lie within Hamming
    radius floor(radius_mult * eta_minus * k) of the front-end estimate (both
    floors snap a product within 1e-9 of an integer to it), whose items
    must lie in 1..n. A family of at most ``family_cap`` members (no cap when
    None) gets the exact search: the most explained tests, ties to the
    lexicographically smallest candidate. A larger one gets the hill climb
    when ``hill_climb`` is set and a CapExceededError otherwise. The empty
    tuple comes back, with a UserWarning naming the reason, when the target
    size rounds to zero or no candidate explains any test.
    """
    est, note = _subset(_instance(design, outcomes), k, params)
    if note:
        warnings.warn(note)
    return est


def _search_shape(k: int, params: SubsetParams) -> tuple:
    """(size, radius) of the subset search at k: floor((1 - eta_minus) k)
    and floor(radius_mult * eta_minus * k), each snapped by ``floor_tol``."""
    eta = params.eta_minus
    return floor_tol((1.0 - eta) * k), floor_tol(params.radius_mult * eta * k)


def _subset(inst: _Instance, k: int, params: SubsetParams) -> tuple:
    """(estimate, note) of subset_decode on an instance: the note is the
    reason for an empty estimate, or None."""
    k = require_count("k", k)
    size, radius = _search_shape(k, params)
    if size == 0:
        return (), "target size (1 - eta_minus) * k rounds to zero; returning empty estimate"
    base = _front_end(inst, k, params)
    scorer = ExplainScorer._of(inst)
    n = inst.design.n
    count = family_size(len(base), size, radius, n)
    if params.family_cap is None or count <= params.family_cap:
        est = _argmax_explained(scorer, base, size, radius, n)
    elif params.hill_climb:
        est = _hill_climb(scorer, base, size, radius)
    else:
        raise CapExceededError(
            f"candidate family has {count} members, cap is {params.family_cap}", estimate=count
        )
    return est, None if est else "no candidate explained any positive test; returning empty estimate"


# ---------------------------------------------------------------------------
# the decoder table and the deletion pipeline


#: name -> run(instance, k, params), the estimate as a sorted int64 array;
#: ml reads params.ml_cap, and subset drops the note on an empty estimate
_DECODERS = {
    "comp": lambda inst, k, params: _survivors(inst),
    "dd": lambda inst, k, params: _dd(inst),
    "ml": lambda inst, k, params: np.array(_ml(inst, k, params.ml_cap), dtype=np.int64),
    "subset": lambda inst, k, params: np.array(_subset(inst, k, params)[0], dtype=np.int64),
}
#: decoders that need the defective count exactly; a trial tells them the drawn size
_EXACT_K = ("ml",)
_PIPELINE_INNER = tuple(name for name in _DECODERS if name not in _EXACT_K)
_DECODER_NAMES = (*_DECODERS, "pipeline")


def _decode(name: str, inst: _Instance, k: int, params: SubsetParams):
    """(estimate, refused) of table decoder ``name`` on an instance; a
    CapExceededError is a refusal, with an empty estimate."""
    try:
        return _DECODERS[name](inst, k, params), False
    except CapExceededError:
        return np.empty(0, dtype=np.int64), True


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


def _k_mid(n: int, k: int, d: int) -> int:
    """The expected number of defectives among the n - d items a pipeline
    keeps, at least 1: the k its inner decoder runs at."""
    return max(1, round_half_up(k * (n - d) / n))


def _pipeline_setup(
    n: int, k: int, alpha: float | None, xi: float | None, inner: str, params: SubsetParams
) -> tuple:
    """(d, inner knobs) of a pipeline over n items with k defectives, once
    alpha, xi and the inner decoder check out. It deletes
    d = round((alpha - xi) * n) items, xi defaulting to alpha / 100.

    The subset inner decoder searches for m = floor((1 - eta_minus) * k)
    items, sized from the full k that the criterion counts against, within
    radius floor(radius_mult * (k_mid - m)) of its size-k_mid front end: the
    knobs with eta_minus = 1 - m / k_mid, or unchanged when m is 0, so the
    search returns its empty estimate. An m above k_mid raises ParameterError;
    the other inner decoders take the knobs as they are.
    """
    alpha = require_real("alpha", alpha, 1)
    if inner not in _PIPELINE_INNER:
        raise ParameterError(
            f"inner decoder must be one of {_PIPELINE_INNER}, got {inner!r}; exhaustive ml "
            "needs the defective count exactly, which deletion leaves uncertain"
        )
    xi = alpha / 100.0 if xi is None else require_real("xi", xi, alpha, low_closed=True, high_closed=True)
    d = round_half_up((alpha - xi) * n)
    if d >= n:
        raise ParameterError(f"deletion would remove all {n} items")
    if inner != "subset":
        return d, params
    k_mid = _k_mid(n, k, d)
    m = _search_shape(k, params)[0]
    if m > k_mid:
        raise ParameterError(
            f"the pipeline's subset search must find floor((1 - eta_minus) k) = {m} items, but "
            f"deleting {d} of {n} items leaves k_mid = {k_mid} of the k = {k} defectives; "
            "lower alpha or raise eta_minus"
        )
    return d, (replace(params, eta_minus=1.0 - m / k_mid) if m else params)


def _pipeline(spec, prior, n, k, T, d, seed, inner, params) -> tuple:
    """(fields, instance) of one pipeline trial: draw the truth from
    ``prior``, delete ``d`` uniform items, build a design for ``_k_mid`` over
    the kept ones, decode its instance under the retained truth with
    ``inner`` at k_mid and the knobs of ``_pipeline_setup``, and lift the
    estimate to original labels. ``fields`` are the PipelineResult fields in
    order, each set (truth, deleted, kept, reduced truth, estimate) a sorted
    int64 array. Truth, design and deletion use the sub-streams 2, 1 and 3
    of ``seed``."""
    truth = _draw(prior, n, mix_seed(seed, 2))
    deleted = _sorted_sample(np.random.default_rng(mix_seed(seed, 3)), n, d) + 1
    keep = np.ones(n, dtype=bool)
    keep[deleted - 1] = False
    kept = np.flatnonzero(keep) + 1
    k_mid = _k_mid(n, k, d)
    design = build_design(spec, kept.size, T, k_mid, mix_seed(seed, 1))
    # a kept item's reduced label is the number of kept items up to it
    reduced = np.cumsum(keep)[truth[keep[truth - 1]] - 1]
    inst = _truth_instance(design, reduced)
    est, refused = _decode(inner, inst, k_mid, params)
    return (truth, deleted, kept, k_mid, design, reduced, kept[est - 1], refused), inst


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
    dd-pad front end, the given radius_mult, family_cap and hill_climb, and
    without its UserWarning notes. It searches for floor((1 - eta_minus) k)
    items, counted against the full k, within floor(radius_mult * (k_mid -
    that size)) of the front end, and a size above k_mid raises
    ParameterError before any draw. The knobs are checked whatever the
    inner decoder. The estimate never contains deleted items.
    """
    params = SubsetParams(eta_minus, radius_mult=radius_mult, family_cap=family_cap, hill_climb=hill_climb)
    k = require_count("k", k, high=require_count("n", n))
    d, params = _pipeline_setup(n, k, alpha, xi, inner, params)
    fields = _pipeline(spec, PriorSpec("combinatorial", k=k), n, k, T, d, seed, inner, params)[0]
    truth, deleted, kept, k_mid, design, reduced, estimate, refused = fields
    return PipelineResult(
        DefectiveSet(n, truth),
        tuple(deleted.tolist()),
        tuple(kept.tolist()),
        k_mid,
        design,
        DefectiveSet(kept.size, reduced),
        tuple(estimate.tolist()),
        refused,
    )
