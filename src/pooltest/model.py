"""Defective-set priors and the noiseless OR outcome channel.

A pool is positive exactly when it contains at least one defective item.
Outcomes are a length-T bool numpy array aligned with the design's tests;
every decoder and analysis also accepts any 0/1 sequence of that length.
Natural logs are used in the two-step prior densities.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .design import TestDesign, _distinct
from .errors import ParameterError
from .util import require_count, require_real, round_half_up


def k_from_theta(n: int, theta: float) -> int:
    """Defective count k = n**theta rounded to nearest, ties upward."""
    n = require_count("n", n)
    return max(1, round_half_up(n ** require_real("theta", theta, 1)))


@dataclass(frozen=True)
class DefectiveSet:
    """A set of defective items out of a ground set of size n."""

    n: int
    members: tuple

    def __post_init__(self):
        require_count("n", self.n, low=0)
        m = self.members
        # strictly increasing with both ends in range puts every member in
        # range; the loop only words the error for the first offending member
        if len(m) and (1 <= m[0] and m[-1] <= self.n) and all(map(operator.lt, m, m[1:])):
            return
        prev = 0
        for i in m:
            if not (1 <= i <= self.n):
                raise ParameterError(f"member {i} out of range [1, {self.n}]")
            if i <= prev:
                raise ParameterError("members must be strictly increasing")
            prev = i

    @classmethod
    def of(cls, n: int, items) -> "DefectiveSet":
        """The set of the items, read by _item_array on the ground set 1..n."""
        n = require_count("n", n, low=0)
        return cls(n, tuple(_item_array(items, n).tolist()))

    @property
    def k(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        j = bisect_left(self.members, item)
        return j < len(self.members) and self.members[j] == item

    def __iter__(self):
        return iter(self.members)


def _item_array(s, n: int | None = None) -> np.ndarray:
    """The distinct items of a DefectiveSet or of any collection of item
    indices, as a sorted int64 array: the one reader of item sets. An item
    that is not a whole number raises ParameterError, and so does one below
    1 or, when the caller knows the ground set 1..n, above n, in
    require_count's form: "need 1 <= item <= {n}, got {item}"."""
    members = getattr(s, "members", s)
    if not isinstance(members, (np.ndarray, list, tuple)):
        members = list(members)
    items = np.asarray(members)
    if items.dtype.kind not in "iu":
        whole = items.astype(np.int64)
        if not np.array_equal(whole, items):
            raise ParameterError(f"items must be whole numbers, got {items[whole != items][:3].tolist()}")
        items = whole
    if isinstance(s, DefectiveSet):  # sorted and distinct by construction
        items = items.astype(np.int64, copy=False)
    else:
        items = _distinct(np.array(items, dtype=np.int64))  # a copy: _distinct sorts in place
    if items.size:  # sorted, so the ends hold any item out of range
        require_count("item", int(items[0]), high=n)
        require_count("item", int(items[-1]), high=n)
    return items


_PRIOR_KINDS = ("combinatorial", "iid", "iid-trim", "iid-pad")


@dataclass(frozen=True)
class PriorSpec:
    """How the defective set is drawn.

    kind "combinatorial": uniform over all size-k subsets.
    kind "iid":           each item defective independently with probability q.
    kind "iid-trim":      i.i.d. with q' = (k + sqrt(k) ln n) / n, then remove
                          uniformly chosen items down to size k. A draw can
                          undershoot k; it is kept as-is.
    kind "iid-pad":       i.i.d. with q' = (k - sqrt(k) ln n) / n, then add
                          uniformly chosen non-members up to size k.
    """

    kind: str
    k: int | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind not in _PRIOR_KINDS:
            raise ParameterError(f"unknown prior kind {self.kind!r}")
        if self.kind != "iid":
            require_count("k", self.k)
        else:
            require_real("q", self.q, 1)

    def label(self) -> str:
        if self.kind == "iid":
            return f"iid({self.q:g})"
        return f"{self.kind}({self.k})"


def _two_step_q(kind: str, k: int, n: int) -> float:
    shift = math.sqrt(k) * math.log(n)
    q = (k + shift) / n if kind == "iid-trim" else (k - shift) / n
    if not (0.0 < q < 1.0):
        raise ParameterError(
            f"{kind} density (k {'+' if kind == 'iid-trim' else '-'} sqrt(k) ln n)/n = {q:.4g} "
            f"falls outside (0, 1) for n={n}, k={k}"
        )
    return q


def _sorted_sample(rng: np.random.Generator, population: int, size: int) -> np.ndarray:
    """``size`` distinct draws from range(population), sorted: the same array
    as ``np.sort(rng.choice(population, size, replace=False))``.

    Only for a generator that is dropped right after the draw. choice picks
    its method from the population, the size and its ``shuffle`` flag:
    Floyd's algorithm, which draws the set and then shuffles it only when
    asked, or a partial shuffle of the whole range, whose tail is the set in
    random order either way. The method is the same for both flags except in
    the band population > 10000 and population // 50 < size <= population //
    20, where a shuffled choice takes the partial shuffle and an unshuffled
    one Floyd's algorithm, and the two draw different sets. Outside the band
    the flag changes only the order, which the sort discards, so the shuffle
    is skipped there; inside it the flag stays True. Either way the draws
    the generator makes differ, so a generator that goes on drawing must
    call choice itself.
    """
    shuffle = population > 10000 and population // 50 < size <= population // 20
    drawn = rng.choice(population, size, replace=False, shuffle=shuffle)
    drawn.sort()
    return drawn


def sample_defectives(prior: PriorSpec, n: int, seed) -> DefectiveSet:
    """Draw a defective set from the prior."""
    return DefectiveSet(n, tuple(_draw(prior, n, seed).tolist()))


def _draw(prior: PriorSpec, n: int, seed) -> np.ndarray:
    """The members of a draw from the prior, as a sorted int64 array of
    distinct items in 1..n; sample_defectives wraps it."""
    n = require_count("n", n)
    if prior.kind != "iid":
        require_count("k", prior.k, high=n)
    rng = np.random.default_rng(seed)

    if prior.kind == "combinatorial":
        members = _sorted_sample(rng, n, prior.k)
        members += 1
        return members

    if prior.kind == "iid":
        return np.flatnonzero(rng.random(n) < prior.q) + 1

    mask = rng.random(n) < _two_step_q(prior.kind, prior.k, n)
    chosen = np.flatnonzero(mask) + 1
    if prior.kind == "iid-trim":
        if chosen.size > prior.k:
            drop = _sorted_sample(rng, chosen.size, chosen.size - prior.k)
            keep = np.ones(chosen.size, dtype=bool)
            keep[drop] = False
            chosen = chosen[keep]
    elif chosen.size < prior.k:
        outside = np.setdiff1d(np.arange(1, n + 1), chosen, assume_unique=True)
        extra = _sorted_sample(rng, outside.size, prior.k - chosen.size)
        chosen = np.sort(np.concatenate([chosen, outside[extra]]))
    return chosen


def _members_on(design: TestDesign, s: DefectiveSet) -> np.ndarray:
    """The set's members as an int64 array, once the set is checked to lie
    on the design's ground set."""
    if s.n != design.n:
        raise ParameterError(f"ground sets differ: design n={design.n}, set n={s.n}")
    return np.asarray(s.members, dtype=np.int64)


def generate_outcomes(design: TestDesign, s: DefectiveSet) -> np.ndarray:
    """OR-channel outcomes as a length-T bool array: entry t - 1 is True iff
    test t contains a defective."""
    bits = np.zeros(design.T, dtype=bool)
    bits[design.cols_of(_members_on(design, s)).astype(np.intp) - 1] = True  # intp: numpy's fast scatter
    return bits
