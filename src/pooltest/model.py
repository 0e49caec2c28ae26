"""Defective-set priors and the noiseless OR outcome channel.

A pool is positive exactly when it contains at least one defective item.
Outcomes are a length-T bool numpy array aligned with the design's tests;
every decoder and analysis also accepts any 0/1 sequence of that length.
Natural logs are used in the two-step prior densities.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError
from .util import require_choice, require_count, require_real, round_half_up

if TYPE_CHECKING:
    from .design import TestDesign


def k_from_theta(n: int, theta: float) -> int:
    """Defective count k = n**theta rounded to nearest, ties upward."""
    n = require_count("n", n)
    return max(1, round_half_up(n ** require_real("theta", theta, 1)))


@dataclass(frozen=True)
class DefectiveSet:
    """A set of defective items out of a ground set of size n, its members
    read by _increasing and kept as a tuple of ints."""

    n: int
    members: tuple

    def __post_init__(self):
        members = _increasing(self.members, require_count("n", self.n, low=0), "members")
        object.__setattr__(self, "members", tuple(members.tolist()))

    @classmethod
    def of(cls, n: int, items) -> "DefectiveSet":
        """The set of the items, read by _item_array on the ground set 1..n."""
        n = require_count("n", n, low=0)
        return cls(n, _item_array(items, n))

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
    indices, read by _items, as a sorted int64 array: the one set reader."""
    items = _items(getattr(s, "members", s), n)
    return items if isinstance(s, DefectiveSet) else _distinct(items)


def _items(members, n: int | None) -> np.ndarray:
    """The items of a collection as a new int64 array, in their order: the
    one item rule. A non-item (a string, None, a complex number, a sequence,
    NaN or an infinity) raises ParameterError "items must be whole numbers,
    got [...]", with no numpy warning; an item below 1, above n if given, or
    beyond int64, require_count's "need 1 <= item <= {n}, got {item}"."""
    if not isinstance(members, (np.ndarray, list, tuple)):
        members = list(members)
    try:
        items = np.asarray(members)
    except ValueError:  # ragged nesting
        items = None
    bad = []
    # a float array, unless given as one, is read item by item: a list
    # mixing floats and ints past 2**53 would lose them to float64
    numeric = "biuf" if isinstance(members, np.ndarray) else "biu"
    if items is None or items.ndim != 1 or items.dtype.kind not in numeric:  # item by item
        given = members.tolist() if isinstance(members, np.ndarray) else members
        bad = [
            x
            for x in given
            if not isinstance(x, numbers.Integral)  # an int of any size is whole
            and not (isinstance(x, numbers.Real) and math.isfinite(x) and x == int(x))
        ]
        items = np.array([] if bad else [int(x) for x in given], dtype=object)
    elif items.dtype.kind == "f":  # NaN fails the comparison and an infinity the finite test
        bad = items[~(np.isfinite(items) & (np.trunc(items) == items))].tolist()
    if bad:
        raise ParameterError(f"items must be whole numbers, got {bad[:3]}")
    if items.size:
        require_count("item", int(items.min()), high=n)
        high = 2**63 - 1 if n is None else min(n, 2**63 - 1)  # int64's largest
        require_count("item", int(items.max()), high=high)
    return items.astype(np.int64)  # a copy: _distinct sorts in place


def _increasing(members, n: int, name: str) -> np.ndarray:
    """The items of a collection read by _items on 1..n, if strictly
    increasing; else ParameterError "{name} must be strictly increasing"."""
    items = _items(members, n)
    if np.any(items[1:] <= items[:-1]):
        raise ParameterError(f"{name} must be strictly increasing")
    return items


def _distinct(key: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, sorted; sorts it in place."""
    key.sort()
    distinct = np.empty(key.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(key[1:], key[:-1], out=distinct[1:])
    return key[distinct]


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
        require_choice("prior", self.kind, _PRIOR_KINDS)
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
    return DefectiveSet(n, _draw(prior, n, seed))


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


def _ground(na: int | None, nb: int | None) -> int | None:
    """The one ground-set size of two inputs (None: not known), the one
    ground-set rule; two known sizes that differ raise ParameterError."""
    if na is not None and nb is not None and na != nb:
        raise ParameterError(f"ground sets differ: n={na} vs n={nb}")
    return nb if na is None else na


def _members_on(design: TestDesign, s: DefectiveSet) -> np.ndarray:
    """The set's members as an int64 array, once _ground checks that the set
    lies on the design's ground set."""
    _ground(design.n, s.n)
    return np.asarray(s.members, dtype=np.int64)


def generate_outcomes(design: TestDesign, s: DefectiveSet) -> np.ndarray:
    """OR-channel outcomes as a length-T bool array: entry t - 1 is True iff
    test t contains a defective."""
    bits = np.zeros(design.T, dtype=bool)
    bits[design.cols_of(_members_on(design, s)).astype(np.intp) - 1] = True  # intp: numpy's fast scatter
    return bits
