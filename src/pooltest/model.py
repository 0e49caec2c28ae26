"""Defective-set priors and the noiseless OR outcome channel.

A pool is positive exactly when it contains at least one defective item.
Outcomes are a length-T bool numpy array aligned with the design's tests;
every decoder and analysis also accepts any 0/1 sequence of that length.
Natural logs are used in the two-step prior densities.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .design import TestDesign
from .errors import ParameterError
from .util import round_half_up


def k_from_theta(n: int, theta: float) -> int:
    """Defective count k = n**theta rounded to nearest, ties upward."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if not (0.0 < theta < 1.0):
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    return max(1, round_half_up(n**theta))


@dataclass(frozen=True)
class DefectiveSet:
    """A set of defective items out of a ground set of size n."""

    n: int
    members: tuple

    def __post_init__(self):
        prev = 0
        for i in self.members:
            if not (1 <= i <= self.n):
                raise ParameterError(f"member {i} out of range [1, {self.n}]")
            if i <= prev:
                raise ParameterError("members must be strictly increasing")
            prev = i

    @classmethod
    def of(cls, n: int, items) -> "DefectiveSet":
        return cls(n, tuple(sorted(int(i) for i in set(items))))

    @property
    def k(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        j = bisect_left(self.members, item)
        return j < len(self.members) and self.members[j] == item

    def __iter__(self):
        return iter(self.members)


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
        if self.kind not in ("combinatorial", "iid", "iid-trim", "iid-pad"):
            raise ParameterError(f"unknown prior kind {self.kind!r}")
        if self.kind == "iid":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise ParameterError(f"iid prior needs q in (0, 1), got {self.q}")
        else:
            if self.k is None or self.k < 1:
                raise ParameterError(f"{self.kind} prior needs k >= 1, got {self.k}")

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


def sample_defectives(prior: PriorSpec, n: int, seed) -> DefectiveSet:
    """Draw a defective set from the prior."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if prior.kind != "iid" and prior.k > n:
        raise ParameterError(f"prior k={prior.k} exceeds n={n}")
    rng = np.random.default_rng(seed)

    if prior.kind == "combinatorial":
        members = np.sort(rng.choice(n, size=prior.k, replace=False)) + 1
        return DefectiveSet(n, tuple(members.tolist()))

    if prior.kind == "iid":
        mask = rng.random(n) < prior.q
        return DefectiveSet(n, tuple((np.flatnonzero(mask) + 1).tolist()))

    mask = rng.random(n) < _two_step_q(prior.kind, prior.k, n)
    chosen = np.flatnonzero(mask) + 1
    if prior.kind == "iid-trim":
        if chosen.size > prior.k:
            drop = rng.choice(chosen.size, size=chosen.size - prior.k, replace=False)
            keep = np.ones(chosen.size, dtype=bool)
            keep[drop] = False
            chosen = chosen[keep]
    elif chosen.size < prior.k:
        outside = np.setdiff1d(np.arange(1, n + 1), chosen, assume_unique=True)
        extra = rng.choice(outside.size, size=prior.k - chosen.size, replace=False)
        chosen = np.sort(np.concatenate([chosen, outside[extra]]))
    return DefectiveSet(n, tuple(chosen.tolist()))


def generate_outcomes(design: TestDesign, s: DefectiveSet) -> np.ndarray:
    """OR-channel outcomes as a length-T bool array: entry t - 1 is True iff
    test t contains a defective."""
    if s.n != design.n:
        raise ParameterError(f"ground sets differ: design n={design.n}, set n={s.n}")
    bits = np.zeros(design.T, dtype=bool)
    bits[design.cols_of(s.members).astype(np.intp) - 1] = True  # intp: numpy's fast scatter
    return bits
