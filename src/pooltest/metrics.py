"""Rates, recovery criteria, threshold curves, and binomial tail bounds.

Rates are reported in bits per test: a scheme that distinguishes all size-k
defective sets of n items with T tests operates at rate log2(C(n, k)) / T.
Natural logs are used internally; anything user-facing that is a rate is in
base 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import _item_array
from .util import LN2, ceil_tol, floor_tol, require_choice, require_count, require_real, write_csv

#: Largest sparsity exponent for which the exact-recovery rate limit equals 1.
THETA_KNEE = LN2 / (1.0 + LN2)

# math.comb stays cheap up to here; beyond it the fsum path is used
_EXACT_K_MAX = 64


@functools.lru_cache(maxsize=256, typed=True)  # typed: a float n or k is read, not a cache hit
def log2_binomial(n: int, k: int) -> float:
    """log2 of the binomial coefficient C(n, k).

    Exact big-integer evaluation for small k, otherwise a compensated sum of
    log2 terms; relative error stays well under 1e-12 either way.
    """
    n, k = require_count("n", n, low=0), require_count("k", k, low=0, high=n)
    k = min(k, n - k)
    if k == 0:
        return 0.0
    if k <= _EXACT_K_MAX:
        return math.log2(math.comb(n, k))
    terms = []
    for i in range(1, k + 1):
        terms.append(math.log2(n - k + i))
        terms.append(-math.log2(i))
    return math.fsum(terms)


def rate(n: int, k: int, T: int) -> float:
    """Bits of defective-set identity learned per test: log2(C(n,k)) / T."""
    n = require_count("n", n)
    return log2_binomial(n, require_count("k", k, high=n)) / require_count("T", T)


def tests_for_rate(n: int, k: int, target_rate: float) -> int:
    """Smallest T whose rate does not exceed ``target_rate``."""
    target_rate = require_real("target_rate", target_rate)
    n = require_count("n", n)
    bits = log2_binomial(n, require_count("k", k, high=n))
    T = max(1, math.ceil(bits / target_rate))
    while bits / T > target_rate:
        T += 1
    while T > 1 and bits / (T - 1) <= target_rate:
        T -= 1
    return T


# ---------------------------------------------------------------------------
# recovery criteria


# each kind's slack fields, in the order its label prints them; a kind's own
# fields must be given, and any field given must be nonnegative, eta_minus
# below 1 too
_CRITERION_SLACK = {
    "exact": (),
    "subset": ("eta_minus",),
    "superset": ("eta_plus",),
    "two-sided": ("beta",),
    "asymmetric": ("alpha_fn", "alpha_fp"),
}
_CRITERION_KINDS = tuple(_CRITERION_SLACK)


@dataclass(frozen=True)
class Criterion:
    """A success criterion comparing an estimated defective set to the truth.

    kind is one of:
      exact       estimate == truth
      subset      estimate contained in truth, size at least (1 - eta_minus) k
      superset    estimate contains truth, size at most (1 + eta_plus) k
      two-sided   at most beta*k missed and beta*k spurious items
      asymmetric  at most alpha_fn*k missed, alpha_fp*k spurious
    """

    kind: str
    eta_minus: float | None = None
    eta_plus: float | None = None
    beta: float | None = None
    alpha_fn: float | None = None
    alpha_fp: float | None = None

    def __post_init__(self):
        require_choice("criterion", self.kind, _CRITERION_KINDS)
        for name in ("eta_minus", "eta_plus", "beta", "alpha_fn", "alpha_fp"):
            val = getattr(self, name)
            if val is not None or name in _CRITERION_SLACK[self.kind]:
                require_real(name, val, 1 if name == "eta_minus" else None, low_closed=True)

    @classmethod
    def exact(cls) -> "Criterion":
        return cls("exact")

    @classmethod
    def subset(cls, eta_minus: float) -> "Criterion":
        return cls("subset", eta_minus=eta_minus)

    @classmethod
    def superset(cls, eta_plus: float) -> "Criterion":
        return cls("superset", eta_plus=eta_plus)

    @classmethod
    def two_sided(cls, beta: float) -> "Criterion":
        return cls("two-sided", beta=beta)

    @classmethod
    def asymmetric(cls, alpha_fn: float, alpha_fp: float) -> "Criterion":
        return cls("asymmetric", alpha_fn=alpha_fn, alpha_fp=alpha_fp)

    def label(self) -> str:
        """The kind, then its slack values in parentheses when it has any."""
        slack = _CRITERION_SLACK[self.kind]
        if not slack:
            return self.kind
        return f"{self.kind}({','.join(f'{getattr(self, name):g}' for name in slack)})"


@dataclass(frozen=True)
class EvalOutcome:
    success: bool
    false_negatives: int
    false_positives: int


def evaluate(criterion: Criterion, truth, estimate) -> EvalOutcome:
    """Score an estimate against the true defective set under a criterion.

    Either set may be a DefectiveSet or any collection of item indices, read
    by model._item_array, which refuses an item that is not whole or is
    below 1, and scored relabelled onto their union, not on 1..(largest item).
    """
    truth, estimate = _item_array(truth), _item_array(estimate)
    union, labels = np.unique(np.concatenate([truth, estimate]), return_inverse=True)
    return _score(criterion, labels[: truth.size] + 1, labels[truth.size :] + 1, union.size)


def _score(criterion: Criterion, truth: np.ndarray, estimate: np.ndarray, n: int) -> EvalOutcome:
    """evaluate on int64 arrays of distinct true and distinct estimated
    items, each item in 1..n."""
    k = truth.size
    hits = 0
    if k and estimate.size:
        member = np.zeros(n + 1, dtype=bool)
        member[truth] = True
        hits = int(np.count_nonzero(member[estimate]))
    fn = k - hits
    fp = int(estimate.size) - hits
    kind = criterion.kind
    if kind == "exact":
        ok = fn == 0 and fp == 0
    elif kind == "subset":
        ok = fp == 0 and estimate.size >= floor_tol((1.0 - criterion.eta_minus) * k)
    elif kind == "superset":
        ok = fn == 0 and estimate.size <= ceil_tol((1.0 + criterion.eta_plus) * k)
    elif kind == "two-sided":
        allow = floor_tol(criterion.beta * k)
        ok = fn <= allow and fp <= allow
    else:  # asymmetric
        ok = fn <= floor_tol(criterion.alpha_fn * k) and fp <= floor_tol(criterion.alpha_fp * k)
    return EvalOutcome(bool(ok), fn, fp)


# ---------------------------------------------------------------------------
# asymptotic threshold curves


@dataclass(frozen=True)
class ThresholdPoint:
    theta: float
    zeta: float
    r_star: float
    counting_bound: float = 1.0


def zeta(theta: float) -> float:
    """Exact-recovery rate limit min{1, ln2 * (1 - theta) / theta}.

    The comparison against THETA_KNEE decides the min exactly, so the value
    is 1.0 precisely when theta <= ln2 / (1 + ln2).
    """
    theta = require_real("theta", theta, 1)
    if theta <= THETA_KNEE:
        return 1.0
    return LN2 * (1.0 - theta) / theta


def r_star(theta: float) -> float:
    """Rate limit when a vanishing fraction of one-sided slack is allowed."""
    return max(zeta(theta), LN2)


def threshold_curve(thetas) -> list[ThresholdPoint]:
    return [ThresholdPoint(float(t), zeta(t), r_star(t)) for t in thetas]


def write_threshold_csv(thetas, path) -> None:
    """Write the curve as CSV, one column per ThresholdPoint field."""
    header = [f.name for f in fields(ThresholdPoint)]
    write_csv(path, header, ([f"{getattr(p, c):.12g}" for c in header] for p in threshold_curve(thetas)))


# ---------------------------------------------------------------------------
# binomial tail bounds (multiplicative Chernoff)


def chernoff_upper(n: int, mu: float, delta: float) -> float:
    """Bound on P(Bin(n, mu) >= (1 + delta) n mu) for delta > 0."""
    n, mu, delta = require_count("n", n), require_real("mu", mu, 1), require_real("delta", delta)
    expo = (1.0 + delta) * math.log1p(delta) - delta
    return math.exp(-n * mu * expo)


def chernoff_lower(n: int, mu: float, delta: float) -> float:
    """Bound on P(Bin(n, mu) <= (1 - delta) n mu) for delta in (0, 1].

    At delta = 1 the (1-delta)log(1-delta) term is taken as 0.
    """
    n, mu = require_count("n", n), require_real("mu", mu, 1)
    delta = require_real("delta", delta, 1, high_closed=True)
    if delta == 1.0:
        expo = 1.0
    else:
        expo = (1.0 - delta) * math.log(1.0 - delta) + delta
    return math.exp(-n * mu * expo)


def chernoff_weak_upper(n: int, mu: float, delta: float) -> float:
    """Looser upper-tail bound exp(-delta^2 n mu / 3)."""
    n, mu, delta = require_count("n", n), require_real("mu", mu, 1), require_real("delta", delta)
    return math.exp(-delta * delta * n * mu / 3.0)


def chernoff_weak_lower(n: int, mu: float, delta: float) -> float:
    """Looser lower-tail bound exp(-delta^2 n mu / 2)."""
    n, mu = require_count("n", n), require_real("mu", mu, 1)
    delta = require_real("delta", delta, 1, high_closed=True)
    return math.exp(-delta * delta * n * mu / 2.0)
