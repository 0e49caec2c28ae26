"""Oracle suites: the fast paths against independent slow paths.

``oracle_check`` runs one of ``ORACLE_SUITES``. The suites draw their random
instances with ``_draw_instance``, and the two subset suites compare
subset_decode with a reference search through ``_subset_pair``. The four
suites that call the slow ``reference`` implementations import it in their
bodies: the package and its command line import this module, so a top-level
import would load the references into every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _instance, explained_tests, good_test_counts, masking_report, posterior_uniformity_check
from .decode import SubsetParams, _front_end, _search_shape, comp_decode, dd_decode, ml_oracle, subset_decode
from .design import TestDesign, bernoulli_design, ncc_design
from .metrics import chernoff_lower, chernoff_upper, chernoff_weak_lower, chernoff_weak_upper
from .model import DefectiveSet, generate_outcomes
from .util import LN2, mix_seed, require_choice, require_count


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    lines: tuple  # a suite appends one line per failed check, and nothing else

    @property
    def failures(self) -> int:
        return len(self.lines)

    @property
    def passed(self) -> bool:
        return not self.lines

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "\n".join("  " + ln for ln in self.lines[:10])
        head = f"[{status}] {self.name}: {self.checked} checks, {self.failures} failures"
        return head + ("\n" + body if body else "")


def _draw_instance(rng, n_range, k_range, T_range, mixed=False):
    """(design, truth, outcomes) of an oracle suite's random instance: n, k < n
    and T drawn in turn from half-open ranges, then a Bernoulli design at
    p = min(0.9, ln 2 / k), or, when ``mixed``, an ncc one half of the time."""
    n = int(rng.integers(*n_range))
    k = int(rng.integers(k_range[0], min(k_range[1], n)))
    T = int(rng.integers(*T_range))
    if not mixed or rng.random() < 0.5:
        design = bernoulli_design(n, T, min(0.9, LN2 / k), rng)
    else:
        design = ncc_design(n, T, int(rng.integers(1, min(T, 6) + 1)), rng)
    members = np.sort(rng.choice(n, size=k, replace=False)) + 1
    truth = DefectiveSet(n, members)
    return design, truth, generate_outcomes(design, truth)


def _subset_pair(design, y, k, params, naive) -> tuple:
    """subset_decode's estimate and the ``naive`` reference's, the latter
    searching from the same front-end estimate at the size and radius of
    ``decode._search_shape``."""
    fast = subset_decode(design, y, k, params)
    base = _front_end(_instance(design, y), k, params)
    return fast, naive(design, y, base, *_search_shape(k, params))


def _one_swapped(rng, truth: DefectiveSet) -> tuple:
    """The truth with one member, drawn first, swapped for a drawn outside item."""
    s = list(truth.members)
    outside = sorted(set(range(1, truth.n + 1)) - set(s))
    s[int(rng.integers(0, len(s)))] = outside[int(rng.integers(0, len(outside)))]
    return tuple(sorted(s))


def suite_explained_naive(seed=0, instances: int = 500) -> SuiteResult:
    """explained/comp/dd/good/masked fast paths against the literal double loops."""
    from . import reference

    rng = np.random.default_rng(mix_seed(seed, 11))
    lines = []
    for j in range(instances):
        design, truth, y = _draw_instance(rng, (4, 17), (1, 6), (3, 25), mixed=True)
        y_list = y.astype(int).tolist()
        if reference.naive_outcomes(design, truth.members) != y_list:
            lines.append(f"instance {j}: outcome mismatch")
            continue
        k_cand = int(rng.integers(1, design.n + 1))
        cand = tuple((np.sort(rng.choice(design.n, size=k_cand, replace=False)) + 1).tolist())
        for candidate in (truth.members, cand):
            fast = explained_tests(design, y, candidate)
            slow = reference.naive_explained(design, y_list, candidate)
            if list(fast.explained) != slow or fast.count != len(slow):
                lines.append(f"instance {j}: explained mismatch for {candidate}")
        if list(comp_decode(design, y)) != reference.naive_comp(design, y_list):
            lines.append(f"instance {j}: comp mismatch")
        if list(dd_decode(design, y)) != reference.naive_dd(design, y_list):
            lines.append(f"instance {j}: dd mismatch")
        fast_good = good_test_counts(design, truth)
        if fast_good != reference.naive_good_counts(design, truth):
            lines.append(f"instance {j}: good-test counts mismatch")
        rep = masking_report(design, truth)
        naive_masked = reference.naive_masked_items(design, truth)
        if list(rep.masked_items) != naive_masked:
            lines.append(f"instance {j}: masked items mismatch")
    return SuiteResult("explained-naive", instances, tuple(lines))


def suite_subset_argmax(seed=0, instances: int = 200) -> SuiteResult:
    """subset_decode against brute-force argmax with the same tie-break."""
    from . import reference

    rng = np.random.default_rng(mix_seed(seed, 12))
    etas = (0.2, 0.25, 0.4)
    frontends = ("dd-pad", "ml", "provided")
    lines = []
    for j in range(instances):
        design, truth, y = _draw_instance(rng, (8, 15), (2, 6), (6, 21))
        eta = etas[j % len(etas)]
        frontend = frontends[j % len(frontends)]
        provided = _one_swapped(rng, truth) if frontend == "provided" else None
        params = SubsetParams(eta_minus=eta, frontend=frontend, provided=provided)
        fast, slow = _subset_pair(design, y, truth.k, params, reference.brute_force_subset_argmax)
        if fast != slow:
            lines.append(f"instance {j}: {fast} != brute {slow} (eta={eta}, frontend={frontend})")
    return SuiteResult("subset-argmax", instances, tuple(lines))


def suite_hill_climb(seed=0, instances: int = 200) -> SuiteResult:
    """subset_decode's hill climb against the naive climb, which rescores
    every swap, at radii that bind and radii that do not."""
    from . import reference

    rng = np.random.default_rng(mix_seed(seed, 17))
    etas = (0.2, 0.25, 0.4)
    radius_mults = (2.0, 3.0, 4.0, 12.0)
    lines = []
    for j in range(instances):
        design, truth, y = _draw_instance(rng, (10, 31), (3, 8), (6, 31))
        eta = etas[j % len(etas)]
        radius_mult = radius_mults[j % len(radius_mults)]
        provided = _one_swapped(rng, truth) if j % 2 else None
        # eta * k >= 0.6 and radius_mult >= 2 put at least k sets of the base's
        # own members within the radius, so the cap of 1 always sends the call
        # to the climb
        params = SubsetParams(
            eta_minus=eta,
            radius_mult=radius_mult,
            frontend="provided" if provided else "dd-pad",
            provided=provided,
            family_cap=1,
            hill_climb=True,
        )
        fast, slow = _subset_pair(design, y, truth.k, params, reference.naive_hill_climb)
        if fast != slow:
            lines.append(f"instance {j}: {fast} != naive {slow} (eta={eta}, radius_mult={radius_mult})")
    return SuiteResult("hill-climb", instances, tuple(lines))


def suite_ml_enum(seed=0, instances: int = 150) -> SuiteResult:
    """ml_oracle against naive enumeration, plus determinism and relabeling."""
    from . import reference

    rng = np.random.default_rng(mix_seed(seed, 13))
    lines = []
    for j in range(instances):
        design, truth, y = _draw_instance(rng, (6, 11), (2, 4), (4, 13))
        n, k = design.n, truth.k
        est = ml_oracle(design, y, k)
        sets = reference.naive_satisfying_sets(design, y, k)
        if est not in sets or est != sets[0]:
            lines.append(f"instance {j}: ml estimate {est} not the first of {len(sets)} sets")
            continue
        if ml_oracle(design, y, k) != est:
            lines.append(f"instance {j}: ml not deterministic")
        # relabeling: the satisfying family commutes with a permutation and the
        # deterministic pick is the lexicographic minimum of the relabeled family
        perm = rng.permutation(n) + 1
        mapped_rows = [sorted(int(perm[i - 1]) for i in design.row(t)) for t in range(1, design.T + 1)]
        mapped = TestDesign.from_rows(n, mapped_rows)
        est_m = ml_oracle(mapped, y, k)
        family = {tuple(sorted(int(perm[i - 1]) for i in s)) for s in sets}
        if est_m != min(family):
            lines.append(f"instance {j}: relabeled ml {est_m} != min of relabeled family")
    return SuiteResult("ml-enum", instances, tuple(lines))


UNIFORMITY_DESIGNS = (
    ((1, 2), (3, 4), (5, 6)),
    ((1, 2, 3), (3, 4, 5), (1, 5, 6)),
    ((1, 2, 3, 4), (4, 5), (1, 6)),
)


def suite_posterior_uniformity(seed=0, trials: int = 100_000) -> SuiteResult:
    """Uniform sampling must look uniform over each satisfying family; a
    deliberately biased sampler must be rejected."""
    lines = []
    checked = 0
    for d_idx, rows in enumerate(UNIFORMITY_DESIGNS):
        design = TestDesign.from_rows(6, [list(r) for r in rows])
        report = posterior_uniformity_check(design, 2, trials, mix_seed(seed, 14, d_idx))
        for b in report.bins:
            if b.p_value is None:
                continue
            checked += 1
            if b.p_value <= 0.01:
                lines.append(f"design {d_idx}: bin {b.outcome} p={b.p_value:.2e}")

    def biased(rng, m, count):
        w = np.linspace(1.0, 3.0, m)
        return rng.choice(m, size=count, p=w / w.sum())

    design = TestDesign.from_rows(6, [list(r) for r in UNIFORMITY_DESIGNS[0]])
    rej = posterior_uniformity_check(design, 2, trials, mix_seed(seed, 15), sampler=biased)
    checked += 1
    if not rej.min_p() < 1e-6:  # NaN when every bin is skipped: nothing was rejected
        lines.append(f"negative control not rejected: min p = {rej.min_p():.2e}")
    return SuiteResult("posterior-uniformity", checked, tuple(lines))


# Grid chosen so that every true tail is resolvable at 10^5 draws and every
# bound clears its true tail by enough that sampling noise cannot cross it
# (exact binomial computation puts the false-alarm probability below 1e-10
# for the whole grid).  At large n the lower bounds at delta near 1 sit
# within a whisker of the true tail, where a one-in-20000 fluctuation of the
# empirical estimate would spuriously exceed a perfectly valid bound.
CHERNOFF_GRID = {
    "n": (5, 7, 10, 14, 19),
    "mu": (0.1, 0.2, 0.3, 0.4, 0.5),
    "delta": (0.1, 0.25, 0.5, 0.75, 1.0),
}


def suite_chernoff_dominance(seed=0, samples: int = 100_000) -> SuiteResult:
    """Closed-form tail bounds must dominate Monte Carlo tail estimates, and
    each strong bound must not exceed its weak companion on (0, 1]."""
    rng = np.random.default_rng(mix_seed(seed, 16))
    checked = 0
    lines = []
    for n in CHERNOFF_GRID["n"]:
        for mu in CHERNOFF_GRID["mu"]:
            draws = rng.binomial(n, mu, size=samples)
            for delta in CHERNOFF_GRID["delta"]:
                up_emp = float((draws >= (1 + delta) * n * mu).mean())
                lo_emp = float((draws <= (1 - delta) * n * mu).mean())
                ub = chernoff_upper(n, mu, delta)
                lb = chernoff_lower(n, mu, delta)
                checked += 4
                if up_emp > ub:
                    lines.append(f"upper n={n} mu={mu} d={delta}: emp {up_emp:.4g} > bound {ub:.4g}")
                if lo_emp > lb:
                    lines.append(f"lower n={n} mu={mu} d={delta}: emp {lo_emp:.4g} > bound {lb:.4g}")
                if ub > chernoff_weak_upper(n, mu, delta) * (1 + 1e-12):
                    lines.append(f"strong upper above weak at n={n} mu={mu} d={delta}")
                if lb > chernoff_weak_lower(n, mu, delta) * (1 + 1e-12):
                    lines.append(f"strong lower above weak at n={n} mu={mu} d={delta}")
    return SuiteResult("chernoff-dominance", checked, tuple(lines))


ORACLE_SUITES = {
    "explained-naive": suite_explained_naive,
    "subset-argmax": suite_subset_argmax,
    "hill-climb": suite_hill_climb,
    "ml-enum": suite_ml_enum,
    "posterior-uniformity": suite_posterior_uniformity,
    "chernoff-dominance": suite_chernoff_dominance,
}


def oracle_check(suite: str, seed: int = 0, **overrides) -> SuiteResult:
    """Run one named cross-check suite at its pinned sizes, or at the given
    ones, each at least 1."""
    require_choice("suite", suite, sorted(ORACLE_SUITES))
    for key, size in overrides.items():
        require_count(key, size)
    return ORACLE_SUITES[suite](seed=seed, **overrides)
