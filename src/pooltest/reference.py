"""Slow reference implementations used to cross-check the fast paths.

Everything here is written as literal loops over the dense matrix, sharing no
machinery with the vectorized implementations. Sizes are expected to be tiny.
"""

from __future__ import annotations

import itertools

import numpy as np

from .design import TestDesign
from .model import DefectiveSet


def dense(design: TestDesign):
    X = [[0] * design.n for _ in range(design.T)]
    for t in range(1, design.T + 1):
        for i in design.row(t):
            X[t - 1][int(i) - 1] = 1
    return X


def naive_outcomes(design: TestDesign, members) -> list:
    X = dense(design)
    s = set(members)
    y = []
    for t in range(design.T):
        hit = 0
        for i in s:
            if X[t][i - 1]:
                hit = 1
        y.append(hit)
    return y


def naive_comp(design: TestDesign, y) -> list:
    """Items in no negative test."""
    X = dense(design)
    out = []
    for i in range(1, design.n + 1):
        in_negative = False
        for t in range(design.T):
            if X[t][i - 1] and not y[t]:
                in_negative = True
        if not in_negative:
            out.append(i)
    return out


def naive_dd(design: TestDesign, y) -> list:
    """comp survivors that are the only survivor in some positive test."""
    X = dense(design)
    survivors = naive_comp(design, y)
    found = set()
    for t in range(design.T):
        if not y[t]:
            continue
        in_test = [i for i in survivors if X[t][i - 1]]
        if len(in_test) == 1:
            found.add(in_test[0])
    return sorted(found)


def naive_explained(design: TestDesign, y, candidate) -> list:
    """Tests explained by the candidate, straight from the definition."""
    X = dense(design)
    explained = set()
    for i in set(candidate):
        in_negative = False
        for t in range(design.T):
            if X[t][i - 1] and not y[t]:
                in_negative = True
        if in_negative:
            continue
        for t in range(design.T):
            if X[t][i - 1] and y[t]:
                explained.add(t + 1)
    return sorted(explained)


def naive_good_counts(design: TestDesign, s: DefectiveSet) -> dict:
    X = dense(design)
    out = {}
    for i in s.members:
        g = 0
        for t in range(design.T):
            if not X[t][i - 1]:
                continue
            alone = True
            for j in s.members:
                if j != i and X[t][j - 1]:
                    alone = False
            if alone:
                g += 1
        out[i] = g
    return out


def naive_masked_items(design: TestDesign, s: DefectiveSet) -> list:
    """Masked items per the definition, zero-test items included (vacuous)."""
    X = dense(design)
    members = set(s.members)
    masked = []
    for i in range(1, design.n + 1):
        ok = True
        for t in range(design.T):
            if not X[t][i - 1]:
                continue
            has_other = False
            for j in members:
                if j != i and X[t][j - 1]:
                    has_other = True
            if not has_other:
                ok = False
        if ok:
            masked.append(i)
    return masked


def naive_satisfying_sets(design: TestDesign, y, k: int) -> list:
    y = [int(b) for b in y]
    out = []
    for combo in itertools.combinations(range(1, design.n + 1), k):
        if naive_outcomes(design, combo) == y:
            out.append(combo)
    return out


def brute_force_subset_argmax(design: TestDesign, y, base, size: int, radius: float) -> tuple:
    """Explained-count argmax over every size-``size`` set within ``radius``
    of ``base``, scanning in lexicographic order with a strict-improvement
    update starting from (0, empty set)."""
    y = [int(b) for b in y]
    base_set = set(base)
    best = ()
    best_count = 0
    for combo in itertools.combinations(range(1, design.n + 1), size):
        dist = len(base_set ^ set(combo))
        if dist > radius:
            continue
        count = len(naive_explained(design, y, combo))
        if count > best_count:
            best_count = count
            best = combo
    return best


def _item_explained(design: TestDesign, y) -> dict:
    """Each item's explained tests (0-based), read off the dense matrix: its
    tests when none of them is negative, and the empty set otherwise."""
    y = [int(b) for b in y]
    X = dense(design)
    explained = {}
    for i in range(1, design.n + 1):
        tests = [t for t in range(design.T) if X[t][i - 1]]
        in_negative = any(not y[t] for t in tests)
        explained[i] = set() if in_negative else set(tests)
    return explained


def family_argmax(design: TestDesign, y, base, size: int, radius: float) -> tuple:
    """The same argmax as brute_force_subset_argmax, for ground sets too large
    to scan every size-``size`` set: the candidates within ``radius`` of
    ``base`` are listed as base members kept plus outside items added, sorted,
    and scored from per-item explained-test sets read off the dense matrix."""
    explained = _item_explained(design, y)
    base_set = set(base)
    base = sorted(base)
    outside = [i for i in range(1, design.n + 1) if i not in base_set]
    family = []
    for j in range(size + 1):
        if len(base) - size + 2 * j > radius:
            break
        for kept in itertools.combinations(base, size - j):
            for added in itertools.combinations(outside, j):
                family.append(tuple(sorted(kept + added)))
    family.sort()
    best = ()
    best_count = 0
    for combo in family:
        count = len(set().union(*(explained[i] for i in combo)))
        if count > best_count:
            best_count = count
            best = combo
    return best


def naive_hill_climb(design: TestDesign, y, base, size: int, radius: float) -> tuple:
    """The greedy single-swap ascent of the subset decoder, one whole rescore
    per swap: from ``base[:size]``, each step takes the first swap, over
    outgoing members and then items with an explained test, both in
    increasing order, with the most explained tests above the current count,
    among swaps within ``radius`` of ``base``; () when none explains a test.
    Counts come from per-item explained-test sets read off the dense matrix."""
    explained = _item_explained(design, y)
    live = [i for i in range(1, design.n + 1) if explained[i]]

    def count(candidate):
        return len(set().union(*(explained[i] for i in candidate)))

    base_set = set(base)
    current = list(base[:size])
    best_count = count(current)
    improved = True
    while improved:
        improved = False
        cur_set = set(current)
        best_swap = None
        for out in sorted(cur_set):
            for inn in live:
                if inn in cur_set:
                    continue
                trial = cur_set - {out} | {inn}
                if len(base_set ^ trial) > radius:
                    continue
                c = count(trial)
                if c > best_count:
                    best_count = c
                    best_swap = trial
        if best_swap is not None:
            current = sorted(best_swap)
            improved = True
    return tuple(sorted(current)) if best_count > 0 else ()


def ncc_rows(n: int, T: int, L: int, seed) -> TestDesign:
    """The ncc design of (n, T, L, seed) rebuilt test by test: the same L
    draws per item, collapsed with a set, appended to the rows of the tests
    they name, and read through TestDesign.from_rows."""
    draws = np.random.default_rng(seed).integers(0, T, size=(n, L), dtype=np.int64)
    rows = [[] for _ in range(T)]
    for i in range(n):
        for t in set(draws[i].tolist()):
            rows[t].append(i + 1)
    return TestDesign.from_rows(n, rows, {"kind": "ncc", "L": int(L)})
