#!/usr/bin/env python3
"""Walk one pooled-testing instance end to end.

Builds a Bernoulli and a near-constant-column-weight design for the same
(n, T, k), draws a defective set, generates OR outcomes, and runs the
comp, dd, and subset decoders side by side. Prints where each estimate
lands relative to the truth and why the hard cases are hard (masked
items, unexplained tests).
"""

from __future__ import annotations

import argparse

from pooltest import (
    Criterion,
    DefectiveSet,
    DesignSpec,
    PriorSpec,
    SubsetParams,
    build_design,
    comp_decode,
    dd_decode,
    evaluate,
    generate_outcomes,
    masking_report,
    sample_defectives,
    set_hamming,
    subset_decode,
    tests_for_rate,
)


def show(design, truth: DefectiveSet, label: str) -> None:
    y = generate_outcomes(design, truth)
    print(f"--- {label} design: {design.T} tests x {design.n} items, "
          f"{int(y.sum())} positive tests")

    comp = comp_decode(design, y)
    dd = dd_decode(design, y)
    sub = subset_decode(design, y, truth.k, SubsetParams(eta_minus=0.2))

    for name, est in (("comp", comp), ("dd", dd), ("subset(0.2)", sub)):
        r = evaluate(Criterion.exact(), truth, est)
        flags = []
        if r.false_negatives == 0:
            flags.append("superset of truth")
        if r.false_positives == 0:
            flags.append("subset of truth")
        if r.success:
            flags = ["exact"]
        print(f"  {name:<12} -> {est}  "
              f"(fn={r.false_negatives}, fp={r.false_positives}; {', '.join(flags) or 'neither'})")

    rep = masking_report(design, truth)
    print(f"  masked: {rep.masked_defectives} defectives, "
          f"{rep.masked_nondefectives} non-defectives "
          f"({rep.zero_test_items} items in no test)")
    extra = set_hamming(DefectiveSet.of(design.n, comp), truth)
    print(f"  comp carries {extra} extra/missing items vs truth\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=120)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    T = tests_for_rate(args.n, args.k, 1.0)
    truth = sample_defectives(PriorSpec("combinatorial", k=args.k), args.n, args.seed)
    print(f"n={args.n}, k={args.k}, T={T} (rate target 1.0 bit/test)")
    print(f"truth: {truth.members}\n")

    for kind in ("bernoulli", "ncc"):
        d = build_design(DesignSpec(kind), args.n, T, args.k, seed=args.seed)
        show(d, truth, kind)


if __name__ == "__main__":
    main()
