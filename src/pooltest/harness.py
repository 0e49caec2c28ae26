"""Monte Carlo experiment harness.

Reproducibility contract: every trial derives its random streams from
(master_seed, trial index, stream tag) through the splitmix64-based
``mix_seed``; the design and the defective set use separate tags, so the
same sequence of defective sets can be replayed against a different design
family. A pipeline trial draws its truth (from the configured prior), its
design and its deletion from sub-streams 2, 1 and 3 of the trial's
TAG_TRIAL seed, through the same ``decode._pipeline`` that
``deletion_pipeline`` returns. Every decoder, the pipeline's inner one
included, runs through one decode, masking and scoring path. Results are
therefore byte-identical for a given config regardless of worker count, and
across runs. Per-trial wall time is measured but written to CSV as 0 unless
timing is requested, precisely to keep the file deterministic.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import reference
from .analysis import DEFAULT_ENUM_CAP, masking_report, posterior_uniformity_check
from .decode import (
    DEFAULT_FAMILY_CAP,
    SubsetParams,
    _decode,
    _pipeline,
    _pipeline_deletions,
    comp_decode,
    dd_decode,
    dd_pad_frontend,
    ml_oracle,
    subset_decode,
)
from .design import DesignSpec, TestDesign, bernoulli_design, build_design, ncc_design
from .errors import ParameterError, RefusalBudgetError
from .metrics import (
    Criterion,
    chernoff_lower,
    chernoff_upper,
    chernoff_weak_lower,
    chernoff_weak_upper,
    evaluate,
    tests_for_rate,
)
from .model import DefectiveSet, PriorSpec, generate_outcomes, k_from_theta, sample_defectives
from .util import LN2, floor_tol, mix_seed

TAG_TRIAL = 0
TAG_DESIGN = 1
TAG_PRIOR = 2

TRIAL_CSV_HEADER = [
    "trial",
    "seed",
    "n",
    "k",
    "T",
    "design",
    "decoder",
    "criterion",
    "fn",
    "fp",
    "est_size",
    "success",
    "masked_def",
    "masked_nondef",
    "elapsed_us",
]

_DECODERS = ("comp", "dd", "ml", "subset", "pipeline")
_REFUSAL_BUDGET = 0.01


def trial_seed(master_seed: int, trial: int, tag: int = TAG_TRIAL) -> int:
    """Derived 64-bit seed for one trial and stream."""
    return mix_seed(master_seed, trial, tag)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    Exactly one of (k, theta) and exactly one of (T, target_rate) must be
    set. ``decoder`` is comp, dd, ml, subset, or pipeline; the pipeline
    draws its truth from the configured prior and builds its own per-trial
    design from ``design`` after deleting items. Its alpha, xi and inner
    decoder are checked here, and it takes only the dd-pad front end.
    """

    n: int
    design: DesignSpec
    decoder: str
    criterion: Criterion
    trials: int
    master_seed: int = 0
    k: int | None = None
    theta: float | None = None
    T: int | None = None
    target_rate: float | None = None
    prior_kind: str = "combinatorial"
    prior_q: float | None = None
    workers: int = 1
    record_sets: bool = False
    # decoder knobs
    eta_minus: float | None = None
    radius_mult: float = 3.0
    frontend: str = "dd-pad"
    ml_cap: int = DEFAULT_ENUM_CAP
    family_cap: int = DEFAULT_FAMILY_CAP
    hill_climb: bool = False
    alpha: float | None = None
    xi: float | None = None
    inner: str = "dd"

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"need n >= 1, got {self.n}")
        if (self.k is None) == (self.theta is None):
            raise ParameterError("exactly one of k and theta must be given")
        if (self.T is None) == (self.target_rate is None):
            raise ParameterError("exactly one of T and target_rate must be given")
        if self.decoder not in _DECODERS:
            raise ParameterError(f"unknown decoder {self.decoder!r}")
        if self.trials < 1:
            raise ParameterError(f"need trials >= 1, got {self.trials}")
        if self.workers < 1:
            raise ParameterError(f"need workers >= 1, got {self.workers}")
        if self.decoder != "pipeline":
            return
        if self.alpha is None:
            raise ParameterError("pipeline decoder needs alpha")
        if self.design.kind == "explicit":
            raise ParameterError(
                "pipeline decoder cannot use an explicit design: the pipeline draws its own "
                "design over the kept items"
            )
        if self.frontend != "dd-pad":
            raise ParameterError(
                f"pipeline decoder cannot use frontend {self.frontend!r}: the pipeline's search "
                "pads dd, because exhaustive ml needs the retained count exactly"
            )
        _pipeline_deletions(self.n, self.alpha, self.xi, self.inner)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    n: int
    k: int
    T: int
    design: str
    decoder: str
    criterion: str
    false_negatives: int | None
    false_positives: int | None
    est_size: int | None
    success: bool | None  # None marks a refused trial
    masked_def: int
    masked_nondef: int
    elapsed_us: int
    true_set: tuple = ()
    est_set: tuple = ()


@dataclass(frozen=True)
class ExperimentSummary:
    records: tuple
    trials: int
    included: int
    refused: int
    failures: int
    p_error: float
    wilson_low: float
    wilson_high: float
    n: int
    k: int
    T: int

    def line(self) -> str:
        return (
            f"trials={self.trials} included={self.included} refused={self.refused} "
            f"failures={self.failures} p_error={self.p_error:.6g} "
            f"wilson95=[{self.wilson_low:.6g},{self.wilson_high:.6g}]"
        )


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z2 / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class _Resolved:
    cfg: ExperimentConfig
    k: int
    T: int
    prior: PriorSpec
    subset_params: SubsetParams | None
    explicit_design: TestDesign | None
    deletions: int | None  # items a pipeline trial deletes


def _resolve(cfg: ExperimentConfig) -> _Resolved:
    k = cfg.k if cfg.k is not None else k_from_theta(cfg.n, cfg.theta)
    if not (1 <= k <= cfg.n):
        raise ParameterError(f"resolved k={k} outside [1, {cfg.n}]")
    T = cfg.T if cfg.T is not None else tests_for_rate(cfg.n, k, cfg.target_rate)
    if cfg.prior_kind == "iid":
        q = cfg.prior_q if cfg.prior_q is not None else k / cfg.n
        prior = PriorSpec("iid", q=q)
    else:
        prior = PriorSpec(cfg.prior_kind, k=k)
    params = None
    if cfg.decoder == "subset" or (cfg.decoder == "pipeline" and cfg.inner == "subset"):
        eta = cfg.eta_minus
        if eta is None:
            eta = cfg.criterion.eta_minus if cfg.criterion.kind == "subset" else 0.1
        params = SubsetParams(
            eta_minus=eta,
            radius_mult=cfg.radius_mult,
            frontend=cfg.frontend,
            ml_cap=cfg.ml_cap,
            family_cap=cfg.family_cap,
            hill_climb=cfg.hill_climb,
        )
    explicit = _explicit_design(cfg.design, cfg.n, T, k)
    pipeline = cfg.decoder == "pipeline"
    d = _pipeline_deletions(cfg.n, cfg.alpha, cfg.xi, cfg.inner) if pipeline else None
    return _Resolved(cfg, k, T, prior, params, explicit, d)


def _explicit_design(spec, n, T, k) -> TestDesign | None:
    """The design an explicit spec names, loaded and shape-checked; None for
    the random kinds, which draw a new design every trial."""
    return build_design(spec, n, T, k, None) if spec.kind == "explicit" else None


def _draw_instance(spec, prior, n, T, k, master_seed, idx, design=None) -> tuple:
    """(design, defective set) of trial ``idx``, each drawn from its own derived
    stream; a given ``design`` (a preloaded explicit one) is used as it is."""
    if design is None:
        design = build_design(spec, n, T, k, trial_seed(master_seed, idx, TAG_DESIGN))
    return design, sample_defectives(prior, n, trial_seed(master_seed, idx, TAG_PRIOR))


def _run_trial(res: _Resolved, idx: int) -> TrialRecord:
    cfg = res.cfg
    base_seed = trial_seed(cfg.master_seed, idx, TAG_TRIAL)
    start = time.perf_counter()
    if cfg.decoder == "pipeline":
        run = _pipeline(
            cfg.design, res.prior, cfg.n, res.k, res.T, res.deletions, base_seed, cfg.inner,
            res.subset_params,
        )
        design, truth, tested = run.design, run.defectives, run.reduced_truth
        estimate, refused = run.estimate, run.refused
    else:
        design, truth = _draw_instance(
            cfg.design, res.prior, cfg.n, res.T, res.k, cfg.master_seed, idx, res.explicit_design
        )
        tested = truth
        # ml is told the drawn set's size, the other decoders the configured k
        k = truth.k if cfg.decoder == "ml" else res.k
        y = generate_outcomes(design, truth)
        estimate, refused = _decode(cfg.decoder, design, y, k, res.subset_params, cfg.ml_cap)
    mask = masking_report(design, tested)
    elapsed_us = int((time.perf_counter() - start) * 1e6)
    if refused:
        fn = fp = est_size = None
        success = None
    else:
        out = evaluate(cfg.criterion, truth, estimate)
        fn, fp = out.false_negatives, out.false_positives
        est_size = len(estimate)
        success = out.success
    return TrialRecord(
        trial=idx,
        seed=base_seed,
        n=cfg.n,
        k=truth.k,
        T=res.T,
        design=cfg.design.label(),
        decoder=cfg.decoder,
        criterion=cfg.criterion.label(),
        false_negatives=fn,
        false_positives=fp,
        est_size=est_size,
        success=success,
        masked_def=mask.masked_defectives,
        masked_nondef=mask.masked_nondefectives,
        elapsed_us=elapsed_us,
        true_set=truth.members if cfg.record_sets else (),
        est_set=estimate if cfg.record_sets else (),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run all trials and summarize; raises RefusalBudgetError (with
    ``summary`` attached) when more than 1% of trials refused."""
    res = _resolve(cfg)
    indices = range(cfg.trials)
    if cfg.workers > 1:
        chunk = max(1, cfg.trials // (cfg.workers * 4))
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_run_trial, [res] * cfg.trials, indices, chunksize=chunk))
    else:
        records = [_run_trial(res, i) for i in indices]

    refused = sum(1 for r in records if r.success is None)
    included = len(records) - refused
    failures = sum(1 for r in records if r.success is False)
    p_error = failures / included if included else float("nan")
    low, high = wilson_interval(failures, included) if included else (0.0, 1.0)
    summary = ExperimentSummary(
        records=tuple(records),
        trials=cfg.trials,
        included=included,
        refused=refused,
        failures=failures,
        p_error=p_error,
        wilson_low=low,
        wilson_high=high,
        n=cfg.n,
        k=res.k,
        T=res.T,
    )
    if refused:
        warnings.warn(f"{refused} of {cfg.trials} trials refused and excluded from the error rate")
        if refused > _REFUSAL_BUDGET * cfg.trials:
            err = RefusalBudgetError(
                f"{refused} of {cfg.trials} trials refused, over the {_REFUSAL_BUDGET:.0%} budget"
            )
            err.summary = summary
            raise err
    return summary


def write_trials_csv(records, path, record_sets: bool = False, timing: bool = False) -> None:
    """Write per-trial rows; refused trials leave fn/fp/est_size empty and
    mark success as "refused". elapsed_us is 0 unless timing was requested."""
    header = list(TRIAL_CSV_HEADER)
    if record_sets:
        header += ["true_set", "est_set"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in records:
            if r.success is None:
                fn = fp = est = ""
                success = "refused"
            else:
                fn, fp, est = r.false_negatives, r.false_positives, r.est_size
                success = int(r.success)
            row = [
                r.trial,
                r.seed,
                r.n,
                r.k,
                r.T,
                r.design,
                r.decoder,
                r.criterion,
                fn,
                fp,
                est,
                success,
                r.masked_def,
                r.masked_nondef,
                r.elapsed_us if timing else 0,
            ]
            if record_sets:
                row.append(";".join(str(i) for i in r.true_set))
                row.append(";".join(str(i) for i in r.est_set))
            w.writerow(row)


# ---------------------------------------------------------------------------
# masking sweep


MASKING_CSV_HEADER = [
    "rate",
    "tests",
    "mean_masked_def",
    "q10_masked_def",
    "q50_masked_def",
    "q90_masked_def",
    "mean_masked_nondef",
    "q10_masked_nondef",
    "q50_masked_nondef",
    "q90_masked_nondef",
    "freq_any_masked_def",
]


def masking_sweep(
    n: int,
    theta: float,
    rate_grid,
    design: DesignSpec,
    trials: int,
    master_seed: int = 0,
) -> list:
    """Masked-item statistics as the rate varies, one dict per rate point."""
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    k = k_from_theta(n, theta)
    prior = PriorSpec("combinatorial", k=k)
    rows = []
    for r_idx, target in enumerate(rate_grid):
        T = tests_for_rate(n, k, target)
        sub_master = mix_seed(master_seed, 1000 + r_idx)
        defect = np.empty(trials, dtype=np.int64)
        nondef = np.empty(trials, dtype=np.int64)
        explicit = _explicit_design(design, n, T, k)
        for t in range(trials):
            rep = masking_report(*_draw_instance(design, prior, n, T, k, sub_master, t, explicit))
            defect[t] = rep.masked_defectives
            nondef[t] = rep.masked_nondefectives
        q_def = np.quantile(defect, [0.1, 0.5, 0.9])
        q_non = np.quantile(nondef, [0.1, 0.5, 0.9])
        rows.append(
            {
                "rate": float(target),
                "tests": T,
                "mean_masked_def": float(defect.mean()),
                "q10_masked_def": float(q_def[0]),
                "q50_masked_def": float(q_def[1]),
                "q90_masked_def": float(q_def[2]),
                "mean_masked_nondef": float(nondef.mean()),
                "q10_masked_nondef": float(q_non[0]),
                "q50_masked_nondef": float(q_non[1]),
                "q90_masked_nondef": float(q_non[2]),
                "freq_any_masked_def": float((defect > 0).mean()),
            }
        )
    return rows


def write_masking_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(MASKING_CSV_HEADER)
        for row in rows:
            w.writerow(
                [f"{row[c]:.6g}" if isinstance(row[c], float) else row[c] for c in MASKING_CSV_HEADER]
            )


# ---------------------------------------------------------------------------
# oracle suites: fast paths against independent slow paths


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: int
    lines: tuple

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "\n".join("  " + ln for ln in self.lines)
        head = f"[{status}] {self.name}: {self.checked} checks, {self.failures} failures"
        return head + ("\n" + body if body else "")


def _random_small_instance(rng, n_lo=4, n_hi=16, k_hi=5):
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(1, min(k_hi, n - 1) + 1))
    T = int(rng.integers(3, 25))
    if rng.random() < 0.5:
        design = bernoulli_design(n, T, min(0.9, LN2 / k), rng)
    else:
        L = int(rng.integers(1, min(T, 6) + 1))
        design = ncc_design(n, T, L, rng)
    members = np.sort(rng.choice(n, size=k, replace=False)) + 1
    return design, DefectiveSet(n, tuple(members.tolist()))


def suite_explained_naive(seed=0, instances: int = 500) -> SuiteResult:
    """explained/comp/dd/good/masked fast paths against the literal double loops."""
    rng = np.random.default_rng(mix_seed(seed, 11))
    failures = 0
    lines = []
    from .analysis import explained_tests, good_test_counts

    for j in range(instances):
        design, truth = _random_small_instance(rng)
        y = generate_outcomes(design, truth)
        y_list = y.astype(int).tolist()
        if reference.naive_outcomes(design, truth.members) != y_list:
            failures += 1
            lines.append(f"instance {j}: outcome mismatch")
            continue
        k_cand = int(rng.integers(1, design.n + 1))
        cand = tuple((np.sort(rng.choice(design.n, size=k_cand, replace=False)) + 1).tolist())
        for candidate in (truth.members, cand):
            fast = explained_tests(design, y, candidate)
            slow = reference.naive_explained(design, y_list, candidate)
            if list(fast.explained) != slow or fast.count != len(slow):
                failures += 1
                lines.append(f"instance {j}: explained mismatch for {candidate}")
        if list(comp_decode(design, y)) != reference.naive_comp(design, y_list):
            failures += 1
            lines.append(f"instance {j}: comp mismatch")
        if list(dd_decode(design, y)) != reference.naive_dd(design, y_list):
            failures += 1
            lines.append(f"instance {j}: dd mismatch")
        fast_good = good_test_counts(design, truth)
        if fast_good != reference.naive_good_counts(design, truth):
            failures += 1
            lines.append(f"instance {j}: good-test counts mismatch")
        rep = masking_report(design, truth)
        naive_masked = reference.naive_masked_items(design, truth)
        if list(rep.masked_items) != naive_masked:
            failures += 1
            lines.append(f"instance {j}: masked items mismatch")
    return SuiteResult("explained-naive", failures == 0, instances, failures, tuple(lines[:10]))


def suite_subset_argmax(seed=0, instances: int = 200) -> SuiteResult:
    """subset_decode against brute-force argmax with the same tie-break."""
    rng = np.random.default_rng(mix_seed(seed, 12))
    etas = (0.2, 0.25, 0.4)
    frontends = ("dd-pad", "ml", "provided")
    failures = 0
    lines = []
    for j in range(instances):
        n = int(rng.integers(8, 15))
        k = int(rng.integers(2, 6))
        T = int(rng.integers(6, 21))
        design = bernoulli_design(n, T, min(0.9, LN2 / k), rng)
        members = np.sort(rng.choice(n, size=k, replace=False)) + 1
        truth = DefectiveSet(n, tuple(members.tolist()))
        y = generate_outcomes(design, truth)
        eta = etas[j % len(etas)]
        frontend = frontends[j % len(frontends)]
        provided = None
        if frontend == "provided":
            # truth with one member swapped for an outside item
            s = list(truth.members)
            outside = sorted(set(range(1, n + 1)) - set(s))
            s[int(rng.integers(0, len(s)))] = outside[int(rng.integers(0, len(outside)))]
            provided = tuple(sorted(s))
        params = SubsetParams(eta_minus=eta, frontend=frontend, provided=provided)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = subset_decode(design, y, k, params)
        if frontend == "ml":
            base = ml_oracle(design, y, k)
        elif frontend == "dd-pad":
            base = dd_pad_frontend(design, y, k)
        else:
            base = provided
        size = floor_tol((1.0 - eta) * k)
        slow = reference.brute_force_subset_argmax(design, y, base, size, 3.0 * eta * k)
        if fast != slow:
            failures += 1
            lines.append(f"instance {j}: {fast} != brute {slow} (eta={eta}, frontend={frontend})")
    return SuiteResult("subset-argmax", failures == 0, instances, failures, tuple(lines[:10]))


def suite_ml_enum(seed=0, instances: int = 150) -> SuiteResult:
    """ml_oracle against naive enumeration, plus determinism and relabeling."""
    rng = np.random.default_rng(mix_seed(seed, 13))
    failures = 0
    lines = []
    for j in range(instances):
        n = int(rng.integers(6, 11))
        k = int(rng.integers(2, 4))
        T = int(rng.integers(4, 13))
        design = bernoulli_design(n, T, min(0.9, LN2 / k), rng)
        members = np.sort(rng.choice(n, size=k, replace=False)) + 1
        truth = DefectiveSet(n, tuple(members.tolist()))
        y = generate_outcomes(design, truth)
        est = ml_oracle(design, y, k)
        sets = reference.naive_satisfying_sets(design, y, k)
        if est not in sets or est != sets[0]:
            failures += 1
            lines.append(f"instance {j}: ml estimate {est} not the first of {len(sets)} sets")
            continue
        if ml_oracle(design, y, k) != est:
            failures += 1
            lines.append(f"instance {j}: ml not deterministic")
        # relabeling: the satisfying family commutes with a permutation and the
        # deterministic pick is the lexicographic minimum of the relabeled family
        perm = rng.permutation(n) + 1
        mapped_rows = [sorted(int(perm[i - 1]) for i in design.row(t)) for t in range(1, design.T + 1)]
        mapped = TestDesign.from_rows(n, mapped_rows)
        est_m = ml_oracle(mapped, y, k)
        family = {tuple(sorted(int(perm[i - 1]) for i in s)) for s in sets}
        if est_m != min(family):
            failures += 1
            lines.append(f"instance {j}: relabeled ml {est_m} != min of relabeled family")
    return SuiteResult("ml-enum", failures == 0, instances, failures, tuple(lines[:10]))


UNIFORMITY_DESIGNS = (
    ((1, 2), (3, 4), (5, 6)),
    ((1, 2, 3), (3, 4, 5), (1, 5, 6)),
    ((1, 2, 3, 4), (4, 5), (1, 6)),
)


def suite_posterior_uniformity(seed=0, trials: int = 100_000) -> SuiteResult:
    """Uniform sampling must look uniform over each satisfying family; a
    deliberately biased sampler must be rejected."""
    failures = 0
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
                failures += 1
                lines.append(f"design {d_idx}: bin {b.outcome} p={b.p_value:.2e}")

    def biased(rng, m, count):
        w = np.linspace(1.0, 3.0, m)
        return rng.choice(m, size=count, p=w / w.sum())

    design = TestDesign.from_rows(6, [list(r) for r in UNIFORMITY_DESIGNS[0]])
    rej = posterior_uniformity_check(design, 2, trials, mix_seed(seed, 15), sampler=biased)
    checked += 1
    if rej.min_p() >= 1e-6:
        failures += 1
        lines.append(f"negative control not rejected: min p = {rej.min_p():.2e}")
    return SuiteResult("posterior-uniformity", failures == 0, checked, failures, tuple(lines[:10]))


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
    failures = 0
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
                checked += 2
                if up_emp > ub:
                    failures += 1
                    lines.append(f"upper n={n} mu={mu} d={delta}: emp {up_emp:.4g} > bound {ub:.4g}")
                if lo_emp > lb:
                    failures += 1
                    lines.append(f"lower n={n} mu={mu} d={delta}: emp {lo_emp:.4g} > bound {lb:.4g}")
                checked += 2
                if ub > chernoff_weak_upper(n, mu, delta) * (1 + 1e-12):
                    failures += 1
                    lines.append(f"strong upper above weak at n={n} mu={mu} d={delta}")
                if lb > chernoff_weak_lower(n, mu, delta) * (1 + 1e-12):
                    failures += 1
                    lines.append(f"strong lower above weak at n={n} mu={mu} d={delta}")
    return SuiteResult("chernoff-dominance", failures == 0, checked, failures, tuple(lines[:10]))


ORACLE_SUITES = {
    "explained-naive": suite_explained_naive,
    "subset-argmax": suite_subset_argmax,
    "ml-enum": suite_ml_enum,
    "posterior-uniformity": suite_posterior_uniformity,
    "chernoff-dominance": suite_chernoff_dominance,
}


def oracle_check(suite: str, seed: int = 0, **overrides) -> SuiteResult:
    """Run one named cross-check suite at its pinned sizes."""
    if suite not in ORACLE_SUITES:
        raise ParameterError(f"unknown suite {suite!r}; choose from {sorted(ORACLE_SUITES)}")
    return ORACLE_SUITES[suite](seed=seed, **overrides)
