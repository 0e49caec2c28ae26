"""Monte Carlo experiment harness.

Reproducibility contract: every trial derives its random streams from
(master_seed, trial index, stream tag) through the splitmix64-based
``mix_seed``; the design and the defective set use separate tags, so the
same sequence of defective sets can be replayed against a different design
family. A pipeline trial draws its truth (from the configured prior), its
design and its deletion from sub-streams 2, 1 and 3 of the trial's
TAG_TRIAL seed, through the same ``decode._pipeline`` that
``deletion_pipeline`` runs. An ``ExperimentConfig`` is checked and
resolved once, when it is made: every trial reads its k, T, prior, search
knobs, deletion count and explicit design off the config, and a random
design's density is read there too, so a design no trial could build is
refused before any trial runs.
``run_experiment`` is the one trial loop: every decoder, the pipeline's
inner one included, runs from the table ``decode._DECODERS`` through one
masking and scoring path, and each rate point of ``masking_sweep`` is a
comp experiment read off its records. A trial keeps its defective set and
estimate as sorted int64 arrays and its masking counts as counts, from the
draw to the score; tuples appear only in the public returns and, when the
config records sets, in a record's true_set and est_set. Results are
therefore byte-identical for a given config regardless of worker count,
and across runs. Per-trial wall time is measured but written to CSV as 0
unless timing is requested, precisely to keep the file deterministic. The
trial CSV's columns are ``TrialRecord``'s fields in order, and this module
builds its tables' headers and rows only: ``util.write_csv`` writes them. With
``workers > 1`` the trial indices split into contiguous blocks; the parent
runs the first block itself while ``os.fork`` children run the others and
pickle their records back through pipes, and the records merge in index
order. A multi-worker run therefore needs ``os.fork`` (POSIX),
and neither a one-worker nor a multi-worker run imports ``multiprocessing``.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import DEFAULT_ENUM_CAP, _masking_counts, _truth_instance
from .decode import DEFAULT_FAMILY_CAP, _DECODER_NAMES, _EXACT_K, SubsetParams
from .decode import _decode, _k_mid, _pipeline, _pipeline_setup
from .design import DesignSpec, TestDesign, _density, build_design
from .errors import ParameterError, RefusalBudgetError
from .metrics import Criterion, _score, tests_for_rate
from .model import PriorSpec, _draw, _two_step_q, k_from_theta
from .util import mix_seed, require_choice, require_count, write_csv

TAG_TRIAL = 0
TAG_DESIGN = 1
TAG_PRIOR = 2

_REFUSAL_BUDGET = 0.01
#: the standard normal quantile of 0.975, which sets the Wilson interval's 95%
_Z95 = 1.959963984540054


def trial_seed(master_seed: int, trial: int, tag: int = TAG_TRIAL) -> int:
    """Derived 64-bit seed for one trial and stream."""
    return mix_seed(master_seed, trial, tag)


def _shape(n, k, theta, T, target_rate) -> tuple:
    """(n, k, T) of a run, the one shape rule: n a count, exactly one of k
    and theta, exactly one of T and target_rate, and k <= n; k from theta and
    T from the rate when not given. Else ParameterError."""
    n = require_count("n", n)
    if (k is None) == (theta is None):
        raise ParameterError("exactly one of k and theta must be given")
    if (T is None) == (target_rate is None):
        raise ParameterError("exactly one of T and target_rate must be given")
    k = require_count("k", k, high=n) if k is not None else k_from_theta(n, theta)
    return n, k, require_count("T", T) if T is not None else tests_for_rate(n, k, target_rate)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment, read once, when it
    is made.

    ``_shape`` reads (n, k, theta, T, target_rate), as it does for
    gen-design. ``decoder`` is comp, dd, ml, subset, or pipeline; the pipeline
    draws its truth from the configured prior and builds its own per-trial
    design from ``design`` after deleting items. ``__post_init__`` refuses a
    bad input with ParameterError and resolves what every trial shares into
    the fields after ``inner``, which stay out of init, repr and equality:
    ``run_k`` and ``run_T`` (``_shape``'s k and T), the
    ``prior``, the search knobs ``params`` (eta_minus defaulting to the
    subset criterion's slack, else 0.1; the pipeline's are its inner
    search's, from ``decode._pipeline_setup``), the pipeline's ``deletions``
    and an ``explicit_design``, loaded and shape-checked once. A random
    design's density is read by ``design._density`` (for the pipeline, at
    ``k_mid``), and a ``prior_q`` outside the iid prior or an ``alpha`` or
    ``xi`` outside the pipeline is refused, since no trial would read it.
    ``dataclasses.replace`` resolves the new config afresh. The ml front end
    takes neither the pipeline nor a prior of varying size.
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
    family_cap: int | None = DEFAULT_FAMILY_CAP
    hill_climb: bool = False
    alpha: float | None = None
    xi: float | None = None
    inner: str = "dd"
    # resolved by __post_init__
    run_k: int = field(init=False, repr=False, compare=False)
    run_T: int = field(init=False, repr=False, compare=False)
    prior: PriorSpec = field(init=False, repr=False, compare=False)
    params: SubsetParams = field(init=False, repr=False, compare=False)
    deletions: int | None = field(init=False, repr=False, compare=False)  # items a pipeline trial deletes
    explicit_design: TestDesign | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k, T = _shape(self.n, self.k, self.theta, self.T, self.target_rate)
        require_count("master_seed", self.master_seed, low=None)
        require_choice("decoder", self.decoder, _DECODER_NAMES)
        require_count("trials", self.trials)
        if require_count("workers", self.workers) > 1 and not hasattr(os, "fork"):
            raise ParameterError("workers > 1 needs os.fork, which this platform lacks")
        eta = self.eta_minus
        if eta is None:
            eta = self.criterion.eta_minus if self.criterion.kind == "subset" else 0.1
        params = SubsetParams(
            eta, self.radius_mult, self.frontend, ml_cap=self.ml_cap, family_cap=self.family_cap,
            hill_climb=self.hill_climb,
        )
        pipeline = self.decoder == "pipeline"
        if self.frontend == "ml" and (pipeline or self.prior_kind != "combinatorial"):
            where = "the pipeline's search" if pipeline else f"a search under the {self.prior_kind} prior"
            raise ParameterError(f"frontend 'ml' needs the defective count exactly, so {where} pads dd")
        for name in ("alpha", "xi"):
            if getattr(self, name) is not None and not pipeline:
                raise ParameterError(f"{name} only applies to the pipeline decoder")
        if self.prior_kind == "iid":
            prior = PriorSpec("iid", q=self.prior_q if self.prior_q is not None else k / n)
        else:
            prior = PriorSpec(self.prior_kind, k=k, q=self.prior_q)  # refuses a q
            if prior.kind != "combinatorial":
                _two_step_q(prior.kind, k, n)
        deletions = explicit = None
        if pipeline:
            if self.design.kind == "explicit":
                raise ParameterError(
                    "pipeline decoder cannot use an explicit design: the pipeline draws its own "
                    "design over the kept items"
                )
            deletions, params = _pipeline_setup(n, k, self.alpha, self.xi, self.inner, params)
            _density(self.design, T, _k_mid(n, k, deletions))  # each trial's design is over n - d items
        elif self.design.kind == "explicit":
            explicit = build_design(self.design, n, T, k, None)
        else:  # the random kinds draw a new design every trial, at one density
            _density(self.design, T, k)
        resolved = dict(
            run_k=k, run_T=T, prior=prior, params=params, deletions=deletions, explicit_design=explicit
        )
        for name, value in resolved.items():
            object.__setattr__(self, name, value)  # the fields are frozen


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
    true_set: tuple | None = None  # both None unless the config records sets
    est_set: tuple | None = None


# the trial CSV's columns are TrialRecord's fields in order, two of them
# renamed, the last two written only when the records carry sets
_TRIAL_FIELDS = tuple(f.name for f in fields(TrialRecord))
_TRIAL_COLUMNS = [{"false_negatives": "fn", "false_positives": "fp"}.get(f, f) for f in _TRIAL_FIELDS]
TRIAL_CSV_HEADER = _TRIAL_COLUMNS[:-2]


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


def wilson_interval(successes: int, total: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    total = require_count("total", total, low=0)
    successes = require_count("successes", successes, low=0, high=total)
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2 * total)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / total + z2 / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _run_trial(cfg: ExperimentConfig, idx: int) -> TrialRecord:
    base_seed = trial_seed(cfg.master_seed, idx, TAG_TRIAL)
    start = time.perf_counter()
    if cfg.decoder == "pipeline":
        (truth, *_, estimate, refused), inst = _pipeline(
            cfg.design, cfg.prior, cfg.n, cfg.run_k, cfg.run_T, cfg.deletions, base_seed, cfg.inner, cfg.params
        )
    else:
        design = cfg.explicit_design
        if design is None:
            seed = trial_seed(cfg.master_seed, idx, TAG_DESIGN)
            design = build_design(cfg.design, cfg.n, cfg.run_T, cfg.run_k, seed)
        truth = _draw(cfg.prior, cfg.n, trial_seed(cfg.master_seed, idx, TAG_PRIOR))
        inst = _truth_instance(design, truth)
        # a decoder in _EXACT_K is told the drawn set's size, the others the configured k
        k = truth.size if cfg.decoder in _EXACT_K else cfg.run_k
        estimate, refused = _decode(cfg.decoder, inst, k, cfg.params)
    masked_def, masked_nondef = _masking_counts(inst)
    elapsed_us = int((time.perf_counter() - start) * 1e6)
    if refused:
        fn = fp = est_size = None
        success = None
    else:
        out = _score(cfg.criterion, truth, estimate, cfg.n)
        fn, fp = out.false_negatives, out.false_positives
        est_size = estimate.size
        success = out.success
    return TrialRecord(
        trial=idx,
        seed=base_seed,
        n=cfg.n,
        k=truth.size,
        T=cfg.run_T,
        design=cfg.design.label(),
        decoder=cfg.decoder,
        criterion=cfg.criterion.label(),
        false_negatives=fn,
        false_positives=fp,
        est_size=est_size,
        success=success,
        masked_def=masked_def,
        masked_nondef=masked_nondef,
        elapsed_us=elapsed_us,
        true_set=tuple(truth.tolist()) if cfg.record_sets else None,
        est_set=tuple(estimate.tolist()) if cfg.record_sets else None,
    )


def _fork_block(cfg: ExperimentConfig, block: range) -> tuple:
    """Fork a child that runs ``block`` and pickles ``(records, error)`` to a
    pipe; returns ``(pid, read end)``. The child leaves through ``os._exit``,
    so it never runs the parent's cleanup."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        try:
            result = ([_run_trial(cfg, i) for i in block], None)
        except Exception as exc:
            result = (None, exc)
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_fd: int) -> tuple:
    """Read a child's pipe to EOF and wait for it: ``(bytes, exit code)``,
    the code negative when a signal ended the child."""
    with open(read_fd, "rb") as fh:
        data = fh.read()
    return data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _run_trials(cfg: ExperimentConfig) -> list:
    """Records of the config's trials, in index order. ``min(workers, trials)``
    contiguous blocks: the parent runs the first and forked children the
    rest, and every child is reaped before this returns or raises. When
    blocks fail, the lowest block's error is raised."""
    trials = cfg.trials
    workers = min(cfg.workers, trials)
    cuts = [trials * w // workers for w in range(workers + 1)]
    blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    children = []
    try:
        for block in blocks[1:]:
            children.append(_fork_block(cfg, block))
        records = [_run_trial(cfg, i) for i in blocks[0]]
    finally:
        ended = [_reap(pid, fd) for pid, fd in children]
    for block, (data, code) in zip(blocks[1:], ended):
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"the worker for trials {block.start}-{block.stop - 1} {how}")
        more, error = pickle.loads(data)
        if error is not None:
            raise error
        records += more
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run all trials and summarize; raises RefusalBudgetError (with
    ``summary`` attached) when more than 1% of trials refused."""
    records = _run_trials(cfg)

    refused = sum(1 for r in records if r.success is None)
    included = len(records) - refused
    failures = sum(1 for r in records if r.success is False)
    p_error = failures / included if included else float("nan")
    low, high = wilson_interval(failures, included)
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
        k=cfg.run_k,
        T=cfg.run_T,
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


def write_trials_csv(records, path, timing: bool = False) -> None:
    """Write per-trial rows; refused trials leave fn/fp/est_size empty and
    mark success as "refused". elapsed_us is 0 unless timing was requested,
    and the true_set and est_set columns, each ";"-joined, appear when the
    records carry sets."""
    record_sets = bool(records) and records[0].true_set is not None
    names = _TRIAL_FIELDS if record_sets else _TRIAL_FIELDS[:-2]
    cells = operator.attrgetter(*names)
    success, elapsed = names.index("success"), names.index("elapsed_us")
    rows = []
    for r in records:
        row = list(cells(r))
        row[success] = "refused" if r.success is None else int(r.success)
        if not timing:
            row[elapsed] = 0
        if record_sets:
            row[-2:] = ";".join(map(str, r.true_set)), ";".join(map(str, r.est_set))
        rows.append(row)
    write_csv(path, _TRIAL_COLUMNS[: len(names)], rows)


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
    """Masked-item statistics as the rate varies, one dict per rate point.

    Rate point r is the comp ``run_experiment`` at master seed
    mix_seed(master_seed, 1000 + r) under the exact criterion: its row reads
    the summary's T and the records' masked_def and masked_nondef, the
    latter being comp's false positives.
    """
    require_count("trials", trials)
    require_count("master_seed", master_seed, low=None)
    k_from_theta(n, theta)  # a bad n or theta raises even when the rate grid is empty
    configs = [  # every point's config is made, and checked, before the first runs
        ExperimentConfig(
            n=n, theta=theta, target_rate=target, design=design, decoder="comp",
            criterion=Criterion.exact(), trials=trials, master_seed=mix_seed(master_seed, 1000 + r_idx),
        )
        for r_idx, target in enumerate(rate_grid)
    ]
    rows = []
    for cfg in configs:
        summary = run_experiment(cfg)
        counts = np.array([(r.masked_def, r.masked_nondef) for r in summary.records], dtype=np.int64).T
        values = [float(cfg.target_rate), summary.T]
        for c in counts:
            values += [float(c.mean()), *np.quantile(c, [0.1, 0.5, 0.9]).tolist()]
        values.append(float((counts[0] > 0).mean()))
        rows.append(dict(zip(MASKING_CSV_HEADER, values, strict=True)))
    return rows


def write_masking_csv(rows, path) -> None:
    cells = operator.itemgetter(*MASKING_CSV_HEADER)
    rows = ([f"{v:.6g}" if isinstance(v, float) else v for v in cells(row)] for row in rows)
    write_csv(path, MASKING_CSV_HEADER, rows)
