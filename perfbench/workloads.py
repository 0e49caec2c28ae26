"""Workloads of the pooltest benchmark: configs, timed loops, traced replay, checks.

Every workload runs against the public API of ``pooltest``. The untraced
loops call what a user calls (``run_experiment``, ``masking_sweep`` or the
``simulate`` subcommand). The traced replay calls the public per-stage
functions with the harness's own seed derivation and times each call from
here, so no tracing code lives inside the package.

Stage times are reported in ms per trial of the whole workload: a stage that
runs only in some configs is divided by every trial, so that the stages and
the harness overhead add up to the untraced wall time per trial. A stage that
a workload never calls reads 0.
"""

from __future__ import annotations

import csv
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pooltest.analysis import masking_report
from pooltest.decode import (
    SubsetParams,
    comp_decode,
    dd_decode,
    dd_pad_frontend,
    deletion_pipeline,
    family_size,
    subset_decode,
)
from pooltest.design import DesignSpec, build_design
from pooltest.errors import CapExceededError, RefusalBudgetError
from pooltest.harness import (
    TAG_DESIGN,
    TAG_PRIOR,
    TAG_TRIAL,
    ExperimentConfig,
    masking_sweep,
    run_experiment,
    trial_seed,
    write_trials_csv,
)
from pooltest.metrics import Criterion, evaluate, tests_for_rate
from pooltest.model import DefectiveSet, PriorSpec, generate_outcomes, k_from_theta, sample_defectives
from pooltest.util import LN2, floor_tol, mix_seed

#: Stage spans of the traced replay, as per-layer metric names without "_ms".
STAGES = (
    "design.build",
    "model.prior",
    "model.outcomes",
    "decode.comp",
    "decode.dd",
    "decode.subset",
    "decode.pipeline",
    "analysis.masking",
    "metrics.score",
    "cli.csv_write",
)

#: Iterations of the calibration loop in host_slowdown, and the loop's wall
#: time on the reference host: its typical time on the 2-core machine the
#: committed baseline comes from, so that scaled figures read close to
#: measured ones there.
CALIBRATION_ITERATIONS = 150_000
CALIBRATION_REFERENCE_S = 0.013


def host_slowdown() -> float:
    """How much slower than the reference host this process runs right now.

    The machine is shared, and the speed of the interpreter drifts by +-25%
    over minutes with the load of other tenants; a fixed pure-Python loop
    slows by the same factor as the workloads, which are mostly interpreter
    bound. Timed rounds are scaled by the factor measured just before them.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i
    return (time.perf_counter() - start) / CALIBRATION_REFERENCE_S


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Accumulates the wall time of calls into the package, by stage name,
    and counts recorded at the same boundaries."""

    def __init__(self):
        self.ns = dict.fromkeys(STAGES, 0)
        self.counts: dict = {}

    def call(self, stage, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ns[stage] += time.perf_counter_ns() - start

    def add(self, name, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def stage_ms(self, trials: int) -> dict:
        return {f"{s}_ms": self.ns[s] / 1e6 / trials for s in STAGES}


def _design_bytes(design) -> int:
    return sum(a.nbytes for a in (design.row_flat, design.row_ptr, design.col_flat, design.col_ptr))


def _count_design(tracer: Tracer, design) -> None:
    tracer.add("designs", 1)
    tracer.add("design.entries", design.entry_count)
    tracer.add("design.bytes", _design_bytes(design))


def _count_family(tracer: Tracer, design, outcomes, base, size, radius) -> None:
    """Candidates the subset search scores, and those that can change an
    explained count: the ones whose added items are all comp survivors."""
    survivors_out = len(set(comp_decode(design, outcomes)) - set(base))
    tracer.add("subset.searches", 1)
    tracer.add("subset.candidates", family_size(len(base), size, radius, design.n))
    tracer.add("subset.useful", family_size(len(base), size, radius, len(base) + survivors_out))


def count_metrics(tracer: Tracer) -> dict:
    c = tracer.counts
    designs = c.get("designs", 0)
    searches = c.get("subset.searches", 0)
    candidates = c.get("subset.candidates", 0)
    return {
        "design.entries": c.get("design.entries", 0) / designs if designs else 0.0,
        "design.bytes": c.get("design.bytes", 0) / designs if designs else 0.0,
        "decode.subset_candidates": candidates / searches if searches else 0.0,
        "decode.subset_useful_frac": c.get("subset.useful", 0) / candidates if candidates else 0.0,
    }


# ---------------------------------------------------------------------------
# trial records and checks


def record_fields(rec) -> tuple:
    """The checked fields of a harness TrialRecord."""
    return (
        rec.false_negatives,
        rec.false_positives,
        rec.est_size,
        rec.success,
        rec.masked_def,
        rec.masked_nondef,
    )


def csv_fields(row: dict) -> tuple:
    """The checked fields of a row read back from a trial CSV."""

    def num(v):
        return None if v == "" else int(v)

    success = None if row["success"] == "refused" else bool(int(row["success"]))
    return (
        num(row["fn"]),
        num(row["fp"]),
        num(row["est_size"]),
        success,
        int(row["masked_def"]),
        int(row["masked_nondef"]),
    )


def guarantee_ok(decoder: str, fields: tuple) -> bool:
    """False for a refused trial or a broken decoder guarantee: dd never
    reports a false positive and comp never misses a defective."""
    fn, fp = fields[0], fields[1]
    if fields[3] is None:
        return False
    if decoder == "dd":
        return fp == 0
    if decoder == "comp":
        return fn == 0
    return True


def _resolve_k_T(cfg: ExperimentConfig) -> tuple:
    k = cfg.k if cfg.k is not None else k_from_theta(cfg.n, cfg.theta)
    T = cfg.T if cfg.T is not None else tests_for_rate(cfg.n, k, cfg.target_rate)
    return k, T


def _subset_params(cfg: ExperimentConfig) -> SubsetParams:
    eta = cfg.eta_minus
    if eta is None:
        eta = cfg.criterion.eta_minus if cfg.criterion.kind == "subset" else 0.1
    return SubsetParams(
        eta_minus=eta,
        radius_mult=cfg.radius_mult,
        frontend=cfg.frontend,
        ml_cap=cfg.ml_cap,
        family_cap=cfg.family_cap,
        hill_climb=cfg.hill_climb,
    )


def replay_trial(tracer: Tracer, cfg: ExperimentConfig, idx: int, counted: bool) -> tuple:
    """One trial of ``run_experiment`` rebuilt from its public stages.

    ``counted`` also records design sizes and subset-family counts, which
    costs extra calls outside the timed spans.
    """
    if cfg.prior_kind != "combinatorial":
        raise ValueError("the replay covers the combinatorial prior only")
    k, T = _resolve_k_T(cfg)
    refused = False
    if cfg.decoder == "pipeline":
        eta = cfg.eta_minus if cfg.eta_minus is not None else 0.1
        result = tracer.call(
            "decode.pipeline",
            deletion_pipeline,
            cfg.design,
            cfg.n,
            k,
            T,
            cfg.alpha,
            inner=cfg.inner,
            seed=trial_seed(cfg.master_seed, idx, TAG_TRIAL),
            xi=cfg.xi,
            eta_minus=eta,
            radius_mult=cfg.radius_mult,
            family_cap=cfg.family_cap,
            hill_climb=cfg.hill_climb,
        )
        truth, estimate, refused, design = result.defectives, result.estimate, result.refused, result.design
        reduced = {orig: j + 1 for j, orig in enumerate(result.kept)}
        mask_truth = DefectiveSet(
            len(result.kept), tuple(sorted(reduced[i] for i in truth.members if i in reduced))
        )
        if counted and cfg.inner == "subset":
            y = generate_outcomes(design, mask_truth)
            base = dd_pad_frontend(design, y, result.k_hi)
            size = floor_tol((1.0 - eta) * result.k_lo)
            _count_family(tracer, design, y, base, size, cfg.radius_mult * eta * result.k_hi)
    else:
        prior = PriorSpec("combinatorial", k=k)
        design = tracer.call(
            "design.build",
            build_design,
            cfg.design,
            cfg.n,
            T,
            k,
            trial_seed(cfg.master_seed, idx, TAG_DESIGN),
        )
        truth = tracer.call(
            "model.prior", sample_defectives, prior, cfg.n, trial_seed(cfg.master_seed, idx, TAG_PRIOR)
        )
        mask_truth = truth
        y = tracer.call("model.outcomes", generate_outcomes, design, truth)
        estimate = ()
        if cfg.decoder == "comp":
            estimate = tracer.call("decode.comp", comp_decode, design, y)
        elif cfg.decoder == "dd":
            estimate = tracer.call("decode.dd", dd_decode, design, y)
        elif cfg.decoder == "subset":
            params = _subset_params(cfg)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    estimate = tracer.call("decode.subset", subset_decode, design, y, k, params)
            except CapExceededError:
                refused = True
            if counted:
                base = dd_pad_frontend(design, y, k)
                size = floor_tol((1.0 - params.eta_minus) * k)
                _count_family(tracer, design, y, base, size, params.radius_mult * params.eta_minus * k)
        else:
            raise ValueError(f"the replay does not cover decoder {cfg.decoder!r}")
    if counted:
        _count_design(tracer, design)
    mask = tracer.call("analysis.masking", masking_report, design, mask_truth)
    if refused:
        return (None, None, None, None, mask.masked_defectives, mask.masked_nondefectives)
    out = tracer.call("metrics.score", evaluate, cfg.criterion, truth, estimate)
    return (
        out.false_negatives,
        out.false_positives,
        len(estimate),
        out.success,
        mask.masked_defectives,
        mask.masked_nondefectives,
    )


def _run(cfg: ExperimentConfig):
    """run_experiment, keeping the records of a run over the refusal budget."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run_experiment(cfg)
        except RefusalBudgetError as err:
            return err.summary


@dataclass
class Checks:
    """Trials attempted and the indices of those that failed a check."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    notes: list = field(default_factory=list)

    def fail(self, key, note: str | None) -> None:
        if note and key not in self.failed and len(self.notes) < 10:
            self.notes.append(note)
        self.failed.add(key)


def check_records(checks: Checks, tag, cfg: ExperimentConfig, records, replayed=None) -> None:
    """Guarantee checks on every record and, where given, equality with the
    replayed fields of the same trials."""
    for rec in records:
        fields = record_fields(rec)
        if not guarantee_ok(cfg.decoder, fields):
            checks.fail((tag, rec.trial), f"{tag} trial {rec.trial}: refused or guarantee broken {fields}")
        if replayed is not None and rec.trial < len(replayed) and replayed[rec.trial] != fields:
            checks.fail(
                (tag, rec.trial),
                f"{tag} trial {rec.trial}: harness {fields} != replay {replayed[rec.trial]}",
            )


# ---------------------------------------------------------------------------
# measurements


@dataclass
class Measurement:
    """What one run of a workload measured."""

    rates: list  # trials/s of each timed round, as measured
    slowdowns: list  # host_slowdown() just before each round, 1 where not scaled
    trials: int
    wall_s: float
    peak_rss_mb: float
    checks: Checks
    layers: dict = field(default_factory=dict)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv, root: Path, timeout: float):
    """Run a process to completion; return (exit code, wall s, peak RSS MB).

    The peak RSS comes from wait4, so it covers the child and the
    descendants it waited for, such as a worker pool.
    """
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = start + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass(frozen=True)
class ExperimentWorkload:
    """Rounds of ``run_experiment`` over fixed configs in one process.

    Round r runs every config with master seed mix_seed(seed, r, j), so a
    run's inputs follow from its seed and differ from round to round.
    """

    name: str
    configs: tuple

    def round_configs(self, seed: int, r: int) -> list:
        return [replace(c, master_seed=mix_seed(seed, r, j)) for j, c in enumerate(self.configs)]

    def build(self, seed: int) -> list:
        return self.round_configs(seed, 0)

    def resolved(self, seed: int) -> list:
        out = []
        for c in self.build(seed):
            k, T = _resolve_k_T(c)
            out.append({"decoder": c.decoder, "n": c.n, "k": k, "T": T, "trials": c.trials})
        return out

    def measure(self, seed: int, seconds: float, tmp: Path, traced: bool) -> Measurement:
        def run_round(r):
            cfgs = self.round_configs(seed, r)
            summaries = [_run(c) for c in cfgs]
            return sum(s.trials for s in summaries), (cfgs, summaries)

        def check_round(tracer, r, output, checks, replay):
            for j, (cfg, summary) in enumerate(zip(*output)):
                replayed = None
                if replay:
                    replayed = [replay_trial(tracer, cfg, i, counted=r == 0) for i in range(cfg.trials)]
                check_records(checks, (r, j), cfg, summary.records, replayed)

        return _round_loop(seconds, traced, run_round, check_round)


def _round_loop(seconds: float, traced: bool, run_round, check_round) -> Measurement:
    """Timed rounds until ``seconds`` have passed, each followed by its checks.

    ``run_round(r)`` is the untraced, timed part; it returns the trials it
    ran and its output. ``check_round(tracer, r, output, checks, replay)``
    checks that output, replaying it stage by stage under ``tracer`` when
    ``replay`` is set: on every round of a traced run, so that the replay
    and the rounds it is compared with see the same machine state, and on
    the first round otherwise.
    """
    tracer = Tracer()
    checks = Checks()
    rates, slowdowns, walls, traced_wall = [], [], [], 0.0
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        r = len(rates)
        slowdowns.append(host_slowdown())
        start = time.perf_counter()
        trials, output = run_round(r)
        wall = time.perf_counter() - start
        rates.append(trials / wall)
        walls.append(wall)
        checks.attempted += trials
        start = time.perf_counter()
        check_round(tracer, r, output, checks, replay=traced or r == 0)
        traced_wall += time.perf_counter() - start
    m = Measurement(rates, slowdowns, checks.attempted, sum(walls), _self_peak_rss_mb(), checks)
    if traced:
        m.layers = layer_metrics(tracer, m.trials, m.wall_s, traced_wall, speedup=1.0)
    return m


@dataclass(frozen=True)
class MaskingWorkload:
    """Rounds of ``masking_sweep`` in one process; round r uses master seed
    mix_seed(seed, r)."""

    name: str
    n: int
    theta: float
    rates: tuple
    design: DesignSpec
    trials: int

    def build(self, seed: int) -> dict:
        return {"n": self.n, "theta": self.theta, "rates": self.rates, "trials": self.trials}

    def resolved(self, seed: int) -> list:
        k = k_from_theta(self.n, self.theta)
        return [
            {"rate": r, "n": self.n, "k": k, "T": tests_for_rate(self.n, k, r), "trials": self.trials}
            for r in self.rates
        ]

    def _sweep(self, master: int) -> list:
        return masking_sweep(self.n, self.theta, self.rates, self.design, self.trials, master)

    def _replay(self, tracer: Tracer, master: int, counted: bool) -> list:
        """masking_sweep rebuilt from its public stages and seed derivation."""
        k = k_from_theta(self.n, self.theta)
        prior = PriorSpec("combinatorial", k=k)
        rows = []
        for r_idx, target in enumerate(self.rates):
            T = tests_for_rate(self.n, k, target)
            sub = mix_seed(master, 1000 + r_idx)
            defect = np.empty(self.trials, dtype=np.int64)
            nondef = np.empty(self.trials, dtype=np.int64)
            for t in range(self.trials):
                d = tracer.call(
                    "design.build", build_design, self.design, self.n, T, k, trial_seed(sub, t, TAG_DESIGN)
                )
                s = tracer.call("model.prior", sample_defectives, prior, self.n, trial_seed(sub, t, TAG_PRIOR))
                rep = tracer.call("analysis.masking", masking_report, d, s)
                if counted:
                    _count_design(tracer, d)
                defect[t] = rep.masked_defectives
                nondef[t] = rep.masked_nondefectives
            rows.append(_masking_row(target, T, defect, nondef))
        return rows

    def _check(self, tracer: Tracer, checks: Checks, seed: int, r: int, rows: list) -> None:
        replayed = self._replay(tracer, mix_seed(seed, r), counted=r == 0)
        for p, (got, want) in enumerate(zip(rows, replayed)):
            if got != want:
                note = f"round {r} rate {got['rate']:.4g}: sweep {got} != replay {want}"
                for t in range(self.trials):
                    checks.fail((r, p, t), None if t else note)

    def measure(self, seed: int, seconds: float, tmp: Path, traced: bool) -> Measurement:
        def run_round(r):
            return self.trials * len(self.rates), self._sweep(mix_seed(seed, r))

        def check_round(tracer, r, rows, checks, replay):
            if replay:
                self._check(tracer, checks, seed, r, rows)

        return _round_loop(seconds, traced, run_round, check_round)


def _masking_row(target, T, defect, nondef) -> dict:
    q_def = np.quantile(defect, [0.1, 0.5, 0.9])
    q_non = np.quantile(nondef, [0.1, 0.5, 0.9])
    return {
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


@dataclass(frozen=True)
class CliWorkload:
    """Fresh ``python -m pooltest simulate --out`` processes, one after the
    other, all with the run's seed; each CSV must match the in-process
    ``write_trials_csv(run_experiment(cfg with workers=1).records)`` bytes."""

    name: str
    n: int
    theta: float
    rate: float
    trials: int

    def argv(self, seed: int, workers: int, out) -> list:
        return [
            "simulate", "--n", str(self.n), "--theta", str(self.theta), "--rate", str(self.rate),
            "--design", "ncc", "--decoder", "dd", "--criterion", "exact",
            "--trials", str(self.trials), "--seed", str(seed), "--workers", str(workers),
            "--out", str(out),
        ]  # fmt: skip

    def config(self, seed: int, workers: int = 1) -> ExperimentConfig:
        return ExperimentConfig(
            n=self.n,
            theta=self.theta,
            target_rate=self.rate,
            design=DesignSpec("ncc"),
            decoder="dd",
            criterion=Criterion.exact(),
            trials=self.trials,
            master_seed=seed,
            workers=workers,
        )

    def build(self, seed: int):
        from pooltest.cli import build_parser

        return build_parser().parse_args(self.argv(seed, nproc(), "out.csv"))

    def resolved(self, seed: int) -> list:
        cfg = self.config(seed)
        k, T = _resolve_k_T(cfg)
        return [{"decoder": "dd", "n": self.n, "k": k, "T": T, "trials": self.trials, "workers": nproc()}]

    def measure(self, seed: int, seconds: float, tmp: Path, traced: bool) -> Measurement:
        root = Path(__file__).resolve().parents[1]
        out = tmp / "cli.csv"
        argv = [sys.executable, "-m", "pooltest", *self.argv(seed, nproc(), out)]
        rates, slowdowns, walls, outputs, peak = [], [], [], [], 0.0
        deadline = time.perf_counter() + (seconds / 2 if traced else seconds)
        while not rates or time.perf_counter() < deadline:
            out.unlink(missing_ok=True)
            # Not scaled: start-up and the two-CPU pool dominate a simulate
            # process, and the calibration loop tracks neither; scaling by it
            # doubled the spread of this workload.
            slowdowns.append(1.0)
            code, wall, rss = run_child(argv, root, timeout=150)
            rates.append(self.trials / wall)
            walls.append(wall)
            peak = max(peak, rss)
            outputs.append(out.read_bytes() if code == 0 and out.exists() else None)

        # The in-process reference, then its replay right after it, so that
        # the tracing overhead compares runs made under the same host load.
        cfg = self.config(seed)
        start = time.perf_counter()
        reference = _run(cfg)
        serial_wall = time.perf_counter() - start
        tracer = Tracer()
        replay_trials = self.trials if traced else min(self.trials, 50)
        start = time.perf_counter()
        replayed = [replay_trial(tracer, cfg, i, counted=traced) for i in range(replay_trials)]
        traced_wall = time.perf_counter() - start

        ref_csv = tmp / "reference.csv"
        tracer.call("cli.csv_write", write_trials_csv, reference.records, ref_csv)
        ref_bytes = ref_csv.read_bytes()
        checks = Checks()
        for inv, got in enumerate(outputs):
            checks.attempted += self.trials
            self._check_csv(checks, inv, got, ref_bytes)
        checks.attempted += self.trials
        check_records(checks, "in-process", cfg, reference.records, replayed)
        m = Measurement(rates, slowdowns, self.trials * len(rates), sum(walls), peak, checks)
        if traced:
            start = time.perf_counter()
            _run(self.config(seed, workers=nproc()))
            speedup = serial_wall / (time.perf_counter() - start)
            m.layers = layer_metrics(tracer, self.trials, statistics.median(walls), traced_wall, speedup, serial_wall)
        return m

    def _check_csv(self, checks: Checks, inv: int, got: bytes | None, ref_bytes: bytes) -> None:
        """Byte identity with the in-process CSV, and the dd guarantee on
        every row; ``got`` is None when the process failed."""
        if got is None:
            for t in range(self.trials):
                checks.fail((inv, t), None if t else f"invocation {inv}: simulate exited with an error")
            return
        if got == ref_bytes:
            for t, row in enumerate(csv.DictReader(io.StringIO(got.decode()))):
                if not guarantee_ok("dd", csv_fields(row)):
                    checks.fail((inv, t), f"invocation {inv} trial {t}: dd guarantee broken")
            return
        got_lines = got.splitlines()
        ref_lines = ref_bytes.splitlines()
        for t in range(self.trials):
            row = t + 1
            if got_lines[:1] != ref_lines[:1] or got_lines[row : row + 1] != ref_lines[row : row + 1]:
                checks.fail((inv, t), f"invocation {inv} trial {t}: CSV row differs from in-process")


def layer_metrics(tracer: Tracer, trials: int, wall_s: float, traced_wall_s: float, speedup: float,
                  untraced_serial_s: float | None = None) -> dict:
    """Per-layer metrics from one traced replay.

    ``wall_s`` is the untraced wall time of ``trials`` trials and
    ``traced_wall_s`` that of the replay. The trial stages ran serially in
    the replay; ``speedup`` (the pool speed-up of the untraced run) scales
    them back to the untraced wall clock, while the CSV write stays serial.
    ``untraced_serial_s`` is the untraced one-worker wall time of the replayed
    trials when ``wall_s`` was measured differently (the CLI).
    """
    stages = tracer.stage_ms(trials)
    trial_stages = sum(v for s, v in stages.items() if s != "cli.csv_write_ms")
    overhead = wall_s * 1e3 / trials - trial_stages / speedup - stages["cli.csv_write_ms"]
    serial_s = untraced_serial_s if untraced_serial_s is not None else wall_s
    return {
        **stages,
        **count_metrics(tracer),
        "harness.overhead_ms": overhead,
        "harness.pool_speedup": speedup,
        "trace.overhead_trials_per_s": trials / serial_s - trials / traced_wall_s,
    }


# ---------------------------------------------------------------------------
# the named workloads

_SPARSE_N, _SPARSE_K = 16384, 128
_SPARSE_BASE = _SPARSE_K * math.log(_SPARSE_N / _SPARSE_K) / (LN2 * LN2)


def _sparse_configs(trials: int, n: int = _SPARSE_N, k: int = _SPARSE_K, base: float = _SPARSE_BASE) -> tuple:
    return tuple(
        ExperimentConfig(
            n=n, k=k, T=math.ceil(base * mult), design=DesignSpec("ncc"), decoder=decoder,
            criterion=criterion, trials=trials,
        )
        for decoder, criterion in (("dd", Criterion.subset(0.1)), ("comp", Criterion.superset(0.1)))
        for mult in (0.8, 1.0, 1.2)
    )  # fmt: skip


def _subset_configs(trials: int, n: int = 500, k: int = 10) -> tuple:
    # A pipeline trial costs about 1.7 subset trials (its family is larger),
    # so it runs half as many trials and subset_decode stays the main stage.
    common = dict(n=n, k=k, target_rate=0.693, design=DesignSpec("bernoulli"), criterion=Criterion.subset(0.1))
    return (
        ExperimentConfig(decoder="subset", eta_minus=0.1, radius_mult=3.0, frontend="dd-pad", trials=trials, **common),
        ExperimentConfig(decoder="pipeline", alpha=0.1, inner="subset", eta_minus=0.2, trials=trials // 2, **common),
    )


WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload("sparse-budget", _sparse_configs(trials=2)),
        MaskingWorkload("dense-masking", 4096, 0.9, (0.8 * LN2, 1.2 * LN2), DesignSpec("ncc"), trials=20),
        ExperimentWorkload("subset-local", _subset_configs(trials=4)),
        CliWorkload("cli-simulate", 2000, 0.5, 0.693, trials=400),
    )
}

#: The same four shapes at sizes that run in well under a second, for the self-test.
TINY_WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload("sparse-budget", _sparse_configs(trials=2, n=400, k=8, base=8 * math.log(50) / LN2**2)),
        MaskingWorkload("dense-masking", 200, 0.9, (0.8 * LN2, 1.2 * LN2), DesignSpec("ncc"), trials=4),
        ExperimentWorkload("subset-local", _subset_configs(trials=2, n=60, k=4)),
        CliWorkload("cli-simulate", 200, 0.5, 0.693, trials=20),
    )
}


def build(name: str, seed: int):
    """What a fresh interpreter sets up before a workload's first trial."""
    return WORKLOADS[name].build(seed)
