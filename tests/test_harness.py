import csv
import dataclasses
import hashlib
import inspect
import math
import os
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest

import pooltest.decode
import pooltest.design
import pooltest.harness
import pooltest.oracle
import pooltest.reference
from pooltest.analysis import masking_report
from pooltest.decode import _DECODER_NAMES, SubsetParams, comp_decode, dd_decode, deletion_pipeline
from pooltest.decode import family_size, subset_decode
from pooltest.design import DesignSpec, TestDesign, build_design, ncc_design, save_design
from pooltest.errors import ParameterError, RefusalBudgetError
from pooltest.harness import (
    TAG_DESIGN,
    TAG_PRIOR,
    TAG_TRIAL,
    TRIAL_CSV_HEADER,
    ExperimentConfig,
    masking_sweep,
    run_experiment,
    trial_seed,
    wilson_interval,
    write_masking_csv,
    write_trials_csv,
)
from pooltest.metrics import Criterion, evaluate, log2_binomial
from pooltest.util import floor_tol, mix_seed
from pooltest.metrics import tests_for_rate as minimal_tests
from pooltest.model import DefectiveSet, PriorSpec, generate_outcomes, k_from_theta, sample_defectives
from pooltest.oracle import ORACLE_SUITES, oracle_check


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_config(**kw):
    base = dict(
        n=60,
        design=DesignSpec("bernoulli"),
        decoder="dd",
        criterion=Criterion.subset(0.1),
        trials=40,
        k=4,
        T=30,
        master_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeds and intervals


def test_trial_seed_streams_are_distinct():
    seeds = {
        trial_seed(7, t, tag)
        for t in range(20)
        for tag in (TAG_TRIAL, TAG_DESIGN, TAG_PRIOR)
    }
    assert len(seeds) == 60
    assert trial_seed(7, 3, TAG_DESIGN) == trial_seed(7, 3, TAG_DESIGN)
    assert trial_seed(7, 3, TAG_DESIGN) != trial_seed(8, 3, TAG_DESIGN)


def test_wilson_interval_frozen_values():
    assert wilson_interval(5, 100) == pytest.approx(
        (0.02154367915436796, 0.11175046923191913), abs=1e-15
    )
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.07134759913335872, abs=1e-15)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_brackets_the_estimate():
    for s, t in ((1, 10), (25, 50), (49, 50), (0, 7)):
        lo, hi = wilson_interval(s, t)
        assert 0.0 <= lo <= s / t + 1e-12
        assert s / t - 1e-12 <= hi <= 1.0


IMPOSSIBLE_COUNTS = {
    (5, 3): "need 0 <= successes <= 3, got 5",
    (1, -3): "need total >= 0, got -3",
    (-1, 3): "need 0 <= successes <= 3, got -1",
    (1, 0): "need 0 <= successes <= 0, got 1",
}


@pytest.mark.parametrize("successes, total", IMPOSSIBLE_COUNTS)
def test_wilson_interval_refuses_impossible_counts(successes, total):
    with pytest.raises(ParameterError, match=f"^{IMPOSSIBLE_COUNTS[successes, total]}$"):
        wilson_interval(successes, total)


# ---------------------------------------------------------------------------
# configs


def test_config_requires_exactly_one_size_spec():
    with pytest.raises(ParameterError, match="exactly one of k and theta"):
        small_config(k=None)
    with pytest.raises(ParameterError, match="exactly one of k and theta"):
        small_config(theta=0.5)
    with pytest.raises(ParameterError, match="exactly one of T and target_rate"):
        small_config(T=None)
    with pytest.raises(ParameterError, match="exactly one of T and target_rate"):
        small_config(target_rate=0.5)


def test_config_rejects_unknown_decoder():
    with pytest.raises(ParameterError, match=r"^need decoder in \{comp, dd, ml, subset, pipeline\}, got 'guess'$"):
        small_config(decoder="guess")


def test_config_pipeline_needs_alpha():
    with pytest.raises(ParameterError, match="^need 0 < alpha < 1, got None$"):
        small_config(decoder="pipeline")
    small_config(decoder="pipeline", alpha=0.1)


def test_config_checks_pipeline_arguments():
    # bad pipeline arguments fail when the config is made, before any trial
    for bad in (dict(alpha=1.0), dict(alpha=0.1, xi=0.2), dict(alpha=0.1, inner="ml")):
        with pytest.raises(ParameterError):
            small_config(decoder="pipeline", **bad)
    with pytest.raises(ParameterError, match="pads dd"):
        small_config(decoder="pipeline", alpha=0.1, inner="subset", frontend="ml")


SEARCHES = {
    "subset": dict(decoder="subset"),
    "pipeline-subset": dict(decoder="pipeline", alpha=0.1, inner="subset"),
}
BAD_KNOBS = {
    "provided": (dict(frontend="provided"), "^frontend 'provided' needs the provided estimate$"),
    "bogus": (dict(frontend="bogus"), r"^need frontend in \{dd-pad, ml, provided\}, got 'bogus'$"),
    "eta": (dict(eta_minus=1.5), "^need 0 <= eta_minus < 1, got 1.5$"),
    "radius": (dict(radius_mult=-1), "^need radius_mult > 0, got -1$"),
}


@pytest.mark.parametrize("knob", BAD_KNOBS)
@pytest.mark.parametrize("search", SEARCHES)
def test_config_refuses_a_bad_search_knob_when_made(search, knob):
    # each was once accepted here and refused only when run_experiment ran
    bad, message = BAD_KNOBS[knob]
    with pytest.raises(ParameterError, match=message):
        small_config(**SEARCHES[search], **bad)


def test_config_reads_the_search_knobs_whatever_the_decoder():
    with pytest.raises(ParameterError, match=r"^need frontend in \{dd-pad, ml, provided\}, got 'bogus'$"):
        small_config(decoder="dd", frontend="bogus")


@pytest.mark.parametrize("prior", ["iid", "iid-trim", "iid-pad"])
@pytest.mark.parametrize("decoder", ["subset", "dd"])
def test_config_refuses_the_ml_frontend_under_a_prior_of_varying_size(decoder, prior):
    # the ml front end is given the configured k, which such a draw need not have
    with pytest.raises(ParameterError, match=f"a search under the {prior} prior pads dd$"):
        small_config(decoder=decoder, frontend="ml", prior_kind=prior)
    small_config(decoder=decoder, frontend="ml")


@pytest.mark.parametrize("caps", [dict(family_cap=-1), dict(ml_cap=-1), dict(ml_cap=None)])
def test_config_refuses_a_cap_below_zero(caps):
    with pytest.raises(ParameterError, match=r"^need (family_cap|ml_cap) >= 0, got (-1|None)$"):
        ExperimentConfig(
            n=60, k=4, T=30, design=DesignSpec("bernoulli"), decoder="subset",
            criterion=Criterion.subset(0.25), trials=4, eta_minus=0.25, **caps,
        )  # fmt: skip
    small_config(family_cap=None)  # no cap
    small_config(family_cap=0, ml_cap=0)


@pytest.mark.parametrize("seed", [1.5, "3", None])
def test_a_master_seed_that_is_not_whole_is_refused(seed):
    # refused when the config is made, and by the sweep before any rate point
    with pytest.raises(ParameterError, match=rf"^need a whole number master_seed, got {seed!r}$"):
        small_config(master_seed=seed)
    with pytest.raises(ParameterError, match=rf"^need a whole number master_seed, got {seed!r}$"):
        masking_sweep(50, 0.5, [], DesignSpec("ncc"), 2, master_seed=seed)


def test_a_master_seed_of_any_sign_is_read():
    # mix_seed masks a seed to 64 bits, so -1 is the seed 2**64 - 1
    neg, wrapped = (run_experiment(small_config(trials=3, master_seed=s)) for s in (-1, 2**64 - 1))
    assert [r.seed for r in neg.records] == [r.seed for r in wrapped.records]


def test_config_refuses_workers_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ParameterError, match="needs os.fork"):
        small_config(workers=2)
    assert run_experiment(small_config(trials=3)).trials == 3


RUN_INPUTS = {
    "iid-pad": (
        dict(prior_kind="iid-pad"),
        r"^iid-pad density \(k - sqrt\(k\) ln n\)/n = -0.1044 falls outside \(0, 1\) for n=24, k=3$",
    ),
    "iid-q": (dict(prior_kind="iid", prior_q=1.5), "^need 0 < q < 1, got 1.5$"),
    "theta": (dict(k=None, theta=1.5), "^need 0 < theta < 1, got 1.5$"),
    "rate": (dict(T=None, target_rate=-1.0), "^need target_rate > 0, got -1.0$"),
    "prior-kind": (
        dict(prior_kind="bogus"), r"^need prior in \{combinatorial, iid, iid-trim, iid-pad\}, got 'bogus'$"
    ),
}


@pytest.mark.parametrize("name", RUN_INPUTS)
def test_config_refuses_a_bad_run_input_when_made(name):
    # each was once accepted here and refused only when run_experiment ran
    bad, message = RUN_INPUTS[name]
    with pytest.raises(ParameterError, match=message):
        small_config(**{**dict(n=24, k=3, T=16), **bad})


def test_config_keeps_its_resolved_inputs_out_of_equality_and_repr():
    cfg = small_config(k=None, theta=0.5, T=None, target_rate=0.5)
    assert (cfg.run_k, cfg.run_T) == (8, minimal_tests(60, 8, 0.5))
    assert cfg.prior == PriorSpec("combinatorial", k=8)
    # replace resolves afresh: 60^0.7 = 17.6 -> k = 18
    wider = replace(cfg, theta=0.7)
    assert (wider.run_k, wider.prior.k) == (18, 18)
    assert wider.run_T == minimal_tests(60, 18, 0.5)
    assert replace(wider, theta=0.5) == cfg
    assert hash(replace(wider, theta=0.5)) == hash(cfg)
    assert "run_k" not in repr(cfg) and "prior=" not in repr(cfg)


def test_config_loads_an_explicit_design_once(tmp_path, monkeypatch):
    path = tmp_path / "design.txt"
    save_design(ncc_design(60, 30, 3, 1), path)
    calls = []
    real = pooltest.design.load_design
    monkeypatch.setattr(pooltest.design, "load_design", lambda p: calls.append(p) or real(p))
    cfg = small_config(design=DesignSpec("explicit", path=str(path)), workers=2)
    assert len(calls) == 1
    run_experiment(cfg)
    run_experiment(cfg)
    assert len(calls) == 1
    with pytest.raises(ParameterError, match="explicit design is 30 x 60, experiment wants 31 x 60"):
        small_config(design=DesignSpec("explicit", path=str(path)), T=31)


# ---------------------------------------------------------------------------
# running experiments


def test_run_experiment_counts_add_up():
    summ = run_experiment(small_config())
    assert summ.trials == 40
    assert summ.included + summ.refused == 40
    assert summ.failures == sum(1 for r in summ.records if r.success is False)
    assert summ.p_error == summ.failures / summ.included
    lo, hi = wilson_interval(summ.failures, summ.included)
    assert (summ.wilson_low, summ.wilson_high) == (lo, hi)
    assert summ.k == 4 and summ.T == 30 and summ.n == 60
    assert "p_error" in summ.line()


def test_run_experiment_is_deterministic():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    for ra, rb in zip(a.records, b.records):
        assert ra.seed == rb.seed
        assert ra.est_size == rb.est_size
        assert ra.success == rb.success
        assert (ra.false_negatives, ra.false_positives) == (rb.false_negatives, rb.false_positives)


def test_theta_and_rate_resolution():
    cfg = small_config(k=None, theta=0.5, T=None, target_rate=0.5)
    summ = run_experiment(cfg)
    # 60^0.5 = 7.75 -> k = 8
    assert summ.k == 8
    from pooltest.metrics import rate

    assert rate(60, 8, summ.T) <= 0.5
    assert rate(60, 8, summ.T - 1) > 0.5


def test_workers_give_identical_csv(tmp_path):
    # every decoder's records cross the pipes from the forked workers
    knobs = {"pipeline": dict(alpha=0.1, inner="subset")}
    for decoder in (dict(decoder=name, **knobs.get(name, {})) for name in _DECODER_NAMES):
        paths = []
        for idx, workers in enumerate((1, 3)):
            summ = run_experiment(small_config(workers=workers, record_sets=True, **decoder))
            p = tmp_path / f"w{idx}.csv"
            write_trials_csv(summ.records, p)
            assert all(row["true_set"] for row in read_rows(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


def failing_trials(monkeypatch, fail):
    """Make the trials whose index is a key of ``fail`` run ``fail[idx]()``
    instead; forked workers inherit the patch."""
    run_trial = pooltest.harness._run_trial

    def trial(res, idx):
        return fail[idx]() if idx in fail else run_trial(res, idx)

    monkeypatch.setattr(pooltest.harness, "_run_trial", trial)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_for(idx):
    def fail():
        raise ParameterError(f"trial {idx} failed")

    return fail


@pytest.mark.parametrize("failing, first", [((8,), 8), ((4, 7), 4), ((1, 7), 1), ((7, 2), 2)])
def test_worker_errors_reach_the_caller_lowest_block_first(monkeypatch, failing, first):
    # 9 trials on 3 workers: the parent runs 0-2, the children 3-5 and 6-8
    failing_trials(monkeypatch, {idx: raise_for(idx) for idx in failing})
    with pytest.raises(ParameterError, match=rf"^trial {first} failed$"):
        run_experiment(small_config(trials=9, workers=3))
    assert_no_child_left()


def test_a_killed_worker_raises_child_process_error(monkeypatch):
    parent = os.getpid()

    def kill_the_worker():
        assert os.getpid() != parent, "trial 8 must run in a forked worker"
        os.kill(os.getpid(), signal.SIGKILL)

    failing_trials(monkeypatch, {8: kill_the_worker})
    with pytest.raises(ChildProcessError, match=r"^the worker for trials 6-8 was killed by signal 9$"):
        run_experiment(small_config(trials=9, workers=3))
    assert_no_child_left()


def test_more_workers_than_trials_match_one_worker():
    def records(workers):
        summ = run_experiment(small_config(trials=3, workers=workers, record_sets=True))
        return [replace(r, elapsed_us=0) for r in summ.records]

    assert records(5) == records(1)
    assert_no_child_left()


def test_dd_never_false_positive():
    summ = run_experiment(small_config(criterion=Criterion.superset(0.0), trials=60))
    for r in summ.records:
        assert r.false_positives == 0


def test_refusal_budget_enforced():
    cfg = small_config(decoder="subset", eta_minus=0.25, family_cap=1, trials=20)
    with pytest.raises(RefusalBudgetError) as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(cfg)
    summ = exc.value.summary
    assert summ.refused == 20
    assert summ.included == 0
    for r in summ.records:
        assert r.success is None
        assert r.est_size is None


def test_pipeline_decoder_through_harness():
    cfg = small_config(
        n=80, decoder="pipeline", alpha=0.1, trials=10, k=4, T=60,
        criterion=Criterion.two_sided(2.0),
    )
    summ = run_experiment(cfg)
    assert summ.included == 10


@pytest.mark.parametrize("inner", ["comp", "dd", "subset"])
def test_pipeline_trials_match_deletion_pipeline(inner):
    # a harness pipeline trial is deletion_pipeline at the trial's TAG_TRIAL seed
    cfg = small_config(
        n=120, k=6, T=60, decoder="pipeline", alpha=0.2, inner=inner, eta_minus=0.2,
        trials=5, record_sets=True,
    )
    for rec in run_experiment(cfg).records:
        result = deletion_pipeline(
            cfg.design, cfg.n, cfg.k, cfg.T, cfg.alpha, inner=inner,
            seed=trial_seed(cfg.master_seed, rec.trial, TAG_TRIAL), xi=cfg.xi,
            eta_minus=cfg.eta_minus, radius_mult=cfg.radius_mult, family_cap=cfg.family_cap,
            hill_climb=cfg.hill_climb,
        )
        assert not result.refused
        out = evaluate(cfg.criterion, result.defectives, result.estimate)
        mask = masking_report(result.design, result.reduced_truth)
        assert rec.true_set == result.defectives.members
        assert rec.est_set == result.estimate
        assert (rec.false_negatives, rec.false_positives) == (out.false_negatives, out.false_positives)
        assert (rec.est_size, rec.success) == (len(result.estimate), out.success)
        assert (rec.masked_def, rec.masked_nondef) == (
            mask.masked_defectives, mask.masked_nondefectives
        )


def test_pipeline_subset_search_takes_the_criterion_slack():
    # with eta_minus unset the pipeline's search takes the criterion's slack,
    # as the subset decoder does
    common = dict(
        n=200, k=6, T=60, decoder="pipeline", alpha=0.1, inner="subset",
        criterion=Criterion.subset(0.4), trials=20,
    )

    def records(**extra):
        summ = run_experiment(small_config(**common, **extra))
        return [replace(r, elapsed_us=0) for r in summ.records]

    unset = records()
    assert unset == records(eta_minus=0.4)
    assert {r.est_size for r in unset} == {3}


def test_pipeline_truth_follows_the_prior():
    common = dict(n=400, k=10, T=100, decoder="pipeline", alpha=0.1, trials=40, master_seed=3,
                  record_sets=True)
    combinatorial = run_experiment(small_config(**common)).records
    iid = run_experiment(small_config(**common, prior_kind="iid")).records
    assert [r.true_set for r in iid] != [r.true_set for r in combinatorial]
    assert len({len(r.true_set) for r in iid}) > 1
    assert all(r.k == len(r.true_set) for r in iid)


# the command-line reproducer of the pipeline's subset route: the criterion
# asks for floor(0.8 * 10) = 8 of the 10 defectives
REPRODUCER = dict(
    n=500, k=10, T=120, decoder="pipeline", alpha=0.1, inner="subset", eta_minus=0.2,
    criterion=Criterion.subset(0.2), trials=200, master_seed=0,
)


def test_pipeline_subset_route_can_succeed():
    # the search once looked for floor(0.8 * k_mid) = 7 items and read p_error = 1
    cfg = small_config(**REPRODUCER)
    assert cfg.deletions == 50
    # k_mid = 9: the search finds 8 items within radius 3 * (9 - 8) of its front end
    size, radius = floor_tol((1 - cfg.params.eta_minus) * 9), floor_tol(3 * cfg.params.eta_minus * 9)
    assert (size, radius, family_size(9, size, radius, 450)) == (8, 3, 15_885)
    summ = run_experiment(cfg)
    assert {r.est_size for r in summ.records} == {8}
    assert summ.p_error < 1


def test_config_refuses_a_pipeline_search_larger_than_k_mid():
    # alpha 0.2 keeps k_mid = 8 of k = 10; eta_minus 0.05 asks for floor(0.95 * 10) = 9
    with pytest.raises(ParameterError, match=r"= 9 items, .* leaves k_mid = 8 of the k = 10 defectives"):
        small_config(**{**REPRODUCER, "alpha": 0.2, "eta_minus": 0.05})
    small_config(**{**REPRODUCER, "alpha": 0.2, "eta_minus": 0.05, "inner": "dd"})


@pytest.fixture(scope="module")
def large_budget_pipeline():
    """(records, defectives each trial deleted) of 2,000 reproducer trials at
    T = 400, where the inner search finds the kept defectives."""
    cfg = small_config(**{**REPRODUCER, "T": 400, "trials": 2000, "record_sets": True})
    records = run_experiment(cfg).records
    deleted = []
    for rec in records:
        # the deletion is the trial's own: sub-stream 3 of its TAG_TRIAL seed
        seed = trial_seed(cfg.master_seed, rec.trial, TAG_TRIAL)
        result = deletion_pipeline(cfg.design, cfg.n, cfg.k, 1, cfg.alpha, seed=seed)
        assert result.defectives.members == rec.true_set
        deleted.append(len(set(result.deleted) & set(rec.true_set)))
    return records, deleted


def test_large_budget_pipeline_fails_exactly_when_deletion_takes_three(large_budget_pipeline):
    # 3 deleted defectives leave 7 kept, and an 8-item estimate then holds a non-defective
    records, deleted = large_budget_pipeline
    assert [not r.success for r in records] == [d >= 3 for d in deleted]


def test_large_budget_pipeline_error_covers_the_deletion_floor(large_budget_pipeline):
    # P(X >= 3) = 0.0683 for X ~ Hypergeom(500, 10, 50), the defectives among the 50 deleted
    floor = sum(math.comb(10, j) * math.comb(490, 50 - j) for j in range(3, 11)) / math.comb(500, 50)
    assert round(floor, 4) == 0.0683
    records, _ = large_budget_pipeline
    low, high = wilson_interval(sum(not r.success for r in records), len(records))
    assert low <= floor <= high


def _public_trial(cfg, rec, design=None):
    """(truth, design) of a recorded trial, redrawn through the public API."""
    if design is None:
        design = build_design(cfg.design, cfg.n, cfg.T, cfg.k, trial_seed(cfg.master_seed, rec.trial, TAG_DESIGN))
    truth = sample_defectives(PriorSpec("combinatorial", k=cfg.k), cfg.n, trial_seed(cfg.master_seed, rec.trial, TAG_PRIOR))
    assert rec.true_set == truth.members
    return truth, design


def _sparse_spec(kind, tmp_path, T):
    """A Bernoulli spec, or an explicit design file of T tests, over n = 60
    items with items in no test."""
    if kind == "bernoulli":
        return DesignSpec("bernoulli", p_override=0.03)  # about 40% of the columns are empty
    rows = [[i for i in range(1, 61) if i % 3 and (i * t) % 7 < 2] for t in range(1, T + 1)]
    design = TestDesign.from_rows(60, rows)  # the multiples of 3 are in no test
    path = tmp_path / "design.txt"
    save_design(design, path)
    return DesignSpec("explicit", path=str(path))


@pytest.mark.parametrize("kind", ["bernoulli", "explicit"])
def test_trial_masking_counts_match_masking_report(kind, tmp_path):
    # a trial counts masked items over masks; masking_report lists them
    spec = _sparse_spec(kind, tmp_path, 30)
    cfg = small_config(design=spec, trials=30, record_sets=True)
    explicit = build_design(spec, cfg.n, cfg.T, cfg.k, None) if kind == "explicit" else None
    zero_test = 0
    for rec in run_experiment(cfg).records:
        truth, design = _public_trial(cfg, rec, explicit)
        mask = masking_report(design, truth)
        assert (rec.masked_def, rec.masked_nondef) == (mask.masked_defectives, mask.masked_nondefectives)
        zero_test += mask.zero_test_items
    assert zero_test > 0


@pytest.mark.parametrize("kind", ["bernoulli", "explicit"])
def test_masking_sweep_counts_match_masking_report(kind, tmp_path):
    n, theta, trials = 60, 0.35, 12
    k = k_from_theta(n, theta)
    # an explicit design fixes T, so its sweep repeats one rate
    rates = (0.7, 0.7) if kind == "explicit" else (0.7, 1.0)
    spec = _sparse_spec(kind, tmp_path, minimal_tests(n, k, 0.7))
    rows = masking_sweep(n, theta, rates, spec, trials, master_seed=6)
    zero_test = 0
    for r_idx, (row, rate) in enumerate(zip(rows, rates)):
        T = minimal_tests(n, k, rate)
        sub = mix_seed(6, 1000 + r_idx)
        counts = []
        for t in range(trials):
            design = build_design(spec, n, T, k, trial_seed(sub, t, TAG_DESIGN))
            truth = sample_defectives(PriorSpec("combinatorial", k=k), n, trial_seed(sub, t, TAG_PRIOR))
            mask = masking_report(design, truth)
            counts.append((mask.masked_defectives, mask.masked_nondefectives))
            zero_test += mask.zero_test_items
        defect, nondef = zip(*counts)
        assert row["mean_masked_def"] == sum(defect) / trials
        assert row["mean_masked_nondef"] == sum(nondef) / trials
        assert row["freq_any_masked_def"] == sum(d > 0 for d in defect) / trials
    assert zero_test > 0


@pytest.mark.parametrize("kind", ["ncc", "bernoulli"])
@pytest.mark.parametrize("decoder", ["dd", "comp"])
def test_dense_trials_match_the_public_api(decoder, kind):
    # at theta 0.9 a trial keeps k = 1783 members as arrays from draw to
    # score; every record must equal the tuple API's recomputation
    criterion = Criterion.subset(0.1) if decoder == "dd" else Criterion.superset(0.1)
    n = 4096
    k = k_from_theta(n, 0.9)
    cfg = ExperimentConfig(
        n=n, k=k, T=minimal_tests(n, k, 0.55), design=DesignSpec(kind), decoder=decoder,
        criterion=criterion, trials=6, master_seed=8, record_sets=True,
    )
    decode = dd_decode if decoder == "dd" else comp_decode
    for rec in run_experiment(cfg).records:
        truth, design = _public_trial(cfg, rec)
        estimate = decode(design, generate_outcomes(design, truth))
        mask = masking_report(design, truth)
        out = evaluate(criterion, truth, estimate)
        assert rec.est_set == estimate and rec.k == truth.k == k
        assert (rec.false_negatives, rec.false_positives, rec.est_size, rec.success) == (
            out.false_negatives, out.false_positives, len(estimate), out.success
        )
        assert (rec.masked_def, rec.masked_nondef) == (mask.masked_defectives, mask.masked_nondefectives)


def _no_view(*args):
    raise AssertionError("a design view was built")


@pytest.mark.parametrize("kind", ["bernoulli", "ncc"])
def test_trials_read_the_column_view_only(kind, monkeypatch):
    # decoding and masking read the columns, and an ncc design's own draws;
    # building the row view would be a second sort of the entries in every
    # trial, and building an ncc design's column view a first one
    monkeypatch.setattr(pooltest.design, "_row_view", _no_view)
    if kind == "ncc":
        monkeypatch.setattr(pooltest.design, "_col_view", _no_view)
    d = build_design(DesignSpec(kind), 300, 60, 4, seed=2)
    s = DefectiveSet(300, (3, 50, 120, 299))
    y = generate_outcomes(d, s)
    comp_decode(d, y)
    dd_decode(d, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        subset_decode(d, y, s.k, SubsetParams(eta_minus=0.25))
    masking_report(d, s)
    assert d._rows is None
    assert (d._cols is None) == (kind == "ncc")
    assert len(masking_sweep(300, 0.3, [0.5, 0.7], DesignSpec(kind), trials=3, master_seed=1)) == 2
    for decoder in ("comp", "dd", "subset", "pipeline"):
        alpha = 0.1 if decoder == "pipeline" else None
        cfg = small_config(design=DesignSpec(kind), decoder=decoder, trials=4, alpha=alpha, inner="subset")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_experiment(cfg).trials == 4


# ---------------------------------------------------------------------------
# trial CSV


def test_trial_csv_round_trip(tmp_path):
    summ = run_experiment(small_config(trials=12))
    p = tmp_path / "trials.csv"
    write_trials_csv(summ.records, p)
    rows = read_rows(p)
    assert len(rows) == 12
    assert list(rows[0].keys()) == TRIAL_CSV_HEADER
    for rec, row in zip(summ.records, rows):
        assert int(row["trial"]) == rec.trial
        assert int(row["fn"]) == rec.false_negatives
        assert int(row["fp"]) == rec.false_positives
        assert int(row["est_size"]) == rec.est_size
        assert int(row["success"]) == int(rec.success)
        assert row["elapsed_us"] == "0"  # timing off zeroes the column
        assert row["decoder"] == "dd"
        assert row["criterion"] == "subset(0.1)"


def test_trial_csv_header_is_stable(tmp_path):
    assert TRIAL_CSV_HEADER == [
        "trial", "seed", "n", "k", "T", "design", "decoder", "criterion",
        "fn", "fp", "est_size", "success", "masked_def", "masked_nondef", "elapsed_us",
    ]


def test_trial_csv_record_sets(tmp_path):
    summ = run_experiment(small_config(trials=5, record_sets=True))
    p = tmp_path / "trials.csv"
    write_trials_csv(summ.records, p)
    rows = read_rows(p)
    assert "true_set" in rows[0] and "est_set" in rows[0]
    for rec, row in zip(summ.records, rows):
        true = tuple(int(x) for x in row["true_set"].split(";") if x)
        assert true == rec.true_set
        assert len(true) == rec.k


def test_trial_csv_timing_column(tmp_path):
    summ = run_experiment(small_config(trials=5))
    p = tmp_path / "trials.csv"
    write_trials_csv(summ.records, p, timing=True)
    rows = read_rows(p)
    assert any(int(r["elapsed_us"]) > 0 for r in rows)


def test_trial_csv_refused_rows(tmp_path):
    cfg = small_config(decoder="subset", eta_minus=0.25, family_cap=1, trials=5)
    with pytest.raises(RefusalBudgetError) as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(cfg)
    p = tmp_path / "trials.csv"
    write_trials_csv(exc.value.summary.records, p)
    for row in read_rows(p):
        assert row["success"] == "refused"
        assert row["fn"] == "" and row["fp"] == "" and row["est_size"] == ""


# ---------------------------------------------------------------------------
# masking sweep


def test_masking_sweep_rows(tmp_path):
    rows = masking_sweep(
        n=120, theta=0.6, rate_grid=(0.4, 0.8), design=DesignSpec("bernoulli"),
        trials=30, master_seed=2,
    )
    assert len(rows) == 2
    # higher target rate means fewer tests, so more masking
    assert rows[1]["tests"] < rows[0]["tests"]
    for row in rows:
        assert row["q10_masked_def"] <= row["q50_masked_def"] <= row["q90_masked_def"]
        assert row["q10_masked_nondef"] <= row["q50_masked_nondef"] <= row["q90_masked_nondef"]
        assert 0.0 <= row["freq_any_masked_def"] <= 1.0
    assert rows[1]["mean_masked_nondef"] >= rows[0]["mean_masked_nondef"]
    p = tmp_path / "masking.csv"
    write_masking_csv(rows, p)
    text = p.read_text().splitlines()
    assert text[0].split(",")[0] == "rate"
    assert len(text) == 3


@pytest.mark.parametrize("n, theta", [(100, 1.5), (0, 0.5)])
def test_masking_sweep_checks_n_and_theta_with_an_empty_rate_grid(n, theta):
    # k is resolved at each rate point, so the sweep checks n and theta
    # itself before a grid with no points can skip them
    message = "need n >= 1" if n < 1 else "need 0 < theta < 1"
    for grid in ([], [0.5]):
        with pytest.raises(ParameterError, match=message):
            masking_sweep(n, theta, grid, DesignSpec("ncc"), 5)


def test_masking_sweep_is_deterministic():
    kw = dict(n=80, theta=0.5, rate_grid=(0.5,), design=DesignSpec("ncc"), trials=20,
              master_seed=9)
    assert masking_sweep(**kw) == masking_sweep(**kw)


def test_masking_sweep_reuses_cached_binomial_bits():
    kw = dict(n=97, theta=0.55, rate_grid=(0.5, 0.7), design=DesignSpec("bernoulli"), trials=4,
              master_seed=5)
    first = masking_sweep(**kw)
    hits = log2_binomial.cache_info().hits
    assert masking_sweep(**kw) == first
    # each rate point sizes T from log2 C(n, k), which the first sweep cached
    assert log2_binomial.cache_info().hits >= hits + len(kw["rate_grid"])


def test_masking_sweep_loads_explicit_design_once_per_rate_point(tmp_path, monkeypatch):
    n, theta, rate = 80, 0.5, 0.6
    path = tmp_path / "design.txt"
    save_design(ncc_design(n, minimal_tests(n, k_from_theta(n, theta), rate), 3, 1), path)
    calls = []
    real = pooltest.design.load_design

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(pooltest.design, "load_design", counting)
    rows = masking_sweep(
        n=n, theta=theta, rate_grid=(rate, rate, rate), design=DesignSpec("explicit", path=str(path)),
        trials=10, master_seed=3,
    )
    assert len(rows) == 3
    assert len(calls) == 3


def test_masking_sweep_rejects_explicit_design_of_wrong_shape(tmp_path):
    path = tmp_path / "design.txt"
    save_design(ncc_design(80, 7, 2, 1), path)
    with pytest.raises(ParameterError, match="explicit design is 7 x 80"):
        masking_sweep(
            n=80, theta=0.5, rate_grid=(0.6,), design=DesignSpec("explicit", path=str(path)),
            trials=5, master_seed=3,
        )


# ---------------------------------------------------------------------------
# oracle suites


def test_oracle_check_dispatch():
    suites = ", ".join(sorted(ORACLE_SUITES))
    with pytest.raises(ParameterError, match=rf"^need suite in \{{{suites}\}}, got 'never-heard-of-it'$"):
        oracle_check("never-heard-of-it")


def test_oracle_suites_live_in_the_oracle_module():
    assert all(fn.__module__ == "pooltest.oracle" for fn in ORACLE_SUITES.values())
    harness_names = vars(pooltest.harness)
    assert not [name for name in harness_names if name.startswith("suite_")]
    assert not {"SuiteResult", "ORACLE_SUITES", "oracle_check"} & harness_names.keys()


@pytest.mark.parametrize(
    "suite, key, size",
    [
        ("explained-naive", "instances", 0),
        ("subset-argmax", "instances", -3),
        ("hill-climb", "instances", 0),
        ("ml-enum", "instances", 0),
        ("posterior-uniformity", "trials", 0),
        ("chernoff-dominance", "samples", 0),
    ],
)
def test_oracle_check_refuses_a_size_below_one(suite, key, size):
    # a suite that checks nothing must not report PASS
    with pytest.raises(ParameterError, match=rf"^need {key} >= 1, got {size}$"):
        oracle_check(suite, **{key: size})


def test_posterior_uniformity_fails_when_its_control_checks_nothing():
    # at 10 trials every bin is skipped, so the biased sampler's min_p is NaN,
    # which must not count as a rejection
    res = oracle_check("posterior-uniformity", seed=0, trials=10)
    assert res.report() == (
        "[FAIL] posterior-uniformity: 1 checks, 1 failures\n  negative control not rejected: min p = nan"
    )


def test_a_numpy_warning_in_the_subset_search_is_not_silenced(monkeypatch):
    # the search's empty-estimate notes are silenced in trials and in the
    # oracle, but a numpy overflow inside the search must still surface
    argmax = pooltest.decode._argmax_explained

    def overflowing(*args):
        np.float64(1e308) * 10
        return argmax(*args)

    monkeypatch.setattr(pooltest.decode, "_argmax_explained", overflowing)
    cfg = small_config(decoder="subset", eta_minus=0.25, criterion=Criterion.subset(0.25), trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            run_experiment(cfg)
        with pytest.raises(RuntimeWarning, match="overflow"):
            oracle_check("subset-argmax", instances=3)


def test_oracle_suites_pass_at_reduced_sizes():
    res = oracle_check("explained-naive", seed=3, instances=40)
    assert res.passed and res.failures == 0 and res.checked == 40
    assert res.report().startswith("[PASS] explained-naive: 40 checks")
    res = oracle_check("subset-argmax", seed=3, instances=12)
    assert res.passed
    res = oracle_check("ml-enum", seed=3, instances=12)
    assert res.passed
    res = oracle_check("hill-climb", seed=3, instances=12)
    assert res.passed and res.checked == 12
    res = oracle_check("posterior-uniformity", seed=3, trials=30_000)
    assert res.passed
    res = oracle_check("chernoff-dominance", seed=3, samples=20_000)
    assert res.checked == 500
    assert res.passed == (res.failures == 0)


# every fast path a suite checks, by the name it has in pooltest.oracle
ORACLE_FAST_PATHS = (
    "explained_tests", "comp_decode", "dd_decode", "good_test_counts", "masking_report",
    "subset_decode", "_front_end", "ml_oracle", "posterior_uniformity_check",
    "chernoff_upper", "chernoff_lower", "chernoff_weak_upper", "chernoff_weak_lower",
)
ORACLE_ARG_SIZES = {
    "explained-naive": {"instances": 120},
    "subset-argmax": {"instances": 60},
    "hill-climb": {"instances": 60},
    "ml-enum": {"instances": 40},
    "posterior-uniformity": {"trials": 2_000},
    "chernoff-dominance": {"samples": 1_000},
}
# sha256 of every call below at seeds 0 and 1, computed before the suites
# shared _draw_instance and _subset_pair
ORACLE_ARG_FINGERPRINT = "e457e0c08e0ae220ed8485a0c1355a77d585fee4cd44477b2193f1fcb9f4983c"


def _canon(x):
    """A form of a suite's argument whose repr pins its value."""
    if isinstance(x, TestDesign):
        return ("design", x.n, x.T, tuple(tuple(x.col(i).tolist()) for i in range(1, x.n + 1)))
    if isinstance(x, DefectiveSet):
        return ("set", x.n, x.members)
    if isinstance(x, np.ndarray):
        return tuple(x.tolist())
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_canon(getattr(x, f.name)) for f in dataclasses.fields(x))
    if callable(x):
        return x.__name__
    if isinstance(x, np.generic):
        return x.item()
    return x


def test_oracle_suite_arguments_are_pinned(monkeypatch):
    # every argument the six suites hand a reference or a fast path, in call
    # order, with each suite's report: the suites must visit the same
    # instances, which passing reports alone cannot show
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(repr((name, _canon(args), sorted((k, _canon(v)) for k, v in kwargs.items()))))
            return fn(*args, **kwargs)

        return wrapped

    for name in ORACLE_FAST_PATHS:
        monkeypatch.setattr(pooltest.oracle, name, recording(name, getattr(pooltest.oracle, name)))
    for name, fn in inspect.getmembers(pooltest.reference, inspect.isfunction):
        if fn.__module__ == "pooltest.reference":
            monkeypatch.setattr(pooltest.reference, name, recording("reference." + name, fn))
    for seed in (0, 1):
        for suite, sizes in ORACLE_ARG_SIZES.items():
            calls.append(oracle_check(suite, seed=seed, **sizes).report())
    assert len(calls) == 22046
    assert hashlib.sha256("\n".join(calls).encode()).hexdigest() == ORACLE_ARG_FINGERPRINT


def _drop_last(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs)[:-1]


def _shifted(fn):
    return lambda *args, **kwargs: tuple(i + 1 for i in fn(*args, **kwargs))


@pytest.mark.parametrize(
    "suite, name, break_it",
    [
        ("explained-naive", "comp_decode", _drop_last),
        ("subset-argmax", "subset_decode", _shifted),
        ("hill-climb", "subset_decode", _shifted),
        ("ml-enum", "ml_oracle", _shifted),
    ],
)
def test_oracle_suites_fail_a_broken_fast_path(monkeypatch, suite, name, break_it):
    assert oracle_check(suite, seed=3, instances=12).passed
    monkeypatch.setattr(pooltest.oracle, name, break_it(getattr(pooltest.oracle, name)))
    res = oracle_check(suite, seed=3, instances=12)
    assert res.report().startswith(f"[FAIL] {suite}: 12 checks, 12 failures")
