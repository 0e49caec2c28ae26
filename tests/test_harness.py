import csv
import warnings
from dataclasses import replace

import pytest

import pooltest.design
from pooltest.analysis import masking_report
from pooltest.decode import deletion_pipeline
from pooltest.design import DesignSpec, ncc_design, save_design
from pooltest.errors import ParameterError, RefusalBudgetError
from pooltest.harness import (
    TAG_DESIGN,
    TAG_PRIOR,
    TAG_TRIAL,
    TRIAL_CSV_HEADER,
    ExperimentConfig,
    masking_sweep,
    oracle_check,
    run_experiment,
    trial_seed,
    wilson_interval,
    write_masking_csv,
    write_trials_csv,
)
from pooltest.metrics import Criterion, evaluate
from pooltest.metrics import tests_for_rate as minimal_tests
from pooltest.model import k_from_theta


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
    with pytest.raises(ParameterError, match="unknown decoder"):
        small_config(decoder="guess")


def test_config_pipeline_needs_alpha():
    with pytest.raises(ParameterError, match="needs alpha"):
        small_config(decoder="pipeline")
    small_config(decoder="pipeline", alpha=0.1)


def test_config_checks_pipeline_arguments():
    # bad pipeline arguments fail when the config is made, before any trial
    for bad in (dict(alpha=1.0), dict(alpha=0.1, xi=0.2), dict(alpha=0.1, inner="ml")):
        with pytest.raises(ParameterError):
            small_config(decoder="pipeline", **bad)
    with pytest.raises(ParameterError, match="pads dd"):
        small_config(decoder="pipeline", alpha=0.1, inner="subset", frontend="ml")


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
    for decoder in (dict(), dict(decoder="pipeline", alpha=0.1, inner="subset")):
        paths = []
        for idx, workers in enumerate((1, 3)):
            summ = run_experiment(small_config(workers=workers, **decoder))
            p = tmp_path / f"w{idx}.csv"
            write_trials_csv(summ.records, p, record_sets=True)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


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
    write_trials_csv(summ.records, p, record_sets=True)
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


def test_masking_sweep_is_deterministic():
    kw = dict(n=80, theta=0.5, rate_grid=(0.5,), design=DesignSpec("ncc"), trials=20,
              master_seed=9)
    assert masking_sweep(**kw) == masking_sweep(**kw)


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
    with pytest.raises(ParameterError, match="unknown suite"):
        oracle_check("never-heard-of-it")


def test_oracle_suites_pass_at_reduced_sizes():
    res = oracle_check("explained-naive", seed=3, instances=40)
    assert res.passed and res.failures == 0 and res.checked == 40
    assert res.report().startswith("[PASS] explained-naive: 40 checks")
    res = oracle_check("subset-argmax", seed=3, instances=12)
    assert res.passed
    res = oracle_check("ml-enum", seed=3, instances=12)
    assert res.passed
    res = oracle_check("posterior-uniformity", seed=3, trials=30_000)
    assert res.passed
    res = oracle_check("chernoff-dominance", seed=3, samples=20_000)
    assert res.checked == 500
    assert res.passed == (res.failures == 0)
