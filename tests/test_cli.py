import csv
import dataclasses
import hashlib
import re
import subprocess
import sys

import numpy as np
import pytest

from pooltest.cli import main
from pooltest.decode import _DECODER_NAMES, _PIPELINE_INNER, SubsetParams, deletion_pipeline
from pooltest.design import DesignSpec, load_design, ncc_design, save_design
from pooltest.harness import ExperimentConfig, run_experiment, write_trials_csv
from pooltest.errors import ParameterError
from pooltest.metrics import _CRITERION_KINDS, Criterion
from pooltest.metrics import tests_for_rate as minimal_tests
from pooltest.model import _PRIOR_KINDS, PriorSpec, k_from_theta
from pooltest.oracle import ORACLE_SUITES, oracle_check


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "pooltest", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# ---------------------------------------------------------------------------
# gen-design


def test_gen_design_writes_a_loadable_file(tmp_path):
    out = tmp_path / "design.txt"
    r = run_cli("gen-design", "--n", 40, "--k", 4, "--tests", 25, "--out", out)
    assert r.returncode == 0, r.stderr
    d = load_design(out)
    assert d.n == 40 and d.T == 25


def test_gen_design_theta_and_rate(tmp_path):
    out = tmp_path / "design.txt"
    r = run_cli(
        "gen-design", "--n", 100, "--theta", 0.5, "--rate", 0.7,
        "--design", "ncc", "--seed", 3, "--out", out,
    )
    assert r.returncode == 0, r.stderr
    d = load_design(out)
    assert d.n == 100


def test_gen_design_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        r = run_cli("gen-design", "--n", 30, "--k", 3, "--tests", 20, "--seed", 11, "--out", out)
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_design_rejects_conflicting_sizes(tmp_path):
    r = run_cli(
        "gen-design", "--n", 30, "--k", 3, "--theta", 0.5, "--tests", 20,
        "--out", tmp_path / "x.txt",
    )
    assert r.returncode == 2  # argparse exclusivity error


def test_gen_design_parameter_error_is_exit_1(tmp_path):
    r = run_cli(
        "gen-design", "--n", 30, "--k", 3, "--tests", 20, "--p", 1.5,
        "--out", tmp_path / "x.txt",
    )
    assert r.returncode == 1
    assert "error" in r.stderr.lower()


# gen-design reads its shape by the rule simulate's config reads, in the same words
SHAPES = {
    "k-above-n": (("--n", "10", "--k", "20", "--tests", "5"), "need 1 <= k <= 10, got 20"),
    "k-above-n-rate": (("--n", "10", "--k", "20", "--rate", "0.5"), "need 1 <= k <= 10, got 20"),
    "no-k": (("--n", "10", "--tests", "5"), "exactly one of k and theta must be given"),
    "no-tests": (("--n", "10", "--k", "2"), "exactly one of T and target_rate must be given"),
    "no-n": (("--k", "2", "--tests", "5"), "need n >= 1, got None"),
}


@pytest.mark.parametrize("command", ["gen-design", "simulate"])
@pytest.mark.parametrize("shape", SHAPES)
def test_gen_design_and_simulate_refuse_a_shape_alike(command, shape, tmp_path, capsys):
    argv, message = SHAPES[shape]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_design_rejects_zero_k(tmp_path):
    r = run_cli("gen-design", "--n", 30, "--k", 0, "--tests", 20, "--out", tmp_path / "x.txt")
    assert r.returncode == 1
    assert "error: need 1 <= k <= 30, got 0" in r.stderr
    assert "Traceback" not in r.stderr


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_summary(tmp_path):
    out = tmp_path / "trials.csv"
    r = run_cli(
        "simulate", "--n", 60, "--k", 4, "--tests", 30, "--decoder", "dd",
        "--criterion", "subset", "--trials", 20, "--out", out,
    )
    assert r.returncode == 0, r.stderr
    assert "p_error" in r.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert rows[0]["decoder"] == "dd"


def test_simulate_stdout_default(tmp_path):
    r = run_cli(
        "simulate", "--n", 40, "--k", 3, "--tests", 25, "--trials", 5,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0].startswith("trial,seed,n,k,T")


def test_simulate_byte_determinism_across_workers(tmp_path):
    outs = []
    for idx, workers in enumerate((1, 2)):
        out = tmp_path / f"t{idx}.csv"
        r = run_cli(
            "simulate", "--n", 60, "--k", 4, "--tests", 30, "--trials", 16,
            "--workers", workers, "--seed", 7, "--out", out,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_refusal_budget_is_exit_3(tmp_path):
    out = tmp_path / "trials.csv"
    r = run_cli(
        "simulate", "--n", 60, "--k", 4, "--tests", 30, "--decoder", "subset",
        "--eta-minus", 0.25, "--family-cap", 1, "--trials", 10, "--out", out,
    )
    assert r.returncode == 3
    # the CSV still lands on disk with the refusals marked
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(row["success"] == "refused" for row in rows)


def test_simulate_pipeline_decoder(tmp_path):
    out = tmp_path / "trials.csv"
    r = run_cli(
        "simulate", "--n", 80, "--k", 4, "--tests", 60, "--decoder", "pipeline",
        "--alpha", 0.1, "--criterion", "two-sided", "--beta", 2.0,
        "--trials", 6, "--out", out,
    )
    assert r.returncode == 0, r.stderr


def test_simulate_pipeline_follows_eta_minus(tmp_path):
    # --eta-minus sets the pipeline's subset search whatever the criterion
    args = (
        "--n", 120, "--k", 6, "--tests", 60, "--decoder", "pipeline", "--alpha", 0.1,
        "--inner", "subset", "--criterion", "exact", "--trials", 20, "--seed", 3,
    )
    outs = {}
    for eta in (0.1, 0.3):
        out = tmp_path / f"cli_{eta}.csv"
        assert main(["simulate", *map(str, args), "--eta-minus", str(eta), "--out", str(out)]) == 0
        summary = run_experiment(
            ExperimentConfig(
                n=120, k=6, T=60, design=DesignSpec("bernoulli"), decoder="pipeline",
                alpha=0.1, inner="subset", criterion=Criterion.exact(), trials=20,
                master_seed=3, eta_minus=eta,
            )
        )
        expect = tmp_path / f"lib_{eta}.csv"
        write_trials_csv(summary.records, expect)
        assert out.read_bytes() == expect.read_bytes()
        outs[eta] = out.read_bytes()
    assert outs[0.1] != outs[0.3]


def test_simulate_explicit_design_file(tmp_path):
    dpath = tmp_path / "d.txt"
    r = run_cli("gen-design", "--n", 50, "--k", 4, "--tests", 35, "--seed", 2, "--out", dpath)
    assert r.returncode == 0
    out = tmp_path / "trials.csv"
    r = run_cli(
        "simulate", "--n", 50, "--k", 4, "--tests", 35, "--design", f"file:{dpath}",
        "--trials", 5, "--out", out,
    )
    assert r.returncode == 0, r.stderr


def test_simulate_pipeline_rejects_explicit_design_file(tmp_path):
    dpath = tmp_path / "d.txt"
    r = run_cli("gen-design", "--n", 400, "--k", 8, "--tests", 120, "--seed", 2, "--out", dpath)
    assert r.returncode == 0
    r = run_cli(
        "simulate", "--n", 400, "--k", 8, "--tests", 120, "--design", f"file:{dpath}",
        "--decoder", "pipeline", "--alpha", 0.1, "--trials", 5,
    )
    assert r.returncode == 1
    assert "draws its own design over the kept items" in r.stderr


def test_simulate_pipeline_rejects_ml_frontend():
    r = run_cli(
        "simulate", "--n", 120, "--k", 6, "--tests", 60, "--decoder", "pipeline",
        "--alpha", 0.1, "--inner", "subset", "--frontend", "ml", "--trials", 5,
    )
    assert r.returncode == 1
    assert "the pipeline's search pads dd" in r.stderr


def test_simulate_refuses_a_pipeline_search_larger_than_k_mid(capsys, tmp_path):
    # alpha 0.2 keeps k_mid = 8 of k = 10, fewer than the floor(0.95 * 10) = 9 to find
    out = tmp_path / "trials.csv"
    args = (
        "--n", 500, "--k", 10, "--tests", 120, "--decoder", "pipeline", "--alpha", 0.2,
        "--inner", "subset", "--criterion", "subset", "--eta-minus", 0.05, "--out", out,
    )
    assert main(["simulate", *map(str, args)]) == 1
    assert "leaves k_mid = 8 of the k = 10 defectives" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("prior", ["iid", "iid-trim", "iid-pad"])
def test_simulate_rejects_ml_frontend_under_a_prior_of_varying_size(prior, tmp_path, capsys):
    # iid-pad needs k above (ln n)^2 for a positive density, so every prior is valid at this shape
    argv = (
        "simulate", "--n", "200", "--k", "40", "--tests", "60", "--decoder", "subset",
        "--frontend", "ml", "--prior", prior, "--trials", "5", "--out", str(tmp_path / "out.csv"),
    )
    assert main(list(argv)) == 1
    err = capsys.readouterr().err
    assert f"error: frontend 'ml' needs the defective count exactly, so a search under the {prior} prior" in err


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds_with_theta_list(tmp_path):
    out = tmp_path / "curve.csv"
    r = run_cli("thresholds", "--thetas", "0.2,0.45,0.8", "--out", out)
    assert r.returncode == 0, r.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(x["theta"]) for x in rows] == [0.2, 0.45, 0.8]
    assert float(rows[0]["zeta"]) == 1.0
    assert float(rows[2]["zeta"]) < float(rows[1]["zeta"]) < 1.0


def test_thresholds_with_grid(tmp_path):
    out = tmp_path / "curve.csv"
    r = run_cli("thresholds", "--grid", "0.1:0.9:5", "--out", out)
    assert r.returncode == 0, r.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert float(rows[0]["theta"]) == 0.1
    assert float(rows[-1]["theta"]) == 0.9


@pytest.mark.parametrize("grid", ["0.1:0.9:0", "0.1:0.9:-2"])
def test_thresholds_rejects_a_grid_without_points(grid, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["thresholds", "--grid", grid, "--out", str(out)]) == 1
    assert f"error: --grid wants START:STOP:COUNT, COUNT >= 1, got '{grid}'" in capsys.readouterr().err
    assert not out.exists()


def test_thresholds_needs_a_theta_source(tmp_path):
    r = run_cli("thresholds", "--out", tmp_path / "x.csv")
    assert r.returncode != 0


def test_thresholds_rejects_a_bad_theta(tmp_path):
    r = run_cli("thresholds", "--thetas", "0.3,abc", "--out", tmp_path / "x.csv")
    assert r.returncode == 1
    assert "error: --thetas wants comma-separated numbers, got '0.3,abc'" in r.stderr
    assert "Traceback" not in r.stderr


# ---------------------------------------------------------------------------
# masking


def test_masking_subcommand(tmp_path):
    out = tmp_path / "masking.csv"
    r = run_cli(
        "masking", "--n", 100, "--theta", 0.5, "--rates", "0.4,0.8",
        "--trials", 15, "--out", out,
    )
    assert r.returncode == 0, r.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert int(rows[0]["tests"]) > int(rows[1]["tests"])


@pytest.mark.parametrize("trials", [0, -1])
def test_masking_rejects_a_trial_count_below_one(trials, tmp_path, capsys):
    argv = ["masking", "--n", "100", "--theta", "0.5", "--rates", "0.5", "--trials", str(trials)]
    assert main([*argv, "--out", str(tmp_path / "m.csv")]) == 1
    assert f"error: need trials >= 1, got {trials}" in capsys.readouterr().err


def test_masking_rejects_a_bad_rate(tmp_path):
    r = run_cli("masking", "--n", 100, "--theta", 0.5, "--rates", "0.5,x", "--out", tmp_path / "m.csv")
    assert r.returncode == 1
    assert "error: --rates wants comma-separated numbers, got '0.5,x'" in r.stderr
    assert "Traceback" not in r.stderr


_SIM = ("simulate", "--n", "100", "--k", "5", "--tests", "30", "--trials", "20")


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            (*_SIM, "--criterion", "two-sided", "--beta", "nan"), "need beta >= 0, got nan",
            id="beta-nan",
        ),
        pytest.param(
            (*_SIM, "--criterion", "asymmetric", "--alpha-fn", "nan"),
            "need alpha_fn >= 0, got nan",
            id="alpha-fn-nan",
        ),
        pytest.param(
            (*_SIM, "--decoder", "subset", "--criterion", "subset", "--eta-minus", "0.4",
             "--radius-mult", "nan"),
            "need radius_mult > 0, got nan",
            id="radius-mult-nan",
        ),
        pytest.param(
            ("simulate", "--n", "100", "--k", "5", "--rate", "nan"),
            "need target_rate > 0, got nan",
            id="rate-nan",
        ),
        pytest.param(
            ("masking", "--n", "100", "--theta", "0.5", "--rates", "nan"),
            "need target_rate > 0, got nan",
            id="masking-rates-nan",
        ),
        pytest.param(
            (*_SIM, "--criterion", "subset", "--eta-minus", "nan"),
            "need 0 <= eta_minus < 1, got nan",
            id="eta-minus-nan",
        ),
        pytest.param(
            (*_SIM, "--decoder", "comp", "--criterion", "superset", "--eta-plus", "nan"),
            "need eta_plus >= 0, got nan",
            id="eta-plus-nan",
        ),
        pytest.param(
            (*_SIM, "--decoder", "pipeline", "--alpha", "0.1", "--xi", "nan"),
            "need 0 <= xi <= 0.1, got nan",
            id="xi-nan",
        ),
        pytest.param(
            (*_SIM, "--decoder", "subset", "--radius-mult", "inf"),
            "need radius_mult > 0, got inf",
            id="radius-mult-inf",
        ),
        pytest.param(
            (*_SIM, "--design", "ncc", "--nu", "nan"), "need nu > 0, got nan", id="ncc-nu-nan"
        ),
    ],
)
def test_non_finite_numbers_are_exit_1(argv, message, tmp_path, capsys):
    # a range check written as x < lo lets NaN through, to a p_error of 1 or a traceback
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    assert f"error: {message}" in capsys.readouterr().err


# one value per slack field, each given to simulate by its own option
_SLACK = {"eta_minus": 0.2, "eta_plus": 0.3, "beta": 0.25, "alpha_fn": 0.4, "alpha_fp": 0.05}
_SLACK_BOUND = {f: "0 <= eta_minus < 1" if f == "eta_minus" else f"{f} >= 0" for f in _SLACK}
_FACTORIES = {
    "exact": lambda s: Criterion.exact(),
    "subset": lambda s: Criterion.subset(s["eta_minus"]),
    "superset": lambda s: Criterion.superset(s["eta_plus"]),
    "two-sided": lambda s: Criterion.two_sided(s["beta"]),
    "asymmetric": lambda s: Criterion.asymmetric(s["alpha_fn"], s["alpha_fp"]),
}


@pytest.mark.parametrize("kind", _CRITERION_KINDS)
def test_simulate_builds_the_factory_criterion(kind, tmp_path, monkeypatch):
    built = []

    def spy(cfg):
        built.append(cfg.criterion)
        return run_experiment(cfg)

    monkeypatch.setattr("pooltest.cli.run_experiment", spy)
    flags = [x for f, v in _SLACK.items() for x in ("--" + f.replace("_", "-"), str(v))]
    out = tmp_path / "t.csv"
    assert main([*_SIM, "--criterion", kind, *flags, "--out", str(out)]) == 0
    want = _FACTORIES[kind](_SLACK)
    assert built == [want]
    with open(out, newline="") as fh:
        assert {row["criterion"] for row in csv.DictReader(fh)} == {want.label()}


@pytest.mark.parametrize("kind", _CRITERION_KINDS)
def test_criterion_refuses_a_missing_or_negative_slack(kind, tmp_path, capsys):
    want = _FACTORIES[kind](_SLACK)
    fields = [f for f in _SLACK if getattr(want, f) is not None]
    for field in fields:
        for bad in (None, -0.5):
            message = f"need {_SLACK_BOUND[field]}, got {bad}"
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(want, **{field: bad})
        argv = [*_SIM, "--criterion", kind, "--" + field.replace("_", "-"), "-0.5"]
        assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 1
        assert f"error: need {_SLACK_BOUND[field]}, got -0.5" in capsys.readouterr().err
    if not fields:
        assert Criterion(kind) == want


@pytest.mark.parametrize("case", ["config", "design-file", "out"])
def test_unusable_files_are_exit_1(case, tmp_path):
    missing = tmp_path / "missing" / "x"
    args = ["simulate", "--n", 20, "--k", 2, "--tests", 10, "--trials", 2]
    if case == "config":
        args += ["--config", missing]
    elif case == "design-file":
        args += ["--design", f"file:{missing}"]
    else:
        args += ["--out", missing]
    r = run_cli(*args)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and str(missing) in r.stderr
    assert "Traceback" not in r.stderr


# every choice reader, each refusing a value in require_choice's one wording;
# all but the suite are reached past argparse's choices by a config-file line,
# with the flags that reach the reader
CHOICE_READERS = {
    "design": (lambda v: DesignSpec(v), ("bernoulli", "ncc", "explicit"), ()),
    "decoder": (
        lambda v: ExperimentConfig(
            n=20, k=2, T=10, design=DesignSpec("bernoulli"), decoder=v, criterion=Criterion.exact(), trials=2
        ),
        _DECODER_NAMES,
        (),
    ),
    "frontend": (lambda v: SubsetParams(0.1, frontend=v), ("dd-pad", "ml", "provided"), ()),
    "inner": (
        lambda v: deletion_pipeline(DesignSpec("bernoulli"), 100, 5, 40, alpha=0.1, inner=v),
        _PIPELINE_INNER,
        ("--decoder", "pipeline", "--alpha", "0.1"),
    ),
    "criterion": (lambda v: Criterion(v), _CRITERION_KINDS, ()),
    "prior": (lambda v: PriorSpec(v, k=2), _PRIOR_KINDS, ()),
    "suite": (lambda v: oracle_check(v), sorted(ORACLE_SUITES), None),
}


@pytest.mark.parametrize("name", CHOICE_READERS)
def test_every_choice_is_refused_in_one_wording(name, tmp_path, capsys):
    call, choices, flags = CHOICE_READERS[name]
    value = "ml" if name == "inner" else "nope"
    message = f"need {name} in {{{', '.join(choices)}}}, got '{value}'"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(value)
    if flags is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        assert main([*_SIM, *flags, "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passing_suite():
    r = run_cli("oracle-check", "--suite", "explained-naive", "--seed", 1)
    assert r.returncode == 0, r.stderr
    assert "[PASS] explained-naive" in r.stdout


def test_oracle_check_unknown_suite():
    r = run_cli("oracle-check", "--suite", "bogus")
    assert r.returncode == 2  # argparse choice error


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# experiment setup\n"
        "n = 60\n"
        "k = 4\n"
        "tests = 30\n"
        "trials = 8\n"
        "decoder = dd\n"
    )
    out = tmp_path / "trials.csv"
    r = run_cli("simulate", "--config", cfg, "--out", out)
    assert r.returncode == 0, r.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert rows[0]["n"] == "60"


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 60\nk = 4\ntests = 30\ntrials = 8\n")
    out = tmp_path / "trials.csv"
    r = run_cli("simulate", "--config", cfg, "--trials", 3, "--out", out)
    assert r.returncode == 0, r.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3


def test_config_file_dashed_keys(tmp_path):
    # keys may use dashes or underscores interchangeably
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 60\nk = 4\ntests = 30\ntrials = 4\ndecoder = subset\neta-minus = 0.25\n")
    out = tmp_path / "trials.csv"
    r = run_cli("simulate", "--config", cfg, "--out", out)
    assert r.returncode == 0, r.stderr


def test_config_file_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n 60\n")
    r = run_cli("simulate", "--config", cfg)
    assert r.returncode == 1


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 60\nk = 4\ntests = 30\ntrials = 4\neta_minsu = 0.3\n")
    r = run_cli("simulate", "--config", cfg)
    assert r.returncode == 1
    assert f"error: {cfg}:5: unknown key 'eta_minsu'" in r.stderr


def test_config_file_rejects_an_unknown_criterion(tmp_path):
    # a config value is not checked against --criterion's choices; Criterion refuses it
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("criterion = foo\n")
    r = run_cli(*_SIM, "--config", cfg, "--out", tmp_path / "t.csv")
    assert r.returncode == 1
    assert "error: need criterion in {exact, subset, superset, two-sided, asymmetric}, got 'foo'" in r.stderr
    assert "Traceback" not in r.stderr


def test_config_file_keeps_keys_of_other_subcommands(tmp_path):
    # rates and suite belong to masking and oracle-check; a shared file may hold them
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 60\nk = 4\ntests = 30\ntrials = 4\nrates = 0.5\nsuite = ml-enum\n")
    r = run_cli("simulate", "--config", cfg, "--out", tmp_path / "t.csv")
    assert r.returncode == 0, r.stderr


def test_config_file_rejects_bad_numbers(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 60\nk = 4\ntests = 30\ntrials = abc\n")
    r = run_cli("simulate", "--config", cfg)
    assert r.returncode == 1
    assert f"error: {cfg}:4: trials wants int, got 'abc'" in r.stderr
    assert "Traceback" not in r.stderr


def test_config_file_switch_values(tmp_path):
    cfg = tmp_path / "sim.cfg"
    out = tmp_path / "trials.csv"
    for raw, columns in [("TRUE", True), ("on", True), ("0", False), ("Off", False)]:
        cfg.write_text(f"n = 20\nk = 2\ntests = 10\ntrials = 2\nrecord_sets = {raw}\n")
        r = run_cli("simulate", "--config", cfg, "--out", out)
        assert r.returncode == 0, r.stderr
        assert ("true_set" in out.read_text().splitlines()[0]) == columns
    cfg.write_text("n = 20\nk = 2\ntests = 10\ntrials = 2\nrecord_sets = ture\n")
    r = run_cli("simulate", "--config", cfg, "--out", out)
    assert r.returncode == 1
    assert f"error: {cfg}:5: record_sets wants true or false, got 'ture'" in r.stderr


# ---------------------------------------------------------------------------
# start-up cost


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats takes about a second to import and only the posterior
    # uniformity check needs it, so it is imported there, on first use
    code = "import sys, pooltest.cli, pooltest.harness; print('scipy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


_LAZY_MODULES = ("multiprocessing", "concurrent.futures.process", "pooltest.reference")
_ONE_WORKER_RUNS = f"""
import sys
from dataclasses import replace
from pooltest import Criterion, DesignSpec, ExperimentConfig, masking_sweep, oracle_check, run_experiment
from pooltest.cli import main

lazy = {_LAZY_MODULES!r}
cfg = ExperimentConfig(
    n=60, k=4, T=30, design=DesignSpec("bernoulli"), decoder="dd", criterion=Criterion.exact(), trials=5
)
one = run_experiment(cfg)
masking_sweep(80, 0.5, [0.6], DesignSpec("ncc"), 5)
argv = ["simulate", "--n", "60", "--k", "4", "--tests", "30", "--trials", "5", "--workers", "1"]
assert main(argv + ["--out", sys.argv[1]]) == 0
after_one_worker = [m for m in lazy if m in sys.modules]
assert oracle_check("explained-naive", 0, instances=5).passed
two = run_experiment(replace(cfg, workers=2))
assert [replace(r, elapsed_us=0) for r in two.records] == [replace(r, elapsed_us=0) for r in one.records]
print(after_one_worker)
print([m for m in lazy if m in sys.modules])
"""


def test_one_worker_runs_leave_the_pool_and_the_references_unloaded(tmp_path):
    # multiprocessing takes about 2 MB and 20-30 ms to import, and no run
    # needs it: a multi-worker run forks its workers through os.fork. The slow
    # reference implementations serve only the oracle suites, so they are
    # imported only once an oracle suite runs
    out = tmp_path / "one.csv"
    r = subprocess.run([sys.executable, "-c", _ONE_WORKER_RUNS, str(out)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-2:] == ["[]", "['pooltest.reference']"]


# ---------------------------------------------------------------------------
# fingerprints: simulate and masking CSVs, pinned byte for byte

CSV_FINGERPRINT_NUMPY = "2.4.6"  # the numpy version the pinned hashes were made with
_SIMULATE_COMMON = ("--trials", 20, "--seed", 3, "--record-sets")
SIMULATE_GRID = {
    "comp-bernoulli": (
        "--n", 120, "--k", 6, "--tests", 60, "--decoder", "comp", "--criterion", "superset",
    ),
    "dd-ncc": ("--n", 120, "--k", 6, "--tests", 60, "--decoder", "dd", "--design", "ncc"),
    "ml-bernoulli": ("--n", 24, "--k", 3, "--tests", 16, "--decoder", "ml"),
    "subset-ml-bernoulli": (
        "--n", 24, "--k", 3, "--tests", 16, "--decoder", "subset", "--frontend", "ml",
        "--criterion", "subset", "--eta-minus", 0.4,
    ),
    "subset-ncc": (
        "--n", 60, "--k", 4, "--tests", 40, "--decoder", "subset", "--design", "ncc",
        "--criterion", "subset", "--eta-minus", 0.25,
    ),
    "pipeline-dd-bernoulli": (
        "--n", 120, "--k", 6, "--tests", 60, "--decoder", "pipeline", "--alpha", 0.1,
        "--inner", "dd", "--criterion", "two-sided", "--beta", 2.0,
    ),
    "pipeline-subset-ncc": (
        "--n", 120, "--k", 6, "--tests", 60, "--decoder", "pipeline", "--alpha", 0.1,
        "--inner", "subset", "--design", "ncc", "--criterion", "subset", "--eta-minus", 0.2,
    ),
    "pipeline-comp-ncc": (
        "--n", 120, "--k", 6, "--tests", 60, "--decoder", "pipeline", "--alpha", 0.1,
        "--inner", "comp", "--design", "ncc", "--criterion", "superset",
    ),
    "pipeline-subset-hill-climb": (
        "--n", 200, "--k", 6, "--tests", 60, "--decoder", "pipeline", "--alpha", 0.1,
        "--inner", "subset", "--criterion", "subset", "--eta-minus", 0.4, "--family-cap", 50,
        "--hill-climb",
    ),
    # the route that read p_error = 1 while the search was sized from k_mid
    "pipeline-subset-reproducer": (
        "--n", 500, "--k", 10, "--tests", 120, "--decoder", "pipeline", "--alpha", 0.1,
        "--inner", "subset", "--criterion", "subset", "--eta-minus", 0.2,
    ),
    "dd-iid": (
        "--n", 120, "--k", 6, "--tests", 60, "--decoder", "dd", "--prior", "iid", "--q", 0.05,
    ),
}
MASKING_ARGS = (
    "--n", 200, "--theta", 0.5, "--rates", "0.5,0.9", "--design", "ncc", "--trials", 15,
    "--seed", 4,
)
MASKING_GRID = {
    "masking": MASKING_ARGS,
    "masking-bernoulli": tuple("bernoulli" if a == "ncc" else a for a in MASKING_ARGS),
}
CSV_FINGERPRINTS = {
    "comp-bernoulli": "1e7e318ebbda394fe34d25c9e14eec31b00e43059136146a4c1a89f363d7a9e8",
    "dd-iid": "93d24b6b0a298431eb4aabbf5e91157cf28817b861cbb49dcb69f3754baadd67",
    "dd-ncc": "17623ac0bcb84dbe4f179f04200fbda8887910da9274a6ad474864a50e19b437",
    "masking": "b9f8ca1172ab665df3af1e248277fe84a30f37f2ef51f2993548ac0a5b968fc0",
    # hashed while the sweep still kept a trial loop of its own
    "masking-bernoulli": "d1cfa4f273c85059a2379f9d45fa3f607b671707f019debcbd3f24e2e488179d",
    "ml-bernoulli": "885f7961d661ff6bc535a195300171104ac6269111e9485b86137c6182fcf31c",
    "pipeline-comp-ncc": "2cb0f8a94bacec2d5dcba39975d33673f7b923e0ed6af5b914645fedc7e2dc8f",
    "pipeline-dd-bernoulli": "22c74e39cfcba0343b2389bf75ae61444c840219f733b8cd7d18cb2899b381c9",
    "pipeline-subset-hill-climb": "9b0c712ff462e047b28aac3180466ed157bb9a6b74a3abcd9f6aedb623c46d03",
    "pipeline-subset-ncc": "72e1850488274dc81a3ef4aadd64932e93a40c4984694bc91f6dab571e3c4796",
    "pipeline-subset-reproducer": "a2072503b57e43c87e037478a7ea57b1c60606f5c6ff4c8d78da2502c02af047",
    "subset-ml-bernoulli": "9941a36ab5130ac706a769192b8f5afe9a8918be2ca8cd50b62401ac0a084186",
    "subset-ncc": "2c692f87be4b3191d7d0a5be5b9bc8844a4af49337156ef4dc0d21bce11c5166",
}


def _option_values(option: str) -> set:
    return {args[args.index(option) + 1] for args in SIMULATE_GRID.values() if option in args}


def test_simulate_grid_covers_every_decoder():
    # a decoder added to the table gets a pinned CSV, and so does a pipeline inner decoder
    assert set(_DECODER_NAMES) <= _option_values("--decoder")
    assert set(_PIPELINE_INNER) <= _option_values("--inner")


def _csv_sha256(tmp_path, command, args) -> str:
    out = tmp_path / f"{command}.csv"
    assert main([command, *map(str, args), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CSV_FINGERPRINTS))
def test_csv_fingerprint(name, tmp_path):
    if name in MASKING_GRID:
        got = _csv_sha256(tmp_path, "masking", MASKING_GRID[name])
    else:
        got = _csv_sha256(tmp_path, "simulate", SIMULATE_GRID[name] + _SIMULATE_COMMON)
    assert got == CSV_FINGERPRINTS[name], (
        f"{name} CSV changed: sha256 {got}, pinned {CSV_FINGERPRINTS[name]} with numpy "
        f"{CSV_FINGERPRINT_NUMPY} (running numpy {np.__version__})"
    )


# hashed while the sweep still reloaded the design file on every trial
MASKING_EXPLICIT_FINGERPRINT = "1f61261396d74e4c047073dbb53cca86f96376d29aed227d424509f67ed09a8b"


def test_masking_explicit_csv_fingerprint(tmp_path):
    n, theta, rate = 200, 0.5, 0.7
    path = tmp_path / "design.txt"
    save_design(ncc_design(n, minimal_tests(n, k_from_theta(n, theta), rate), 3, 9), path)
    args = (
        "--n", n, "--theta", theta, "--rates", f"{rate},{rate}", "--design", f"file:{path}",
        "--trials", 15, "--seed", 4,
    )
    got = _csv_sha256(tmp_path, "masking", args)
    assert got == MASKING_EXPLICIT_FINGERPRINT, (
        f"explicit-design masking CSV changed: sha256 {got}, pinned with numpy "
        f"{CSV_FINGERPRINT_NUMPY} (running numpy {np.__version__})"
    )
