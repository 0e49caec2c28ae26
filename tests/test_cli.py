import csv
import hashlib
import subprocess
import sys

import numpy as np
import pytest

from pooltest.cli import main
from pooltest.design import DesignSpec, load_design, ncc_design, save_design
from pooltest.harness import ExperimentConfig, run_experiment, write_trials_csv
from pooltest.metrics import Criterion
from pooltest.metrics import tests_for_rate as minimal_tests
from pooltest.model import k_from_theta


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


def test_gen_design_rejects_zero_k(tmp_path):
    r = run_cli("gen-design", "--n", 30, "--k", 0, "--tests", 20, "--out", tmp_path / "x.txt")
    assert r.returncode == 1
    assert "error: bernoulli design needs k >= 1" in r.stderr
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
    "dd-iid": (
        "--n", 120, "--k", 6, "--tests", 60, "--decoder", "dd", "--prior", "iid", "--q", 0.05,
    ),
}
MASKING_ARGS = (
    "--n", 200, "--theta", 0.5, "--rates", "0.5,0.9", "--design", "ncc", "--trials", 15,
    "--seed", 4,
)
CSV_FINGERPRINTS = {
    "comp-bernoulli": "8af988ce971333fc6187cf885bf85a1752f05af8a2039cc8cd3e788123831605",
    "dd-iid": "9e21e959f5ec87221e221836c705f1be7b63decc89ebb3ceb552940bbde3dea1",
    "dd-ncc": "17623ac0bcb84dbe4f179f04200fbda8887910da9274a6ad474864a50e19b437",
    "masking": "b9f8ca1172ab665df3af1e248277fe84a30f37f2ef51f2993548ac0a5b968fc0",
    "ml-bernoulli": "77c35cca6d7b97cb1e47400fb3fedf2b71205c75fa408003f37b74d0b3808ef9",
    "pipeline-comp-ncc": "2cb0f8a94bacec2d5dcba39975d33673f7b923e0ed6af5b914645fedc7e2dc8f",
    "pipeline-dd-bernoulli": "e566ebcbb36a85c80e13ce0cce3e908f2be3881256e2fc5372b01abfbb9ec540",
    "pipeline-subset-hill-climb": "50816573ce1118acc19a0c0fd577e3a93b2483a40805439f81b2f02f00355f9d",
    "pipeline-subset-ncc": "72e1850488274dc81a3ef4aadd64932e93a40c4984694bc91f6dab571e3c4796",
    "subset-ncc": "2c692f87be4b3191d7d0a5be5b9bc8844a4af49337156ef4dc0d21bce11c5166",
}


def _csv_sha256(tmp_path, command, args) -> str:
    out = tmp_path / f"{command}.csv"
    assert main([command, *map(str, args), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CSV_FINGERPRINTS))
def test_csv_fingerprint(name, tmp_path):
    if name == "masking":
        got = _csv_sha256(tmp_path, "masking", MASKING_ARGS)
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
