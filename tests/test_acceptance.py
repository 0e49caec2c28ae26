"""The acceptance gate.

Every test here backs one of the numbered criteria reported by conftest.py.
The randomized checks pin their seeds so a pass or fail is reproducible.
"""

import csv
import math
import subprocess
import sys
import time

import pytest

from pooltest.decode import comp_decode, dd_decode
from pooltest.design import DesignSpec, build_design
from pooltest.harness import ExperimentConfig, masking_sweep, run_experiment
from pooltest.metrics import THETA_KNEE, Criterion, log2_binomial, r_star, zeta
from pooltest.metrics import tests_for_rate as minimal_tests
from pooltest.model import PriorSpec, generate_outcomes, k_from_theta, sample_defectives
from pooltest.oracle import oracle_check
from pooltest.util import LN2, mix_seed, round_half_up


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pooltest", *map(str, args)],
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# C1 / C2: classification guarantees over a randomized sweep


@pytest.fixture(scope="module")
def guarantee_sweep():
    """1,000 randomized instances spanning n, design kind, and prior kind."""
    ns = (64, 128, 256, 512, 1024, 2048, 4096)
    thetas = (0.3, 0.5, 0.7)
    comp_failures = []
    dd_failures = []
    instances = 1000
    start = time.perf_counter()
    for j in range(instances):
        n = ns[j % len(ns)]
        k = k_from_theta(n, thetas[j % len(thetas)])
        T = minimal_tests(n, k, 1.0)
        spec = DesignSpec("bernoulli" if j % 2 == 0 else "ncc")
        d = build_design(spec, n, T, k, mix_seed(123, j))
        if (j // 2) % 2 == 0:
            prior = PriorSpec("combinatorial", k=k)
        else:
            prior = PriorSpec("iid", q=k / n)
        s = sample_defectives(prior, n, mix_seed(456, j))
        y = generate_outcomes(d, s)
        comp = set(comp_decode(d, y))
        dd = set(dd_decode(d, y))
        truth = set(s.members)
        if not truth <= comp:
            comp_failures.append(j)
        if not (dd <= truth and dd <= comp):
            dd_failures.append(j)
    elapsed = time.perf_counter() - start
    return {
        "instances": instances,
        "comp_failures": comp_failures,
        "dd_failures": dd_failures,
        "elapsed": elapsed,
    }


def test_comp_superset_guarantee(guarantee_sweep):
    assert guarantee_sweep["instances"] == 1000
    assert guarantee_sweep["comp_failures"] == []
    assert guarantee_sweep["elapsed"] < 10.0


def test_dd_subset_guarantee(guarantee_sweep):
    assert guarantee_sweep["instances"] == 1000
    assert guarantee_sweep["dd_failures"] == []
    assert guarantee_sweep["elapsed"] < 10.0


# ---------------------------------------------------------------------------
# C3 / C4 / C5 / C7: oracle suites at full pinned sizes


def test_subset_argmax_oracle_equivalence():
    start = time.perf_counter()
    res = oracle_check("subset-argmax", seed=0, instances=200)
    elapsed = time.perf_counter() - start
    assert res.checked == 200
    assert res.failures == 0, res.report()
    assert elapsed < 60.0


def test_structural_oracle_equivalence():
    res = oracle_check("explained-naive", seed=0, instances=500)
    assert res.checked == 500
    assert res.failures == 0, res.report()


def test_posterior_uniformity_at_full_size():
    res = oracle_check("posterior-uniformity", seed=0, trials=100_000)
    assert res.passed, res.report()


def test_chernoff_dominance_at_full_size():
    res = oracle_check("chernoff-dominance", seed=0, samples=100_000)
    assert res.checked == 500
    assert res.failures == 0, res.report()


# ---------------------------------------------------------------------------
# C6: threshold curve exactness


def test_threshold_curve_exactness():
    for theta in (0.1, 1.0 / 3.0, 0.409, 0.5, 0.7, 0.9):
        closed = min(1.0, LN2 * (1.0 - theta) / theta)
        assert abs(zeta(theta) - closed) <= 1e-12
        assert abs(r_star(theta) - max(closed, LN2)) <= 1e-12
    # the plateau ends exactly at the knee
    assert THETA_KNEE == pytest.approx(LN2 / (1.0 + LN2), abs=0)
    grid = [i / 1000.0 for i in range(1, 1000)]
    for theta in grid + [THETA_KNEE, THETA_KNEE - 1e-9, THETA_KNEE + 1e-9]:
        assert (zeta(theta) == 1.0) == (theta <= THETA_KNEE)


def test_threshold_csv_three_regimes(tmp_path):
    out = tmp_path / "curve.csv"
    r = run_cli("thresholds", "--grid", "0.05:0.95:181", "--out", out)
    assert r.returncode == 0, r.stderr
    with open(out, newline="") as fh:
        rows = [(float(x["theta"]), float(x["zeta"]), float(x["r_star"])) for x in csv.DictReader(fh)]
    assert len(rows) == 181
    plateau_one = [t for t, _, rs in rows if rs == 1.0]
    middle = [t for t, z, rs in rows if LN2 + 1e-9 < rs < 1.0 and abs(rs - z) < 1e-9]
    plateau_ln2 = [t for t, _, rs in rows if abs(rs - LN2) <= 1e-9]
    # all three regimes appear and partition the grid at the knee and 1/2
    assert plateau_one and middle and plateau_ln2
    assert len(plateau_one) + len(middle) + len(plateau_ln2) == len(rows)
    assert max(plateau_one) <= THETA_KNEE < min(middle)
    assert max(middle) < 0.5 <= min(plateau_ln2)


# ---------------------------------------------------------------------------
# C8: error-rate trend as the test budget grows


def _all_draws_positive(T, L, draws):
    """Chance that L uniform ncc draws all land in tests hit by ``draws`` other draws.

    Each test misses all ``draws`` draws with probability (1 - 1/T)^draws.
    """
    return (1.0 - (1.0 - 1.0 / T) ** draws) ** L


def expected_comp_fp(n, k, T):
    """First-moment false-positive count of comp on an ncc design.

    An innocent item survives comp iff each of its L = round(ln2 T / k)
    draws lands in a positive test:
    E[fp] = (n - k) (1 - (1 - 1/T)^(kL))^L.
    """
    L = round_half_up(LN2 * T / k)
    return (n - k) * _all_draws_positive(T, L, k * L)


def expected_masked_def(k, T):
    """First-moment masked-defective count on an ncc design.

    A defective is masked iff each of its L = round(ln2 T / k) draws
    lands in a test that holds another defective:
    E[masked_def] = k (1 - (1 - 1/T)^((k-1)L))^L.
    """
    L = round_half_up(LN2 * T / k)
    return k * _all_draws_positive(T, L, (k - 1) * L)


@pytest.fixture(scope="module")
def budget_trend():
    """Error rates for dd and comp at three test budgets, n=2^14, k=128.

    Each decoder is run at 0.8, 1.0 and 1.2 times its own base budget.

    dd's base is the asymptotic threshold k ln(n/k) / ln^2 2 (about 1293).

    comp's base carries the false-positive slack. With L = round(ln2 T / k),
    E[fp] = (n - k) (1 - (1 - 1/T)^(kL))^L, roughly (n - k) exp(-ln^2 2 T / k).
    Setting E[fp] equal to the allowance eta k gives
    T_eta = k ln((n - k) / (eta k)) / ln^2 2 (about 1904). The asymptotic
    threshold drops the k ln(1/eta) / ln^2 2 term of T_eta. That term only
    vanishes as n/k grows, and here it adds 47% to dd's base.

    Besides the error rates, comp's mean false-positive count per budget is
    returned as (T, mean_fp) pairs.
    """
    n, k, eta = 16384, 128, 0.1
    bases = {
        "dd": k * math.log(n / k) / (LN2 * LN2),
        "comp": k * math.log((n - k) / (eta * k)) / (LN2 * LN2),
    }
    results = {"n": n, "k": k, "comp_fp": []}
    start = time.perf_counter()
    for decoder, criterion in (("dd", Criterion.subset(eta)), ("comp", Criterion.superset(eta))):
        points = []
        for mult in (0.8, 1.0, 1.2):
            cfg = ExperimentConfig(
                n=n,
                design=DesignSpec("ncc"),
                decoder=decoder,
                criterion=criterion,
                trials=200,
                k=k,
                T=math.ceil(bases[decoder] * mult),
                master_seed=31,
            )
            summary = run_experiment(cfg)
            points.append(summary.p_error)
            if decoder == "comp":
                mean_fp = sum(r.false_positives for r in summary.records) / len(summary.records)
                results["comp_fp"].append((summary.T, mean_fp))
        results[decoder] = points
    results["elapsed"] = time.perf_counter() - start
    return results


def test_budget_trend_dd_subset(budget_trend):
    p = budget_trend["dd"]
    assert p[2] <= 0.1, f"dd error rate at the largest budget: {p}"
    assert p[0] >= p[1] >= p[2], f"dd error rates not monotone: {p}"
    assert budget_trend["elapsed"] < 300.0


def test_budget_trend_comp_superset(budget_trend):
    p = budget_trend["comp"]
    assert p[2] <= 0.1, f"comp error rate at the largest budget: {p}"
    assert p[0] >= p[1] >= p[2], f"comp error rates not monotone: {p}"
    n, k = budget_trend["n"], budget_trend["k"]
    for T, mean_fp in budget_trend["comp_fp"]:
        expected = expected_comp_fp(n, k, T)
        assert mean_fp == pytest.approx(expected, rel=0.05), (
            f"comp mean false positives at T={T}: {mean_fp} vs first moment {expected:.4g}"
        )
    assert budget_trend["elapsed"] < 300.0


# ---------------------------------------------------------------------------
# C9: masking as the rate crosses the dense-regime limit


MASKING_N, MASKING_THETA = 4096, 0.9
MASKING_K = k_from_theta(MASKING_N, MASKING_THETA)


def _masking_rows(rate_grid):
    return masking_sweep(
        n=MASKING_N,
        theta=MASKING_THETA,
        rate_grid=rate_grid,
        design=DesignSpec("ncc"),
        trials=200,
        master_seed=17,
    )


@pytest.fixture(scope="module")
def masking_rows():
    return _masking_rows((0.8 * LN2, 1.2 * LN2))


@pytest.fixture(scope="module")
def masking_rows_r1():
    """Masking at 0.8 R1 and 1.2 R1, the rates around one masked defective.

    A masked defective rules out exact recovery. With L = round(ln2 T / k),
    E[masked_def] = k (1 - (1 - 1/T)^((k-1)L))^L, roughly k exp(-ln^2 2 T / k).
    That is 1 at T1 = k ln k / ln^2 2, the rate R1 = log2 C(n, k) / T1. As
    n grows, R1 tends to zeta(theta) = ln2 (1 - theta) / theta, the
    dense-regime limit. At n = 4096, theta = 0.9 (k = 1783), R1 is about
    0.145. The frequency of a masked defective can move only near R1; at
    rates near ln2 every trial has hundreds of masked defectives.
    """
    r1 = log2_binomial(MASKING_N, MASKING_K) * LN2 * LN2 / (MASKING_K * math.log(MASKING_K))
    return _masking_rows((0.8 * r1, 1.2 * r1))


def test_masking_trend_defective_frequency(masking_rows_r1, masking_rows):
    low, high = masking_rows_r1
    assert high["freq_any_masked_def"] > low["freq_any_masked_def"], (
        f"frequency of a masked defective: {low['freq_any_masked_def']} at rate "
        f"{low['rate']:.4f} vs {high['freq_any_masked_def']} at rate {high['rate']:.4f}"
    )
    low, high = masking_rows
    assert high["mean_masked_def"] > low["mean_masked_def"]
    for row in masking_rows:
        expected = expected_masked_def(MASKING_K, row["tests"])
        assert row["mean_masked_def"] == pytest.approx(expected, rel=0.05), (
            f"mean masked defectives at T={row['tests']}: {row['mean_masked_def']} "
            f"vs first moment {expected:.4g}"
        )


def test_masking_trend_nondefective_mean(masking_rows):
    low, high = masking_rows
    assert high["mean_masked_nondef"] > low["mean_masked_nondef"]


# ---------------------------------------------------------------------------
# C10: byte-identical simulate output


def test_simulate_byte_determinism(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "n = 200\nk = 8\ntests = 100\ndecoder = dd\ncriterion = subset\n"
        "trials = 60\nseed = 9\n"
    )
    outputs = []
    for idx, workers in enumerate((4, 4, 4, 1, 8)):
        out = tmp_path / f"run{idx}.csv"
        r = run_cli("simulate", "--config", cfg, "--workers", workers, "--out", out)
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs[1:])
