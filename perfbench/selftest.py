"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every run emits exactly the metrics BENCHMARK.json names, each
with its unit; that deliberately corrupted records, CSV rows and sweep rows
trip the correctness checks; and that the benchmark refuses to run, printing
no result, without the package sources beside it. Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from pooltest.harness import write_trials_csv  # noqa: E402

SEED = 3


def scratch_dir() -> tempfile.TemporaryDirectory:
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp")


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_emitted_metrics(spec: dict) -> None:
    for name, wl in workloads.TINY_WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run(wl, SEED, 0.3, trace, setup_samples=1)["result"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(got == want, f"{name} trace {trace} emits every {key} metric with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, float) and math.isfinite(v) for v in values), f"{name} trace {trace} values are finite")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{name} trace {trace} passes its checks")
            json.dumps(result)


def check_corruption_trips() -> None:
    wl = workloads.TINY_WORKLOADS["sparse-budget"]
    cfg = wl.build(SEED)[0]  # a dd config
    summary = workloads._run(cfg)
    tracer = workloads.Tracer()
    replayed = [workloads.replay_trial(tracer, cfg, i, counted=False) for i in range(cfg.trials)]

    checks = workloads.Checks()
    workloads.check_records(checks, "clean", cfg, summary.records, replayed)
    expect(not checks.failed, "untouched dd records pass the guarantee and replay checks")

    bad_fp = replace(summary.records[0], false_positives=1)
    checks = workloads.Checks()
    workloads.check_records(checks, "fp", cfg, (bad_fp, *summary.records[1:]))
    expect(len(checks.failed) == 1, "a dd record with a false positive trips the guarantee check")

    bad_mask = replace(summary.records[1], masked_def=summary.records[1].masked_def + 1)
    checks = workloads.Checks()
    workloads.check_records(checks, "mask", cfg, (summary.records[0], bad_mask), replayed)
    expect(len(checks.failed) == 1, "a record the replay does not reproduce trips the replay check")

    cli = workloads.TINY_WORKLOADS["cli-simulate"]
    with scratch_dir() as tmp:
        out = Path(tmp) / "out.csv"
        write_trials_csv(workloads._run(cli.config(SEED)).records, out)
        ref = out.read_bytes()
    lines = ref.split(b"\n")
    lines[5] = lines[5].replace(b",", b",9", 1)
    checks = workloads.Checks()
    cli._check_csv(checks, 0, b"\n".join(lines), ref)
    expect(checks.failed == {(0, 4)}, "a changed CSV row trips the byte-identity check for that trial")
    checks = workloads.Checks()
    cli._check_csv(checks, 1, None, ref)
    expect(len(checks.failed) == cli.trials, "a failed simulate process fails all its trials")

    masking = workloads.TINY_WORKLOADS["dense-masking"]
    rows = masking._sweep(workloads.mix_seed(SEED, 0))
    rows[1] = dict(rows[1], mean_masked_def=rows[1]["mean_masked_def"] + 0.5)
    checks = workloads.Checks()
    masking._check(workloads.Tracer(), checks, SEED, 0, rows)
    expect(len(checks.failed) == masking.trials, "a changed sweep row fails every trial of its rate point")


def check_refuses_without_sources() -> None:
    with scratch_dir() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sparse-budget", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )  # fmt: skip
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/ it exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_emitted_metrics(spec)
    check_corruption_trips()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
