"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --workloads subset-local --runs 5
    python3 perfbench/repeat.py --runs 10 --out perfbench/BENCH_baseline.json

For each workload, runs ``run.py --trace 0`` once per seed (first-seed,
first-seed + 1, ...) and ``run.py --trace 1`` once with the first seed,
one run at a time, with the run length from BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to a third of the metric's bound, and the same
summary of the unscaled figures and of the slowdowns they were scaled by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    env = json.loads(lines[-2].removeprefix("env "))
    return env, json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    all_correct = True
    for name in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results, measured = [], []
        for seed in seeds:
            env, result = run_once(name, seed, spec["run_seconds"], 0)
            results.append(result)
            measured.append(env["measured"])
            summary.setdefault("environment", {k: v for k, v in env.items() if k not in ("workload", "seed", "configs", "trace")})
            print(f"{name} seed {seed}: " + " ".join(f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
        entry = {
            "seeds": list(seeds),
            "configs": env["configs"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in results]) for m in bounds},
            "unscaled": {m: summarise([v[m] for v in measured]) for m in measured[0]},
        }
        all_correct &= all(r["correct"] for r in results)
        _, traced = run_once(name, args.first_seed, spec["run_seconds"], 1)
        all_correct &= traced["correct"]
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
        for m, s in entry["end_to_end"].items():
            print(
                f"{name} {m}: median {s['median']:.5g} quartiles [{s['q1']:.5g}, {s['q3']:.5g}] "
                f"spread {s['spread']:.4f} (a third of the bound: {bounds[m] / 3:.4f})",
                flush=True,
            )
        for m, s in entry["unscaled"].items():
            print(f"{name} {m}: median {s['median']:.5g} spread {s['spread']:.4f}", flush=True)
    summary["correct"] = all_correct
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
