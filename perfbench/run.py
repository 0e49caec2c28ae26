"""Benchmark of pooltest: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload sparse-budget --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``pooltest`` from
``src/`` and exits with code 2, printing no result, when that is missing.

``--trace 0`` measures the end-to-end metrics: trials_per_s (median over the
timed rounds), setup_s (median wall time of fresh interpreters that import
what the workload calls and build its configs) and peak_rss_mb. ``--trace 1``
measures the per-layer metrics from a traced replay of the same trials. Both
check the outputs. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the environment and the unscaled figures. See README.md in this directory for
the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "design.build_ms": "ms",
    "design.entries": "count",
    "design.bytes": "bytes",
    "model.prior_ms": "ms",
    "model.outcomes_ms": "ms",
    "decode.comp_ms": "ms",
    "decode.dd_ms": "ms",
    "decode.subset_ms": "ms",
    "decode.pipeline_ms": "ms",
    "decode.subset_candidates": "count",
    "decode.subset_useful_frac": "ratio",
    "analysis.masking_ms": "ms",
    "metrics.score_ms": "ms",
    "harness.overhead_ms": "ms",
    "harness.pool_speedup": "ratio",
    "cli.csv_write_ms": "ms",
    "trace.overhead_trials_per_s": "1/s",
}


def git_revision(root: Path) -> str | None:
    """Commit of a checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((src / "pooltest").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(wl, seed: int, seconds: float, trace: int, measured: dict) -> dict:
    import numpy
    import scipy
    import workloads

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "configs": wl.resolved(seed),
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(ROOT),
        "calibration": {
            "iterations": workloads.CALIBRATION_ITERATIONS,
            "reference_s": workloads.CALIBRATION_REFERENCE_S,
        },
        "source_sha256": source_digest(SRC),
        "measured": measured,
    }


def measure_setup(name: str, seed: int, samples: int) -> tuple:
    """Median wall time of fresh interpreters set up for the workload, one
    after the other, and whether every one exited cleanly.

    Unlike trials_per_s this is not scaled to a reference host speed: neither
    the calibration loop nor the start-up time of a reference interpreter
    tracked how this time drifts between runs, and scaling by the latter
    moved the median by 20% between two sets of runs.
    """
    import workloads

    argv = [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), name, str(seed)]
    walls, ok = [], True
    for _ in range(samples):
        code, wall, _ = workloads.run_child(argv, ROOT, 120)
        walls.append(wall)
        ok &= code == 0
    return statistics.median(walls), ok


def run(wl, seed: int, seconds: float, trace: int, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure one workload; return the result object and the report lines."""
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_parent) as tmp:
            m = wl.measure(seed, seconds, Path(tmp), traced=bool(trace))
    finally:
        try:
            tmp_parent.rmdir()
        except OSError:
            pass
    checks = m.checks
    setup_ok = True
    measured = {
        "trials_per_s_unscaled": statistics.median(m.rates),
        "host_slowdown": statistics.median(m.slowdowns),
        "rounds": len(m.rates),
    }
    if trace:
        values = m.layers
        units = LAYER_UNITS
    else:
        setup_s, setup_ok = measure_setup(wl.name, seed, setup_samples)
        values = {
            "trials_per_s": statistics.median(r * s for r, s in zip(m.rates, m.slowdowns)),
            "setup_s": setup_s,
            "peak_rss_mb": m.peak_rss_mb,
        }
        units = END_TO_END_UNITS
    lines = [f"workload {wl.name} seed {seed} seconds {seconds} trace {trace}"]
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(
        f"failed_frac = {len(checks.failed) / checks.attempted:.6g} "
        f"({len(checks.failed)} of {checks.attempted} trials failed a check or were refused)"
    )
    lines.append(
        f"untraced trials_per_s as measured: median {measured['trials_per_s_unscaled']:.6g} over "
        f"{len(m.rates)} rounds, {m.trials} trials in {m.wall_s:.3f} s; "
        f"median host slowdown {measured['host_slowdown']:.4g}"
    )
    if trace:
        stages = sum(v for k, v in values.items() if k.endswith("_ms") and not k.startswith(("harness.", "cli.")))
        speedup, csv_ms, overhead = (values[k] for k in ("harness.pool_speedup", "cli.csv_write_ms", "harness.overhead_ms"))
        lines.append(
            f"untraced wall per trial {stages / speedup + csv_ms + overhead:.6g} ms = trial stages {stages:.6g} "
            f"/ pool_speedup {speedup:.4g} + cli.csv_write_ms {csv_ms:.4g} + harness.overhead_ms {overhead:.4g}"
        )
    if not setup_ok:
        lines.append("check failed: a setup interpreter exited with an error")
    lines += [f"check failed: {note}" for note in checks.notes]
    result = {
        "correct": not checks.failed and setup_ok,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "lines": lines, "measured": measured}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pooltest" / "__init__.py").is_file():
        print(f"error: no pooltest sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pooltest
    import workloads

    if Path(pooltest.__file__).resolve().parent != SRC / "pooltest":
        print(f"error: pooltest imported from {pooltest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out = run(wl, args.seed, args.seconds, args.trace)
    print("\n".join(out["lines"]))
    print("env " + json.dumps(environment(wl, args.seed, args.seconds, args.trace, out["measured"]), sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
