"""Command-line interface.

Subcommands:
    gen-design   write a random design to a file
    simulate     run a Monte Carlo experiment, emit per-trial CSV
    thresholds   emit the asymptotic rate-limit curve as CSV
    masking      sweep masked-item statistics across rates, emit CSV
    oracle-check run a named cross-check suite

A config file (--config PATH) holds flat ``key = value`` lines using the
long option names; values given on the command line override it. A key that
names no option of any subcommand, a number that does not parse, or a switch
not set to 1/true/yes/on or 0/false/no/off (any case) is a parameter error
naming the file and line. Exit codes: 0 success, 1 parameter error or a file
that cannot be read or written, 2 usage error (argparse) or suite failure,
3 refusal budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import DEFAULT_ENUM_CAP
from .decode import DEFAULT_FAMILY_CAP, _DECODER_NAMES, _PIPELINE_INNER
from .design import DesignSpec, build_design, save_design
from .errors import (
    CapExceededError,
    DesignFormatError,
    ParameterError,
    RefusalBudgetError,
)
from .harness import (
    ExperimentConfig,
    _shape,
    masking_sweep,
    run_experiment,
    write_masking_csv,
    write_trials_csv,
)
from .metrics import _CRITERION_KINDS, _CRITERION_SLACK, Criterion, write_threshold_csv
from .model import _PRIOR_KINDS
from .oracle import ORACLE_SUITES, oracle_check
from .util import LN2


def _parse_config_file(path) -> dict:
    """key -> (line number, raw value); keys take underscores for dashes."""
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{line_no}: expected 'key = value'")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = (line_no, val.strip())
    return values


def _design_spec(args) -> DesignSpec:
    kind = args.design
    if kind.startswith("file:"):
        return DesignSpec("explicit", path=kind[len("file:") :])
    return DesignSpec(
        kind,
        nu=args.nu,
        p_override=args.p,
        L_override=args.L,
    )


def _add_size_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=False, help="number of items")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, help="number of defectives")
    group.add_argument("--theta", type=float, help="defectives as k = n**theta")
    tgroup = p.add_mutually_exclusive_group()
    tgroup.add_argument("--tests", type=int, help="number of tests T")
    tgroup.add_argument("--rate", type=float, help="target rate in bits per test")


def _add_design_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--design",
        default="bernoulli",
        help="bernoulli, ncc, or file:PATH for an explicit design",
    )
    p.add_argument("--nu", type=float, default=LN2, help="density parameter (default ln 2)")
    p.add_argument("--p", type=float, default=None, help="override inclusion probability")
    p.add_argument("--L", type=int, default=None, help="override draws per item (ncc)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pooltest", description=__doc__.split("\n")[0])
    parser.add_argument("--config", default=None, help="flat key = value config file")
    # accepted before or after the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-design", help="write a random design to a file", parents=[shared])
    _add_size_args(g)
    _add_design_args(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path")

    s = sub.add_parser("simulate", help="Monte Carlo error-rate experiment", parents=[shared])
    _add_size_args(s)
    _add_design_args(s)
    s.add_argument("--decoder", default="dd", choices=_DECODER_NAMES)
    s.add_argument("--criterion", default="exact", choices=_CRITERION_KINDS)
    s.add_argument("--eta-minus", type=float, default=0.1)
    s.add_argument("--eta-plus", type=float, default=0.1)
    s.add_argument("--beta", type=float, default=0.1)
    s.add_argument("--alpha-fn", type=float, default=0.1)
    s.add_argument("--alpha-fp", type=float, default=0.1)
    s.add_argument("--prior", default="combinatorial", choices=_PRIOR_KINDS)
    s.add_argument("--q", type=float, default=None, help="iid prior density")
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", default=None, help="per-trial CSV path (default stdout)")
    s.add_argument("--record-sets", action="store_true", help="append true/estimated sets")
    s.add_argument("--timing", action="store_true", help="record wall time (breaks determinism)")
    s.add_argument("--frontend", default="dd-pad", choices=["dd-pad", "ml"])
    s.add_argument("--radius-mult", type=float, default=3.0)
    s.add_argument("--ml-cap", type=int, default=DEFAULT_ENUM_CAP)
    s.add_argument("--family-cap", type=int, default=DEFAULT_FAMILY_CAP)
    s.add_argument("--hill-climb", action="store_true")
    s.add_argument("--alpha", type=float, default=None, help="pipeline deletion fraction")
    s.add_argument("--xi", type=float, default=None, help="pipeline deletion slack")
    s.add_argument("--inner", default="dd", choices=_PIPELINE_INNER)

    t = sub.add_parser("thresholds", help="emit the rate-limit curve as CSV", parents=[shared])
    t.add_argument("--thetas", default=None, help="comma-separated theta values")
    t.add_argument("--grid", default=None, help="START:STOP:COUNT linspace over theta")
    t.add_argument("--out", required=True)

    m = sub.add_parser("masking", help="masked-item statistics across rates", parents=[shared])
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--theta", type=float, required=True)
    m.add_argument("--rates", required=True, help="comma-separated rates in bits per test")
    _add_design_args(m)
    m.add_argument("--trials", type=int, default=100)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", required=True)

    o = sub.add_parser("oracle-check", help="run a named cross-check suite", parents=[shared])
    o.add_argument("--suite", required=True, choices=sorted(ORACLE_SUITES))
    o.add_argument("--seed", type=int, default=0)

    return parser


def _apply_config_file(parser, argv):
    # pull --config out first, turn its contents into parser defaults, reparse
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return parser.parse_args(argv)
    path = known.config
    values = _parse_config_file(path)
    subparsers = parser._subparsers._group_actions[0].choices.values()
    # a file may be shared across subcommands, so only a key no subcommand knows is an error
    known_keys = {a.dest for sub in subparsers for a in sub._actions}
    for key, (line_no, _) in values.items():
        if key not in known_keys:
            raise ParameterError(f"{path}:{line_no}: unknown key {key!r}")
    for action in subparsers:
        defaults = {}
        for sub_action in action._actions:
            key = sub_action.dest
            if key not in values:
                continue
            line_no, raw = values[key]
            if isinstance(sub_action, argparse._StoreTrueAction):
                defaults[key] = raw.lower() in ("1", "true", "yes", "on")
                if not defaults[key] and raw.lower() not in ("0", "false", "no", "off"):
                    raise ParameterError(f"{path}:{line_no}: {key} wants true or false, got {raw!r}")
            elif sub_action.type in (int, float):
                try:
                    defaults[key] = sub_action.type(raw)
                except ValueError:
                    raise ParameterError(
                        f"{path}:{line_no}: {key} wants {sub_action.type.__name__}, got {raw!r}"
                    ) from None
            else:
                defaults[key] = raw
        action.set_defaults(**defaults)
    return parser.parse_args(argv)


def _float_list(option: str, text: str) -> list:
    """The comma-separated numbers given to ``option``; at least one."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
        if values:
            return values
    except ValueError:
        pass
    raise ParameterError(f"{option} wants comma-separated numbers, got {text!r}")


def cmd_gen_design(args) -> int:
    n, k, T = _shape(args.n, args.k, args.theta, args.tests, args.rate)
    spec = _design_spec(args)
    if spec.kind == "explicit":
        raise ParameterError("gen-design needs a random design kind, not file:PATH")
    design = build_design(spec, n, T, k, np.random.default_rng(args.seed))
    save_design(design, args.out)
    print(f"wrote {design.T} x {design.n} {spec.kind} design to {args.out}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    # a kind from a config file skips --criterion's choices; Criterion refuses an unknown one
    slack = _CRITERION_SLACK.get(args.criterion, ())
    cfg = ExperimentConfig(
        n=args.n,
        design=_design_spec(args),
        decoder=args.decoder,
        criterion=Criterion(args.criterion, **{f: getattr(args, f) for f in slack}),
        trials=args.trials,
        master_seed=args.seed,
        k=args.k,
        theta=args.theta,
        T=args.tests,
        target_rate=args.rate,
        prior_kind=args.prior,
        prior_q=args.q,
        workers=args.workers,
        record_sets=args.record_sets,
        eta_minus=args.eta_minus,
        radius_mult=args.radius_mult,
        frontend=args.frontend,
        ml_cap=args.ml_cap,
        family_cap=args.family_cap,
        hill_climb=args.hill_climb,
        alpha=args.alpha,
        xi=args.xi,
        inner=args.inner,
    )
    code = 0
    try:
        summary = run_experiment(cfg)
    except RefusalBudgetError as err:
        summary = err.summary
        print(f"error: {err}", file=sys.stderr)
        code = 3
    out = args.out or "/dev/stdout"
    write_trials_csv(summary.records, out, timing=args.timing)
    print(summary.line(), file=sys.stderr)
    return code


def cmd_thresholds(args) -> int:
    if (args.thetas is None) == (args.grid is None):
        raise ParameterError("give exactly one of --thetas and --grid")
    if args.thetas is not None:
        thetas = _float_list("--thetas", args.thetas)
    else:
        try:
            start, stop, count = args.grid.split(":")
            thetas = np.linspace(float(start), float(stop), int(count)).tolist()
        except ValueError:
            thetas = []
        if not thetas:
            raise ParameterError(f"--grid wants START:STOP:COUNT, COUNT >= 1, got {args.grid!r}")
    write_threshold_csv(thetas, args.out)
    print(f"wrote {len(thetas)} curve points to {args.out}", file=sys.stderr)
    return 0


def cmd_masking(args) -> int:
    rates = _float_list("--rates", args.rates)
    rows = masking_sweep(args.n, args.theta, rates, _design_spec(args), args.trials, args.seed)
    write_masking_csv(rows, args.out)
    print(f"wrote {len(rows)} rate points to {args.out}", file=sys.stderr)
    return 0


def cmd_oracle_check(args) -> int:
    result = oracle_check(args.suite, seed=args.seed)
    print(result.report())
    return 0 if result.passed else 2


_COMMANDS = {
    "gen-design": cmd_gen_design,
    "simulate": cmd_simulate,
    "thresholds": cmd_thresholds,
    "masking": cmd_masking,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config_file(parser, list(sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args)
    except (ParameterError, DesignFormatError, CapExceededError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RefusalBudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
