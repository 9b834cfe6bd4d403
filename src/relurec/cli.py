"""Command-line interface.

Subcommands::

    gen        sample a synthetic instance into a directory
    learn-rep  reconstruct the pre-activation matrix of a saved instance
    recover    solve the robust recovery program on a saved instance
    sweep      run a config-driven experiment sweep
    diag       sample-check the restricted-cone lower bound

Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bias import BiasModel, default_exponential, parse_bias_spec
from .generate import (
    GenerativeInstance,
    RecoveryInstance,
    generate_recovery_instance,
    generate_representation_instance,
    load_instance,
    save_instance,
)
from .harness import (
    emit_results,
    parse_config,
    penalty_level,
    reconstruct_and_evaluate,
    restricted_cone_check,
    run_sweep,
)
from .lasso import (
    LassoConfig,
    make_nonlinearity_stats,
    recovery_error_and_bound,
    solve_robust_lasso,
)

__all__ = ["cli_dispatch", "main"]


class _UsageError(Exception):
    pass


_FILL_BY_FLAG = {"upper": "upper_boundary", "lower": "lower_boundary", "mid": "midpoint"}


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises instead of exiting, for testable dispatch."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="relurec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser("gen", help="sample a synthetic instance", add_help=True)
    gen.add_argument("--task", choices=["rep", "recover"], required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--n", type=int, help="columns (rep task)")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--s", type=int, default=0, help="outlier count (recover task)")
    gen.add_argument("--gamma", type=float, default=1.0)
    gen.add_argument("--delta", type=float, default=0.0)
    gen.add_argument("--magnitude", type=float, default=5.0)
    gen.add_argument("--bias", help="bias config string; defaults per task")
    gen.add_argument("--min-margin", type=float, dest="min_margin")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true", help="overwrite an existing instance")

    rep = sub.add_parser("learn-rep", help="reconstruct a saved matrix instance")
    rep.add_argument("--input", required=True)
    rep.add_argument("--gamma", type=float, help="default: instance manifest")
    rep.add_argument("--nu", type=float, help="default: instance manifest")
    rep.add_argument("--fill", choices=["upper", "lower", "mid"], default="mid")
    rep.add_argument("--bias", help="default: instance manifest")
    rep.add_argument("--out", required=True)

    rec = sub.add_parser("recover", help="robust recovery on a saved vector instance")
    rec.add_argument("--input", required=True)
    rec.add_argument(
        "--lambda", dest="lam", default="oracle",
        help="penalty level: a number, 'oracle', or 'agnostic'",
    )
    rec.add_argument("--tol", type=float, default=1e-10)
    rec.add_argument("--max-iter", type=int, default=1000, dest="max_iter")
    rec.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="run a config-driven sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", help="override the config's output_dir")
    sweep.add_argument("--force", action="store_true")

    diag = sub.add_parser("diag", help="restricted-cone sampling check")
    diag.add_argument("--d", type=int, required=True)
    diag.add_argument("--k", type=int, required=True)
    diag.add_argument("--s", type=int, required=True)
    diag.add_argument("--samples", type=int, default=100)
    diag.add_argument("--delta", type=float, default=0.0)
    diag.add_argument("--bias", default="const:value=0.0")
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--out", help="also write the report JSON here")
    return parser


def _write_vector(path: Path, values: np.ndarray) -> None:
    with path.open("w", encoding="ascii", newline="\n") as fh:
        for v in np.atleast_1d(values):
            fh.write(repr(float(v)) + "\n")


def _write_report(path: Path, report: dict) -> None:
    with path.open("w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_gen(args) -> int:
    out = Path(args.out)
    if (out / "instance.json").exists() and not args.force:
        raise FileExistsError(f"{out} already holds an instance; pass --force to overwrite")
    if args.task == "rep":
        if args.n is None:
            raise ValueError("--n is required for --task rep")
        spec = parse_bias_spec(args.bias) if args.bias else default_exponential(args.gamma)
        if not isinstance(spec, BiasModel):
            raise ValueError("rep instances need a distributional bias")
        instance = generate_representation_instance(
            args.d, args.n, args.k, args.gamma, spec, args.seed, min_margin=args.min_margin
        )
    else:
        spec = parse_bias_spec(args.bias) if args.bias else 0.0
        instance = generate_recovery_instance(
            args.d, args.k, args.s, args.delta, args.magnitude, spec, args.seed
        )
    save_instance(instance, out)
    print(f"wrote instance to {out}")
    return 0


def _cmd_learn_rep(args) -> int:
    instance = load_instance(args.input)
    if not isinstance(instance, GenerativeInstance):
        raise ValueError(f"{args.input} does not contain a matrix instance")
    gamma = args.gamma if args.gamma is not None else instance.gamma
    nu = args.nu if args.nu is not None else instance.realized_nu
    spec = parse_bias_spec(args.bias) if args.bias else parse_bias_spec(instance.bias)
    if not isinstance(spec, BiasModel):
        raise ValueError("matrix reconstruction needs a distributional bias")
    outcome = reconstruct_and_evaluate(instance, spec, gamma, nu, _FILL_BY_FLAG[args.fill])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "m_hat.csv", outcome.estimate.m_hat, delimiter=",")
    _write_vector(out / "beta_hat.csv", outcome.estimate.beta_hats)
    np.savetxt(out / "u_hat.csv", outcome.u_hat, delimiter=",")
    report = {
        "frob_err_sq": outcome.frob_err_sq,
        "bound": outcome.rep_bound,
        "sin_theta": outcome.sin_theta,
        "procrustes_err": outcome.procrustes_err,
        "total_loglik": outcome.estimate.total_loglik,
    }
    _write_report(out / "report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_recover(args) -> int:
    instance = load_instance(args.input)
    if not isinstance(instance, RecoveryInstance):
        raise ValueError(f"{args.input} does not contain a vector instance")
    stats = make_nonlinearity_stats(parse_bias_spec(instance.bias))
    lam = penalty_level(args.lam, instance, stats)
    solution = solve_robust_lasso(
        instance.v, instance.A, LassoConfig(lam=lam, tol=args.tol, max_iter=args.max_iter)
    )
    error, bound = recovery_error_and_bound(solution, instance, stats)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_vector(out / "c_hat.csv", solution.c_hat)
    _write_vector(out / "e_hat.csv", solution.e_hat)
    with (out / "trace.csv").open("w", encoding="ascii", newline="\n") as fh:
        fh.write("iteration,objective\n")
        for i, value in enumerate(solution.objective_trace, start=1):
            fh.write(f"{i},{repr(float(value))}\n")
    report = {
        "error": error,
        "bound": bound,
        "mu": stats.mu,
        "sigma": stats.sigma,
        "eta": stats.eta,
        "lambda_used": lam,
        "iterations": solution.iterations,
        "converged": solution.converged,
    }
    _write_report(out / "report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    records = run_sweep(config)
    out_dir = args.out if args.out else config.output_dir
    target = emit_results(records, out_dir, force=args.force)
    failures = sum(1 for r in records if r.error is not None)
    print(f"wrote {len(records)} records to {target} ({failures} failed cells)")
    return 0


def _cmd_diag(args) -> int:
    _, _, checked = restricted_cone_check(
        args.d, args.k, args.s, args.delta, args.bias, args.samples, args.seed
    )
    report = {
        "d": args.d,
        "k": args.k,
        "s": args.s,
        "num_checked": checked.num_checked,
        "num_violations": checked.num_violations,
        "min_ratio": checked.min_ratio,
    }
    print(json.dumps(report, sort_keys=True))
    if args.out:
        _write_report(Path(args.out), report)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "learn-rep": _cmd_learn_rep,
    "recover": _cmd_recover,
    "sweep": _cmd_sweep,
    "diag": _cmd_diag,
}


def cli_dispatch(argv: list[str]) -> int:
    """Parse and run one CLI invocation, returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help paths
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
