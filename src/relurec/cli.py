"""Command-line interface.

Subcommands::

    gen        sample a synthetic instance into a directory
    learn-rep  reconstruct the pre-activation matrix of a saved instance
    recover    solve the robust recovery program on a saved instance, and with --cone-check
               search its restricted cone for violations of the lower bound
    sweep      run a config-driven experiment sweep

Exit codes: 0 on success, 1 for a bad flag or config value, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import _checks as checks
from .bias import default_exponential, flatness_beta, lipschitz_L, parse_bias_spec
from .generate import (
    GenerativeInstance,
    RecoveryInstance,
    generate_recovery_instance,
    generate_representation_instance,
    load_instance,
    save_instance,
)
from .harness import (
    bias_law,
    emit_results,
    finite_float,
    nonnegative_float,
    nonnegative_int,
    parse_config,
    penalty_level,
    positive_float,
    positive_int,
    reconstruct_and_evaluate,
    recover_and_evaluate,
    run_sweep,
)
from .lasso import LassoConfig, make_nonlinearity_stats
from .replearn import log_likelihood

__all__ = ["cli_dispatch", "main"]


class _UsageError(Exception):
    pass


_FILL_BY_FLAG = {"upper": "upper_boundary", "lower": "lower_boundary", "mid": "midpoint"}


def _flag(parse):
    """An argparse ``type`` that reports the ``ValueError`` of ``parse`` as its message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _argument(flags: str, compute, *args):
    """``compute(*args)``, its ``ValueError`` reported as a usage error of ``flags``."""
    try:
        return compute(*args)
    except ValueError as exc:
        raise _UsageError(f"argument {flags}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises instead of exiting, for testable dispatch."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@functools.cache  # one parser per process: parsing leaves it as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="relurec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser("gen", help="sample a synthetic instance", add_help=True)
    gen.add_argument("--task", choices=["rep", "recover"], required=True)
    gen.add_argument("--d", type=_flag(positive_int), required=True)
    gen.add_argument("--n", type=_flag(positive_int), help="columns (rep task)")
    gen.add_argument("--k", type=_flag(positive_int), required=True)
    gen.add_argument("--s", type=_flag(nonnegative_int),
                     help="outlier count (recover task; default 0)")
    gen.add_argument("--gamma", type=_flag(positive_float),
                     help="entry bound (rep task; default 1.0)")
    gen.add_argument("--delta", type=_flag(nonnegative_float),
                     help="noise level (recover task; default 0.0)")
    gen.add_argument("--magnitude", type=_flag(finite_float),
                     help="outlier size (recover task; default 5.0)")
    gen.add_argument("--bias", help="bias config string; defaults per task")
    gen.add_argument("--min-margin", type=_flag(nonnegative_float), dest="min_margin",
                     help="least row margin (rep task)")
    gen.add_argument("--seed", type=_flag(nonnegative_int), default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true", help="overwrite an existing instance")

    rep = sub.add_parser("learn-rep", help="reconstruct a saved matrix instance")
    rep.add_argument("--input", required=True)
    rep.add_argument("--gamma", type=_flag(positive_float), help="default: the saved instance's")
    rep.add_argument("--nu", type=_flag(nonnegative_float), help="default: the saved instance's")
    rep.add_argument("--fill", choices=["upper", "lower", "mid"], default="mid")
    rep.add_argument("--bias", type=_flag(bias_law), help="default: the saved instance's")
    rep.add_argument("--out", required=True)

    rec = sub.add_parser("recover", help="robust recovery on a saved vector instance")
    rec.add_argument("--input", required=True)
    rec.add_argument(
        "--lambda", dest="lam", default="oracle",
        type=_flag(lambda text: text if text in ("oracle", "agnostic") else positive_float(text)),
        help="penalty level: a number, 'oracle', or 'agnostic'",
    )
    rec.add_argument("--max-iter", type=_flag(positive_int), default=LassoConfig.max_iter)
    rec.add_argument("--cone-check", action="store_true",
                     help="also search the restricted cone for violations of the lower bound")
    rec.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="run a config-driven sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", help="override the config's output_dir")
    sweep.add_argument("--force", action="store_true")
    return parser


def _write_report(path: Path, report: dict) -> None:
    with path.open("w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# the gen flags only one task reads, with their defaults
_GEN_TASK_FLAGS = {
    "rep": {"n": None, "gamma": 1.0, "min_margin": None},
    "recover": {"s": 0, "delta": 0.0, "magnitude": 5.0},
}


def _cmd_gen(args) -> int:
    for task, defaults in _GEN_TASK_FLAGS.items():
        for name, default in defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif task != args.task:
                flag = "--" + name.replace("_", "-")
                raise _UsageError(f"flag {flag} is not used by task {args.task}")
    out = Path(args.out)
    if (out / "instance.npz").exists() and not args.force:
        raise FileExistsError(f"{out} already holds an instance; pass --force to overwrite")
    if args.task == "rep":
        if args.n is None:
            raise ValueError("--n is required for --task rep")
        if args.bias:
            spec = _argument("--bias", bias_law, args.bias)
        else:
            spec = default_exponential(args.gamma)
        _argument("--bias/--gamma", lipschitz_L, spec, args.gamma)  # as every learn-rep does
        instance = generate_representation_instance(
            args.d, args.n, args.k, args.gamma, spec, args.seed, min_margin=args.min_margin
        )
    else:
        # the rule of solve_robust_lasso, and the first step of every recover on the instance
        _argument("--k", checks.at_most, "k", args.k, "d - 1", args.d - 1)
        spec = _argument("--bias", parse_bias_spec, args.bias) if args.bias else 0.0
        _argument("--bias", make_nonlinearity_stats, spec)
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
    fill = _FILL_BY_FLAG[args.fill]
    spec = args.bias or parse_bias_spec(instance.bias)
    try:
        beta, lipschitz = flatness_beta(spec, gamma), lipschitz_L(spec, gamma)
        outcome = reconstruct_and_evaluate(instance, spec, gamma, nu, fill, beta, lipschitz)
    except ValueError as exc:  # a usage error when a flag set gamma, nu or the law
        flags = [f"--{name}" for name in ("gamma", "nu", "bias") if getattr(args, name) is not None]
        if not flags:
            raise
        raise _UsageError(f"argument {'/'.join(flags)}: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "m_hat.csv", outcome.estimate.m_hat, delimiter=",")
    np.savetxt(out / "beta_hat.csv", outcome.estimate.beta_hats, fmt="%s")
    np.savetxt(out / "u_hat.csv", outcome.u_hat, delimiter=",")
    report = dict(
        gamma=gamma, nu=nu, fill_strategy=fill, **outcome.metrics(),
        total_loglik=log_likelihood(instance.Y, outcome.estimate, spec),
    )
    _write_report(out / "report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_recover(args) -> int:
    instance = load_instance(args.input)
    if not isinstance(instance, RecoveryInstance):
        raise ValueError(f"{args.input} does not contain a vector instance")
    stats = make_nonlinearity_stats(parse_bias_spec(instance.bias))
    # only the agnostic rule can fail, and the flag chose it
    lam = _argument("--lambda", penalty_level, args.lam, instance, stats)
    outcome = recover_and_evaluate(instance, stats, lam, args.max_iter, args.cone_check)
    solution = outcome.solution
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "c_hat.csv", solution.c_hat, fmt="%s")
    np.savetxt(out / "e_hat.csv", solution.e_hat, fmt="%s")
    with (out / "trace.csv").open("w", encoding="ascii", newline="\n") as fh:
        fh.write("iteration,objective\n")
        for i, value in enumerate(solution.objective_trace, start=1):
            fh.write(f"{i},{repr(float(value))}\n")
    report = dict(
        **outcome.metrics(), sigma=stats.sigma, eta=stats.eta, stop_reason=solution.stop_reason,
        grad_norm=solution.grad_norm, flagged=int(np.count_nonzero(solution.e_hat)),
    )
    if args.cone_check:
        report["num_checked"] = outcome.num_checked
    else:
        del report["diag_violations"], report["diag_min_ratio"]
    _write_report(out / "report.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    records = run_sweep(config)
    out_dir = args.out if args.out else config.output_dir
    target = emit_results(records, out_dir, force=args.force)
    failures = sum(1 for row in records if row["error"] is not None)
    print(f"wrote {len(records)} records to {target} ({failures} failed cells)")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "learn-rep": _cmd_learn_rep,
    "recover": _cmd_recover,
    "sweep": _cmd_sweep,
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
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        # gen and sweep read no instance, so their ValueErrors come from a flag or the config
        if isinstance(exc, _UsageError) or (
            isinstance(exc, ValueError) and args.command in ("gen", "sweep")
        ):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
