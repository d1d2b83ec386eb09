"""Command-line front end.

    fibrum run <config-path>     run a scenario from a JSON config
    fibrum verify <bundle-name>  shorthand for verify-all with defaults
    fibrum catalog               list the built-in bundles

Exit status: 0 if every check passed, 1 on check failure or a run that
cannot finish (a library error, an arithmetic overflow), 2 on config
errors.  ``FIBRUM_SEED`` overrides the config seed; ``--seed`` wins over
both.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import CATALOG, build_connection
from .config import ScenarioConfig, canonical_text, emit_report, load_config
from .errors import ConfigError, FibrumError
from .scenarios import VerificationReport, run_scenario


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    parser.add_argument("--step", type=float, default=None,
                        help="override the integrator step")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report to this path")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-check summary")


def _resolve_seed(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get("FIBRUM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"FIBRUM_SEED must be an integer, got {env!r}")
    return None


def _print_summary(report: VerificationReport) -> None:
    for row in report.checks:
        status = "PASS" if row.passed else "FAIL"
        tol = "none" if row.tolerance is None else f"{row.tolerance:.3e}"
        line = (f"{status}  {row.check_name:34s} samples={row.samples:<4d} "
                f"max_residual={row.max_residual:.3e} tolerance={tol}")
        print(line)
        if not row.passed and row.note:
            print(f"      note: {row.note}")
    verdict = "PASS" if report.overall_pass else "FAIL"
    print(f"overall: {verdict}")


def _run_and_report(cfg: ScenarioConfig, quiet: bool) -> int:
    report = run_scenario(cfg)
    if not quiet:
        _print_summary(report)
    if cfg.output_path:
        emit_report(report, cfg.output_path)
        if not quiet:
            print(f"report written to {cfg.output_path}")
    elif quiet:
        # nothing else would be visible; emit the report text itself
        print(canonical_text(report.to_tree()))
    return 0 if report.overall_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fibrum",
        description="chart-local connection, curvature and transport checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config",
                       help="path to a JSON scenario config, or - for stdin")
    _add_common_flags(p_run)

    p_verify = sub.add_parser("verify",
                              help="run verify-all on a catalog bundle")
    p_verify.add_argument("bundle", help="catalog bundle name")
    _add_common_flags(p_verify)

    sub.add_parser("catalog", help="list catalog bundles")

    args = parser.parse_args(argv)

    try:
        if args.command == "catalog":
            for name, entry in CATALOG.items():
                b = build_connection(name).bundle
                print(f"{name}: base_dim={b.base_dim} fibre_dim={b.fibre_dim} "
                      f"params={list(entry['params'])}")
                print(f"    {entry['description']}")
            return 0

        seed = _resolve_seed(args.seed)
        if args.command == "run":
            cfg = load_config(args.config, seed_override=seed,
                              step_override=args.step, out_override=args.out)
        else:  # verify
            cfg = load_config({"bundle_name": args.bundle,
                               "scenario": "verify-all"},
                              seed_override=seed, step_override=args.step,
                              out_override=args.out)
        return _run_and_report(cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FibrumError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
