"""Command-line entry point.

    mpsolve run <scenario.json> [--out DIR]
    mpsolve converge <scenario.json> --doublings N [--out DIR]
    mpsolve compare-dirac <scenario.json> [--out DIR]
    mpsolve validate <scenario.json>

Exit codes: 0 success; 1 invalid or unreadable scenario, with one
`invalid scenario:` line per violation on stderr; 2 any failure after
validation, writing stdout included, with its message.
Every command takes one failure path: the scenario file and the command run
under one handler, and a command's drivers remove the files they wrote
before a failure or an interrupt reaches it (`scenario._output_files`).
"""

from __future__ import annotations

import argparse
import os
import sys

from .scenario import (
    EngineError,
    ScenarioError,
    compare_dirac_scenario,
    converge_scenario,
    parse_scenario,
    run_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpsolve",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a scenario and emit CSV/JSON")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_conv = sub.add_parser("converge", help="slice-doubling convergence study")
    p_conv.add_argument("scenario")
    p_conv.add_argument("--doublings", type=int, required=True)
    p_conv.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare-dirac",
                           help="compare against amplitude-equation baselines")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_scenario(args.scenario)
        if args.command == "validate":
            print("OK")
        elif args.command == "run":
            summary = run_scenario(config, args.out)
            print("final energy ratio %.6f, final norm %.9f"
                  % (summary.final_energy_ratio, summary.final_norm))
            if summary.phase_vs_reference is not None:
                print("phase vs reference %.6f rad" % summary.phase_vs_reference)
        elif args.command == "converge":
            rungs = converge_scenario(config, args.doublings, args.out)
            for n_slices, err in rungs:
                print("slices %6d  l2 error %.3e" % (n_slices, err))
        elif args.command == "compare-dirac":
            report = compare_dirac_scenario(config, args.out)
            print("amplitude-equation norm: max %.6g, final %.6g"
                  % (report.max_norm, report.final_norm))
            if report.first_exceedance_time is not None:
                print("norm first exceeded 1.1 at t = %.6g"
                      % report.first_exceedance_time)
        sys.stdout.flush()
    except ScenarioError as exc:
        for line in exc.violations:
            print("invalid scenario: %s" % line, file=sys.stderr)
        return 1
    except (EngineError, OSError) as exc:
        print("engine failure: %s" % exc, file=sys.stderr)
        _discard_stdout()
        return 2
    return 0


def _discard_stdout() -> None:
    """If stdout can no longer be written (its reader closed the pipe, say),
    point its descriptor at the null device, so that the flush at exit
    neither fails nor reports the failure again."""
    try:
        sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


if __name__ == "__main__":
    raise SystemExit(main())
