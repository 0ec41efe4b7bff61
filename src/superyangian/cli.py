"""Command-line front end: check / compute / run-all.

Exit codes: 0 all checks pass, 1 any check fails or raises an internal
error (an `error` report), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .morphisms import MORPHISMS
from .series import rational_from_text
from .suites import (
    COMPUTE_TARGETS,
    SUITES,
    SuiteSpec,
    compute,
    default_config,
    output_path,
    reports_to_json,
    run_all,
    run_suite,
)


# the integer suite parameters; the flag of each is --key with "-" for "_"
INT_PARAMS = tuple(dict.fromkeys(key for suite in SUITES.values()
                                 for key, value in suite.defaults.items()
                                 if isinstance(value, int)))
_HELP = {"m": "even block size M", "n": "odd block size N", "order": "series truncation order"}


def _suite_params(args) -> dict:
    params = {}
    for key in INT_PARAMS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if args.points is not None:
        # the grammar of config points: a malformed point, an empty item
        # among points included, is a ValueError; no point at all is left
        # to the suite's "must not be empty"
        parts = args.points.split(",")
        params["points"] = ([str(rational_from_text(part)) for part in parts]
                            if any(part.strip() for part in parts) else [])
    return params


def _add_param_flags(parser):
    for key in INT_PARAMS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=int, help=_HELP.get(key))
    parser.add_argument("--points", help="comma-separated rational points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superyangian",
        description="Exact verification harness for the Yangian of gl(M|N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one named verification suite")
    check.add_argument("suite", choices=sorted(SUITES))
    _add_param_flags(check)

    comp = sub.add_parser("compute", help="compute a series or a normal form")
    comp.add_argument("target", choices=list(COMPUTE_TARGETS))
    comp.add_argument("input", nargs="*", help="input element (grammar: 1*T[i,j,r]*...)")
    comp.add_argument("--map", dest="map_name", choices=list(MORPHISMS))
    _add_param_flags(comp)

    runall = sub.add_parser("run-all", help="run a configured suite matrix")
    runall.add_argument("--config", help="JSON config path (defaults to the built-in matrix)")
    runall.add_argument("--filter", dest="name_filter",
                        help="only run suites whose name contains this substring")
    runall.add_argument("--output", help="override the report output path")
    runall.add_argument("--print-default-config", action="store_true",
                        help="print the built-in configuration and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if extra:
        # argparse will not match a positional that trails the options of
        # a subcommand; fold the leftovers into the compute input
        if args.command == "compute":
            args.input = list(getattr(args, "input", []) or []) + extra
        else:
            print(f"error: unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
            return 2

    try:
        if args.command == "check":
            report = run_suite(SuiteSpec(args.suite, _suite_params(args)))
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
            return 0 if report.status == "pass" else 1

        if args.command == "compute":
            params = _suite_params(args)
            if args.map_name:
                params["map"] = args.map_name
            input_text = " ".join(args.input) if args.input else None
            print(compute(args.target, params, input_text))
            return 0

        # run-all, the one command left
        if args.print_default_config:
            print(json.dumps(default_config(), sort_keys=True, indent=2))
            return 0
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        else:
            config = default_config()
        if args.output is not None and isinstance(config, dict):
            config = {**config, "output": args.output}
        reports, exit_code = run_all(config, args.name_filter)
        out_path = output_path(config)
        payload = reports_to_json(reports)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        for r in reports:
            line = f"{r.status.upper():7s} {r.suite} {json.dumps(r.params, sort_keys=True)}"
            if r.skip_reason:
                line += f"  [{r.skip_reason}]"
            print(line)
        print(f"wrote {len(reports)} reports to {out_path}")
        return exit_code
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
