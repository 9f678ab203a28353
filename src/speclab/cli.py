"""Command-line entry point.

  speclab describe --instance <path|label>
  speclab verify   --instance <path|label> --suite <name> [--report out.json]
  speclab sweep    --instance <path|label> --functional <name> --coord <name>
                   --eps-list <csv> [--out table.csv]

Exit codes: 0 = every gating check passed, 1 = a gating check failed,
2 = error: bad arguments or an exception, printed with its traceback, or
a report holding the FAIL record of an exception raised inside a suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import harness
from .instances import BUILTIN_LABELS


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="spectral covers over the sphere: periods, theta kernels, "
                    "and variational residue formulas with finite-difference "
                    "verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_desc = sub.add_parser("describe", help="counts, branch points, genericity")
    p_desc.add_argument("--instance", required=True,
                        help=f"file path or one of {', '.join(BUILTIN_LABELS)}")
    p_desc.add_argument("--dump-contours", action="store_true",
                        help="include homology contour polylines")

    p_ver = sub.add_parser("verify", help="run an acceptance suite")
    p_ver.add_argument("--instance", required=True)
    p_ver.add_argument("--suite", required=True,
                       help=f"one of {', '.join(harness.SUITES)}")
    p_ver.add_argument("--report", default=None, help="write the JSON report here")

    p_sw = sub.add_parser("sweep", help="finite-difference convergence sweep")
    p_sw.add_argument("--instance", required=True)
    p_sw.add_argument("--functional", required=True,
                      help=f"one of {', '.join(harness.SWEEP_FUNCTIONALS)}")
    p_sw.add_argument("--coord", required=True, help="coordinate name, e.g. A1")
    p_sw.add_argument("--eps-list", required=True,
                      help="comma-separated epsilon values")
    p_sw.add_argument("--out", default=None, help="write the CSV table here")

    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            print(json.dumps(harness.describe(
                args.instance, dump_contours=args.dump_contours), indent=1))
            return 0
        if args.command == "verify":
            report = harness.run_suite(args.instance, args.suite)
            for line in report.summary_lines():
                print(line)
            if args.report:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json())
            return 2 if report.errored else 0 if report.passed else 1
        if args.command == "sweep":
            eps_list = [float(tok) for tok in args.eps_list.split(",") if tok]
            rows = harness.sweep_epsilon(args.instance, args.functional,
                                         args.coord, eps_list)
            csv = harness.sweep_to_csv(rows)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(csv)
            print(csv, end="")
            return 0
    except Exception as exc:  # an error, never a gating result
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
