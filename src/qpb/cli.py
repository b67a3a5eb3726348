"""Command line entry point.

`qpb verify <suite>` runs one named check suite (or `all`) and emits the
reports as a table or byte-stable JSON. Exit status: 0 when every check
passed, 1 when any check failed, 2 on usage or configuration errors or an
`--out` file that cannot be written.

`run()` is the process entry: the `qpb` script and `python -m qpb` call it.
It returns `main()`'s status after `gc.freeze()`, so the exiting interpreter
does not collect its import graph; stdio is still flushed and atexit handlers
still run. `main()` itself leaves the collector alone, for callers that go on
running in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys

from .errors import ConfigurationError, ToolkitError
from .report import emit_report
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def _parse_tolerance_overrides(pairs: list[str]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--tolerance expects check_id=value, got {pair!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ConfigurationError(f"tolerance value for {key!r} is not a number: {value!r}")
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpb",
        description="Numerical checks for conjugate-representation operator identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    # an option left out is left out of the namespace too, so SuiteConfig
    # alone holds the defaults of the options it takes
    verify = sub.add_parser("verify", help="run a check suite and report residuals",
                            argument_default=argparse.SUPPRESS)
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("--n-points", type=int,
                        help="1D grid size for the selected suite (default per suite)")
    verify.add_argument("--half-extent", type=float,
                        help="1D half box size for the selected suite")
    verify.add_argument("--hbar", type=float)
    verify.add_argument("--n-trunc", type=int,
                        help="matrix truncation for ladder and symbolic oracles")
    verify.add_argument("--omega", type=float)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--tolerance", action="append", default=[], metavar="CHECK_ID=VALUE",
                        help="override one check tolerance; repeatable")
    verify.add_argument("--format", choices=("table", "json"), default="table")
    verify.add_argument("--out", default=None,
                        help="write the report to this file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        given = {name: value for name, value in vars(args).items() if name in SuiteConfig.__slots__}
        config = SuiteConfig(**given, tolerances=_parse_tolerance_overrides(args.tolerance))
        # opened before any suite runs, so an unwritable path fails at once
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8")) as fh:
            reports = run_suite(config)
            fh.write(emit_report(reports, args.format) + "\n")
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write report to {args.out or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


def run() -> int:
    """Process entry: main()'s status, with every object tracked so far moved
    to the collector's permanent generation. Only a process about to exit
    calls this; the freeze spares its teardown the collections over numpy's
    and qpb's objects."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
