"""Command line entry point: scenario runner and verification suites.

Exit codes: 0 everything succeeded, 1 a verification suite failed, 2 the
input could not be parsed or validated.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core import DEFAULT_TOL, check_tol
from .errors import LatticeError, ValidationError
from .scenario import dumps, execute_scenario


def tolerance(text: str) -> float:
    """The --tol argument: a finite number >= 0 (argparse reports a ValueError)."""
    try:
        return check_tol(float(text))
    except ValidationError as exc:  # argparse names the argument: --tol
        raise argparse.ArgumentTypeError(str(exc).removeprefix("tol: ")) from None


def count(text: str) -> int:
    """The --trials argument: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lplattice",
        description="Computable conditional expectations, slices, types, and "
        "independence over finite weighted measure algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario document")
    run_p.add_argument("path", help="path to a scenario JSON file")
    run_p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)

    ver_p = sub.add_parser("verify", help="run the verification suites")
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("--trials", type=count, default=60)
    ver_p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            text = dumps(execute_scenario(args.path, args.tol))
        except LatticeError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(text)
        return 0
    # verify, the only other command; imported here so `run` never loads the oracles
    from .verify import run_suites

    results = run_suites(seed=args.seed, trials=args.trials, tol=args.tol)
    failed = False
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
        if not res.passed:
            failed = True
            print(f"replay: {res.replay}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
