"""File-based command line for signatures, reliability, and verification.

All inputs and outputs are JSON with rationals rendered as "a/b" strings,
so results are exact and byte-stable. Errors are a single JSON object on
standard error with "error" and "detail" fields; nothing is written to
standard output on failure.

Exit codes: 0 success, 1 unreadable or malformed input file, 2 usage or
precondition violation (ties where forbidden, component counts out of
bounds), 3 internal verification inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, TypeVar

from .distribution import distribution_from_json, relative_quality
from .errors import EnumerationBoundError, TheoremInconsistencyError, TiesError
from .rationals import format_rational, parse_rational
from .reliability import (
    diagnose,
    probability_signature_oracle,
    reliability_curve,
    system_reliability,
    verify_theorems,
)
from .signature import boland_signature, probability_signature
from .structure import (
    SystemClass,
    appendix_basis,
    rank_over_rationals,
    system_from_json,
    system_to_json,
)

__all__ = ["main", "run"]


class _UsageError(Exception):
    """Bad command line; argparse errors are rerouted here."""


class _InputError(Exception):
    """Unreadable, unparsable, or invalid input file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


_T = TypeVar("_T")


def _load(path: str, parse: Callable[[object], _T]) -> _T:
    """Read one JSON input file and parse it; any failure names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(obj)
    except EnumerationBoundError:
        raise  # a size limit, not a malformed file: exit 2
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _time_arg(text: str) -> Fraction:
    try:  # argparse would replace the reason, such as a limit, with its own text
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cmd_signature(args: argparse.Namespace) -> object:
    phi = _load(args.system, system_from_json)
    return list(boland_signature(phi).as_strings())


def _cmd_prob_signature(args: argparse.Namespace) -> object:
    phi = _load(args.system, system_from_json)
    d = _load(args.dist, distribution_from_json)
    if phi.n != d.n:  # before relative_quality forms its 2**n values
        raise ValueError("system and distribution disagree on component count")
    quality_based = probability_signature(phi, relative_quality(d))
    atom_oracle = probability_signature_oracle(phi, d)
    return {
        "quality_based": list(quality_based.as_strings()),
        "atom_oracle": list(atom_oracle.as_strings()),
        "agree": quality_based == atom_oracle,
    }


def _cmd_reliability(args: argparse.Namespace) -> object:
    phi = _load(args.system, system_from_json)
    d = _load(args.dist, distribution_from_json)
    if args.t is not None:
        value = system_reliability(phi, d, args.t)
        return {"t": format_rational(args.t), "value": format_rational(value)}
    return reliability_curve(phi, d).to_json()


def _cmd_diagnose(args: argparse.Namespace) -> object:
    d = _load(args.dist, distribution_from_json)
    return diagnose(d).to_json()


def _cmd_verify(args: argparse.Namespace) -> object:
    d = _load(args.dist, distribution_from_json)
    system_class = SystemClass(args.system_class)
    return verify_theorems(d.n, d, system_class).to_json()


def _cmd_basis(args: argparse.Namespace) -> object:
    system_class = SystemClass(args.system_class)
    systems = appendix_basis(args.n, system_class)
    payload: dict = {
        "n": args.n,
        "class": system_class.value,
        "count": len(systems),
        "systems": [system_to_json(phi) for phi in systems],
    }
    if args.check_rank:
        payload["rank"] = rank_over_rationals(systems)
        payload["expected"] = (1 << args.n) - 1
    return payload


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sigrel",
        description="Exact signature and reliability computations on JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signature", help="design signature of a system")
    p.add_argument("--system", required=True, help="system JSON file")
    p.set_defaults(handler=_cmd_signature)

    p = sub.add_parser(
        "prob-signature",
        help="probability signature via the quality function and via the atom oracle",
    )
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.set_defaults(handler=_cmd_prob_signature)

    p = sub.add_parser("reliability", help="survival curve, or one value at --t")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--t", type=_time_arg, help='time as "a/b" or an integer')
    p.set_defaults(handler=_cmd_reliability)

    p = sub.add_parser(
        "diagnose", help="conditions and predicted verdicts, no enumeration"
    )
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser(
        "verify",
        help="measure the verdicts over an enumerated class and cross-check them",
    )
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument(
        "--class",
        dest="system_class",
        required=True,
        choices=[c.value for c in SystemClass],
        help="system class to enumerate",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("basis", help="spanning family of systems plus its rank")
    p.add_argument("--n", type=int, required=True, help="number of components")
    p.add_argument(
        "--class",
        dest="system_class",
        default=SystemClass.COHERENT.value,
        choices=[c.value for c in SystemClass],
        help="system class (default: coherent)",
    )
    p.add_argument(
        "--check-rank",
        action="store_true",
        help="also report the exact rank and the full-span target",
    )
    p.set_defaults(handler=_cmd_basis)

    return parser


def _fail(code: int, category: str, detail: str) -> int:
    sys.stderr.write(json.dumps({"error": category, "detail": detail}, indent=2) + "\n")
    return code


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(2, "usage", str(exc))
    try:
        payload = args.handler(args)
    except _InputError as exc:
        return _fail(1, "input", str(exc))
    except TheoremInconsistencyError as exc:
        return _fail(3, "inconsistency", str(exc))
    except (TiesError, EnumerationBoundError, ValueError) as exc:
        return _fail(2, "precondition", str(exc))
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
