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
from itertools import islice
from typing import Callable

from .distribution import LifetimeDistribution, distribution_from_json, relative_quality
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
    StructureFunction,
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


def _load(path: str, parse: Callable[[object], object]) -> object:
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


def _cmd_signature(args: argparse.Namespace, phi: StructureFunction) -> object:
    return list(boland_signature(phi).as_strings())


def _cmd_prob_signature(
    args: argparse.Namespace, phi: StructureFunction, d: LifetimeDistribution
) -> object:
    if phi.n != d.n:  # before relative_quality forms its 2**n values
        raise ValueError("system and distribution disagree on component count")
    quality_based = probability_signature(phi, relative_quality(d))
    atom_oracle = probability_signature_oracle(phi, d)
    return {
        "quality_based": list(quality_based.as_strings()),
        "atom_oracle": list(atom_oracle.as_strings()),
        "agree": quality_based == atom_oracle,
    }


def _cmd_reliability(
    args: argparse.Namespace, phi: StructureFunction, d: LifetimeDistribution
) -> object:
    if args.t is not None:
        value = system_reliability(phi, d, args.t)
        return {"t": format_rational(args.t), "value": format_rational(value)}
    return reliability_curve(phi, d).to_json()


def _cmd_diagnose(args: argparse.Namespace, d: LifetimeDistribution) -> object:
    return diagnose(d).to_json()


def _cmd_verify(args: argparse.Namespace, d: LifetimeDistribution) -> object:
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


# Each file option: the parser of its JSON and its help text.
_FILES = {
    "system": (system_from_json, "system JSON file"),
    "dist": (distribution_from_json, "distribution JSON file"),
}

# Each command: name, handler, the file options `run` loads for the handler in order, help.
_COMMANDS = (
    ("signature", _cmd_signature, ("system",), "design signature of a system"),
    ("prob-signature", _cmd_prob_signature, ("system", "dist"),
     "probability signature via the quality function and via the atom oracle"),
    ("reliability", _cmd_reliability, ("system", "dist"), "survival curve, or one value at --t"),
    ("diagnose", _cmd_diagnose, ("dist",), "conditions and predicted verdicts, no enumeration"),
    ("verify", _cmd_verify, ("dist",),
     "measure the verdicts over an enumerated class and cross-check them"),
    ("basis", _cmd_basis, (), "spanning family of systems plus its rank"),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sigrel",
        description="Exact signature and reliability computations on JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, files, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in files:
            p.add_argument(f"--{option}", required=True, help=_FILES[option][1])
        p.set_defaults(handler=handler, files=files)
    p = sub.choices["reliability"]
    p.add_argument("--t", type=_time_arg, help='time as "a/b" or an integer')
    class_option = {"dest": "system_class", "choices": [c.value for c in SystemClass]}
    p = sub.choices["verify"]
    p.add_argument("--class", required=True, help="system class to enumerate", **class_option)
    p = sub.choices["basis"]
    p.add_argument("--n", type=int, required=True, help="number of components")
    p.add_argument(
        "--class",
        default=SystemClass.COHERENT.value,
        help="system class (default: coherent)",
        **class_option,
    )
    p.add_argument(
        "--check-rank",
        action="store_true",
        help="also report the exact rank and the full-span target",
    )
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
        loaded = [_load(getattr(args, option), _FILES[option][0]) for option in args.files]
        payload = args.handler(args, *loaded)
    except _InputError as exc:
        return _fail(1, "input", str(exc))
    except TheoremInconsistencyError as exc:
        return _fail(3, "inconsistency", str(exc))
    except (TiesError, EnumerationBoundError, ValueError) as exc:
        return _fail(2, "precondition", str(exc))
    # The payload is complete; write the pure-Python encoder's chunks in batches, not joined.
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
