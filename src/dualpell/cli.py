"""Command-line front-end: sequences, quaternions, identity checks, sweeps.

Exit codes: 0 success, 1 an exact check came out unequal or inconsistent,
2 usage error (malformed flags, unknown ids, out-of-range parameters),
141 (128 + SIGPIPE) the reader closed stdout before the output was written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import ASCII_SPACE, parse_rational, positive_k

if TYPE_CHECKING:
    from .identities import IdentityId
    from .sequences import Family

USAGE_ERROR = 2
UNEQUAL = 1
BROKEN_PIPE = 141


def _usage(parse):
    """An argparse type that reports the ValueError of a library check as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@_usage
def _k(text: str) -> Fraction | int:
    return positive_k(parse_rational(text))


_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_int(text: str) -> int:
    """int(text) for ASCII digits with an optional sign only.

    int() also takes other scripts' digits, '_' and Unicode spaces. Text that
    int() rejects too keeps int()'s own message.
    """
    value = int(text)
    if not _INT_RE.fullmatch(text.strip(ASCII_SPACE)):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return value


@_usage
def _int(text: str) -> int:
    """argparse's type=int on the ASCII rule, with type=int's message."""
    try:
        return _parse_int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


@_usage
def _int_range(text: str) -> tuple[int, int]:
    """Inclusive range 'a..b', or a single integer 'a' meaning a..a."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        bounds = (_parse_int(lo), _parse_int(hi))
    else:
        bounds = (_parse_int(text), _parse_int(text))
    if bounds[0] > bounds[1]:
        raise ValueError(f"empty range: {text!r}")
    return bounds


@_usage
def _family(text: str) -> Family:
    from .sequences import Family

    return Family.from_name(text)


@_usage
def _identity_id(text: str) -> IdentityId:
    from .identities import IdentityId

    return IdentityId.from_tag(text)


@_usage
def _identity_ids(text: str) -> tuple[IdentityId, ...]:
    from .identities import CATALOG, IdentityId

    if text.strip(ASCII_SPACE).lower() == "all":
        return tuple(CATALOG)
    return tuple(IdentityId.from_tag(part) for part in text.split(","))


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_seq(args: argparse.Namespace) -> int:
    if args.start > args.end:
        print("error: --from must not exceed --to", file=sys.stderr)
        return USAGE_ERROR
    from .sequences import seq_row

    terms = seq_row(args.family, args.k, args.start, args.end - args.start + 1)
    values = [str(term) for term in terms]
    if args.format == "csv":
        print(",".join(values))
    elif args.format == "plain":
        print(" ".join(values))
    else:
        _emit(
            {
                "family": args.family.value,
                "k": str(args.k),
                "from": args.start,
                "to": args.end,
                "values": values,
            }
        )
    return 0


def _cmd_quat(args: argparse.Namespace) -> int:
    from .quaternions import build_quaternion

    quaternion = build_quaternion(args.family, args.k, args.n)
    if args.format == "plain":
        print(quaternion.value.render())
    else:
        _emit(quaternion.value.to_json_dict())
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    from .identities import identity_sides, required_bindings

    bindings: dict = {}
    for name in ("k", "n", "m", "r"):
        value = getattr(args, name)
        if value is not None:
            bindings[name] = value
    required = required_bindings(args.id)
    if "k" not in required:
        bindings.pop("k", None)
    try:
        lhs, rhs = identity_sides(args.id, bindings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    equal = lhs == rhs
    if args.format == "plain":
        print(f"equal: {'true' if equal else 'false'}")
        print(f"lhs: {lhs.render()}")
        print(f"rhs: {rhs.render()}")
    else:
        _emit({"equal": equal, "lhs": lhs.to_json_dict(), "rhs": rhs.to_json_dict()})
    return 0 if equal else UNEQUAL


def _cmd_sweep(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from . import verifier

    given = {
        "ids": args.ids,
        "k_values": args.k,
        "n_range": args.n,
        "m_range": args.m,
        "r_range": args.r,
        "max_counterexamples": args.max_counterexamples,
    }
    config = replace(
        verifier.default_config(),
        **{field: value for field, value in given.items() if value is not None},
    )
    reports = verifier.sweep(config)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(verifier.reports_to_json(reports) + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return USAGE_ERROR
    if args.format == "csv":
        print("identity,verdict,grid_size,skipped")
        for line in verifier.summary_lines(reports):
            print(",".join(line.split()))
    else:
        for line in verifier.summary_lines(reports):
            print(line)
    return 0


def _cmd_binet(args: argparse.Namespace) -> int:
    from .identities import IdentityId, identity_sides

    bindings = {"k": args.k, "n": args.n}
    if args.level == "number":
        closed, direct = identity_sides(IdentityId.BINET_NUMBER, bindings)
        plain_value = str(closed.real)
        rendered: object = plain_value
    else:
        closed, direct = identity_sides(IdentityId.BINET_QUATERNION, bindings)
        rendered = closed.to_json_dict()
        plain_value = closed.render()
    consistent = closed == direct
    if args.format == "plain":
        print(plain_value)
        print(f"consistent: {'true' if consistent else 'false'}")
    else:
        _emit(
            {
                "level": args.level,
                "k": str(args.k),
                "n": args.n,
                "value": rendered,
                "consistent": consistent,
            }
        )
    return 0 if consistent else UNEQUAL


@_usage
def _nonnegative_int(text: str) -> int:
    value = _parse_int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpell",
        description="Exact dual-complex k-Pell sequences, quaternions and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print a stretch of a sequence")
    p_seq.add_argument("--family", type=_family, required=True)
    p_seq.add_argument("--k", type=_k, required=True)
    p_seq.add_argument("--from", dest="start", type=_int, required=True)
    p_seq.add_argument("--to", dest="end", type=_int, required=True)
    p_seq.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p_seq.set_defaults(func=_cmd_seq)

    p_quat = sub.add_parser("quat", help="print one dual-complex quaternion")
    p_quat.add_argument("--family", type=_family, required=True)
    p_quat.add_argument("--k", type=_k, required=True)
    p_quat.add_argument("--n", type=_int, required=True)
    p_quat.add_argument("--format", choices=("json", "plain"), default="json")
    p_quat.set_defaults(func=_cmd_quat)

    p_id = sub.add_parser("identity", help="check one identity at one tuple")
    p_id.add_argument("--id", type=_identity_id, required=True)
    p_id.add_argument("--k", type=_k)
    p_id.add_argument("--n", type=_int)
    p_id.add_argument("--m", type=_int)
    p_id.add_argument("--r", type=_int)
    p_id.add_argument("--format", choices=("json", "plain"), default="json")
    p_id.set_defaults(func=_cmd_identity)

    # Unset grid flags stay None and _cmd_sweep takes them from default_config(),
    # so building the parser loads no catalog.
    p_sweep = sub.add_parser("sweep", help="sweep identities over a parameter grid")
    p_sweep.add_argument("--ids", type=_identity_ids)
    p_sweep.add_argument("--k", type=lambda text: tuple(map(_k, text.split(","))))
    p_sweep.add_argument("--n", type=_int_range)
    p_sweep.add_argument("--m", type=_int_range)
    p_sweep.add_argument("--r", type=_int_range)
    p_sweep.add_argument("--max-counterexamples", type=_nonnegative_int)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("plain", "csv"), default="plain")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_binet = sub.add_parser("binet", help="closed-form value plus consistency check")
    p_binet.add_argument("--k", type=_k, required=True)
    p_binet.add_argument("--n", type=_nonnegative_int, required=True)
    p_binet.add_argument("--level", choices=("number", "quaternion"), default="number")
    p_binet.add_argument("--format", choices=("json", "plain"), default="json")
    p_binet.set_defaults(func=_cmd_binet)

    return parser


def _run(args: argparse.Namespace) -> int:
    """The command's exit code, with its output flushed, or BROKEN_PIPE if the reader has gone."""
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        # What is still buffered goes to devnull, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values can be any length, so the int->str digit cap (Python 3.10.7+)
    # is lifted for this call only and restored for in-process callers.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(args)
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(args)
    finally:
        set_limit(previous)


if __name__ == "__main__":
    sys.exit(main())
