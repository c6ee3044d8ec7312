"""Command-line front-end: sequences, quaternions, identity checks, sweeps.

Exit codes: 0 success, 1 an exact check came out unequal or inconsistent,
2 usage error (malformed flags, unknown ids, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .identities import CATALOG, IdentityId, identity_sides, required_bindings
from .quaternions import build_quaternion
from .scalars import parse_rational, positive_k
from .sequences import Family, seq_row
from .verifier import SweepConfig, default_config, reports_to_json, summary_lines, sweep

USAGE_ERROR = 2
UNEQUAL = 1


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


@_usage
def _int_range(text: str) -> tuple[int, int]:
    """Inclusive range 'a..b', or a single integer 'a' meaning a..a."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        bounds = (int(lo), int(hi))
    else:
        bounds = (int(text), int(text))
    if bounds[0] > bounds[1]:
        raise ValueError(f"empty range: {text!r}")
    return bounds


@_usage
def _identity_ids(text: str) -> tuple[IdentityId, ...]:
    if text.strip().lower() == "all":
        return tuple(CATALOG)
    return tuple(IdentityId.from_tag(part) for part in text.split(","))


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_seq(args: argparse.Namespace) -> int:
    if args.start > args.end:
        print("error: --from must not exceed --to", file=sys.stderr)
        return USAGE_ERROR
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
    quaternion = build_quaternion(args.family, args.k, args.n)
    if args.format == "plain":
        print(quaternion.value.render())
    else:
        _emit(quaternion.value.to_json_dict())
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
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
    config = SweepConfig(
        ids=args.ids,
        k_values=args.k,
        n_range=args.n,
        m_range=args.m,
        r_range=args.r,
        max_counterexamples=args.max_counterexamples,
    )
    reports = sweep(config)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(reports_to_json(reports) + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return USAGE_ERROR
    if args.format == "csv":
        print("identity,verdict,grid_size,skipped")
        for line in summary_lines(reports):
            print(",".join(line.split()))
    else:
        for line in summary_lines(reports):
            print(line)
    return 0


def _cmd_binet(args: argparse.Namespace) -> int:
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
    value = int(text)
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
    p_seq.add_argument("--family", type=_usage(Family.from_name), required=True)
    p_seq.add_argument("--k", type=_k, required=True)
    p_seq.add_argument("--from", dest="start", type=int, required=True)
    p_seq.add_argument("--to", dest="end", type=int, required=True)
    p_seq.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p_seq.set_defaults(func=_cmd_seq)

    p_quat = sub.add_parser("quat", help="print one dual-complex quaternion")
    p_quat.add_argument("--family", type=_usage(Family.from_name), required=True)
    p_quat.add_argument("--k", type=_k, required=True)
    p_quat.add_argument("--n", type=int, required=True)
    p_quat.add_argument("--format", choices=("json", "plain"), default="json")
    p_quat.set_defaults(func=_cmd_quat)

    p_id = sub.add_parser("identity", help="check one identity at one tuple")
    p_id.add_argument("--id", type=_usage(IdentityId.from_tag), required=True)
    p_id.add_argument("--k", type=_k)
    p_id.add_argument("--n", type=int)
    p_id.add_argument("--m", type=int)
    p_id.add_argument("--r", type=int)
    p_id.add_argument("--format", choices=("json", "plain"), default="json")
    p_id.set_defaults(func=_cmd_identity)

    grid = default_config()
    p_sweep = sub.add_parser("sweep", help="sweep identities over a parameter grid")
    p_sweep.add_argument("--ids", type=_identity_ids, default=grid.ids)
    p_sweep.add_argument(
        "--k", type=lambda text: tuple(map(_k, text.split(","))), default=grid.k_values
    )
    p_sweep.add_argument("--n", type=_int_range, default=grid.n_range)
    p_sweep.add_argument("--m", type=_int_range, default=grid.m_range)
    p_sweep.add_argument("--r", type=_int_range, default=grid.r_range)
    p_sweep.add_argument(
        "--max-counterexamples", type=_nonnegative_int, default=grid.max_counterexamples
    )
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values can be any length, so the int->str digit cap (Python 3.10.7+)
    # is lifted for this call only and restored for in-process callers.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return args.func(args)
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return args.func(args)
    finally:
        set_limit(previous)


if __name__ == "__main__":
    sys.exit(main())
