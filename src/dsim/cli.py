"""Command line front end.

Subcommands: encode (draw and compress samples into a container file),
decode (regenerate samples from a container), bench (empirical mean lengths
against the closed-form ceilings), bound (evaluate one ceiling), exact-length
(depth-truncated exact expectation for the unit scheme), verify (round-trip
distribution tests at level 0.01 over many seeds).  All randomness derives
from --seed, so identical invocations produce byte-identical outputs.  main
alone turns exceptions into messages: a malformed container, an unreadable or
unwritable file, or other bad input prints one error line and exits 1.  Each
command reads its input before it opens its output, and does its work after,
so a bad -o fails before any work is done.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import desimulate_any, simulate_any
from .bitcodes import FormatError, TruncatedStreamError, read_header
from .distributions import parse_spec
from .rng import RandomSource

# theorem: the options its ceiling (bounds_analysis.thm<theorem>_bound)
# takes before n, in order.  The analysis subcommands import bounds_analysis
# when they run, so encode and decode never load scipy.stats.
_THEOREMS = {"1": ("c", "lam"), "2": ("c", "lam"), "3": ("f0",), "4": ("c", "lam", "f0")}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _open_output(path: str, binary: bool = False):
    """The -o file opened for writing, or stdout for '-'."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout.buffer if binary else sys.stdout)
    return open(path, "wb" if binary else "w", newline=None if binary else "\n")


def _int_list(spec: str) -> list[int]:
    try:
        values = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {spec!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty n list")
    return values


def cmd_encode(args) -> int:
    dist = parse_spec(args.dist)
    with _open_output(args.output, binary=True) as fh:
        data = simulate_any(dist, args.n, RandomSource.from_seed(args.seed))
        fh.write(data)
    header = read_header(data)
    print(f"wrote {args.output}: scheme={dist.support} n={header.n} payload_bits={header.payload_bits}",
          file=sys.stderr if args.output == "-" else sys.stdout)
    return 0


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    with _open_output(args.output) as out:
        values = desimulate_any(data, RandomSource.from_seed(args.seed))
        lines = ["value"]
        if values.dtype == np.int64:
            lines.extend(str(int(v)) for v in values)
        else:
            lines.extend(_fmt(v) for v in values)
        out.write("\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    from . import bounds_analysis

    dist = parse_spec(args.dist)
    with _open_output(args.output) as out:
        rows = ["scheme,dist,n,trials,mean_bits,stderr_bits,bound_bits"]
        means = []
        for n in args.n_list:
            result = bounds_analysis.empirical_length(dist, n, args.trials, args.seed)
            bound = bounds_analysis.reference_bound(dist, n)
            means.append((n, result.mean))
            rows.append(",".join([dist.support, args.dist, str(n), str(args.trials),
                                  _fmt(result.mean), _fmt(result.stderr),
                                  _fmt(bound) if bound is not None else ""]))
        slope = bounds_analysis.loglog_slope(means) if len({n for n, _ in means}) >= 2 else float("nan")
        rows.append(",".join([dist.support, args.dist, "slope", str(args.trials), _fmt(slope), "", ""]))
        out.write("\n".join(rows) + "\n")
    return 0


def cmd_bound(args) -> int:
    from . import bounds_analysis

    fields = _THEOREMS[args.theorem]
    for field in fields:
        if getattr(args, field) is None:
            flag = "--lambda" if field == "lam" else f"--{field}"
            print(f"error: theorem {args.theorem} needs {flag}", file=sys.stderr)
            return 2
    ceiling = getattr(bounds_analysis, f"thm{args.theorem}_bound")
    print(_fmt(ceiling(*(getattr(args, field) for field in fields), args.n)))
    return 0


def cmd_exact_length(args) -> int:
    from . import bounds_analysis

    dist = parse_spec(args.dist)
    with _open_output(args.output) as out:
        rows = ["dist,n,kmax,expected_bits"]
        for n in args.n_list:
            value = bounds_analysis.exact_expected_length_unit(dist, n, args.kmax)
            rows.append(",".join([args.dist, str(n), str(args.kmax), _fmt(value)]))
        out.write("\n".join(rows) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import bounds_analysis

    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    dist = parse_spec(args.dist)
    root = RandomSource.from_seed(args.seed)
    passed = 0
    for t in range(args.trials):
        name, stat, ok = bounds_analysis.verify_trial(dist, args.n, root.child("trial", t))
        passed += ok
        print(f"trial {t}: {name} stat={_fmt(stat)} {'pass' if ok else 'FAIL'}")
    rate = passed / args.trials
    print(f"passed {passed}/{args.trials} trials (need >= 90%)")
    return 0 if rate >= 0.9 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="draw n samples and write a container file")
    p.add_argument("--dist", required=True, help="e.g. geometric:p=0.7, zipf:s=3, triangular, exp:lambda=1, pareto_flat:c=2,lambda=2")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="regenerate samples from a container file as CSV")
    p.add_argument("input")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="empirical mean lengths vs the closed-form ceiling")
    p.add_argument("--dist", required=True)
    p.add_argument("--n-list", type=_int_list, required=True, help="comma separated, e.g. 100,1000,10000")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bound", help="evaluate one closed-form length ceiling")
    p.add_argument("--theorem", required=True, choices=_THEOREMS)
    p.add_argument("--c", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--f0", type=float)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("exact-length", help="depth-truncated exact expected length, unit scheme")
    p.add_argument("--dist", required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_exact_length)

    p = sub.add_parser("verify", help="round-trip distribution tests at level 0.01 over many seeds")
    p.add_argument("--dist", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, TruncatedStreamError) as exc:  # FormatError is a ValueError
        print(f"error: container: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
