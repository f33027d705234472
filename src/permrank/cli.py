"""Command-line interface.

Subcommands expose the verification suites and data dumps with
deterministic, machine-readable output; randomness enters only through
--seed flags, which default to 0, so a run without one repeats.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import bounds, characters, permmatrix, twoway, verify
from .young import check_partition, partitions

#: Longest string 2dfa commrank samples.
MAX_SAMPLED_LENGTH = 64

#: Largest values of the flags whose work grows without bound, each under
#: about 20 s on a 2-core x86-64 host, as verify.MAX_DEGREE: bound --max 650
#: took 1.4 s, asym --n 5000 --digits 200000 6.8 s (mostly mpmath), and char
#: --lambda 14,10,8,6,5,4,3,2,2,2,1,1,1,1 at the identity class 18.9 s, each
#: as a command; of the shapes of weight 60 it has the most subshapes (224k),
#: and the recursion visits each.  rank --primes needs no cap: the loop stops
#: once every class is proved, as rank --method exact does (13 primes and
#: 4.8-5.3 s at --k 8).  Library functions take any value.
MAX_BOUND_ROWS = 650
MAX_ASYM_N = 5000
MAX_ASYM_DIGITS = 200_000
MAX_CHAR_WEIGHT = 60


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse partition {text!r}; expected e.g. 2,1")
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _partition_label(parts) -> str:
    # '+'-joined so labels stay CSV-safe ("2+1", not "2,1")
    return "+".join(str(p) for p in parts)


def _cmd_rank(args) -> int:
    t0 = time.perf_counter()
    if args.dump_pbm:
        permmatrix.write_pbm(permmatrix.cycle_product_matrix(args.k), args.dump_pbm)
    cert = permmatrix.certified_rank(args.k, method=args.method, num_primes=args.primes, seed=args.seed)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    expected = bounds.binomial(2 * args.k - 2, args.k - 1)  # after the degree check
    payload = {
        "k": args.k,
        "rank": cert.rank,
        "expected": expected,
        "method": cert.method,
        "primes": list(cert.primes),
        "blocks": dataclasses.asdict(cert.blocks),
        "note": cert.note,
        "elapsed_ms": elapsed_ms,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        status = "PASS" if cert.rank == expected else "FAIL"
        print(
            f"k={args.k}: rank {cert.rank}, expected {expected} [{status}] "
            f"({cert.method}, {elapsed_ms} ms)"
        )
        print(f"primes: {', '.join(map(str, cert.primes))}")
        b, primes = cert.blocks, len(cert.primes)
        print(
            f"blocks: {b.count} of order {b.order} per prime, {b.eliminated} eliminated over {primes} "
            f"prime{'s' * (primes > 1)}, from the subgroup <a> x <b> of order {b.subgroup_order} "
            f"(cycle types {' and '.join(map(_partition_label, b.cycle_types))})"
        )
        print(f"note: {cert.note}")
    return 0 if cert.rank == expected else 1


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, max_n=args.n, seed=args.seed)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def _cmd_bound(args) -> int:
    rows = bounds.bound_table(args.max)
    headers = ("n", "earlier lower bound", "new lower bound", "upper bound")
    if args.format == "json":
        print(json.dumps([vars(r) for r in rows]))
    elif args.format == "csv":
        print("n,earlier_lower,new_lower,upper")
        for r in rows:
            print(f"{r.n},{r.earlier_lower},{r.new_lower},{r.upper}")
    elif args.format == "markdown":
        print("| " + " | ".join(headers) + " |")
        print("|" + "|".join("---" for _ in headers) + "|")
        for r in rows:
            print(f"| {r.n} | {r.earlier_lower} | {r.new_lower} | {r.upper} |")
    else:
        widths = [6, 22, 22, 22]
        print("".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in rows:
            cells = (str(r.n), str(r.earlier_lower), str(r.new_lower), str(r.upper))
            print("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0


def _cmd_char(args) -> int:
    if sum(args.shape) > MAX_CHAR_WEIGHT:  # before the recursion, which also grows one frame deeper per part
        raise ValueError(f"--lambda weight {sum(args.shape)} is above the limit of {MAX_CHAR_WEIGHT}")
    print(characters.character(args.shape, args.alpha))
    return 0


def _cmd_chartable(args) -> int:
    table = characters.character_table(args.n)
    shapes = partitions(args.n)
    classes = list(reversed(shapes))
    sep = "," if args.format == "csv" else "\t"
    print(sep.join(["shape\\class"] + [_partition_label(mu) for mu in classes]))
    for lam, row in zip(shapes, table):
        print(sep.join([_partition_label(lam)] + [str(v) for v in row]))
    return 0


def _cmd_asym(args) -> int:
    import mpmath

    ratio = bounds.asymptotic_ratio(args.n, digits=args.digits)
    print(mpmath.nstr(ratio, args.digits))
    return 0


def _cmd_2dfa(args) -> int:
    try:
        automaton = twoway.TwoWayDFA.load(args.automaton)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load automaton: {exc}") from exc
    if args.twoway_command == "run":
        if args.trace:
            outcome, steps = twoway.run(automaton, args.word, trace=True)
            for state, pos in steps:
                print(f"{state} @ {pos}")
        else:
            outcome = twoway.run(automaton, args.word)
        print(outcome.value)
        return 0
    # commrank: rank the distinct part, composed from the reachable tables only
    for flag, length in (("--prefix-len", args.prefix_len), ("--suffix-len", args.suffix_len)):
        if length > MAX_SAMPLED_LENGTH:
            raise ValueError(f"{flag} {length} is above the limit of {MAX_SAMPLED_LENGTH}")
    distinct = twoway.distinct_comm_matrix(automaton, args.prefix_len, args.suffix_len)
    rank = permmatrix.rank_exact(distinct.entries)
    dedup_rows, dedup_cols = len(distinct.prefixes), len(distinct.suffixes)
    k = len(automaton.alphabet)
    rows, cols = (sum(k**i for i in range(n + 1)) for n in (args.prefix_len, args.suffix_len))
    if args.json:
        print(json.dumps({"prefix_len": args.prefix_len, "suffix_len": args.suffix_len, "rows": rows,
                          "cols": cols, "rank": rank, "dedup_rows": dedup_rows, "dedup_cols": dedup_cols}))
    else:
        print(f"communication matrix {rows}x{cols} (distinct {dedup_rows}x{dedup_cols}), rank {rank}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permrank",
        description=(
            "verify, by direct computation, the rank of cycle-indicator "
            "permutation matrices, the character machinery behind it, the "
            "derived state-complexity bounds, and two-way automaton rank "
            "lower bounds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of the degree-k cycle product matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("exact", "modp"), default="modp")
    p.add_argument(
        "--primes", type=_int_at_least(1), default=3,
        help="most primes the modular method draws; it stops early once every class is proved. "
        "The exact method ignores it",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for prime sampling")
    p.add_argument("--dump-pbm", metavar="PATH", default=None, help="also write the matrix as a PBM image")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=(*verify.SUITES, "all"))
    p.add_argument(
        "--n",
        type=_int_at_least(1),
        default=None,
        help="override the suite's degree limit, up to its cap "
        f"({', '.join(f'{suite} {cap}' for suite, cap in verify.MAX_DEGREE.items())}); "
        "the other suites take no degree and refuse --n, and with --suite all it "
        "applies only to the suites listed",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="print the bound table")
    p.add_argument("--max", type=_int_at_least(1, MAX_BOUND_ROWS), default=10)
    p.add_argument("--format", choices=("plain", "csv", "json", "markdown"), default="plain")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("char", help="one character value")
    p.add_argument(
        "--lambda", dest="shape", type=_parse_partition, required=True, help="shape, e.g. 2,1"
    )
    p.add_argument("--alpha", type=_parse_partition, required=True, help="cycle type, e.g. 3")
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("chartable", help="full character table")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("plain", "csv"), default="plain")
    p.set_defaults(func=_cmd_chartable)

    p = sub.add_parser("asym", help="ratio of the bound to its asymptotic form")
    p.add_argument("--n", type=_int_at_least(1, MAX_ASYM_N), required=True)
    p.add_argument("--digits", type=_int_at_least(1, MAX_ASYM_DIGITS), default=30)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("2dfa", help="two-way automaton tools")
    twoway_sub = p.add_subparsers(dest="twoway_command", required=True)
    r = twoway_sub.add_parser("run", help="simulate on one word")
    r.add_argument("-a", "--automaton", required=True)
    r.add_argument("-w", "--word", required=True)
    r.add_argument("--trace", action="store_true")
    r.set_defaults(func=_cmd_2dfa)
    c = twoway_sub.add_parser("commrank", help="rank of a sampled communication matrix")
    c.add_argument("-a", "--automaton", required=True)
    c.add_argument("--prefix-len", type=_int_at_least(0), default=4)
    c.add_argument("--suffix-len", type=_int_at_least(0), default=4)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_2dfa)

    return parser


def main(argv=None) -> int:
    """Run one command; every refusal it raises becomes one line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
