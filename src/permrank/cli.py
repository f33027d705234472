"""Command-line interface.

Subcommands expose the verification suites and data dumps with
deterministic, machine-readable output; randomness enters only through
explicit --seed flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import mpmath

from . import bounds, characters, permmatrix, twoway, verify

#: Limits on what 2dfa commrank samples: string length, strings per side, matrix entries.
MAX_SAMPLED_LENGTH = 64
MAX_SAMPLED_STRINGS = 1 << 20
MAX_SAMPLED_ENTRIES = 1 << 26


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse partition {text!r}; expected e.g. 2,1")
    from .young import check_partition

    try:
        return check_partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _partition_label(parts) -> str:
    # '+'-joined so labels stay CSV-safe ("2+1", not "2,1")
    return "+".join(str(p) for p in parts)


def _cmd_rank(args) -> int:
    expected = bounds.binomial(2 * args.k - 2, args.k - 1)
    t0 = time.perf_counter()
    try:
        if args.dump_pbm:
            permmatrix.write_pbm(permmatrix.cycle_product_matrix(args.k), args.dump_pbm)
        cert = permmatrix.certified_rank(
            args.k,
            method=args.method,
            num_primes=args.primes,
            seed=args.seed,
            allow_heavy=args.allow_heavy,
        )
    except (ValueError, OSError, permmatrix.PrimeDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    payload = {
        "k": args.k,
        "rank": cert.rank,
        "expected": expected,
        "method": cert.method,
        "primes": list(cert.primes),
        "blocks": dataclasses.asdict(cert.blocks) if cert.blocks else None,
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
        if cert.primes:
            print(f"primes: {', '.join(map(str, cert.primes))}")
        if cert.blocks:
            b = cert.blocks
            print(
                f"blocks: {b.count} of order {b.order} per prime, from a cyclic subgroup "
                f"of order {b.subgroup_order} (cycle type {_partition_label(b.cycle_type)})"
            )
        print(f"note: {cert.note}")
    return 0 if cert.rank == expected else 1


def _cmd_verify(args) -> int:
    try:
        report = verify.run_suite(args.suite, quick=args.quick, max_n=args.n, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
        print(characters.character(args.shape, args.alpha))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_chartable(args) -> int:
    try:
        table = characters.character_table(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .young import partitions

    shapes = partitions(args.n)
    classes = list(reversed(shapes))
    sep = "," if args.format == "csv" else "\t"
    print(sep.join(["shape\\class"] + [_partition_label(mu) for mu in classes]))
    for lam, row in zip(shapes, table):
        print(sep.join([_partition_label(lam)] + [str(v) for v in row]))
    return 0


def _cmd_asym(args) -> int:
    ratio = bounds.asymptotic_ratio(args.n, digits=args.digits)
    print(mpmath.nstr(ratio, args.digits))
    return 0


def _oversized_sample(args, k: int) -> str | None:
    """Why the sample 2dfa commrank would build over k symbols is too large, or None."""
    counts = []
    for flag, length in (("--prefix-len", args.prefix_len), ("--suffix-len", args.suffix_len)):
        if length > MAX_SAMPLED_LENGTH:
            return f"{flag} {length} is above the limit of {MAX_SAMPLED_LENGTH}"
        counts.append(sum(k**i for i in range(length + 1)))
        if counts[-1] > MAX_SAMPLED_STRINGS:
            return (
                f"{flag} {length} samples {counts[-1]} strings over {k} symbols; "
                f"the limit is {MAX_SAMPLED_STRINGS}"
            )
    rows, cols = counts
    if rows * cols > MAX_SAMPLED_ENTRIES:
        return (
            f"the sampled matrix would be {rows}x{cols} ({rows * cols} entries); "
            f"the limit is {MAX_SAMPLED_ENTRIES}"
        )
    return None


def _cmd_2dfa(args) -> int:
    try:
        automaton = twoway.TwoWayDFA.load(args.automaton)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot load automaton: {exc}", file=sys.stderr)
        return 2
    if args.twoway_command == "run":
        try:
            if args.trace:
                outcome, steps = twoway.run(automaton, args.word, trace=True)
                for state, pos in steps:
                    print(f"{state} @ {pos}")
            else:
                outcome = twoway.run(automaton, args.word)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(outcome.value)
        return 0
    # commrank: size the sample before building it; rank its distinct rows and columns
    if refusal := _oversized_sample(args, len(automaton.alphabet)):
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    prefixes = twoway.all_strings(automaton.alphabet, args.prefix_len)
    suffixes = twoway.all_strings(automaton.alphabet, args.suffix_len)
    try:
        distinct = twoway.comm_matrix(automaton, prefixes, suffixes, dedup=True)
        rank = permmatrix.rank_exact(distinct.entries)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dedup_rows, dedup_cols = len(distinct.prefixes), len(distinct.suffixes)
    rows, cols = (dedup_rows, dedup_cols) if args.dedup else (len(prefixes), len(suffixes))
    if args.json:
        print(
            json.dumps(
                {
                    "prefix_len": args.prefix_len,
                    "suffix_len": args.suffix_len,
                    "rows": rows,
                    "cols": cols,
                    "rank": rank,
                    "dedup_rows": dedup_rows,
                    "dedup_cols": dedup_cols,
                }
            )
        )
    else:
        print(
            f"communication matrix {rows}x{cols} "
            f"(distinct {dedup_rows}x{dedup_cols}), rank {rank}"
        )
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
    p.add_argument("--method", choices=("auto", "exact", "modp"), default="auto")
    p.add_argument(
        "--primes", type=_int_at_least(1), default=3, help="primes for the modular method"
    )
    p.add_argument("--seed", type=int, default=None, help="seed for prime sampling")
    p.add_argument("--dump-pbm", metavar="PATH", default=None, help="also write the matrix as a PBM image")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--allow-heavy",
        action="store_true",
        help="permit degree 8 (about 75 s per prime and 0.46 GB on 2 cores)",
    )
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=(*verify.SUITES, "all"))
    p.add_argument(
        "--n", type=_int_at_least(1), default=None, help="override the suite's degree limit"
    )
    p.add_argument("--quick", action="store_true", help="cap degrees at 6 and shrink samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="print the bound table")
    p.add_argument("--max", type=_int_at_least(1), default=10)
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
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--digits", type=_int_at_least(1), default=30)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("2dfa", help="two-way automaton tools")
    twoway_sub = p.add_subparsers(dest="twoway_command", required=True)
    r = twoway_sub.add_parser("run", help="simulate on one word")
    r.add_argument("-a", "--automaton", required=True)
    r.add_argument("-w", "--word", required=True, default="")
    r.add_argument("--trace", action="store_true")
    r.set_defaults(func=_cmd_2dfa)
    c = twoway_sub.add_parser("commrank", help="rank of a sampled communication matrix")
    c.add_argument("-a", "--automaton", required=True)
    c.add_argument("--prefix-len", type=_int_at_least(0), default=4)
    c.add_argument("--suffix-len", type=_int_at_least(0), default=4)
    c.add_argument("--dedup", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_2dfa)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
