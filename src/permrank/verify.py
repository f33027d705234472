"""Named verification suites with machine-readable reports.

Each suite re-derives one family of claims by direct computation and
compares against frozen expectations or cross-computed values.  One table,
``SUITES``, names every suite in run order with its default degree;
``run_suite`` calls ``_suite_<name>(report, max_n, seed)`` from it.  Reports
carry every failing case; an empty failure list is the pass condition and
maps to exit code 0 in the CLI.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import factorial

from . import bounds, characters, group_algebra, permmatrix, reference_data, twoway, young

#: Every suite, in run order, with its default degree; None for the suites
#: that take no degree.
SUITES = {"centrality": 6, "operator": 5, "characters": 8, "hooks": 10, "dims": 10,
          "table1": None, "asym": None, "automata": None}

#: Largest degree (--n) of each suite that takes one: the cap of the functions
#: it calls (operator, characters), or about 20 s of work on a 2-core x86-64
#: host (centrality 10: 5.8 s and 267 MB, 11 about ten times that; hooks 50:
#: 18.5 s; dims 47: 18 s).  The other suites take no degree and refuse one;
#: under 'all' it applies only to the suites here.
MAX_DEGREE = {"centrality": 10, "operator": permmatrix.MAX_OPERATOR_DEGREE,
              "characters": characters.MAX_TABLE_DEGREE, "hooks": 50, "dims": 47}

#: Bound at import, so it reaches the memo even where ``characters.character``
#: is later rebound to a wrapper.
_clear_character_cache = characters.character.cache_clear


@dataclass
class CaseFailure:
    case: str
    expected: str
    actual: str
    claim: str


@dataclass
class VerifyReport:
    suite: str
    cases: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, case: str, expected, actual, claim: str = "") -> None:
        self.cases += 1
        if expected != actual:
            self.failures.append(CaseFailure(case, repr(expected), repr(actual), claim))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [vars(f) for f in self.failures],
            "elapsed_s": round(self.elapsed_s, 3),
            "ok": self.ok,
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"suite {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {self.elapsed_s:.2f}s "
            f"[{'PASS' if self.ok else 'FAIL'}]"
        ]
        for f in self.failures:
            lines.append(f"  FAIL {f.case}: expected {f.expected}, got {f.actual}  ({f.claim})")
        return lines


def _suite_centrality(report: VerifyReport, max_n: int, seed: int) -> None:
    for n in range(1, max_n + 1):
        report.check(
            f"cyclic class sum central, degree {n}",
            True,
            group_algebra.is_central(group_algebra.cyclic_class_sum(n)),
            "sum of all n-cycles commutes with every group element",
        )
    report.check(
        "single transposition not central, degree 3",
        False,
        group_algebra.is_central(group_algebra.basis((1, 0, 2))),
        "negative control",
    )


def _suite_operator(report: VerifyReport, max_n: int, seed: int) -> None:
    for n in range(1, max_n + 1):
        direct = permmatrix.cycle_quotient_matrix(n)
        operator = permmatrix.left_multiplication_matrix(n)
        report.check(
            f"operator matrix = quotient matrix, degree {n}",
            True,
            operator == direct,
            "left multiplication by the cyclic class sum has the quotient matrix",
        )
        report.check(
            f"operator column sums, degree {n}",
            [factorial(n - 1)] * factorial(n),
            operator.to_dense().sum(axis=0).tolist(),
            "each column has one term per n-cycle",
        )


def _suite_characters(report: VerifyReport, max_n: int, seed: int) -> None:
    report.check(
        "character table, degree 3",
        reference_data.CHARACTER_TABLE_3,
        characters.character_table(3),
        "frozen table",
    )
    report.check(
        "character table, degree 4",
        reference_data.CHARACTER_TABLE_4,
        characters.character_table(4),
        "frozen table",
    )
    for n in range(1, max_n + 1):
        shapes = young.partitions(n)
        classes = list(reversed(shapes))
        sizes = [characters.class_size(mu) for mu in classes]
        table = characters.character_table(n)
        bad = []
        for i, lam in enumerate(shapes):
            for j in range(i, len(shapes)):
                dot = sum(s * a * b for s, a, b in zip(sizes, table[i], table[j]))
                if dot != (factorial(n) if i == j else 0):
                    bad.append((lam, shapes[j], dot))
        report.check(
            f"row orthogonality, degree {n}",
            [],
            bad,
            "weighted character rows are orthogonal with norm n!",
        )
        report.check(
            f"class sizes sum to n!, degree {n}",
            factorial(n),
            sum(sizes),
            "conjugacy classes partition the group",
        )
        report.check(
            f"dimensions from identity column, degree {n}",
            [characters.specht_dim(lam) for lam in shapes],
            [row[0] for row in table],
            "character at the identity equals the tableau count",
        )


def _suite_hooks(report: VerifyReport, max_n: int, seed: int) -> None:
    for n in range(1, max_n + 1):
        bad = []
        for lam in young.partitions(n):
            closed = characters.character_at_full_cycle(lam)
            recursive = characters.character(lam, (n,))
            if closed != recursive:
                bad.append((lam, closed, recursive))
        report.check(
            f"full-cycle characters, degree {n}",
            [],
            bad,
            "the recursion matches the hook closed form, (-1)**(rows-1) on hooks and 0 off them",
        )
        _clear_character_cache()  # no later degree reads them; 1..40 would keep 215 308


def _suite_dims(report: VerifyReport, max_n: int, seed: int) -> None:
    for n in range(1, max_n + 1):
        report.check(
            f"sum of squared dimensions, degree {n}",
            factorial(n),
            sum(young.syt_count(lam) ** 2 for lam in young.partitions(n)),
            "squared tableau counts add up to the group order",
        )
    for n in range(1, min(max_n, 8) + 1):
        bad = [
            lam
            for lam in young.partitions(n)
            if young.syt_count(lam) != len(young.standard_tableaux(lam))
        ]
        report.check(
            f"hook length formula vs enumeration, degree {n}",
            [],
            bad,
            "formula count equals explicit tableau enumeration",
        )


def _suite_table1(report: VerifyReport, max_n: None, seed: int) -> None:
    for n, (earlier, new, upper) in reference_data.BOUNDS_TABLE.items():
        report.check(
            f"bound table row {n}",
            (earlier, new, upper),
            (bounds.bound_earlier(n), bounds.bound_new(n), bounds.bound_upper(n)),
            "all three closed forms match the frozen row",
        )


def _suite_asym(report: VerifyReport, max_n: None, seed: int) -> None:
    import mpmath

    deviations = {}
    for n, frozen in sorted(reference_data.ASYMPTOTIC_RATIOS.items()):
        r = bounds.asymptotic_ratio(n, digits=40)
        with mpmath.workdps(45):
            diff = abs(r - mpmath.mpf(frozen))
            report.check(
                f"ratio at n={n}",
                True,
                diff < mpmath.mpf(10) ** -25,
                "matches the frozen oracle value to 25+ digits",
            )
            if n > 1:
                deviations[n] = abs(r - 1)
    ordered = list(deviations.values())
    report.check(
        "deviation strictly decreasing",
        True,
        all(a > b for a, b in zip(ordered, ordered[1:])),
        "|ratio - 1| shrinks along 10, 50, 100, 200, 400",
    )
    report.check(
        "deviation cap at n=400",
        True,
        float(deviations[400]) < reference_data.ASYMPTOTIC_CAP_AT_400,
        "within the cap fixed by the oracle pre-run",
    )


def _suite_automata(report: VerifyReport, max_n: None, seed: int) -> None:
    rng = random.Random(seed)
    strings = twoway.all_strings("ab", 6)
    samples = twoway.all_strings("ab", 3)
    machines = [twoway.random_automaton(rng, n_states=3) for _ in range(100)]
    oracle = twoway.accepts_all(machines, strings)  # direct simulation, every machine and word
    for i, (automaton, accepted) in enumerate(zip(machines, oracle)):
        dfa = twoway.to_dfa(automaton)
        state = {"": dfa.initial}  # strings is shortlex, so w[:-1] comes before w
        for w in strings[1:]:
            state[w] = dfa.delta[state[w[:-1]], w[-1]]
        mismatches = [w for w, ok in zip(strings, accepted.tolist()) if (state[w] in dfa.accepting) != ok]
        report.check(
            f"machine {i}: one-way conversion agrees",
            [],
            mismatches,
            "behavior DFA recognizes the same language on all strings up to length 6",
        )
        report.check(
            f"machine {i}: behavior count within ceiling",
            True,
            dfa.n_states <= bounds.dfa_bound(3),
            "reachable crossing tables never exceed n(n^n-(n-1)^n)+1",
        )
        report.check(
            f"machine {i}: rank bound vs minimal DFA",
            True,
            twoway.schmidt_lower_bound(automaton, samples, samples)
            <= dfa.minimize().n_states,
            "a DFA is unambiguous, so the sampled rank bounds its size",
        )


def run_suite(name: str, *, max_n: int | None = None, seed: int = 0) -> VerifyReport:
    """Run one named suite (or 'all') and return its report.

    A max_n above a suite's MAX_DEGREE, or for a suite that takes no degree,
    raises ValueError before any work; 'all' passes it only to the suites
    that take one.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    if max_n is not None:
        if name != "all" and name not in MAX_DEGREE:
            raise ValueError(f"the {name} suite takes no degree; --n applies to {', '.join(MAX_DEGREE)}")
        for suite, cap in MAX_DEGREE.items():
            if name in (suite, "all") and max_n > cap:
                raise ValueError(f"degree {max_n} is above the {suite} suite's cap of {cap}")
    report = VerifyReport(name)
    t0 = time.perf_counter()
    if name == "all":
        for sub, default in SUITES.items():
            sub_report = run_suite(sub, max_n=None if default is None else max_n, seed=seed)
            report.cases += sub_report.cases
            report.failures.extend(sub_report.failures)
    else:
        n = SUITES[name] if max_n is None else max_n
        globals()[f"_suite_{name}"](report, n, seed)
    report.elapsed_s = time.perf_counter() - t0
    return report
