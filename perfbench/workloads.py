"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Every workload calls the package only through public names, looked up on
their module at call time so that a traced run sees its patched wrappers.
A pass is timed; generating its inputs and checking its outputs are not.
Each operation's outcome is checked, and any raised error counts as a
failed operation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path

import numpy as np

from permrank import permmatrix, perms, twoway, verify

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Prime for the benchmark's own rank oracle (2**31 - 1), so residue
#: products stay below 2**62 in int64.
ORACLE_PRIME = 2**31 - 1

#: Random 5-state two-way DFAs per toolkit pass; sized so a pass takes a
#: few seconds on the reference machine.
TOOLKIT_AUTOMATA = 4

#: k=8 entries spot-checked per pass: half drawn at random, half built to
#: be ones.
SPOT_CHECKS = 256


def expected_rank(k: int) -> int:
    return comb(2 * k - 2, k - 1)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    failures: list[str] = field(default_factory=list)
    seeds: dict[str, list] = field(default_factory=dict)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {detail}")

    def refuse(self) -> None:
        """An operation the package declined as documented, not a wrong output."""
        self.attempted += 1
        self.refused += 1

    def record(self, key: str, value) -> None:
        self.seeds.setdefault(key, []).append(value)


@dataclass
class Op:
    label: str
    value: object = None
    error: BaseException | None = None


def call(label: str, fn, *args, **kwargs) -> Op:
    try:
        return Op(label, fn(*args, **kwargs))
    except Exception as exc:  # every error is a failed operation, never dropped
        return Op(label, error=exc)


def check_op(tally: Tally, op: Op, ok, detail) -> None:
    """Count ``op`` as failed if it raised or ``ok(value)`` is false."""
    if op.error is not None:
        tally.check(op.label, False, f"{type(op.error).__name__}: {op.error}")
    else:
        tally.check(op.label, bool(ok(op.value)), detail(op.value))


def oracle_rank(rows) -> int:
    """Rank modulo ORACLE_PRIME by plain Gaussian elimination.

    A lower bound on the rational rank, equal to it unless the prime
    divides every maximal nonzero minor; independent of the package.
    """
    a = np.array(rows, dtype=np.int64) % ORACLE_PRIME
    rank = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, ORACLE_PRIME) % ORACLE_PRIME
        a[rank + 1:] = (a[rank + 1:] - np.outer(a[rank + 1:, c], a[rank])) % ORACLE_PRIME
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def _rank_detail(cert) -> str:
    return f"rank {cert.rank} method {cert.method} primes {cert.primes}"


class ModpK7:
    """One full-matrix prime at degree 7: the modular elimination kernel."""

    name = "modp-k7"

    def inputs(self, seed: int, scratch: Path):
        return seed

    def run(self, seed):
        return [call(f"certified_rank(7, modp, seed={seed})", permmatrix.certified_rank,
                     7, method="modp", num_primes=1, seed=seed)]

    def check(self, seed, ops, tally: Tally) -> None:
        for op in ops:
            check_op(tally, op,
                     lambda c: c.rank == expected_rank(7) and c.method == "modular-multiprime"
                     and len(c.primes) == 1,
                     _rank_detail)
            if op.error is None:
                tally.record("primes", list(op.value.primes))


class ExactK6:
    """Degrees 1..6 by the default method, which is Bareiss for all six."""

    name = "exact-k6"

    def inputs(self, seed: int, scratch: Path):
        return seed

    def run(self, seed):
        return [call(f"certified_rank({k})", permmatrix.certified_rank, k) for k in range(1, 7)]

    def check(self, seed, ops, tally: Tally) -> None:
        for k, op in enumerate(ops, start=1):
            check_op(tally, op,
                     lambda c, k=k: c.rank == expected_rank(k) and c.method == "exact-fraction-free",
                     _rank_detail)


class BuildK8:
    """Build the degree-8 matrix and dump it as a bitmap (rank --k 8 --dump-pbm)."""

    name = "build-k8"
    k = 8

    def inputs(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        order, k = factorial(self.k), self.k
        cycles = perms.cyclic_perms(k)
        pairs = [(rng.randrange(order), rng.randrange(order)) for _ in range(SPOT_CHECKS // 2)]
        for _ in range(SPOT_CHECKS - len(pairs)):
            # sigma = c . pi^-1 makes sigma . pi the n-cycle c: a one entry
            i = rng.randrange(order)
            sigma = perms.compose(rng.choice(cycles), perms.inverse(perms.perm_unrank(k, i)))
            pairs.append((i, perms.perm_rank(sigma)))
        rows = sorted(rng.sample(range(order), 16))
        return {"path": scratch / "cycle8.pbm", "pairs": pairs, "rows": rows}

    def run(self, inputs):
        build = call("cycle_product_matrix(8)", permmatrix.cycle_product_matrix, self.k)
        if build.error is not None:
            return [build]
        return [build, call("write_pbm", permmatrix.write_pbm, build.value, inputs["path"])]

    def check(self, inputs, ops, tally: Tally) -> None:
        build, k, order = ops[0], self.k, factorial(self.k)
        check_op(tally, build, lambda m: m.order == order and m.packed.shape == (order, order // 8),
                 lambda m: f"order {m.order}, packed {m.packed.shape}")
        if build.error is not None:
            return
        m = build.value
        tally.check("row sums", self._row_sums_ok(m), f"a row sum differs from {factorial(k - 1)}")
        bad = [(i, j) for i, j in inputs["pairs"]
               if m.entry(i, j) != perms.is_cyclic(
                   perms.compose(perms.perm_unrank(k, j), perms.perm_unrank(k, i)))]
        tally.check("entry spot checks", not bad, f"entries {bad[:4]} disagree with is_cyclic")
        path = inputs["path"]
        check_op(tally, ops[1], lambda _: self._file_ok(m, path, inputs["rows"]),
                 lambda _: f"{path.name} does not hold the matrix")
        path.unlink(missing_ok=True)

    @staticmethod
    def _row_sums_ok(m) -> bool:
        step = 1024
        for r0 in range(0, m.order, step):
            counts = np.bitwise_count(m.packed[r0:r0 + step]).sum(axis=1, dtype=np.int64)
            if (counts != factorial(m.degree - 1)).any():
                return False
        return True

    @staticmethod
    def _file_ok(m, path: Path, rows) -> bool:
        header = f"P4\n{m.order} {m.order}\n".encode()
        width = m.packed.shape[1]
        if path.stat().st_size != len(header) + m.packed.nbytes:
            return False
        with open(path, "rb") as fh:
            if fh.read(len(header)) != header:
                return False
            for r in rows:
                fh.seek(len(header) + r * width)
                if fh.read(width) != m.packed[r].tobytes():
                    return False
        return True


def _load_fixture(name: str) -> twoway.TwoWayDFA:
    with open(FIXTURES / f"{name}.json") as fh:
        return twoway.TwoWayDFA.from_json_dict(json.load(fh))


#: Fixture automata with their languages and communication-matrix ranks,
#: known in closed form.
FIXTURE_LANGUAGES = {
    "last_a": (lambda w: w.endswith("a"), 2),
    "always_accept": (lambda w: True, 1),
}
FIXTURE_PREFIX_LENS = (8, 9)
FIXTURE_SUFFIX_LEN = 4

#: The documented refusal of rank_exact above its order cap.
CAP_MESSAGE = "exact-elimination cap"


class Toolkit:
    """Hundreds of small calls: verify suites, conversions, rank bounds."""

    name = "toolkit"

    def __init__(self):
        self.fixtures = {name: _load_fixture(name) for name in FIXTURE_LANGUAGES}
        self.agree_strings = twoway.all_strings("ab", 8)
        self.samples = twoway.all_strings("ab", 6)

    def inputs(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        verify_seed = rng.getrandbits(32)
        automata = [twoway.random_automaton(rng, n_states=5) for _ in range(TOOLKIT_AUTOMATA)]
        cases = []
        for name, automaton in self.fixtures.items():
            for plen in FIXTURE_PREFIX_LENS:
                prefixes = twoway.all_strings(automaton.alphabet, plen)
                suffixes = twoway.all_strings(automaton.alphabet, FIXTURE_SUFFIX_LEN)
                cases.append((name, automaton, prefixes, suffixes))
        return {"verify_seed": verify_seed, "automata": automata, "cases": cases}

    def _convert(self, automaton):
        dfa = twoway.to_dfa(automaton)
        minimal = dfa.minimize()
        mismatches = [w for w in self.agree_strings
                      if dfa.accepts(w) != twoway.accepts(automaton, w)]
        bound = twoway.schmidt_lower_bound(automaton, self.samples, self.samples)
        return minimal, mismatches, bound

    def run(self, inputs):
        ops = [call("verify all", verify.run_suite, "all", seed=inputs["verify_seed"])]
        ops += [call(f"automaton {i}", self._convert, a) for i, a in enumerate(inputs["automata"])]
        for name, automaton, prefixes, suffixes in inputs["cases"]:
            tag = f"{name} prefix<={len(prefixes[-1])}"
            ops.append(call(f"comm_matrix {tag}", twoway.comm_matrix, automaton, prefixes, suffixes))
            ops.append(call(f"schmidt {tag}", twoway.schmidt_lower_bound,
                            automaton, prefixes, suffixes))
        return ops

    def check(self, inputs, ops, tally: Tally) -> None:
        tally.record("verify_seeds", inputs["verify_seed"])
        check_op(tally, ops[0], lambda r: r.ok, lambda r: f"{len(r.failures)} failing cases")
        n = len(inputs["automata"])
        for op in ops[1:1 + n]:
            check_op(tally, op, self._conversion_ok,
                     lambda v: f"mismatches {v[1][:4]}, bound {v[2]}, minimal {v[0].n_states}")
        for (name, _, prefixes, suffixes), cm, rank in zip(
                inputs["cases"], ops[1 + n::2], ops[2 + n::2]):
            language, expected = FIXTURE_LANGUAGES[name]
            want = np.array([[language(u + v) for v in suffixes] for u in prefixes], dtype=np.uint8)
            check_op(tally, cm, lambda c: np.array_equal(c.entries, want),
                     lambda c: "entries differ from the fixture's language")
            if isinstance(rank.error, ValueError) and CAP_MESSAGE in str(rank.error):
                tally.refuse()
            else:
                check_op(tally, rank, lambda r: r == expected, lambda r: f"rank {r} != {expected}")

    def _conversion_ok(self, value) -> bool:
        minimal, mismatches, bound = value
        oracle = oracle_rank([[minimal.accepts(u + v) for v in self.samples] for u in self.samples])
        return not mismatches and bound <= minimal.n_states and bound == oracle


WORKLOADS = {w.name: w for w in (ModpK7, ExactK6, BuildK8, Toolkit)}
