"""Two-way deterministic finite automata at desk scale.

Model: the input w is framed by a left endmarker "<" and a right endmarker
">".  The head starts on the left endmarker in the initial state.  The
transition map is partial; a missing transition halts the machine, and the
input is accepted exactly when the machine halts in an accepting state
(anywhere on the tape).  A repeating configuration means the machine loops,
which rejects; the simulator detects this with a step budget equal to the
number of distinct configurations, |states| * (|w| + 2).  Transitions on
the left endmarker must move right and transitions on the right endmarker
must move left, so the head never leaves the tape.

A string is summarized by its crossing table (Shepherdson, IBM J. Res. Dev.
3(2), 1959).  The table of a prefix "<u" gives, for each state q
re-entering its last cell moving left, the outcome: "exits to the right in
state s", "halted accepting inside", or "halted rejecting / looped inside";
beside it sits the outcome of the computation started on "<".  A suffix
"v>" has the mirror table: for each state entering its first cell from the
left, "exits to the left in state s" or one of the two halts.  The two
halts differ: a machine that halts accepting inside u accepts u·v for
every v.

One step makes every table, on both sides of the u|v boundary: a state
arriving at a new cell c beside a region with table T leaves on the far
side (its new state is the outcome), halts, or dives into the region and
comes back as T says, until it leaves, halts or meets c twice in one state
(a loop).  "<uc" is the step right of "<u" and "cv>" the step left of "v>";
the endmarkers' tables are the step beside the empty region, as every move
on "<" goes right and every move on ">" goes left.  Whether u·v is accepted
is the composition of the two tables: the same bounces across the boundary
from the prefix's left-entry outcome.  Both are one loop, _bounce, on two
integer maps: the cell's moves and T for a step, the suffix table and the
prefix's reentry table for a composition.

Strings with equal tables have equal rows (or columns), so a matrix costs
one composition per pair of distinct tables, and its distinct part (the
first of each distinct row, then the first of each distinct column of
those) is read off that composition.  One explorer walks the tables for
every caller and runs each (table, symbol) step once; breadth-first in
alphabet order, it labels each table with its shortlex-least word.
to_dfa's states are the prefix tables it reaches.

run simulates one word, and prefix_behavior's _simulate_region, the oracle
for extend_behavior, one prefix; accepts_all runs many machines on many
words as the lanes of one lockstep numpy simulation, verify's oracle for
to_dfa, with the same budget and answers as run.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce

import numpy as np

from . import permmatrix

LEFT_MARK = "<"
RIGHT_MARK = ">"

#: Crossing-table outcomes that are not "exit right in state i".
HALT_ACCEPT = -1
HALT_REJECT = -2  # halted non-accepting or looped
_EXIT = -3  # _bounce's code for "exits in state t" is _EXIT - t

#: Cap on automaton size for the one-way conversion.  It bounds the cost of
#: each table step, and up to 5 states reach at most dfa_bound(5) = 10 506
#: tables, so no conversion within it runs into MAX_TABLES.
MAX_CONVERT_STATES = 5

#: Most distinct crossing tables one walk may number.
MAX_TABLES = 100_000

#: Lanes per lockstep pass of accepts_all: its working set is about 50 bytes
#: a lane, and fewer lanes a pass cost more numpy calls per lane.
_LANES = 2048

#: Keys of the JSON wire format: the automaton, and each entry of its "delta".
_JSON_KEYS = frozenset({"states", "alphabet", "initial", "accepting", "delta"})
_DELTA_KEYS = frozenset({"state", "symbol", "to", "move"})


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


class Outcome(Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"
    LOOP = "Loop"


@dataclass(frozen=True)
class TwoWayDFA:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    delta: dict[tuple[str, str], tuple[str, str]]  # (state, symbol) -> (state, "L"/"R")

    def __post_init__(self):
        if not self.states:
            raise ValueError("automaton needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if LEFT_MARK in self.alphabet or RIGHT_MARK in self.alphabet:
            raise ValueError("endmarkers are reserved and cannot be alphabet symbols")
        for symbol in self.alphabet:
            if not isinstance(symbol, str) or len(symbol) != 1:
                raise ValueError(f"alphabet symbol {symbol!r} is not a single character")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not declared")
        if not self.accepting <= set(self.states):
            raise ValueError("accepting states must be declared states")
        symbols = set(self.alphabet) | {LEFT_MARK, RIGHT_MARK}
        for (state, symbol), (target, move) in self.delta.items():
            if state not in self.states or target not in self.states:
                raise ValueError(f"transition {state!r},{symbol!r} references unknown state")
            if symbol not in symbols:
                raise ValueError(f"transition on undeclared symbol {symbol!r}")
            if move not in ("L", "R"):
                raise ValueError(f"move must be 'L' or 'R', got {move!r}")
            if symbol == LEFT_MARK and move != "R":
                raise ValueError("transitions on the left endmarker must move right")
            if symbol == RIGHT_MARK and move != "L":
                raise ValueError("transitions on the right endmarker must move left")

    def state_index(self, state: str) -> int:
        return self.states.index(state)

    # --- JSON wire format ---

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "alphabet": list(self.alphabet),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "delta": [
                {"state": s, "symbol": c, "to": t, "move": m}
                for (s, c), (t, m) in sorted(self.delta.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "TwoWayDFA":
        """The automaton of a to_json_dict payload; ValueError for any other shape."""
        if not isinstance(data, dict) or set(data) != _JSON_KEYS:
            raise ValueError(f"expected an object with the keys {', '.join(sorted(_JSON_KEYS))}")
        for key in ("states", "alphabet", "accepting"):
            if not _strings(data[key]):
                raise ValueError(f"{key!r} must be a list of strings")
        if not isinstance(data["initial"], str):
            raise ValueError("'initial' must be a string")
        if not isinstance(data["delta"], list) or not all(
            isinstance(t, dict) and set(t) == _DELTA_KEYS and _strings(list(t.values()))
            for t in data["delta"]
        ):
            raise ValueError(
                f"'delta' must be a list of objects with the string fields "
                f"{', '.join(sorted(_DELTA_KEYS))}"
            )
        delta = {(t["state"], t["symbol"]): (t["to"], t["move"]) for t in data["delta"]}
        if len(delta) != len(data["delta"]):
            raise ValueError("'delta' has two transitions for one state and symbol")
        return cls(
            states=tuple(data["states"]),
            alphabet=tuple(data["alphabet"]),
            initial=data["initial"],
            accepting=frozenset(data["accepting"]),
            delta=delta,
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TwoWayDFA":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("JSON nested too deeply") from None
        return cls.from_json_dict(data)


def run(a: TwoWayDFA, w: str, trace: bool = False):
    """Simulate on w; returns an Outcome, or (Outcome, trace) with trace=True.

    The trace lists (state, position) configurations, position 0 being the
    left endmarker.
    """
    foreign = set(w).difference(a.alphabet)
    if foreign:
        _check_symbol(a, next(ch for ch in w if ch in foreign))
    tape = LEFT_MARK + w + RIGHT_MARK
    budget = len(a.states) * len(tape)
    state, pos = a.initial, 0
    steps = [(state, pos)] if trace else None
    for _ in range(budget):
        move = a.delta.get((state, tape[pos]))
        if move is None:
            outcome = Outcome.ACCEPT if state in a.accepting else Outcome.REJECT
            return (outcome, steps) if trace else outcome
        state, direction = move
        pos += 1 if direction == "R" else -1
        if trace:
            steps.append((state, pos))
    return (Outcome.LOOP, steps) if trace else Outcome.LOOP


def accepts(a: TwoWayDFA, w: str) -> bool:
    return run(a, w) is Outcome.ACCEPT


def accepts_all(automata, words) -> np.ndarray:
    """The bool table ``[[accepts(a, w) for w in words] for a in automata]``.

    Every (machine, word) pair is one lane of a lockstep simulation over
    integer transition arrays built from each ``delta``, _LANES lanes at a
    time; each step reads every lane's cell and moves it, and a halted lane
    stays where it halted.  A lane not halted within its budget
    |states| * (|w| + 2) has repeated a configuration and never halts, so
    running every lane to the largest budget of its pass leaves it looped,
    and rejected, as run finds.  A symbol outside a machine's alphabet
    raises run's ValueError.
    """
    automata, words = list(automata), list(words)
    foreign = {}  # per alphabet, the first word with a symbol outside it
    for a in automata:
        if a.alphabet not in foreign:
            foreign[a.alphabet] = next((w for w in words if not set(w) <= set(a.alphabet)), None)
        if foreign[a.alphabet] is not None:
            run(a, foreign[a.alphabet])  # raises for its first foreign symbol
    accepted = np.zeros(len(automata) * len(words), dtype=bool)
    if not len(accepted):
        return accepted.reshape(len(automata), len(words))
    # A lane holds its state as a row, (state number) * len(symbols), and its
    # cell on the words' concatenated tapes; row + symbol indexes the arrays.
    symbols = {LEFT_MARK: 0, RIGHT_MARK: 1}
    for a in automata:
        symbols.update((c, len(symbols)) for c in a.alphabet if c not in symbols)
    width = len(symbols)
    size = sum(len(a.states) for a in automata) * width
    to_row = np.arange(size, dtype=np.int32) // width * width  # no transition: stay
    step = np.zeros(size, dtype=np.int8)  # -1 or 1 to move, 0 to halt
    accepting = np.zeros(size, dtype=bool)
    initial, base = [], 0
    for a in automata:
        row = {q: base + i * width for i, q in enumerate(a.states)}
        for q in a.accepting:
            accepting[row[q]:row[q] + width] = True
        for (q, c), (target, move) in a.delta.items():
            to_row[row[q] + symbols[c]] = row[target]
            step[row[q] + symbols[c]] = 1 if move == "R" else -1
        initial.append(row[a.initial])
        base += len(a.states) * width
    initial = np.array(initial, dtype=np.int32)
    sizes = np.array([len(a.states) for a in automata], dtype=np.int32)
    tape = np.array([symbols[c] for w in words for c in LEFT_MARK + w + RIGHT_MARK], dtype=np.int32)
    cells = np.array([len(w) + 2 for w in words], dtype=np.int32)
    starts = np.cumsum(cells, dtype=np.int32) - cells
    for lo in range(0, len(accepted), _LANES):
        lanes = np.arange(lo, min(lo + _LANES, len(accepted)), dtype=np.int32)
        machine, word = np.divmod(lanes, len(words))
        row, cell = initial[machine], starts[word]
        read = row + tape[cell]
        for _ in range((sizes[machine] * cells[word]).max() - 1):  # as many reads as the budget
            row, cell = to_row[read], cell + step[read]
            read = row + tape[cell]
        accepted[lo:lo + _LANES] = accepting[read] & (step[read] == 0)
    return accepted.reshape(len(automata), len(words))


@dataclass(frozen=True)
class Behavior:
    """Crossing table of a prefix "<u".

    ``entry`` is the outcome of the computation started on the left
    endmarker; ``reentry[q]`` the outcome after entering the last cell of
    the prefix in state index q, moving left.  Outcomes are a state index
    (exits right in that state), HALT_ACCEPT, or HALT_REJECT.
    """

    entry: int
    reentry: tuple[int, ...]


def _simulate_region(a: TwoWayDFA, region: list[str], state_idx: int, pos: int) -> int:
    """Run inside region cells 0..len-1; report the crossing outcome."""
    budget = len(a.states) * len(region)
    state = a.states[state_idx]
    for _ in range(budget):
        move = a.delta.get((state, region[pos]))
        if move is None:
            return HALT_ACCEPT if state in a.accepting else HALT_REJECT
        state, direction = move
        pos += 1 if direction == "R" else -1
        if pos == len(region):
            return a.state_index(state)
    return HALT_REJECT  # looped inside the region


def prefix_behavior(a: TwoWayDFA, u: str) -> Behavior:
    """Crossing table of u, computed by direct simulation on "<u"."""
    region = [LEFT_MARK, *u]
    entry = _simulate_region(a, region, a.state_index(a.initial), 0)
    reentry = tuple(
        _simulate_region(a, region, q, len(region) - 1) for q in range(len(a.states))
    )
    return Behavior(entry, reentry)


def _bounce(first, second, q: int) -> int:
    """Outcome of state index q bouncing over one boundary: ``first[q]`` is a
    halt, an exit in state t coded _EXIT - t, or t to cross in state t, and
    ``second[t]`` a halt or the state crossing back.  After len(first)
    crossings back with no halt or exit, a state has repeated: a loop."""
    for _ in range(len(first)):
        t = first[q]
        if t < 0:
            return t
        q = second[t]
        if q < 0:
            return q
    return HALT_REJECT


def _step(a: TwoWayDFA, inner, symbol: str, exit_move: str) -> tuple[int, ...]:
    """Crossing table of a cell holding ``symbol`` beside a region with table
    ``inner``, left by moving ``exit_move``; the empty region is ``()``."""
    states, first = a.states, []  # one delta lookup a state
    for q in states:
        move = a.delta.get((q, symbol))
        if move is None:
            first.append(HALT_ACCEPT if q in a.accepting else HALT_REJECT)
        elif move[1] == exit_move:
            first.append(_EXIT - states.index(move[0]))
        else:
            first.append(states.index(move[0]))
    table = []
    for q in range(len(first)):
        outcome = _bounce(first, inner, q)
        table.append(outcome if outcome > _EXIT else _EXIT - outcome)
    return tuple(table)


def _check_symbol(a: TwoWayDFA, symbol: str) -> str:
    if symbol not in a.alphabet:
        raise ValueError(f"symbol {symbol!r} not in the automaton's alphabet")
    return symbol


def extend_behavior(a: TwoWayDFA, b: Behavior, symbol: str) -> Behavior:
    """Crossing table of u·symbol, given the table ``b`` of u: for every such u,
    prefix_behavior(a, u + symbol)."""
    reentry = _step(a, b.reentry, _check_symbol(a, symbol), "R")
    return Behavior(b.entry if b.entry < 0 else reentry[b.entry], reentry)


def _compose(b: Behavior, table: tuple[int, ...]) -> bool:
    """Whether u·v is accepted, for u with prefix table b and v with suffix table ``table``."""
    return (b.entry if b.entry < 0 else _bounce(table, b.reentry, b.entry)) == HALT_ACCEPT


@dataclass(frozen=True)
class DFA:
    """Complete one-way DFA over integer states."""

    n_states: int
    alphabet: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], int]

    def accepts(self, w: str) -> bool:
        state = self.initial
        for ch in w:
            state = self.delta[(state, ch)]
        return state in self.accepting

    def minimize(self) -> "DFA":
        """Moore partition refinement (states are all reachable already)."""
        block = [0 if q in self.accepting else 1 for q in range(self.n_states)]
        while True:
            signatures = {}
            new_block = []
            for q in range(self.n_states):
                sig = (block[q], tuple(block[self.delta[(q, c)]] for c in self.alphabet))
                new_block.append(signatures.setdefault(sig, len(signatures)))
            if new_block == block:
                break
            block = new_block
        n = len(set(block))
        delta = {
            (block[q], c): block[self.delta[(q, c)]]
            for q in range(self.n_states)
            for c in self.alphabet
        }
        accepting = frozenset(block[q] for q in self.accepting)
        return DFA(n, self.alphabet, block[self.initial], accepting, delta)


def _normalize(b: Behavior, n_states: int) -> Behavior:
    # Once the left-entry computation halts inside the prefix, the head can
    # never reach anything to the right, so the reentry table is dead; fold
    # all such prefixes into one sink per outcome.
    if b.entry < 0:
        return Behavior(b.entry, (b.entry,) * n_states)
    return b


class _Tables:
    """The distinct tables reached from ``start``, numbered as they are found.

    A memo of (number, symbol) -> number runs ``step(table, symbol)`` once
    per distinct table and symbol; more than MAX_TABLES tables raise ValueError.
    """

    def __init__(self, start, step):
        self.tables, self._numbers, self.moves = [start], {start: 0}, {}
        self._step = step

    def move(self, t: int, symbol: str) -> int:
        nxt = self.moves.get((t, symbol))
        if nxt is None:
            table = self._step(self.tables[t], symbol)
            nxt = self._numbers.get(table)
            if nxt is None:
                if len(self.tables) == MAX_TABLES:
                    raise ValueError(f"crossing-table budget {MAX_TABLES} exceeded")
                nxt = self._numbers[table] = len(self.tables)
                self.tables.append(table)
            self.moves[(t, symbol)] = nxt
        return nxt

    def explore(self, alphabet, max_len: int | None = None) -> list[str]:
        """From a fresh start, number the tables of all words up to max_len (None: any).

        The walk is breadth-first in alphabet order, so the word returned for
        each table, the first one found, is its shortlex-least word.
        """
        words = [""]
        for t, word in enumerate(words):  # words grows as tables are found
            if len(word) == max_len:
                break
            for symbol in alphabet:
                if self.move(t, symbol) == len(words):
                    words.append(word + symbol)
        return words


def _prefix_tables(a: TwoWayDFA) -> _Tables:
    n = len(a.states)
    left = _step(a, (), LEFT_MARK, "R")
    start = _normalize(Behavior(left[a.state_index(a.initial)], left), n)
    return _Tables(start, lambda b, c: _normalize(extend_behavior(a, b, c), n))


def _suffix_tables(a: TwoWayDFA) -> _Tables:
    """Suffix tables, read right to left: their words are reversed suffixes."""
    return _Tables(_step(a, (), RIGHT_MARK, "L"), lambda t, c: _step(a, t, _check_symbol(a, c), "L"))


def to_dfa(a: TwoWayDFA) -> DFA:
    """One-way DFA over the reachable (normalized) crossing tables.

    Recognizes the same language; the state count is the reachable behavior
    count, and more than MAX_TABLES of them raise ValueError, as does an
    automaton of more than MAX_CONVERT_STATES states.
    """
    if len(a.states) > MAX_CONVERT_STATES:
        raise ValueError(f"{len(a.states)} states exceeds the conversion cap {MAX_CONVERT_STATES}")
    tables = _prefix_tables(a)
    tables.explore(a.alphabet)  # every table, so the memo holds every move
    end = _step(a, (), RIGHT_MARK, "L")
    accepting = frozenset(t for t, b in enumerate(tables.tables) if _compose(b, end))
    return DFA(len(tables.tables), a.alphabet, 0, accepting, tables.moves)


@dataclass(frozen=True)
class CommMatrix:
    """0/1 matrix with entry (u, v) = 1 iff the automaton accepts u·v."""

    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]
    entries: np.ndarray = field(compare=False)

    def __eq__(self, other) -> bool:  # the entries too; the generated hash reads the labels only
        return (isinstance(other, CommMatrix) and (self.prefixes, self.suffixes) == (other.prefixes, other.suffixes)
                and np.array_equal(self.entries, other.entries))


def comm_matrix(a: TwoWayDFA, prefixes, suffixes) -> CommMatrix:
    """Communication matrix over the given sample rows and columns.

    The labels may be in any order, repeat, and need not be prefix-closed;
    a symbol outside the alphabet, or more than MAX_TABLES tables, raises
    ValueError.
    """
    prefixes, suffixes = tuple(prefixes), tuple(suffixes)
    composed, row_ids, col_ids = _sampled(a, prefixes, suffixes)
    return CommMatrix(prefixes, suffixes, composed[row_ids[:, None], col_ids])


def distinct_comm_matrix(a: TwoWayDFA, prefix_len: int, suffix_len: int) -> CommMatrix:
    """The distinct part of comm_matrix over all strings up to the given lengths,
    without building the strings; a negative length, or more than MAX_TABLES
    tables a side, raises ValueError.  A column's label is the suffix whose
    reversal is shortlex-least.
    """
    if min(prefix_len, suffix_len) < 0:
        raise ValueError("prefix and suffix lengths must be non-negative")
    rows, cols = _prefix_tables(a), _suffix_tables(a)
    row_words = rows.explore(a.alphabet, prefix_len)
    col_words = cols.explore(a.alphabet, suffix_len)
    composed = _composed(rows.tables, cols.tables)
    r, c = _distinct(composed)
    labels = tuple(row_words[i] for i in r), tuple(col_words[j][::-1] for j in c)
    return CommMatrix(*labels, composed[np.ix_(r, c)])


def _sampled(a: TwoWayDFA, prefixes, suffixes):
    """The composition of the distinct tables of the labels, and per label
    the index of its table among them."""
    rows, row_ids = _read(_prefix_tables(a), prefixes)
    cols, col_ids = _read(_suffix_tables(a), (v[::-1] for v in suffixes))
    return _composed(rows, cols), row_ids, col_ids


def _read(tables: _Tables, words):
    """The distinct tables of ``words``, and per word the index of its table among them."""
    known, ids = {"": 0}, []  # a word whose prefix w[:-1] is known costs one move
    for w in words:
        if w not in known:
            prefix = known.get(w[:-1])
            known[w] = reduce(tables.move, w, 0) if prefix is None else tables.move(prefix, w[-1])
        ids.append(known[w])
    ids = np.array(ids, dtype=np.intp)
    used, ids = np.unique(ids, return_inverse=True)
    return [tables.tables[t] for t in used], ids


def _composed(row_tables, col_tables) -> np.ndarray:
    return np.array(
        [[_compose(b, t) for t in col_tables] for b in row_tables], dtype=np.uint8
    ).reshape(len(row_tables), len(col_tables))


def _distinct(entries: np.ndarray):
    """Indices of the first of each distinct row, then of the first of each
    distinct column of those rows."""
    rows = _firsts(entries)
    return rows, _firsts(entries[rows].T)


def _firsts(matrix: np.ndarray) -> np.ndarray:
    """Ascending indices of the first of each distinct row of a 0/1 matrix,
    found by hashing its packed rows as bytes."""
    if not matrix.shape[1]:  # every row is the empty row
        return np.arange(min(len(matrix), 1))
    packed = np.ascontiguousarray(np.packbits(matrix, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
    firsts = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # the first index wins
    return np.sort(np.fromiter(firsts.values(), dtype=np.intp, count=len(firsts)))


def schmidt_lower_bound(a: TwoWayDFA, prefixes, suffixes) -> int:
    """Exact rank of the sampled communication matrix.

    Only the distinct part is held to rank_exact's entry cap.  Lower-bounds
    the state count of every unambiguous one-way automaton for the language,
    hence also of every DFA.
    """
    composed = _sampled(a, prefixes, suffixes)[0]
    return permmatrix.rank_exact(composed[np.ix_(*_distinct(composed))])


def all_strings(alphabet, max_len: int) -> list[str]:
    """Every string over ``alphabet`` of length 0..max_len, shortlex order."""
    out = []
    for length in range(max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=length))
    return out


def random_automaton(
    rng: random.Random,
    n_states: int = 3,
    alphabet: str = "ab",
) -> TwoWayDFA:
    """A random partial two-way DFA, seeded through ``rng``."""
    states = tuple(f"q{i}" for i in range(n_states))
    delta = {}
    for state in states:
        for symbol in (*alphabet, LEFT_MARK, RIGHT_MARK):
            if rng.random() < 0.2:
                continue
            moves = {LEFT_MARK: "R", RIGHT_MARK: "L"}.get(symbol, "LR")
            delta[(state, symbol)] = (rng.choice(states), rng.choice(moves))
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return TwoWayDFA(states, tuple(alphabet), states[0], accepting, delta)
