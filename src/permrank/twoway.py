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

The one-way simulation summarizes a prefix u by its crossing table: the
outcome of the computation entering from the left, and for each state q the
outcome after re-entering the last cell of "<u" in state q moving left.  An
outcome is either "exits to the right in state s", or "halted accepting
inside", or "halted rejecting / looped inside".  Distinguishing the two
internal-halt outcomes matters: a machine that halts accepting inside u
accepts u·v for every v.

A suffix v has the mirror table: for each state q entering the first cell of
"v>" from the left, "exits to the left in state s", or one of the two
internal-halt outcomes.  The table of the bare ">" says what each state does
on the right endmarker, and "cv>" is built from "v>" one cell at a time, as
a prefix table is extended.  Whether u·v is accepted is then the composition
of the two tables: follow the bounces across the u|v boundary from the
prefix's left-entry outcome until one side halts, or a state repeats at the
boundary (a loop).  A communication matrix therefore needs one table per
distinct prefix and suffix, and one composition per pair of distinct
tables, instead of one simulation per entry.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import permmatrix

LEFT_MARK = "<"
RIGHT_MARK = ">"

#: Crossing-table outcomes that are not "exit right in state i".
HALT_ACCEPT = -1
HALT_REJECT = -2  # halted non-accepting or looped

#: Default cap on automaton size for the one-way conversion.
MAX_CONVERT_STATES = 5


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
    def from_json_dict(cls, data: dict) -> "TwoWayDFA":
        return cls(
            states=tuple(data["states"]),
            alphabet=tuple(data["alphabet"]),
            initial=data["initial"],
            accepting=frozenset(data["accepting"]),
            delta={(t["state"], t["symbol"]): (t["to"], t["move"]) for t in data["delta"]},
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TwoWayDFA":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def run(a: TwoWayDFA, w: str, trace: bool = False):
    """Simulate on w; returns an Outcome, or (Outcome, trace) with trace=True.

    The trace lists (state, position) configurations, position 0 being the
    left endmarker.
    """
    for ch in w:
        if ch not in a.alphabet:
            raise ValueError(f"symbol {ch!r} not in the automaton's alphabet")
    tape = [LEFT_MARK, *w, RIGHT_MARK]
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


def _cross_cell(a: TwoWayDFA, symbol: str, q: int, exit_move: str, inner) -> int:
    """Outcome for state index q arriving at a cell holding ``symbol``.

    Moving ``exit_move`` leaves the region (the outcome is the new state);
    moving the other way dives into the neighbouring region, whose crossing
    table ``inner`` gives the state it comes back in, or its halt outcome.
    The same state at this cell twice is a loop.
    """
    seen = set()
    while q not in seen:
        seen.add(q)
        move = a.delta.get((a.states[q], symbol))
        if move is None:
            return HALT_ACCEPT if a.states[q] in a.accepting else HALT_REJECT
        target, direction = move
        t = a.state_index(target)
        if direction == exit_move:
            return t
        back = inner[t]
        if back < 0:
            return back
        q = back
    return HALT_REJECT  # same state at this cell twice: loop


def _check_symbol(a: TwoWayDFA, symbol: str) -> None:
    if symbol not in a.alphabet:
        raise ValueError(f"symbol {symbol!r} not in the automaton's alphabet")


def extend_behavior(a: TwoWayDFA, b: Behavior, symbol: str) -> Behavior:
    """Crossing table of u·symbol, given the table of u.

    Equals prefix_behavior(a, u + symbol) for every u with table ``b``; the
    new cell is simulated directly and dives back into the old prefix are
    resolved through ``b.reentry``.
    """
    _check_symbol(a, symbol)
    entry = b.entry if b.entry < 0 else _cross_cell(a, symbol, b.entry, "R", b.reentry)
    reentry = tuple(_cross_cell(a, symbol, q, "R", b.reentry) for q in range(len(a.states)))
    return Behavior(entry, reentry)


def _end_table(a: TwoWayDFA) -> tuple[int, ...]:
    """Suffix table of the bare right endmarker ">" (every move there is left)."""
    return tuple(_cross_cell(a, RIGHT_MARK, q, "L", ()) for q in range(len(a.states)))


def _prepend(a: TwoWayDFA, table: tuple[int, ...], symbol: str) -> tuple[int, ...]:
    """Suffix table of symbol·v>, given the table of v>."""
    _check_symbol(a, symbol)
    return tuple(_cross_cell(a, symbol, q, "L", table) for q in range(len(a.states)))


def _compose(b: Behavior, table: tuple[int, ...]) -> bool:
    """Whether u·v is accepted, for u with prefix table b and v with suffix table ``table``."""
    if b.entry < 0:
        return b.entry == HALT_ACCEPT
    seen = set()
    s = b.entry
    while s not in seen:
        seen.add(s)
        left = table[s]
        if left < 0:
            return left == HALT_ACCEPT
        s = b.reentry[left]
        if s < 0:
            return s == HALT_ACCEPT
    return False  # the same state crossed into v twice: loop


def behavior_accepts(a: TwoWayDFA, b: Behavior) -> bool:
    """Whether the machine accepts a whole string whose prefix table is b.

    The composition of b with the table of the empty suffix.
    """
    return _compose(b, _end_table(a))


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


def to_dfa(a: TwoWayDFA, max_states: int = 100_000, max_automaton_states: int = MAX_CONVERT_STATES) -> DFA:
    """One-way DFA over the reachable (normalized) crossing tables.

    Recognizes the same language; the state count is the reachable behavior
    count.
    """
    if len(a.states) > max_automaton_states:
        raise ValueError(
            f"{len(a.states)} states exceeds the conversion cap {max_automaton_states}"
        )
    n = len(a.states)
    start = _normalize(prefix_behavior(a, ""), n)
    index: dict[Behavior, int] = {start: 0}
    queue = [start]
    delta: dict[tuple[int, str], int] = {}
    while queue:
        b = queue.pop()
        for symbol in a.alphabet:
            nb = _normalize(extend_behavior(a, b, symbol), n)
            if nb not in index:
                if len(index) >= max_states:
                    raise ValueError(f"behavior state budget {max_states} exceeded")
                index[nb] = len(index)
                queue.append(nb)
            delta[(index[b], symbol)] = index[nb]
    accepting = frozenset(i for b, i in index.items() if behavior_accepts(a, b))
    return DFA(len(index), a.alphabet, 0, accepting, delta)


@dataclass(frozen=True)
class CommMatrix:
    """0/1 matrix with entry (u, v) = 1 iff the automaton accepts u·v."""

    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]
    entries: np.ndarray = field(compare=False)


def comm_matrix(
    a: TwoWayDFA, prefixes, suffixes, dedup: bool = False
) -> CommMatrix:
    """Communication matrix over the given sample rows and columns.

    Each prefix is read into its normalized crossing table and each suffix,
    right to left, into its suffix table; every entry is the composition of
    the two (see the module docstring).  Strings with equal tables have
    equal rows (or columns), so the compositions are made once per pair of
    distinct tables and scattered into the matrix.  The labels may be in any
    order, repeat, and need not be prefix-closed; a symbol outside the
    alphabet raises ValueError.

    With dedup=True, duplicate rows and then duplicate columns are removed,
    keeping the first label of each kind; the rank is unaffected.
    """
    prefixes = tuple(prefixes)
    suffixes = tuple(suffixes)
    n = len(a.states)
    row_tables, row_ids = _table_ids(
        prefixes, _normalize(prefix_behavior(a, ""), n),
        lambda b, c: _normalize(extend_behavior(a, b, c), n),
    )
    col_tables, col_ids = _table_ids(
        (v[::-1] for v in suffixes), _end_table(a), lambda t, c: _prepend(a, t, c)
    )
    composed = np.array(
        [[_compose(b, t) for t in col_tables] for b in row_tables], dtype=np.uint8
    ).reshape(len(row_tables), len(col_tables))
    entries = composed[row_ids[:, None], col_ids]
    if dedup:
        keep_rows = _first_occurrences(entries, row_ids)
        prefixes = tuple(prefixes[i] for i in keep_rows)
        entries = entries[keep_rows]
        keep_cols = _first_occurrences(entries.T, col_ids)
        suffixes = tuple(suffixes[j] for j in keep_cols)
        entries = entries[:, keep_cols]
    return CommMatrix(prefixes, suffixes, entries)


def _table_ids(words, start, step):
    """The distinct tables of ``words`` and, per word, the index of its table.

    Each word is read from ``start`` one symbol at a time through a memo of
    (table, symbol) -> table that lives for this call only, so ``step`` runs
    once per distinct table and symbol, however many words share it.
    """
    tables, index, moves, ids = [start], {start: 0}, {}, []
    for word in words:
        t = 0
        for symbol in word:
            nxt = moves.get((t, symbol))
            if nxt is None:
                table = step(tables[t], symbol)
                nxt = index.setdefault(table, len(tables))
                if nxt == len(tables):
                    tables.append(table)
                moves[(t, symbol)] = nxt
            t = nxt
        ids.append(t)
    used, ids = np.unique(np.array(ids, dtype=np.intp), return_inverse=True)
    return [tables[i] for i in used], ids


def _first_occurrences(lines: np.ndarray, ids: np.ndarray) -> list[int]:
    # lines with the same table id are equal, so only the first of each is compared
    _, firsts = np.unique(ids, return_index=True)
    seen = {}
    for i in np.sort(firsts).tolist():
        seen.setdefault(lines[i].tobytes(), i)
    return list(seen.values())


def schmidt_lower_bound(a: TwoWayDFA, prefixes, suffixes) -> int:
    """Exact rank of the sampled communication matrix.

    Taken over the matrix with duplicate rows and columns removed (the
    rank is the same), so only the distinct part is held to rank_exact's
    order cap permmatrix.MAX_EXACT_ORDER.  Lower-bounds the state count of
    every unambiguous one-way automaton for the language, hence also of
    every DFA.
    """
    return permmatrix.rank_exact(comm_matrix(a, prefixes, suffixes, dedup=True).entries)


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
    undefined_prob: float = 0.2,
) -> TwoWayDFA:
    """A random partial two-way DFA, seeded through ``rng``."""
    states = tuple(f"q{i}" for i in range(n_states))
    delta = {}
    for state in states:
        for symbol in (*alphabet, LEFT_MARK, RIGHT_MARK):
            if rng.random() < undefined_prob:
                continue
            if symbol == LEFT_MARK:
                moves = "R"
            elif symbol == RIGHT_MARK:
                moves = "L"
            else:
                moves = "LR"
            delta[(state, symbol)] = (rng.choice(states), rng.choice(moves))
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return TwoWayDFA(states, tuple(alphabet), states[0], accepting, delta)
