import dataclasses
import hashlib
import json
import random
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from permrank import permmatrix, twoway, verify
from permrank.twoway import (
    HALT_ACCEPT,
    HALT_REJECT,
    Outcome,
    TwoWayDFA,
    accepts,
    accepts_all,
    all_strings,
    comm_matrix,
    distinct_comm_matrix,
    extend_behavior,
    prefix_behavior,
    random_automaton,
    run,
    schmidt_lower_bound,
    to_dfa,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def last_a():
    return TwoWayDFA.load(DATA / "last_a.json")


@pytest.fixture
def always_accept():
    return TwoWayDFA.load(DATA / "always_accept.json")


def test_json_round_trip(last_a, tmp_path):
    path = tmp_path / "machine.json"
    last_a.save(path)
    assert TwoWayDFA.load(path) == last_a
    data = json.loads(path.read_text())
    assert set(data) == {"states", "alphabet", "initial", "accepting", "delta"}
    assert all(set(t) == {"state", "symbol", "to", "move"} for t in data["delta"])


def test_validation_rejects_bad_machines():
    with pytest.raises(ValueError, match="left endmarker"):
        TwoWayDFA(("q",), ("a",), "q", frozenset(), {("q", "<"): ("q", "L")})
    with pytest.raises(ValueError, match="right endmarker"):
        TwoWayDFA(("q",), ("a",), "q", frozenset(), {("q", ">"): ("q", "R")})
    with pytest.raises(ValueError, match="unknown state"):
        TwoWayDFA(("q",), ("a",), "q", frozenset(), {("q", "a"): ("r", "R")})
    with pytest.raises(ValueError, match="undeclared symbol"):
        TwoWayDFA(("q",), ("a",), "q", frozenset(), {("q", "b"): ("q", "R")})
    with pytest.raises(ValueError, match="reserved"):
        TwoWayDFA(("q",), ("a", "<"), "q", frozenset(), {})
    with pytest.raises(ValueError, match="initial"):
        TwoWayDFA(("q",), ("a",), "r", frozenset(), {})
    with pytest.raises(ValueError, match="duplicate alphabet symbols"):
        TwoWayDFA(("q",), ("a", "b", "a"), "q", frozenset(), {})


@pytest.mark.parametrize("alphabet", [("ab", "c"), ("a", ""), ("a", 5)])
def test_validation_rejects_symbols_that_are_not_single_characters(alphabet):
    with pytest.raises(ValueError, match="is not a single character"):
        TwoWayDFA(("q",), alphabet, "q", frozenset(), {})


def test_always_accept_machine(always_accept):
    for w in all_strings("ab", 4):
        assert run(always_accept, w) is Outcome.ACCEPT


def test_last_symbol_machine_outcomes(last_a):
    assert run(last_a, "aba") is Outcome.ACCEPT
    assert run(last_a, "ab") is Outcome.REJECT
    assert run(last_a, "") is Outcome.REJECT
    for w in all_strings("ab", 5):
        assert accepts(last_a, w) == w.endswith("a")


def test_run_rejects_foreign_symbols(last_a):
    with pytest.raises(ValueError):
        run(last_a, "abc")


def test_run_trace(last_a):
    outcome, steps = run(last_a, "a", trace=True)
    assert outcome is Outcome.ACCEPT
    assert steps[0] == ("scan", 0)
    assert steps[1] == ("scan", 1)
    states, positions = zip(*steps)
    assert all(0 <= pos <= 2 for pos in positions)


def test_two_state_bounce_loops():
    looper = TwoWayDFA(
        ("p", "q"), ("a",), "p", frozenset(),
        {("p", "<"): ("p", "R"), ("p", "a"): ("q", "L"), ("q", "<"): ("p", "R")},
    )
    assert run(looper, "a") is Outcome.LOOP
    assert not accepts(looper, "a")


# --- the lockstep simulator, lane by lane against run ---


def _run_table(machines, words):
    return np.array([[run(a, w) is Outcome.ACCEPT for w in words] for a in machines], dtype=bool)


def _sweeper(loops: bool) -> TwoWayDFA:
    """One accepting state that moves right to the right endmarker: it halts there
    on its last budgeted step, |w| + 2, or bounces there forever when ``loops``."""
    delta = {("q", c): ("q", "R") for c in "<ab"}
    if loops:
        delta[("q", ">")] = ("q", "L")
    return TwoWayDFA(("q",), ("a", "b"), "q", frozenset({"q"}), delta)


def test_accepts_all_matches_run_lane_by_lane(monkeypatch):
    rng = random.Random(107)
    # three alphabets in one call, numbered differently; every word is over "ab"
    machines = [
        random_automaton(rng, n_states=1 + i % 5, alphabet=("ab", "abc", "ba")[i % 3])
        for i in range(60)
    ]
    machines += [_sweeper(False), _sweeper(True)]
    machines.append(TwoWayDFA(("s",), ("a", "b"), "s", frozenset({"s"}), {}))  # halts on "<"
    machines.append(TwoWayDFA(("s",), ("b", "a"), "s", frozenset(), {}))
    words = ["".join(rng.choice("ab") for _ in range(rng.randint(0, 9))) for _ in range(80)]
    words += ["", "", "abba"]
    rng.shuffle(words)
    expected = _run_table(machines, words)
    assert accepts_all(machines, words).dtype == bool
    assert np.array_equal(accepts_all(machines, words), expected)
    monkeypatch.setattr(twoway, "_LANES", 37)  # many passes, the last one partial
    assert np.array_equal(accepts_all(machines, words), expected)
    assert expected[-4].all() and not expected[-3].any()  # halted accepting on ">", looped
    assert expected[-2].all() and not expected[-1].any()  # halted on "<"


def test_accepts_all_keeps_run_budget_exactly():
    sweeper, looper = _sweeper(False), _sweeper(True)
    for w in ["", "a", "ab" * 4 + "b"]:
        outcome, steps = run(sweeper, w, trace=True)
        assert outcome is Outcome.ACCEPT
        assert len(steps) == len(sweeper.states) * (len(w) + 2)  # every configuration once
        assert run(looper, w) is Outcome.LOOP
    words = ["", "a", "ab" * 4 + "b"]
    assert accepts_all([sweeper, looper], words).tolist() == [[True] * 3, [False] * 3]


def test_accepts_all_refuses_foreign_symbols_as_run_does(last_a):
    abc = random_automaton(random.Random(109), alphabet="abc")
    for machines, words, foreign in [
        ([last_a], ["ab", "acb"], "c"),
        ([abc, last_a], ["ab", "cab"], "c"),  # only the second machine refuses
        ([abc, last_a], ["ab", "cab", "bd"], "d"),  # the first machine refuses first
        ([abc], ["ab", "bdc"], "d"),
    ]:
        with pytest.raises(ValueError) as raised:
            accepts_all(machines, words)
        with pytest.raises(ValueError) as expected:
            _run_table(machines, words)
        assert str(raised.value) == str(expected.value) == (
            f"symbol {foreign!r} not in the automaton's alphabet"
        )


def test_accepts_all_empty_shapes(last_a):
    assert accepts_all([], ["a", "xyz"]).shape == (0, 2)
    assert accepts_all([last_a], []).shape == (1, 0)
    assert accepts_all([], []).shape == (0, 0)


def test_empty_prefix_behavior(always_accept):
    b = prefix_behavior(always_accept, "")
    assert b.entry == 0
    assert b.reentry == (0,)


def test_behavior_distinguishes_internal_halting():
    # halts mid-tape: accepting when the first symbol is a, rejecting on b
    machine = TwoWayDFA(
        ("s", "top"), ("a", "b"), "s", frozenset({"top"}),
        {("s", "<"): ("s", "R"), ("s", "a"): ("top", "L"), ("s", "b"): ("s", "L")},
    )
    accept_inside = prefix_behavior(machine, "a")
    reject_inside = prefix_behavior(machine, "b")
    assert accept_inside.entry == HALT_ACCEPT
    assert reject_inside.entry == HALT_REJECT
    assert accept_inside != reject_inside
    assert accepts(machine, "a") and accepts(machine, "ab")
    assert not accepts(machine, "b") and not accepts(machine, "ba")


def test_behavior_composition_matches_direct_simulation():
    rng = random.Random(13)
    for _ in range(200):
        machine = random_automaton(rng, n_states=rng.randint(1, 3))
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        c = rng.choice("ab")
        assert extend_behavior(machine, prefix_behavior(machine, u), c) == prefix_behavior(
            machine, u + c
        )


@pytest.mark.parametrize("n", range(1, 6))
def test_bounce_exits_on_the_nth_crossing_and_loops_without_an_exit(n):
    second = [(q + 1) % n for q in range(n)]  # each crossing comes back one state on
    exit_last = [*range(n - 1), twoway._EXIT - (n - 1)]  # dive in every state but the last
    assert twoway._bounce(exit_last, second, 0) == twoway._EXIT - (n - 1)
    for q in range(n):
        assert twoway._bounce(list(range(n)), second, q) == HALT_REJECT


def _relay(n: int) -> TwoWayDFA:
    """On "ba" the cell of a takes n crossings: q_i on a goes left, b sends
    q_{i+1} back, and q_{n-1} leaves right and halts accepting on ">"."""
    states = tuple(f"q{i}" for i in range(n))
    delta = {(states[0], "<"): (states[-1], "R")}
    for i, q in enumerate(states):
        delta[(q, "b")] = (states[(i + 1) % n], "R")
        delta[(q, "a")] = (q, "R" if i == n - 1 else "L")
    return TwoWayDFA(states, ("a", "b"), states[0], frozenset({states[-1]}), delta)


@pytest.mark.parametrize("n", range(1, 6))
def test_a_cell_of_n_crossings_steps_and_composes_as_simulated(n):
    machine = _relay(n)
    assert prefix_behavior(machine, "ba").reentry[0] == n - 1  # after n crossings at a
    assert accepts(machine, "ba")
    words = all_strings("ab", 4)
    for u in words:
        for c in "ab":
            assert extend_behavior(machine, prefix_behavior(machine, u), c) == prefix_behavior(
                machine, u + c
            )
    want = np.array([[accepts(machine, u + v) for v in words] for u in words], dtype=np.uint8)
    assert np.array_equal(comm_matrix(machine, words, words).entries, want)


def test_equal_behaviors_are_indistinguishable():
    rng = random.Random(29)
    suffixes = all_strings("ab", 4)
    found_equal_pair = 0
    for _ in range(60):
        machine = random_automaton(rng, n_states=2)
        prefixes = all_strings("ab", 3)
        by_behavior = {}
        for u in prefixes:
            by_behavior.setdefault(prefix_behavior(machine, u), []).append(u)
        for group in by_behavior.values():
            if len(group) > 1:
                found_equal_pair += 1
                first = group[0]
                for other in group[1:]:
                    for v in suffixes:
                        assert accepts(machine, first + v) == accepts(machine, other + v)
    assert found_equal_pair > 10  # the scan actually exercised the property


def test_to_dfa_single_state_for_always_accept(always_accept):
    dfa = to_dfa(always_accept)
    assert dfa.n_states == 1
    assert dfa.accepts("abab")


def test_to_dfa_last_symbol_machine(last_a):
    dfa = to_dfa(last_a)
    assert dfa.n_states <= 58
    for w in all_strings("ab", 7):
        assert dfa.accepts(w) == w.endswith("a")
    assert dfa.minimize().n_states == 2


def test_to_dfa_agreement_on_random_machines():
    rng = random.Random(37)
    for _ in range(150):
        machine = random_automaton(rng, n_states=rng.randint(1, 3))
        dfa = to_dfa(machine)
        for w in all_strings("ab", 6):
            assert dfa.accepts(w) == accepts(machine, w)


def test_to_dfa_respects_state_cap():
    machine = random_automaton(random.Random(0), n_states=6)
    with pytest.raises(ValueError, match="conversion cap"):
        to_dfa(machine)


def test_minimize_preserves_language_and_shrinks():
    rng = random.Random(41)
    for _ in range(40):
        machine = random_automaton(rng, n_states=3)
        dfa = to_dfa(machine)
        mini = dfa.minimize()
        assert mini.n_states <= dfa.n_states
        for w in all_strings("ab", 6):
            assert mini.accepts(w) == dfa.accepts(w)


def test_comm_matrix_entries(last_a):
    cm = comm_matrix(last_a, ["", "a", "b"], ["", "a", "b"])
    assert cm.entries.tolist() == [[0, 1, 0], [1, 1, 0], [0, 1, 0]]
    assert cm.prefixes == ("", "a", "b")


def test_comm_matrix_equality_reads_the_entries(last_a, always_accept):
    samples = all_strings("ab", 2)
    one, same, other = (comm_matrix(m, samples, samples) for m in (last_a, last_a, always_accept))
    assert one == same and hash(one) == hash(same)
    assert one.prefixes == other.prefixes and one.suffixes == other.suffixes
    assert one != other  # same labels, different entries


def test_comm_matrix_dedup(always_accept, last_a):
    cm = distinct_comm_matrix(always_accept, 2, 2)
    assert cm.entries.shape == (1, 1)
    cm2 = comm_matrix(last_a, all_strings("ab", 2), all_strings("ab", 2))
    assert permmatrix.rank_exact(cm2.entries) == schmidt_lower_bound(
        last_a, all_strings("ab", 2), all_strings("ab", 2)
    )


def test_schmidt_bound_examples(last_a, always_accept):
    assert schmidt_lower_bound(always_accept, ["", "a"], ["", "b"]) == 1
    assert schmidt_lower_bound(last_a, ["", "a", "b"], ["", "a", "b"]) == 2
    assert schmidt_lower_bound(last_a, [], []) == 0  # no labels: the empty matrix has rank 0


def test_schmidt_bound_monotone_in_suffixes(last_a):
    prefixes = all_strings("ab", 2)
    previous = 0
    for max_len in range(4):
        bound = schmidt_lower_bound(last_a, prefixes, all_strings("ab", max_len))
        assert bound >= previous
        previous = bound


def test_schmidt_bound_at_most_minimal_dfa():
    rng = random.Random(53)
    samples = all_strings("ab", 3)
    for _ in range(50):
        machine = random_automaton(rng, n_states=3)
        bound = schmidt_lower_bound(machine, samples, samples)
        assert bound <= to_dfa(machine).minimize().n_states


def test_all_strings_shortlex():
    assert all_strings("ab", 2) == ["", "a", "b", "aa", "ab", "ba", "bb"]


# --- communication matrices from crossing tables, against direct simulation ---


def _simulated(machine, prefixes, suffixes):
    """The communication matrix built entry by entry from ``accepts``."""
    return np.array(
        [[accepts(machine, u + v) for v in suffixes] for u in prefixes], dtype=np.uint8
    ).reshape(len(prefixes), len(suffixes))


def test_comm_matrix_matches_direct_simulation_on_random_machines():
    rng = random.Random(61)
    samples = all_strings("ab", 3)
    for i in range(150):
        machine = random_automaton(rng, n_states=1 + i % 5)
        cm = comm_matrix(machine, samples, samples)
        assert cm.entries.dtype == np.uint8
        assert np.array_equal(cm.entries, _simulated(machine, samples, samples))
        assert cm.prefixes == cm.suffixes == tuple(samples)


def test_comm_matrix_on_shuffled_duplicated_and_unclosed_labels():
    rng = random.Random(67)
    for i in range(60):
        machine = random_automaton(rng, n_states=1 + i % 5)
        # long strings without their ancestors, repeats, and no order
        prefixes = [
            "".join(rng.choice("ab") for _ in range(rng.randint(0, 9))) for _ in range(12)
        ]
        prefixes += rng.sample(prefixes, 4)
        rng.shuffle(prefixes)
        suffixes = all_strings("ab", 2) + ["babba", "aaaaaab", "b"]
        rng.shuffle(suffixes)
        cm = comm_matrix(machine, prefixes, suffixes)
        assert cm.prefixes == tuple(prefixes) and cm.suffixes == tuple(suffixes)
        assert np.array_equal(cm.entries, _simulated(machine, prefixes, suffixes))


def test_comm_matrix_empty_label_lists_keep_their_shape(last_a):
    assert comm_matrix(last_a, [], ["", "a", "b"]).entries.shape == (0, 3)
    assert comm_matrix(last_a, ["", "a"], []).entries.shape == (2, 0)
    assert comm_matrix(last_a, [], []).entries.shape == (0, 0)
    assert comm_matrix(last_a, [], ["a"]).entries.dtype == np.uint8
    # with no rows every column is the same empty column, and vice versa
    assert tuple(map(len, twoway._distinct(np.zeros((0, 3), np.uint8)))) == (0, 1)
    assert tuple(map(len, twoway._distinct(np.zeros((2, 0), np.uint8)))) == (1, 0)
    assert schmidt_lower_bound(last_a, [], ["a"]) == schmidt_lower_bound(last_a, ["a"], []) == 0


def _first_of_each(rows):
    firsts = {}
    for i, row in enumerate(rows.tolist()):
        firsts.setdefault(tuple(row), i)
    return sorted(firsts.values())


def test_comm_matrix_dedup_matches_deduplicated_simulation():
    rng = random.Random(71)
    for i in range(60):
        machine = random_automaton(rng, n_states=1 + i % 5)
        prefixes = all_strings("ab", 3)
        suffixes = all_strings("ab", 3)
        rng.shuffle(prefixes)
        full = _simulated(machine, prefixes, suffixes)
        rows = _first_of_each(full)
        cols = _first_of_each(full[rows].T)
        got_rows, got_cols = twoway._distinct(full)
        assert got_rows.tolist() == rows
        assert got_cols.tolist() == cols


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (1, 1), (9, 1), (40, 3), (30, 9), (25, 17)])
def test_distinct_matches_first_occurrences_on_random_matrices(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for density in (0.0, 0.2, 0.5, 1.0):  # 0 and 1: every row equal
        full = (rng.random(shape) < density).astype(np.uint8)
        rows = _first_of_each(full)
        cols = _first_of_each(full[rows].T)
        got_rows, got_cols = twoway._distinct(full)
        assert got_rows.dtype == got_cols.dtype == np.intp
        assert got_rows.tolist() == rows
        assert got_cols.tolist() == cols


@pytest.mark.parametrize("side", ["prefix", "suffix"])
def test_read_matches_a_full_reduce_per_word(side):
    explorer = twoway._prefix_tables if side == "prefix" else twoway._suffix_tables
    rng = random.Random(113)
    for i in range(40):
        machine = random_automaton(rng, n_states=1 + i % 5)
        words = all_strings("ab", 3) + [
            "".join(rng.choice("ab") for _ in range(rng.randint(0, 9))) for _ in range(10)
        ]
        words += rng.sample(words, 6)  # repeats
        rng.shuffle(words)  # a word before its prefixes, and long words without them
        tables, ids = twoway._read(explorer(machine), words)
        reference = explorer(machine)
        numbers = [reduce(reference.move, w, 0) for w in words]
        used, expected_ids = np.unique(numbers, return_inverse=True)
        assert ids.tolist() == expected_ids.tolist()
        assert tables == [reference.tables[t] for t in used]


def test_comm_matrix_long_labels_do_not_recurse(last_a):
    long_a = "b" * 2999 + "a"
    long_b = "ab" * 1500
    cm = comm_matrix(last_a, [long_a, long_b, ""], ["", "b", long_b[::-1]])
    assert cm.entries.tolist() == [[1, 0, 1], [0, 0, 1], [0, 0, 1]]
    machine = random_automaton(random.Random(73), n_states=5)
    labels = [long_a, long_b, "a" * 3000]
    assert np.array_equal(
        comm_matrix(machine, labels, labels).entries, _simulated(machine, labels, labels)
    )


def test_comm_matrix_rejects_foreign_symbols(last_a):
    with pytest.raises(ValueError, match="alphabet"):
        comm_matrix(last_a, ["ab", "ac"], ["a"])
    with pytest.raises(ValueError, match="alphabet"):
        comm_matrix(last_a, ["a"], ["", "xa"])


def test_schmidt_bound_at_prefix_length_nine(last_a, always_accept):
    prefixes, suffixes = all_strings("ab", 9), all_strings("ab", 4)
    assert schmidt_lower_bound(last_a, prefixes, suffixes) == 2
    assert schmidt_lower_bound(always_accept, prefixes, suffixes) == 1


def test_schmidt_bound_equals_rank_of_simulated_matrix():
    rng = random.Random(83)
    samples = all_strings("ab", 4)
    for i in range(40):
        machine = random_automaton(rng, n_states=1 + i % 5)
        expected = permmatrix.rank_exact(_simulated(machine, samples, samples))
        assert schmidt_lower_bound(machine, samples, samples) == expected


def test_schmidt_bound_caps_only_the_distinct_part(monkeypatch):
    machine = TwoWayDFA.load(DATA / "tenth_from_end.json")
    for w in all_strings("ab", 12)[::7]:
        assert accepts(machine, w) == (len(w) >= 10 and w[-10] == "a")
    prefixes, suffixes = all_strings("ab", 10), all_strings("ab", 9)
    cm = distinct_comm_matrix(machine, 10, 9)
    # the last ten symbols, as seen by the ten suffix lengths 0..9
    assert cm.entries.shape == (1024, 10)
    assert schmidt_lower_bound(machine, prefixes, suffixes) == 10
    # no prefix up to length 9 has a tenth symbol from the end: one zero column
    assert schmidt_lower_bound(machine, all_strings("ab", 9), suffixes) == 9
    monkeypatch.setattr(permmatrix, "MAX_EXACT_ORDER", 100)  # 1024 x 10 is over 100**2 entries
    with pytest.raises(ValueError, match="exact-elimination cap"):
        schmidt_lower_bound(machine, prefixes, suffixes)
    assert schmidt_lower_bound(machine, all_strings("ab", 9), suffixes) == 9  # 512 x 10 is not


# --- the table explorer ---


def test_distinct_comm_matrix_matches_deduplicated_comm_matrix():
    rng = random.Random(89)
    for i in range(300):
        alphabet = "ab" if i % 2 else "abc"
        machine = random_automaton(rng, n_states=1 + i % 5, alphabet=alphabet)
        prefix_len, suffix_len = rng.randint(0, 5 if alphabet == "ab" else 4), rng.randint(0, 4)
        prefixes, suffixes = all_strings(alphabet, prefix_len), all_strings(alphabet, suffix_len)
        full = comm_matrix(machine, prefixes, suffixes)
        rows, cols = twoway._distinct(full.entries)
        expected = twoway.CommMatrix(
            tuple(prefixes[r] for r in rows),
            tuple(suffixes[c] for c in cols),
            full.entries[np.ix_(rows, cols)],
        )
        got = distinct_comm_matrix(machine, prefix_len, suffix_len)
        assert got.entries.shape == expected.entries.shape
        assert got.prefixes == expected.prefixes
        columns = [set(map(tuple, m.entries.T.tolist())) for m in (got, expected)]
        assert columns[0] == columns[1]
        assert permmatrix.rank_exact(got.entries) == permmatrix.rank_exact(expected.entries)
        # each label names its line: the matrix of the labels is the distinct part
        assert np.array_equal(got.entries, _simulated(machine, got.prefixes, got.suffixes))


def test_prefix_start_table_matches_direct_simulation():
    rng = random.Random(101)
    for i in range(60):
        n = 1 + i % 5
        machine = random_automaton(rng, n_states=n)
        machine = dataclasses.replace(machine, initial=rng.choice(machine.states))
        start = twoway._prefix_tables(machine).tables[0]
        assert start == twoway._normalize(prefix_behavior(machine, ""), n)


def test_explored_words_are_shortlex_least():
    rng = random.Random(97)
    for i in range(60):
        machine = random_automaton(rng, n_states=1 + i % 5)
        tables = twoway._prefix_tables(machine)
        words = tables.explore(machine.alphabet, 5)
        first = {}
        for w in all_strings(machine.alphabet, 5):
            first.setdefault(reduce(tables.move, w, 0), w)
        assert len(tables.tables) == len(words) == len(first)
        assert [first[t] for t in range(len(words))] == words


def test_to_dfa_refuses_more_tables_than_its_budget(monkeypatch):
    machine = random_automaton(random.Random(2), n_states=5)
    monkeypatch.setattr(twoway, "MAX_TABLES", 8)
    assert to_dfa(machine).n_states == 8
    monkeypatch.setattr(twoway, "MAX_TABLES", 7)
    with pytest.raises(ValueError, match="crossing-table budget 7 exceeded"):
        to_dfa(machine)


@pytest.mark.parametrize("lengths", [(-1, -1), (-1, 2), (2, -1)])
def test_distinct_comm_matrix_refuses_negative_lengths(last_a, lengths):
    with pytest.raises(ValueError, match="must be non-negative"):
        distinct_comm_matrix(last_a, *lengths)


def test_comm_matrix_refuses_more_tables_than_the_budget(last_a, monkeypatch):
    # last_a reaches 2 prefix tables and 5 suffix tables (within suffix length 2)
    monkeypatch.setattr(twoway, "MAX_TABLES", 5)
    assert distinct_comm_matrix(last_a, 9, 9).entries.shape == (2, 3)
    assert comm_matrix(last_a, ["ab"], all_strings("ab", 3)).entries.shape == (1, 15)
    monkeypatch.setattr(twoway, "MAX_TABLES", 4)
    for build in (
        lambda: schmidt_lower_bound(last_a, ["ab"], all_strings("ab", 2)),
        lambda: distinct_comm_matrix(last_a, 0, 2),
    ):
        with pytest.raises(ValueError, match="crossing-table budget 4 exceeded"):
            build()


# --- the automata suite's batched oracle ---


def test_automata_suite_catches_a_wrong_conversion(monkeypatch):
    convert = twoway.to_dfa

    def flipped(machine):  # the initial state's acceptance is wrong, so the empty word is
        dfa = convert(machine)
        return dataclasses.replace(dfa, accepting=dfa.accepting ^ {dfa.initial})

    monkeypatch.setattr(twoway, "to_dfa", flipped)
    report = verify.run_suite("automata", seed=0)
    assert report.cases == 300
    failed = [f for f in report.failures if f.case.endswith("one-way conversion agrees")]
    assert len(failed) == 100
    first = random_automaton(random.Random(0), n_states=3)  # the suite's machine 0
    dfa = flipped(first)
    mismatches = [w for w in all_strings("ab", 6) if dfa.accepts(w) != accepts(first, w)]
    assert "" in mismatches
    assert failed[0].case == "machine 0: one-way conversion agrees"
    assert failed[0].actual == repr(mismatches)


#: Case count and the sha256 of the newline-joined case names of verify 'all',
#: as the suite ran with one accepts call per machine and word.
ALL_CASES = 389
ALL_CASE_NAMES_SHA256 = "e5051c9194c0a08a606e490cff64b96e2b4ace1f72098c434c6bffd1877252ff"


@pytest.mark.parametrize("seed", range(5))
def test_verify_all_keeps_its_cases(monkeypatch, seed):
    names = []
    check = verify.VerifyReport.check

    def recorded(self, case, *args, **kwargs):
        names.append(case)
        return check(self, case, *args, **kwargs)

    monkeypatch.setattr(verify.VerifyReport, "check", recorded)
    report = verify.run_suite("all", seed=seed)
    assert report.ok
    assert report.cases == len(names) == ALL_CASES
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == ALL_CASE_NAMES_SHA256
    automata = names[-300:]
    assert automata[:3] == [
        "machine 0: one-way conversion agrees",
        "machine 0: behavior count within ceiling",
        "machine 0: rank bound vs minimal DFA",
    ]
    assert automata[-1] == "machine 99: rank bound vs minimal DFA"
