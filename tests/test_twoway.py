import json
import random
from pathlib import Path

import numpy as np
import pytest

from permrank import permmatrix, twoway
from permrank.twoway import (
    HALT_ACCEPT,
    HALT_REJECT,
    Outcome,
    TwoWayDFA,
    accepts,
    all_strings,
    comm_matrix,
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


def test_comm_matrix_dedup(always_accept, last_a):
    cm = comm_matrix(always_accept, all_strings("ab", 2), all_strings("ab", 2), dedup=True)
    assert cm.entries.shape == (1, 1)
    cm2 = comm_matrix(last_a, all_strings("ab", 2), all_strings("ab", 2), dedup=True)
    assert permmatrix.rank_exact(cm2.entries) == schmidt_lower_bound(
        last_a, all_strings("ab", 2), all_strings("ab", 2)
    )


def test_schmidt_bound_examples(last_a, always_accept):
    assert schmidt_lower_bound(always_accept, ["", "a"], ["", "b"]) == 1
    assert schmidt_lower_bound(last_a, ["", "a", "b"], ["", "a", "b"]) == 2


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
    assert comm_matrix(last_a, [], ["", "a", "b"], dedup=True).entries.shape == (0, 1)
    assert comm_matrix(last_a, ["", "a"], [], dedup=True).entries.shape == (1, 0)
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
        cm = comm_matrix(machine, prefixes, suffixes, dedup=True)
        assert cm.prefixes == tuple(prefixes[r] for r in rows)
        assert cm.suffixes == tuple(suffixes[c] for c in cols)
        assert np.array_equal(cm.entries, full[np.ix_(rows, cols)])


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


def test_schmidt_bound_caps_only_the_distinct_part():
    machine = TwoWayDFA.load(DATA / "tenth_from_end.json")
    for w in all_strings("ab", 12)[::7]:
        assert accepts(machine, w) == (len(w) >= 10 and w[-10] == "a")
    prefixes, suffixes = all_strings("ab", 10), all_strings("ab", 9)
    cm = comm_matrix(machine, prefixes, suffixes, dedup=True)
    # the last ten symbols, as seen by the ten suffix lengths 0..9
    assert cm.entries.shape == (1024, 10)
    with pytest.raises(ValueError, match="exact-elimination cap"):
        schmidt_lower_bound(machine, prefixes, suffixes)
    # no prefix up to length 9 has a tenth symbol from the end: one zero column
    assert schmidt_lower_bound(machine, all_strings("ab", 9), suffixes) == 9
