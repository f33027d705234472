#!/usr/bin/env python3
"""Simulate two-way automata, convert to one-way, and take rank bounds.

The example machine accepts strings ending in 'a' by scanning to the right
endmarker, stepping one cell back, and halting in an accepting state if
that cell holds 'a'.
"""

import random

from permrank import (
    TwoWayDFA,
    accepts,
    all_strings,
    distinct_comm_matrix,
    prefix_behavior,
    random_automaton,
    run,
    schmidt_lower_bound,
    to_dfa,
)

last_a = TwoWayDFA(
    states=("scan", "check", "yes"),
    alphabet=("a", "b"),
    initial="scan",
    accepting=frozenset({"yes"}),
    delta={
        ("scan", "<"): ("scan", "R"),
        ("scan", "a"): ("scan", "R"),
        ("scan", "b"): ("scan", "R"),
        ("scan", ">"): ("check", "L"),
        ("check", "a"): ("yes", "R"),
    },
)

for word in ("aba", "ab", ""):
    print(f"run({word!r}) -> {run(last_a, word).value}")

# A prefix is summarized by its crossing table: the state in which the head
# first leaves the prefix, and where it exits after each possible re-entry.
for u in ("", "a", "b"):
    print(f"behavior({u!r}) = {prefix_behavior(last_a, u)}")

# One-way conversion: states are the reachable crossing tables.
dfa = to_dfa(last_a)
print(f"one-way DFA: {dfa.n_states} states, minimized {dfa.minimize().n_states}")
assert all(dfa.accepts(w) == accepts(last_a, w) for w in all_strings("ab", 8))

# The communication matrix over all prefixes/suffixes up to length 3: entry
# (u, v) records acceptance of the concatenation.  Its exact rank
# lower-bounds the size of every unambiguous one-way automaton for the
# language.
samples = all_strings("ab", 3)
matrix = distinct_comm_matrix(last_a, 3, 3)
print(f"deduplicated communication matrix: {matrix.entries.shape}")
print(matrix.entries)
print(f"rank (hence unambiguous-automaton lower bound): "
      f"{schmidt_lower_bound(last_a, samples, samples)}")

# The same pipeline on a random machine.
machine = random_automaton(random.Random(4), n_states=3)
dfa = to_dfa(machine)
bound = schmidt_lower_bound(machine, samples, samples)
print(
    f"\nrandom 3-state machine: {dfa.n_states} crossing tables, "
    f"minimal DFA {dfa.minimize().n_states}, rank bound {bound}"
)
assert bound <= dfa.minimize().n_states
