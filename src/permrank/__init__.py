"""Exact verification toolkit for cycle-indicator permutation matrix ranks,
symmetric-group character computations, the derived two-way-automaton state
bounds, and concrete two-way automata."""

from .bounds import (
    BoundRow,
    asymptotic_ratio,
    binomial,
    bound_earlier,
    bound_new,
    bound_table,
    bound_upper,
    dfa_bound,
    nfa_bound,
)
from .characters import (
    character,
    character_at_full_cycle,
    character_table,
    class_size,
    specht_dim,
)
from .group_algebra import (
    GroupAlgebraElement,
    basis,
    conjugacy_class_sum,
    cyclic_class_sum,
    is_central,
)
from .permmatrix import (
    BinaryMatrix,
    PrimeDisagreement,
    RankCertificate,
    certified_rank,
    cycle_product_matrix,
    cycle_quotient_matrix,
    left_multiplication_matrix,
    rank_exact,
    rank_mod_prime,
    read_pbm,
    write_pbm,
)
from .perms import (
    all_perms,
    compose,
    conjugate,
    cycle_type,
    cyclic_perms,
    from_cycles,
    from_one_based,
    identity,
    inverse,
    is_cyclic,
    perm_rank,
    perm_unrank,
    to_one_based,
)
from .twoway import (
    DFA,
    Behavior,
    CommMatrix,
    Outcome,
    TwoWayDFA,
    accepts,
    accepts_all,
    all_strings,
    comm_matrix,
    distinct_comm_matrix,
    prefix_behavior,
    random_automaton,
    run,
    schmidt_lower_bound,
    to_dfa,
)
from .young import (
    RimHook,
    is_hook,
    partitions,
    remove_rim_hook,
    rim_hooks,
    standard_tableaux,
    syt_count,
    transpose,
)

__version__ = "0.1.0"
