"""Every library refusal that no other test reaches: (call, exception type, message fragment)."""

import random
from pathlib import Path

import numpy as np
import pytest

from permrank import bitmatrix, bounds, characters, permmatrix, perms, twoway, verify, young
from permrank import group_algebra as ga


def _wide_pbm() -> Path:
    path = Path("wide.pbm")  # in the test's working directory, a fresh tmp_path
    path.write_bytes(b"P4\n3 2\n" + bytes(2))
    return path


def _automaton(states=("q",), initial="q", accepting=(), delta=None):
    return twoway.TwoWayDFA(tuple(states), ("a",), initial, frozenset(accepting), delta or {})


REFUSALS = [
    (lambda: bitmatrix.BinaryMatrix.from_dense(np.zeros((2, 3), np.uint8)), ValueError,
     "expected a square matrix, got shape (2, 3)"),
    (lambda: bitmatrix.BinaryMatrix(10001, np.zeros((1, 1), np.uint8)).is_symmetric(), ValueError,
     "symmetry check not supported at this order"),
    (lambda: bitmatrix.read_pbm(_wide_pbm()), ValueError, "expected a square image, got 3x2"),
    (lambda: bounds.asymptotic_ratio(10, digits=0), ValueError, "digits must be positive"),
    (lambda: characters.character_at_full_cycle(()), ValueError, "weight must be positive"),
    (lambda: characters.specht_dim(()), ValueError, "weight must be positive"),
    (lambda: characters.class_size(()), ValueError, "weight must be positive"),
    (lambda: ga.basis((0, 1)) + 1, TypeError, "cannot combine with int"),
    (lambda: permmatrix.left_multiplication_matrix(0), ValueError, "degree must be in 1.."),
    (lambda: permmatrix.random_prime(random.Random(0), 0), ValueError, "modulus must be positive, got 0"),
    (lambda: permmatrix._root_of_unity(4, 7), ValueError, "no primitive 4-th root of unity mod 7"),
    (lambda: permmatrix._root_of_unity(1, 2), ValueError, "2 is not an odd prime"),
    (lambda: permmatrix.rank_exact(np.zeros(3, np.int64)), ValueError, "expected a 2-D matrix, got shape (3,)"),
    (lambda: permmatrix.rank_exact(np.zeros((2, 2))), ValueError, "expected integer entries, got dtype float64"),
    (lambda: permmatrix.certified_rank(3, method="fast"), ValueError, "unknown method 'fast'"),
    (lambda: permmatrix.certified_rank(7, method="auto"), ValueError, "unknown method 'auto'"),
    (lambda: perms.cyclic_perms(0), ValueError, "degree must be positive"),
    (lambda: perms.from_cycles(3, (1, 2), (1, 3)), ValueError, "do not define a permutation"),
    (lambda: _automaton(states=()), ValueError, "automaton needs at least one state"),
    (lambda: _automaton(states=("q", "q")), ValueError, "duplicate state names"),
    (lambda: _automaton(accepting=("r",)), ValueError, "accepting states must be declared states"),
    (lambda: _automaton(delta={("q", "a"): ("q", "U")}), ValueError, "move must be 'L' or 'R', got 'U'"),
    (lambda: verify.run_suite("everything"), ValueError, "unknown suite 'everything'"),
    (lambda: young.partitions(-1), ValueError, "weight must be non-negative"),
    (lambda: young.rim_hooks((2, 1), 0), ValueError, "rim hook length must be positive"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_refusal(call, error, fragment, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
