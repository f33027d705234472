import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrank import characters, cli, permmatrix, twoway, verify, young

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_does_not_load_mpmath():
    # only asymptotic_ratio and the asym command need it; they import it themselves
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, permrank, permrank.cli; print('mpmath' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_package_has_no_assert_statements():
    # python -O strips asserts, so every guard in the package must be a raise to hold there
    sources = sorted((ROOT / "src" / "permrank").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_rank_small(capsys):
    code, out, _ = run_cli(capsys, "rank", "--k", "3")
    assert code == 0
    assert "rank 6" in out and "PASS" in out


def test_rank_json_payload(capsys):
    code, out, _ = run_cli(capsys, "rank", "--k", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4
    assert payload["rank"] == payload["expected"] == 20
    assert payload["method"] == "exact-fraction-free"
    assert payload["primes"] == list(permmatrix.certified_rank(4).primes) and len(payload["primes"]) == 1
    assert isinstance(payload["elapsed_ms"], int)


def test_rank_modp_seeded_deterministic(capsys):
    argv = ("rank", "--k", "7", "--method", "modp", "--primes", "2", "--seed", "42", "--json")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert (p1["rank"], p1["method"]) == (924, "modular-multiprime") and len(p1["primes"]) == 2
    assert p1["primes"] == p2["primes"]


def test_rank_without_seed_repeats_seed_0(capsys):
    primes = []
    for argv in (["rank", "--k", "7", "--json"],) * 2 + (["rank", "--k", "7", "--seed", "0", "--json"],):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        primes.append(json.loads(out)["primes"])
    assert len(primes[0]) == 3 and primes[0] == primes[1] == primes[2]


def test_rank_dump_pbm(capsys, tmp_path):
    target = tmp_path / "p2.pbm"
    code, _, _ = run_cli(capsys, "rank", "--k", "2", "--dump-pbm", str(target))
    assert code == 0
    mat = permmatrix.read_pbm(target)
    assert mat.order == 2
    assert mat.to_dense().tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "k,target",
    [("0", "x.pbm"), ("9", "x.pbm"), ("5", "no/such/dir/x.pbm")],
)
def test_rank_dump_pbm_bad_input_exits_2_with_one_line(capsys, tmp_path, k, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "rank", "--k", k, "--dump-pbm", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "error:" in err and "Traceback" not in err
    assert not path.exists()


def test_rank_degree_above_the_cap_exits_2_with_one_line(capsys):
    code, out, err = run_cli(capsys, "rank", "--k", "9")
    assert code == 2 and out == ""
    assert err == "error: degree must be in 1..8, got 9\n"


def test_verify_table_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "table1")
    assert code == 0
    assert "PASS" in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hooks", "--n", "8", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["suite"] == "hooks"
    assert report["cases"] == 8


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "nonsense"])
    capsys.readouterr()


def test_bound_markdown(capsys):
    code, out, _ = run_cli(capsys, "bound", "--max", "10", "--format", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| n |")
    assert "| 10 | 5188590 | 65672850 | 589410910 |" in lines


def test_bound_plain(capsys):
    code, out, _ = run_cli(capsys, "bound", "--max", "3")
    assert code == 0
    assert out.splitlines() == [
        "n     earlier lower bound   new lower bound       upper bound           ",
        "1     1                     1                     1                     ",
        "2     6                     6                     6                     ",
        "3     33                    39                    39                    ",
    ]


def test_rank_modp_takes_the_largest_residue_rank(capsys, monkeypatch):
    # the first prime ranks the class (1, 1) one short, as an unlucky prime may where p^2 does not
    # exceed the bound on its minors; the class stays open, the next prime ranks it again, and each
    # class keeps its largest residue rank, so the certificate is unchanged
    expected = permmatrix.certified_rank(7, method="modp", num_primes=3, seed=0)
    first = next(permmatrix._distinct_primes(0, 60))
    class_ranks, shortened = permmatrix._class_ranks, []

    def one_short(symbols, p, classes):
        ranks = class_ranks(symbols, p, classes)
        if p == first:
            assert classes[0] == 0 and ranks[0] >= 1  # phi(1) phi(1) = 1 block
            bounds = permmatrix._hadamard_bounds(symbols.sum(axis=(0, 1)))
            assert p * p <= bounds[ranks[0]]  # the short rank leaves the class open
            ranks[0] -= 1
            shortened.append(p)
        return ranks

    monkeypatch.setattr(permmatrix, "_class_ranks", one_short)
    cert = permmatrix.certified_rank(7, method="modp", num_primes=3, seed=0)
    assert cert == expected and cert.rank == 924 and shortened == [first]
    code, out, err = run_cli(capsys, "rank", "--k", "7", "--json")
    assert (code, err) == (0, "") and shortened == [first] * 2
    assert (json.loads(out)["rank"], json.loads(out)["method"]) == (924, "modular-multiprime")


def test_bound_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "bound", "--max", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "1,1,1,1"
    code, out, _ = run_cli(capsys, "bound", "--max", "3", "--format", "json")
    rows = json.loads(out)
    assert rows[2] == {"n": 3, "earlier_lower": 33, "new_lower": 39, "upper": 39}


def test_char_command(capsys):
    code, out, _ = run_cli(capsys, "char", "--lambda", "2,1", "--alpha", "3")
    assert code == 0
    assert out.strip() == "-1"


def test_char_weight_mismatch(capsys):
    code, _, err = run_cli(capsys, "char", "--lambda", "2,1", "--alpha", "2")
    assert code == 2
    assert "mismatch" in err


def test_char_runs_at_the_weight_cap(capsys):
    # the cap refuses only heavier shapes; a one-row shape has a subshape per weight
    weight = cli.MAX_CHAR_WEIGHT
    code, out, _ = run_cli(capsys, "char", "--lambda", str(weight), "--alpha", ",".join(["1"] * weight))
    assert code == 0 and out.strip() == "1"


def test_chartable_csv(capsys):
    code, out, _ = run_cli(capsys, "chartable", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shape\\class,1+1+1,2+1,3"
    assert lines[1] == "3,1,1,1"
    assert lines[2] == "2+1,2,0,-1"


def test_asym_command(capsys):
    code, out, _ = run_cli(capsys, "asym", "--n", "400", "--digits", "30")
    assert code == 0
    assert out.strip().startswith("0.99750740630044384927323437")


def test_2dfa_run(capsys):
    code, out, _ = run_cli(capsys, "2dfa", "run", "-a", str(DATA / "last_a.json"), "-w", "aba")
    assert code == 0
    assert out.strip() == "Accept"
    code, out, _ = run_cli(capsys, "2dfa", "run", "-a", str(DATA / "last_a.json"), "-w", "ab")
    assert out.strip() == "Reject"


def test_2dfa_run_trace(capsys):
    code, out, _ = run_cli(
        capsys, "2dfa", "run", "-a", str(DATA / "last_a.json"), "-w", "a", "--trace"
    )
    assert code == 0
    assert out.strip().splitlines()[0] == "scan @ 0"
    assert out.strip().splitlines()[-1] == "Accept"


def test_2dfa_commrank(capsys):
    code, out, _ = run_cli(
        capsys,
        "2dfa", "commrank",
        "-a", str(DATA / "last_a.json"),
        "--prefix-len", "3", "--suffix-len", "3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["rows"] == payload["cols"] == 15


def test_2dfa_missing_file(capsys):
    code, _, err = run_cli(capsys, "2dfa", "run", "-a", "no_such_file.json", "-w", "a")
    assert code == 2
    assert "cannot load" in err


def test_rank_json_reports_blocks(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--k", "4", "--method", "modp", "--primes", "1", "--json"
    )
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert blocks == {"cycle_types": [[4], [3, 1]], "subgroup_order": 12, "count": 12, "order": 2,
                      "eliminated": 6}
    code, out, _ = run_cli(capsys, "rank", "--k", "4", "--method", "modp", "--primes", "1")
    assert code == 0
    assert (
        "blocks: 12 of order 2 per prime, 6 eliminated over 1 prime, from the subgroup <a> x <b> of order 12 "
        "(cycle types 4 and 3+1)"
    ) in out.splitlines()
    code, out, _ = run_cli(capsys, "rank", "--k", "7")
    assert code == 0
    assert (
        "blocks: 120 of order 42 per prime, 60 eliminated over 3 primes, from the subgroup <a> x <b> "
        "of order 120 (cycle types 5+2 and 4+3)"
    ) in out.splitlines()
    code, out, _ = run_cli(capsys, "rank", "--k", "4", "--json")
    assert json.loads(out)["blocks"] == blocks  # the default cap of 3 stops at the same first prime


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--k", "3", "--method", "modp", "--primes", "0"),
        ("rank", "--k", "3", "--method", "modp", "--primes", "-2"),
        ("asym", "--n", "0"),
        ("asym", "--n", "5", "--digits", "0"),
        ("2dfa", "commrank", "-a", str(DATA / "last_a.json"), "--prefix-len", "-1"),
        ("2dfa", "commrank", "-a", str(DATA / "last_a.json"), "--suffix-len", "-1"),
        ("asym", "--n", "x"),
        ("char", "--lambda", "x", "--alpha", "3"),
        ("char", "--lambda", "2,1", "--alpha", "1,2"),
        ("verify", "--suite", "dims", "--n", "0"),
        ("verify", "--suite", "dims", "--n", "-1"),
        ("bound", "--max", "0"),
        ("bound", "--max", "-3"),
    ],
)
def test_bad_numeric_flags_exit_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1
    assert "error:" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("argv, flag, limit", [
    (["bound", "--max", str(cli.MAX_BOUND_ROWS + 1)], "--max", cli.MAX_BOUND_ROWS),
    (["asym", "--n", str(cli.MAX_ASYM_N + 1)], "--n", cli.MAX_ASYM_N),
    (["asym", "--n", "10", "--digits", str(cli.MAX_ASYM_DIGITS + 1)], "--digits", cli.MAX_ASYM_DIGITS),
])
def test_flags_above_their_limit_exit_2_with_one_line_before_any_work(capsys, argv, flag, limit):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert time.perf_counter() - t0 < 0.5
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.endswith(f": error: argument {flag}: must be at most {limit}, got {limit + 1}\n")
    assert len(out.err.splitlines()) == 1


def test_rank_refuses_the_auto_method_with_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rank", "--k", "7", "--method", "auto"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --method: invalid choice: 'auto'" in out.err
    assert len(out.err.splitlines()) == 1 and "Traceback" not in out.err


def test_rank_primes_has_no_cap_as_the_loop_stops_once_every_class_is_proved(capsys):
    # at seed 0 the fourth prime closes the last degree-7 class, as for --method exact
    code, out, _ = run_cli(capsys, "rank", "--k", "7", "--primes", "1000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["rank"], payload["method"], len(payload["primes"])) == (924, "exact-fraction-free", 4)
    assert payload["blocks"]["eliminated"] == 64  # 24 + 24 + 12 + 4 over the four primes


def test_2dfa_commrank_prefix_nine_ranks_the_distinct_part(capsys):
    argv = ("2dfa", "commrank", "-a", str(DATA / "last_a.json"), "--prefix-len", "9")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.strip() == "communication matrix 1023x31 (distinct 2x3), rank 2"
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == {
        "prefix_len": 9, "suffix_len": 4, "rows": 1023, "cols": 31, "rank": 2,
        "dedup_rows": 2, "dedup_cols": 3,
    }


def test_2dfa_commrank_over_the_cap_exits_2_with_one_line(capsys, monkeypatch):
    # the tenth symbol from the end: 1024 distinct rows at prefix length 10, under the entry cap
    argv = ("2dfa", "commrank", "-a", str(DATA / "tenth_from_end.json"), "--prefix-len", "10", "--suffix-len", "9")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "prefix_len": 10, "suffix_len": 9, "rows": 2047, "cols": 1023, "rank": 10,
        "dedup_rows": 1024, "dedup_cols": 10,
    }
    monkeypatch.setattr(permmatrix, "MAX_EXACT_ORDER", 100)  # 1024 x 10 is over 100**2 entries
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "exact-elimination cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--prefix-len", "65", "--suffix-len", "65"), "--prefix-len 65 is above the limit of 64"),
        (("--suffix-len", "65"), "--suffix-len 65 is above the limit of 64"),
        (("--prefix-len", "65"), "--prefix-len 65 is above the limit of 64"),
        (("--suffix-len", "1000000000"), "--suffix-len 1000000000 is above the limit of 64"),
    ],
)
def test_2dfa_commrank_refuses_oversized_samples_with_one_line(capsys, flags, message):
    code, out, err = run_cli(
        capsys, "2dfa", "commrank", "-a", str(DATA / "last_a.json"), *flags
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_2dfa_duplicate_alphabet_symbol_exits_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "machine.json"
    machine = json.loads((DATA / "last_a.json").read_text())
    machine["alphabet"] = ["a", "b", "a"]
    path.write_text(json.dumps(machine))
    code, out, err = run_cli(capsys, "2dfa", "commrank", "-a", str(path),
                             "--prefix-len", "3", "--suffix-len", "3", "--json")
    assert code == 2
    assert out == ""
    assert "duplicate alphabet symbols" in err
    assert len(err.strip().splitlines()) == 1


def test_2dfa_multi_character_alphabet_exits_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "machine.json"
    machine = json.loads((DATA / "last_a.json").read_text())
    machine["alphabet"] = ["ab", "c"]
    machine["delta"] = [t for t in machine["delta"] if t["symbol"] in ("<", ">")]
    path.write_text(json.dumps(machine))
    for argv in (("run", "-w", "ab"), ("commrank", "--prefix-len", "1")):
        code, out, err = run_cli(capsys, "2dfa", argv[0], "-a", str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert "'ab' is not a single character" in err
        assert len(err.strip().splitlines()) == 1


def test_rank_json_reports_how_blocks_were_certified(capsys):
    code, out, _ = run_cli(capsys, "rank", "--k", "5", "--json")
    assert code == 0
    note = json.loads(out)["note"]
    assert ("8 classes (d1, d2), d1 | 5, d2 | 6, of phi(d1) phi(d2) times the rank of one Fourier "
            "block of order 4 ") in note
    assert note.endswith(" largest residue rank r over 1 prime p = 1 (mod 30), proved once P^2 exceeds "
                         "the Hadamard bound on the squared (r+1)-minors of the orbit-sum matrix, P the "
                         "product of the primes that ranked it; P has 30 bits, the largest orbit-sum "
                         "bound 29 bits")
    [prime] = json.loads(out)["primes"]
    code, out, _ = run_cli(capsys, "rank", "--k", "5")
    assert code == 0
    assert f"note: {note}" in out.splitlines()
    assert f"primes: {prime}" in out.splitlines()


@pytest.mark.parametrize(
    "flags, payload",
    [
        (("--prefix-len", "20"), '"prefix_len": 20, "suffix_len": 4, "rows": 2097151, "cols": 31'),
        (("--suffix-len", "20"), '"prefix_len": 4, "suffix_len": 20, "rows": 31, "cols": 2097151'),
        (
            ("--prefix-len", "14", "--suffix-len", "14"),
            '"prefix_len": 14, "suffix_len": 14, "rows": 32767, "cols": 32767',
        ),
        (
            ("--prefix-len", "64", "--suffix-len", "64"),
            '"prefix_len": 64, "suffix_len": 64, '
            '"rows": 36893488147419103231, "cols": 36893488147419103231',
        ),
    ],
    ids=["prefix-20", "suffix-20", "both-14", "both-64"],
)
def test_2dfa_commrank_large_samples_rank_the_reachable_tables(capsys, flags, payload):
    # the sampled strings are counted, never built: the distinct part is 2x3 at any length
    code, out, err = run_cli(
        capsys, "2dfa", "commrank", "-a", str(DATA / "last_a.json"), *flags, "--json"
    )
    assert code == 0 and err == ""
    assert out == "{" + payload + ', "rank": 2, "dedup_rows": 2, "dedup_cols": 3}\n'


def test_2dfa_commrank_over_the_table_budget_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(twoway, "MAX_TABLES", 100)
    code, out, err = run_cli(
        capsys, "2dfa", "commrank", "-a", str(DATA / "tenth_from_end.json"),
        "--prefix-len", "9", "--suffix-len", "2",
    )
    assert code == 2 and out == ""
    assert err == "error: crossing-table budget 100 exceeded\n"


@pytest.mark.parametrize("suite", [*verify.MAX_DEGREE, "all"])
def test_verify_degree_above_the_suite_cap_exits_2_before_any_work(capsys, monkeypatch, suite):
    for name in verify.SUITES:
        monkeypatch.setattr(verify, f"_suite_{name}", lambda *a, **k: pytest.fail("suite ran"))
    caps = verify.MAX_DEGREE if suite == "all" else {suite: verify.MAX_DEGREE[suite]}
    first = min(caps, key=caps.get)
    n = caps[first] + 1
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n", str(n))
    assert code == 2 and out == ""
    assert err == f"error: degree {n} is above the {first} suite's cap of {caps[first]}\n"


def test_verify_suite_caps():
    # the caps of the functions each suite calls, and the measured ~20 s degrees
    assert verify.MAX_DEGREE == {
        "centrality": 10, "operator": 6, "characters": 10, "hooks": 50, "dims": 47,
    }


@pytest.mark.parametrize("suite", ["table1", "asym", "automata"])
def test_verify_degree_for_a_suite_without_one_exits_2_with_one_line(capsys, monkeypatch, suite):
    monkeypatch.setattr(verify, f"_suite_{suite}", lambda *a, **k: pytest.fail("suite ran"))
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n", "100")
    assert code == 2 and out == ""
    assert err == (f"error: the {suite} suite takes no degree; "
                   "--n applies to centrality, operator, characters, hooks, dims\n")


def test_verify_all_passes_the_degree_only_to_suites_that_take_one(monkeypatch):
    seen = {}
    for name in verify.SUITES:
        monkeypatch.setattr(verify, f"_suite_{name}",
                            lambda report, *a, name=name, **k: seen.setdefault(name, a))
    assert verify.run_suite("all", max_n=3).ok
    assert seen == {**{name: (3, 0) for name in verify.MAX_DEGREE},
                    "table1": (None, 0), "asym": (None, 0), "automata": (None, 0)}


def test_verify_hooks_keeps_at_most_one_degree_of_characters():
    assert verify.run_suite("hooks", max_n=20).ok
    assert characters.character.cache_info().currsize <= young.partition_count(20) + 1


@pytest.mark.parametrize("argv, message", [
    (["rank", "--k", "9"], "degree must be in 1..8, got 9"),
    (["verify", "--suite", "hooks", "--n", "51"], "degree 51 is above the hooks suite's cap of 50"),
    (["char", "--lambda", "2,1", "--alpha", "2"], "weight mismatch: (2, 1) vs (2,)"),
    (["chartable", "11"], "degree must be in 1..10, got 11"),
    (["2dfa", "run", "-a", str(DATA / "last_a.json"), "-w", "az"],
     "symbol 'z' not in the automaton's alphabet"),
    (["2dfa", "commrank", "-a", str(DATA / "tenth_from_end.json"), "--prefix-len", "9",
      "--suffix-len", "2"], "crossing-table budget 100 exceeded"),
    (["char", "--lambda", "400", "--alpha", ",".join(["1"] * 400)],
     f"--lambda weight 400 is above the limit of {cli.MAX_CHAR_WEIGHT}"),
])
def test_each_command_refuses_through_main_with_one_line(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(twoway, "MAX_TABLES", 100)  # only 2dfa commrank walks the tables
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NOT_STR = _JSON.filter(lambda v: not isinstance(v, str))
_NOT_STRINGS = _JSON.filter(
    lambda v: not (isinstance(v, list) and all(isinstance(s, str) for s in v))
)
_VALID = json.loads((DATA / "last_a.json").read_text())


@st.composite
def _malformed_automata(draw):
    """JSON that to_json_dict never writes: each draw breaks one level of the shape."""
    data = json.loads(json.dumps(_VALID))
    kinds = ["top", "missing", "extra", "list", "initial", "delta", "entry", "field", "repeat"]
    kind = draw(st.sampled_from(kinds))
    if kind == "top":
        return draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    if kind == "missing":
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "extra":
        data[draw(st.text(max_size=3).filter(lambda k: k not in data))] = draw(_JSON)
    elif kind == "list":
        data[draw(st.sampled_from(["states", "alphabet", "accepting"]))] = draw(_NOT_STRINGS)
    elif kind == "initial":
        data["initial"] = draw(_NOT_STR)
    elif kind == "delta":
        data["delta"] = draw(_JSON.filter(lambda v: not isinstance(v, list)))
    elif kind == "entry":
        i = draw(st.integers(0, len(data["delta"]) - 1))
        data["delta"][i] = draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    elif kind == "field":
        entry = draw(st.sampled_from(data["delta"]))
        entry[draw(st.sampled_from(sorted(entry)))] = draw(_NOT_STR)
    else:  # a second transition for one state and symbol
        entry = dict(draw(st.sampled_from(data["delta"])))
        entry["to"] = draw(st.sampled_from(data["states"]))
        data["delta"].insert(draw(st.integers(0, len(data["delta"]))), entry)
    return data


@settings(max_examples=100, deadline=None)
@given(data=_malformed_automata(), command=st.sampled_from(["run", "commrank"]))
def test_malformed_automaton_json_exits_2_with_one_line(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "machine.json"
        path.write_text(json.dumps(data))
        argv = ["2dfa", command, "-a", str(path), *(["-w", "ab"] if command == "run" else [])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: cannot load automaton: ")
    assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()


def test_deeply_nested_automaton_json_exits_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "2dfa", "run", "-a", str(path), "-w", "a")
    assert code == 2 and out == ""
    assert err == "error: cannot load automaton: JSON nested too deeply\n"


# only --seed, asym --digits (about 2 s of work) and rank --primes (its loop
# stops once every class is proved, at most 2 primes for the degrees here)
# take 100000; every other flag, and every degree, must refuse it before any work
_NUMBERS = ["-1", "0", "1", "2", "5", "100000", "x", ""]
_PARTITIONS = ["1", "3", "2,1", "4,2", "6", "0", "2,3", "a"]
_AUTOMATA = [str(DATA / "last_a.json"), str(DATA / "always_accept.json"), str(DATA / "missing.json")]
_COMMANDS = {  # flags and their values; the first ones listed are the required ones
    ("rank",): {"--k": [*_NUMBERS, "6"], "--method": ["auto", "exact", "modp", "fast"],
                "--primes": _NUMBERS, "--seed": _NUMBERS, "--dump-pbm": ["PBM", "no/such/dir/x.pbm"],
                "--json": None},
    ("verify",): {"--suite": [*verify.SUITES, "all", "nope"], "--n": _NUMBERS,
                  "--seed": _NUMBERS, "--json": None},
    ("bound",): {"--max": _NUMBERS, "--format": ["plain", "csv", "json", "markdown", "xml"]},
    ("char",): {"--lambda": _PARTITIONS, "--alpha": _PARTITIONS},
    ("chartable",): {"": _NUMBERS, "--format": ["plain", "csv", "tsv"]},
    ("asym",): {"--n": _NUMBERS, "--digits": _NUMBERS},
    ("2dfa", "run"): {"-a": _AUTOMATA, "-w": ["", "ab", "ba", "zz"], "--trace": None},
    ("2dfa", "commrank"): {"-a": _AUTOMATA, "--prefix-len": _NUMBERS, "--suffix-len": _NUMBERS,
                           "--json": None},
}
_REQUIRED = {("rank",): 1, ("verify",): 1, ("char",): 2, ("chartable",): 1, ("asym",): 1,
             ("2dfa", "run"): 2, ("2dfa", "commrank"): 1}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([*_COMMANDS, ("2dfa",), ("frobnicate",), ()]))
    flags = _COMMANDS.get(command, {})
    names = list(flags)
    argv = list(command)
    # the required flags most of the time, then any flags, numbers and junk
    drawn = names[:_REQUIRED.get(command, 0)] if draw(st.integers(0, 4)) else []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["flag", "flag", "number", "junk"]))
        if kind == "flag" and names:
            drawn.append(draw(st.sampled_from(names)))
        else:
            drawn.append(draw(st.sampled_from(_NUMBERS)) if kind == "number"
                         else draw(st.text(alphabet="-ak9,/x", max_size=5)))
    for token in drawn:
        if token not in flags:
            argv.append(token)
            continue
        if token:
            argv.append(token)
        if flags[token] is not None and draw(st.integers(0, 9)):  # now and then no value
            argv.append(draw(st.sampled_from(flags[token])))
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_argv())
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [str(Path(tmp) / "x.pbm") if token == "PBM" else token for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
