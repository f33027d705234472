import json
from pathlib import Path

import pytest

from permrank import cli, permmatrix

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    assert payload["primes"] == []
    assert isinstance(payload["elapsed_ms"], int)


def test_rank_modp_seeded_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "rank", "--k", "3", "--method", "modp", "--seed", "42", "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "rank", "--k", "3", "--method", "modp", "--seed", "42", "--json")
    assert code == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["rank"] == 6 and len(p1["primes"]) == 3
    assert p1["primes"] == p2["primes"]


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


def test_rank_heavy_degree_is_refused(capsys):
    code, _, err = run_cli(capsys, "rank", "--k", "8")
    assert code == 2
    assert "allow_heavy" in err


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


def test_verify_quick_automata(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "automata", "--quick")
    assert code == 0
    assert "75 cases" in out  # 25 machines x 3 checks


def test_bound_markdown(capsys):
    code, out, _ = run_cli(capsys, "bound", "--max", "10", "--format", "markdown")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| n |")
    assert "| 10 | 5188590 | 65672850 | 589410910 |" in lines


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
    assert blocks == {"cycle_type": [4], "subgroup_order": 4, "count": 4, "order": 6}
    code, out, _ = run_cli(capsys, "rank", "--k", "4", "--json")
    assert json.loads(out)["blocks"] is None


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
    code, out, _ = run_cli(capsys, *argv, "--dedup", "--json")
    payload = json.loads(out)
    assert (payload["rows"], payload["cols"]) == (payload["dedup_rows"], payload["dedup_cols"]) == (2, 3)


def test_2dfa_commrank_over_the_cap_exits_2_with_one_line(capsys):
    # the tenth symbol from the end: 1024 distinct rows at prefix length 10
    code, out, err = run_cli(
        capsys, "2dfa", "commrank", "-a", str(DATA / "tenth_from_end.json"),
        "--prefix-len", "10", "--suffix-len", "9",
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "exact-elimination cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--prefix-len", "20"), "--prefix-len 20 samples 2097151 strings over 2 symbols"),
        (("--suffix-len", "20"), "--suffix-len 20 samples 2097151 strings over 2 symbols"),
        (("--prefix-len", "65"), "--prefix-len 65 is above the limit of 64"),
        (("--suffix-len", "1000000000"), "--suffix-len 1000000000 is above the limit of 64"),
        (("--prefix-len", "14", "--suffix-len", "14"), "32767x32767 (1073676289 entries)"),
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
    assert "orders 20, 20, 40, 40" in note
    assert note.count(f"kernel check mod {permmatrix._CHECK_PRIME}") == 4
    code, out, _ = run_cli(capsys, "rank", "--k", "5")
    assert code == 0
    assert f"note: {note}" in out.splitlines()
