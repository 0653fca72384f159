"""End-to-end CLI runs through cli.main, including every exit code."""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import cartan
from cartan import cli
from cartan.cochains import Cochain, cup
from cartan.verify import VerifyReport


@pytest.fixture
def cochain_file(tmp_path):
    def write(name, ambient, dim, support):
        path = tmp_path / name
        path.write_text(json.dumps(Cochain(ambient, dim, support).to_dict()))
        return str(path)

    return write


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def test_cup_golden(capsys, cochain_file):
    alpha = cochain_file("a.json", 2, 1, [(0, 1)])
    beta = cochain_file("b.json", 2, 1, [(1, 2)])
    rc, out = run(capsys, "cup", "--i", "0", alpha, beta)
    assert rc == 0
    assert json.loads(out) == {"ambient": 2, "dim": 2, "support": [[0, 1, 2]]}


def test_output_is_byte_stable(capsys, cochain_file):
    alpha = cochain_file("a.json", 3, 1, [(0, 1), (1, 3), (0, 2)])
    first = run(capsys, "cup", "--i", "1", alpha, alpha)
    second = run(capsys, "cup", "--i", "1", alpha, alpha)
    assert first == second


def test_sq_matches_the_library(capsys, cochain_file):
    a = Cochain(2, 1, [(0, 1), (0, 2)])
    alpha = cochain_file("a.json", 2, 1, [(0, 1), (0, 2)])
    rc, out = run(capsys, "sq", "--k", "1", alpha)
    assert rc == 0
    assert json.loads(out) == cup(0, a, a).to_dict()


def test_sq_rejects_non_cocycles(capsys, cochain_file):
    alpha = cochain_file("a.json", 2, 1, [(0, 1)])
    rc, _ = run(capsys, "sq", "--k", "0", alpha)
    assert rc == 4


def test_zeta_rejects_non_cocycles(capsys, cochain_file):
    alpha = cochain_file("a.json", 2, 1, [(0, 1)])
    beta = cochain_file("b.json", 2, 1, [(0, 1), (0, 2)])
    rc, _ = run(capsys, "zeta", "--i", "0", alpha, beta)
    assert rc == 4


def test_ambient_flag_mismatch(capsys, cochain_file):
    alpha = cochain_file("a.json", 2, 1, [(0, 1)])
    rc, _ = run(capsys, "cup", "--i", "0", "--n", "3", alpha, alpha)
    assert rc == 3


def test_mismatched_operands(capsys, cochain_file):
    alpha = cochain_file("a.json", 2, 1, [(0, 1)])
    beta = cochain_file("b.json", 3, 1, [(0, 1)])
    rc, _ = run(capsys, "cup", "--i", "0", alpha, beta)
    assert rc == 3


def test_bad_json_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json")
    rc, _ = run(capsys, "cup", "--i", "0", str(path), str(path))
    assert rc == 2


def test_boolean_and_negative_fields_exit_two(capsys, tmp_path):
    for i, doc in enumerate(({"ambient": True, "dim": 0, "support": [[0]]},
                             {"ambient": 1, "dim": True, "support": [[0, 1]]},
                             {"ambient": 1, "dim": 0, "support": [[True]]},
                             {"ambient": 1, "dim": -1, "support": []})):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(doc))
        rc, out = run(capsys, "cup", "--i", "0", str(path), str(path))
        assert rc == 2 and out == ""


def test_zeta_out_of_range_is_fast_and_empty(capsys, cochain_file):
    # the witness has dimension 2 + 2 - 12 - 1 < 0, so no witness surjection is built
    alpha = cochain_file("a.json", 2, 1, [(0, 1), (0, 2)])
    t0 = time.perf_counter()
    rc, out = run(capsys, "zeta", "--i", "12", alpha, alpha)
    assert time.perf_counter() - t0 < 2
    assert rc == 0
    assert out == '{"ambient": 2, "dim": -9, "support": []}\n'


def test_witness_index_and_trials_caps(capsys, cochain_file):
    # at the caps, every witness here has a dimension outside [0, n], so nothing is built
    alpha = cochain_file("a.json", 2, 1, [(0, 1), (0, 2)])
    top, over = cli.MAX_WITNESS_INDEX, cli.MAX_WITNESS_INDEX + 1
    refused = [(["zeta", "--i", str(over), alpha, alpha], f"zeta caps --i at {top}"),
               (["defect", "--i", str(over), alpha, alpha], f"defect caps --i at {top}"),
               (["verify", "--i", str(over), "--n", "2"], f"verify cartan caps --i at {top}"),
               (["verify", "--i", "0", "--n", "2", "--trials", str(cli.MAX_TRIALS + 1)],
                f"verify cartan caps --trials at {cli.MAX_TRIALS}")]
    for argv, message in refused:
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    rc, out = run(capsys, "defect", "--i", str(top), alpha, alpha)
    assert rc == 0 and json.loads(out) == {"ambient": 2, "dim": 4 - top, "support": []}
    rc, out = run(capsys, "verify", "--i", str(top), "--n", "2", "--trials", "3")
    assert rc == 0 and json.loads(out)["trials"] == 3
    rc, out = run(capsys, "verify", "--i", "0", "--n", "0", "--trials", str(cli.MAX_TRIALS))
    assert rc == 0 and json.loads(out)["trials"] == cli.MAX_TRIALS


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["surj-compose", "[1,2,1]", "1", "[1,2]"]
    rc = cli.main(argv)
    out = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(cartan.__file__).resolve().parent.parent))
    for module in ("cartan", "cartan.cli"):
        proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, "")


def test_argparse_errors_exit_two(capsys, cochain_file):
    alpha = cochain_file("a.json", 2, 1, [(0, 1)])
    assert cli.main(["cup", alpha, alpha]) == 2        # missing --i
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["verify", "no-such-suite"]) == 2


def test_ambient_cap(capsys, cochain_file, monkeypatch):
    alpha = cochain_file("a.json", 8, 0, [(0,)])
    rc, _ = run(capsys, "cup", "--i", "0", alpha, alpha)
    assert rc == 3
    monkeypatch.setenv("CARTAN_MAX_N", "10")
    rc, _ = run(capsys, "cup", "--i", "0", alpha, alpha)
    assert rc == 0
    monkeypatch.setenv("CARTAN_MAX_N", "x")
    rc, _ = run(capsys, "cup", "--i", "0", alpha, alpha)
    assert rc == 2


def test_tr_golden(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text("[[1,3,2,4],[1,2,3,4],[2,1,4,3]]")
    rc, out = run(capsys, "tr", str(path))
    assert rc == 0 and out.strip() == "(1,3,2,3,4,3)"
    rc, out = run(capsys, "tr", str(path), "--json")
    assert rc == 0 and json.loads(out) == [[1, 3, 2, 3, 4, 3]]


def test_tr_degenerate_input_is_zero(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text("[[1,2],[1,2]]")
    rc, out = run(capsys, "tr", str(path))
    assert rc == 0 and out.strip() == "0"


def test_surj_compose_golden(capsys):
    rc, out = run(capsys, "surj-compose", "[1,2,3,2,1]", "2", "[1,2,1]")
    assert rc == 0
    assert out.strip() == "(1,2,3,2,4,2,1) + (1,2,3,4,3,2,1) + (1,2,4,2,3,2,1)"


def test_surj_compose_errors(capsys):
    rc, _ = run(capsys, "surj-compose", "[1,2,3,2,1]", "4", "[1,2,1]")
    assert rc == 3
    rc, _ = run(capsys, "surj-compose", "[1,1]", "1", "[1,2]")
    assert rc == 2


def test_tr_and_surj_compose_cap_the_values_they_read(capsys, tmp_path, monkeypatch):
    path = tmp_path / "e.json"
    path.write_text("[[1,3,2,4],[1,2,3,4],[2,1,4,3]]")
    cases = [
        # degree 2, arity 4: one row of 6 values per composition of 6 into 3 parts
        (["tr", str(path)], comb(5, 2) * 6, "(1,3,2,3,4,3)"),
        # slot 2 occurs twice: one word of 5 + 3 - 1 values per index tuple 1 <= j <= 3
        (["surj-compose", "[1,2,3,2,1]", "2", "[1,2,1]"], comb(3, 1) * 7,
         "(1,2,3,2,4,2,1) + (1,2,3,4,3,2,1) + (1,2,4,2,3,2,1)"),
    ]
    for argv, values, want in cases:
        monkeypatch.setattr(cli, "MAX_VALUES_READ", values)
        rc, out = run(capsys, *argv)
        assert rc == 0 and out.strip() == want
        monkeypatch.setattr(cli, "MAX_VALUES_READ", values - 1)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[0]} caps values read at {values - 1}\n"


def test_tr_and_surj_compose_refuse_before_the_work(capsys, tmp_path):
    # 27 rows of 12 permutations, and two 21-value words: far above the cap,
    # and refused before any table row or index tuple is read
    a = list(range(1, 13))
    path = tmp_path / "e.json"
    path.write_text(json.dumps([a if j % 2 == 0 else a[::-1] for j in range(27)]))
    word = json.dumps([1 + j % 2 for j in range(21)])
    for argv in (["tr", str(path)], ["surj-compose", word, "1", word]):
        t0 = time.perf_counter()
        assert cli.main(argv) == 3
        assert time.perf_counter() - t0 < 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[0]} caps values read at {cli.MAX_VALUES_READ}\n"


def test_verify_cartan_needs_indices(capsys):
    assert cli.main(["verify"]) == 2


def test_verify_cartan_vacuous(capsys):
    rc, out = run(capsys, "verify", "--i", "1", "--n", "0", "--trials", "3")
    assert rc == 0
    assert json.loads(out)["failures"] == []


def test_verify_respects_the_cap(capsys, monkeypatch):
    assert cli.main(["verify", "--i", "0", "--n", "7", "--trials", "1"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("CARTAN_MAX_N", "7")
    rc, out = run(capsys, "verify", "--i", "0", "--n", "7", "--trials", "2")
    assert rc == 0
    assert json.loads(out)["trials"] == 2


def test_verify_lemma_suite(capsys):
    rc, out = run(capsys, "verify", "boundary-h1", "--max-degree", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["suite"] == "boundary-h1" and doc["failures"] == []
    assert doc["trials"] == 4 and doc["params"] == {"max_degree": 1}


def test_verify_refuses_degrees_above_the_suite_cap(capsys):
    for suite, cap in (("boundary-h2", 12), ("aw-ez-identity", 8), ("tr-chain-map", 4)):
        assert cli.main(["verify", suite, "--max-degree", str(cap + 1)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"--max-degree at {cap}" in err
    rc, out = run(capsys, "verify", "shih-homotopy", "--max-degree", "4")
    assert rc == 0 and json.loads(out)["trials"] == 447


def test_verify_refuses_flags_a_suite_does_not_use(capsys):
    cases = [(["verify", suite, *flags], flags[0])
             for suite in ("boundary-h1", "tr-chain-map")
             for flags in (["--i", "1"], ["--n", "2"], ["--trials", "4"], ["--seed", "3"],
                           ["--dim", "0", "1"])]
    cases.append((["verify", "--i", "0", "--n", "2", "--max-degree", "3"], "--max-degree"))
    for argv, flag in cases:
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and flag in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.LEMMA_SUITES, "boundary-h1",
        lambda **kw: VerifyReport("boundary-h1", [{"bad": 1}], 0.0))
    rc, out = run(capsys, "verify", "boundary-h1")
    assert rc == 1
    assert json.loads(out)["failures"] == [{"bad": 1}]
