"""End-to-end CLI runs through cli.main, including every exit code."""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cartan
from cartan import cli
from cartan.cochains import BRIEF, Cochain, cup, delta, ones
from cartan.f2 import F2Sum, singleton
from cartan.simplicial import faces_of_dim
from cartan.surjection import surj_compose, table_reduction
from cartan.verify import IDENTITIES


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


def decode_error(text: str) -> str:
    """The JSON decoder's own message for malformed text."""
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the text decodes")


def test_bad_json_file(capsys, tmp_path):
    # junk, nesting past the JSON decoder's recursion limit (in a file or in argv), bytes
    # that are not UTF-8, integers past Python's digit limit and a missing file are all
    # malformed input; where the decoder refuses an argument, its message is on the line
    junk = tmp_path / "junk.json"
    junk.write_text("not json")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    huge = "9" * 5000
    long_int = tmp_path / "long-int.json"
    long_int.write_text(f"[[{huge}]]")
    brackets = "[" * 20_000 + "]" * 20_000
    digit_limit = decode_error(f"[{huge}]")
    assert "digits" in digit_limit
    missing = tmp_path / "missing.json"
    for argv, message in (
            (("cup", "--i", "0", str(junk), str(junk)), None),
            (("tr", str(deep)), None), (("cup", "--i", "0", str(deep), str(deep)), None),
            (("tr", str(binary)), None), (("cup", "--i", "0", str(binary), str(binary)), None),
            (("surj-compose", brackets, "1", "[1,2]"), "nested too deep"),
            (("tr", str(long_int)), digit_limit),
            (("surj-compose", f"[{huge}]", "1", "[1,2]"), digit_limit),
            (("tr", str(missing)), f"cannot read {missing}")):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        case = (argv[0], argv[-1][-12:])
        assert rc == 2 and captured.out == "", case
        line, = captured.err.splitlines()
        assert line.startswith("error: "), case
        assert message is None or message in line, (case, line)
        if argv[1] == brackets:
            # the CI entry-point step holds this line to 100 bytes, newline included
            assert len(captured.err.encode()) <= 100, (case, line)


def test_error_lines_echo_a_bounded_prefix(capsys, tmp_path):
    # a deep or long input is malformed (exit 2), and its error line shows at most
    # the first BRIEF characters of it, however long the input
    docs = {"nested.json": "[" * 900 + "]" * 900,
            "long-perm.json": json.dumps([[1, 2], list(range(20_000, 0, -1))]),
            "long-face.json": json.dumps({"ambient": 3, "dim": 1,
                                          "support": [list(range(50_000))]}),
            "unsorted-face.json": json.dumps({"ambient": 3, "dim": 19_999,
                                              "support": [list(range(20_000, 0, -1))]}),
            "fields.json": json.dumps({f"field{k}": k for k in range(20_000)})}
    path = {name: str(tmp_path / name) for name in docs}
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    for argv in (("surj-compose", "[" * 20_000 + "]" * 20_000, "1", "[1,2]"),
                 ("surj-compose", "[" + "1," * 20_000 + "true]", "1", "[1,2]"),
                 ("surj-compose", "[" + ",".join(["1"] * 20_000) + "]", "1", "[1,2]"),
                 ("tr", path["nested.json"]), ("tr", path["long-perm.json"]),
                 ("sq", "--k", "0", path["long-face.json"]),
                 ("sq", "--k", "0", path["unsorted-face.json"]),
                 ("sq", "--k", "0", path["fields.json"])):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        case = (argv[0], argv[-1][-16:])
        assert rc == 2 and captured.out == "", case
        line, = captured.err.splitlines()
        assert line.startswith("error: ") and "..." in line, case
        assert len(line) <= len(str(tmp_path)) + 100 + BRIEF, (case, len(line))


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


def test_defect_at_the_index_cap_on_the_default_ambient(capsys, cochain_file):
    # every shape whose defect has a face on the 6-simplex, on dense coboundary operands
    top, n = cli.MAX_WITNESS_INDEX, cli.DEFAULT_MAX_N
    rng = random.Random(4)

    def operand(dim):
        if dim == 0:
            return ones(n)
        while True:
            c = delta(Cochain(n, dim - 1, [f for f in faces_of_dim(n, dim - 1)
                                           if rng.getrandbits(1)]))
            if c.support:
                return c

    shapes = [(da, db) for da in range(n + 1) for db in range(n + 1)
              if 0 <= 2 * da + 2 * db - top <= n]
    assert len(shapes) == 22
    t0 = time.perf_counter()
    for da, db in shapes:
        a, b = operand(da), operand(db)
        alpha = cochain_file("a.json", n, da, a.support)
        beta = cochain_file("b.json", n, db, b.support)
        rc, out = run(capsys, "defect", "--i", str(top), alpha, beta)
        assert rc == 0
        assert json.loads(out) == {"ambient": n, "dim": 2 * da + 2 * db - top, "support": []}
    assert time.perf_counter() - t0 < 10


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["surj-compose", "[1,2,1]", "1", "[1,2]"]
    rc = cli.main(argv)
    out = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(cartan.__file__).resolve().parent.parent))
    for module in ("cartan", "cartan.cli"):
        proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, "")


def test_unhashable_vertices_exit_two(capsys, tmp_path):
    for name, face, shown in (("list.json", [[0], 1], "([0], 1)"),
                              ("dict.json", [{"v": 0}, 1], "({'v': 0}, 1)")):
        path = tmp_path / name
        path.write_text(json.dumps({"ambient": 3, "dim": 1, "support": [face]}))
        rc = cli.main(["sq", "--k", "0", str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), name
        assert captured.err == f"error: {path}: face {shown} has non-integer vertices\n", name


def test_error_lines_do_not_depend_on_the_hash_seed(tmp_path):
    # with several bad faces, the first in input order is named, not the first in set order
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ambient": 3, "dim": 1,
                                "support": [[0, "x"], [1, "y"], [2, "z"], [0, "w"]]}))
    errors = set()
    for seed in ("1", "4"):
        env = dict(os.environ, PYTHONPATH=str(Path(cartan.__file__).resolve().parent.parent),
                   PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "cartan", "sq", "--k", "0", str(path)],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout) == (2, ""), seed
        errors.add(proc.stderr)
    assert errors == {f"error: {path}: face (0, 'x') has non-integer vertices\n"}


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses pulls in inspect, which every cartan call would pay for in memory and start-up
    env = dict(os.environ, PYTHONPATH=str(Path(cartan.__file__).resolve().parent.parent))
    code = "import sys, cartan.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


def test_argparse_errors_exit_two(capsys, cochain_file):
    alpha = cochain_file("a.json", 2, 1, [(0, 1)])
    for argv, error in ((["cup", alpha, alpha], "the following arguments are required: --i"),
                        (["no-such-command"], "argument command: invalid choice"),
                        (["verify", "no-such-suite"], "argument suite: invalid choice"),
                        (["cup", "--i", "-1", alpha, alpha], "argument --i: must be nonnegative"),
                        (["sq", "--k", "x", alpha], "argument --k: 'x' is not an integer"),
                        (["verify", "--i", "0", "--n", "2", "--trials", "-5"],
                         "argument --trials: must be nonnegative")):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert captured.out == "" and len(errors) == 1 and f"error: {error}" in errors[0]


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
    # a negative cap is a malformed setting, not a shape every cochain fails
    monkeypatch.setenv("CARTAN_MAX_N", "-1")
    for argv in (("cup", "--i", "0", alpha, alpha), ("verify", "--i", "0", "--n", "0")):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nonnegative" in captured.err


def test_ambient_cap_has_an_upper_bound(capsys, cochain_file, monkeypatch):
    # CARTAN_MAX_N itself is capped: the cocycle check's coface masks grow as C(n+1, d+2)
    alpha = cochain_file("a.json", 8, 0, [(0,)])
    monkeypatch.setenv("CARTAN_MAX_N", str(cli.MAX_AMBIENT_CAP))
    rc, _ = run(capsys, "cup", "--i", "0", alpha, alpha)
    assert rc == 0
    monkeypatch.setenv("CARTAN_MAX_N", str(cli.MAX_AMBIENT_CAP + 1))
    for argv in (("cup", "--i", "0", alpha, alpha), ("verify", "--i", "0", "--n", "1")):
        assert cli.main(list(argv)) == 2
        assert f"at most {cli.MAX_AMBIENT_CAP}" in capsys.readouterr().err


def test_tr_golden(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text("[[1,3,2,4],[1,2,3,4],[2,1,4,3]]")
    rc, out = run(capsys, "tr", str(path))
    assert rc == 0 and out.strip() == "(1,3,2,3,4,3)"
    rc, out = run(capsys, "tr", str(path), "--json")
    assert rc == 0 and json.loads(out) == [[1, 3, 2, 3, 4, 3]]


def test_tr_reads_a_table_of_many_rows(capsys, tmp_path):
    # the arity-2 element of degree 1400, 1,964,202 values at the cap: its one reading
    # with no equal neighbours is the word 1 2 1 2 ... of 1402 letters
    path = tmp_path / "e.json"
    path.write_text(json.dumps([[1, 2] if k % 2 == 0 else [2, 1] for k in range(1401)]))
    assert comb(1401, 1400) * 1402 <= cli.MAX_VALUES_READ
    rc, out = run(capsys, "tr", str(path))
    assert rc == 0 and out == "(" + ",".join(["1,2"] * 701) + ")\n"


def test_tr_degenerate_input_is_zero(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text("[[1,2],[1,2]]")
    rc, out = run(capsys, "tr", str(path))
    assert rc == 0 and out.strip() == "0"


def test_tr_refuses_empty_permutations(capsys, tmp_path):
    path = tmp_path / "e.json"
    for doc, message in (("[[]]", "a permutation needs at least one value"),
                         ("[[],[],[]]", "a permutation needs at least one value"),
                         ("[]", "expected a nonempty list of permutations"),
                         ("{}", "expected a nonempty list of permutations")):
        path.write_text(doc)
        rc = cli.main(["tr", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", doc
        assert captured.err == f"error: {message}\n", doc


def test_surj_compose_golden(capsys):
    rc, out = run(capsys, "surj-compose", "[1,2,3,2,1]", "2", "[1,2,1]")
    assert rc == 0
    assert out.strip() == "(1,2,3,2,4,2,1) + (1,2,3,4,3,2,1) + (1,2,4,2,3,2,1)"


def test_surj_compose_errors(capsys):
    rc, _ = run(capsys, "surj-compose", "[1,2,3,2,1]", "4", "[1,2,1]")
    assert rc == 3
    rc, _ = run(capsys, "surj-compose", "[1,1]", "1", "[1,2]")
    assert rc == 2


def test_tr_and_surj_compose_refuse_booleans(capsys, tmp_path):
    # JSON true is not the integer 1
    path = tmp_path / "e.json"
    path.write_text("[[true,2],[2,1]]")
    for argv in (("tr", str(path)), ("tr", str(path), "--json"),
                 ("surj-compose", "[true,2,1]", "1", "[1,2]"),
                 ("surj-compose", "[1,2,1]", "1", "[true,2]")):
        rc, out = run(capsys, *argv)
        assert rc == 2 and out == ""


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


def test_verify_cartan_refuses_dims_the_sweep_never_samples(capsys):
    # the sweep's cochains have dimension below max(n, 1), so --dim 9 9 at n = 3 tests nothing
    for n, dims in ((3, ("9", "9")), (3, ("0", "3")), (0, ("1", "0"))):
        assert cli.main(["verify", "--i", "0", "--n", str(n), "--dim", *dims, "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify cartan caps --dim at {max(n, 1) - 1}\n"
    for n, dims in ((3, ("2", "2")), (0, ("0", "0"))):
        rc, out = run(capsys, "verify", "--i", "0", "--n", str(n), "--dim", *dims, "--trials", "5")
        assert rc == 0 and json.loads(out)["params"] == {"dims": [int(d) for d in dims]}


def test_verify_cartan_caps_trials_times_faces(capsys, monkeypatch):
    message = "error: verify cartan caps --trials x C(n+1, (n+1)//2) at {}\n"
    # the default 100 trials run at the default ambient cap
    rc, out = run(capsys, "verify", "--i", "0", "--n", str(cli.DEFAULT_MAX_N))
    assert rc == 0 and json.loads(out)["trials"] == 100
    # one trial past the cap at the largest ambient is refused before any work
    monkeypatch.setenv("CARTAN_MAX_N", str(cli.MAX_AMBIENT_CAP))
    n = cli.MAX_AMBIENT_CAP
    over = cli.MAX_SWEEP_COST // comb(n + 1, (n + 1) // 2) + 1
    assert cli.main(["verify", "--i", "0", "--n", str(n), "--trials", str(over)]) == 3
    assert capsys.readouterr().err == message.format(cli.MAX_SWEEP_COST)
    # at the budget and one past it, on a budget small enough to run
    monkeypatch.setattr(cli, "MAX_SWEEP_COST", 4 * comb(7, 3))
    rc, out = run(capsys, "verify", "--i", "0", "--n", "6", "--trials", "4")
    assert rc == 0 and json.loads(out)["trials"] == 4
    assert cli.main(["verify", "--i", "0", "--n", "6", "--trials", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message.format(4 * comb(7, 3))


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
    default, cap, basis, identities = IDENTITIES["boundary-h1"]
    wrong = ("identity-is-zero", lambda c: c, lambda c: F2Sum())
    monkeypatch.setitem(IDENTITIES, "boundary-h1", (default, cap, basis, identities + (wrong,)))
    rc, out = run(capsys, "verify", "boundary-h1", "--max-degree", "0")
    assert rc == 1
    assert json.loads(out)["failures"] == [{"identity": "identity-is-zero", "element": [[1, 2]]},
                                           {"identity": "identity-is-zero", "element": [[2, 1]]}]


def run_quietly(argv) -> tuple[int, str, str]:
    """cli.main(argv) with its stdout and stderr captured, for use inside @given."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_values_cap(argv, values: int, slack: int, want) -> None:
    """Run argv with MAX_VALUES_READ = values + slack: refused exactly when over the cap."""
    cap = max(0, values + slack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MAX_VALUES_READ", cap)
        rc, out, err = run_quietly(argv)
    if values > cap:
        assert (rc, out, err) == (3, "", f"error: {argv[0]} caps values read at {cap}\n")
    else:
        assert (rc, err) == (0, "")
        assert json.loads(out) == sorted(list(s) for s in want)


@st.composite
def basis_surjections(draw):
    """A word over 1..r using every value, with no two equal neighbours (r <= 3, length <= 7)."""
    r = draw(st.integers(1, 3))
    word = [draw(st.integers(1, r))]
    for _ in range(draw(st.integers(0, 6 if r > 1 else 0))):
        word.append(draw(st.sampled_from([v for v in range(1, r + 1) if v != word[-1]])))
    assume(set(word) == set(range(1, r + 1)))
    return tuple(word)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 4), st.integers(0, 3), st.data(), st.integers(-2, 2))
def test_tr_values_cap_boundary(tmp_path_factory, r, n, data, slack):
    # one row of n + r values per composition of n + r into n + 1 parts; a degenerate
    # element reads no table, so no cap applies to it
    e = tuple(tuple(data.draw(st.permutations(range(1, r + 1)))) for _ in range(n + 1))
    path = tmp_path_factory.mktemp("tr") / "e.json"
    path.write_text(json.dumps([list(p) for p in e]))
    degenerate = any(x == y for x, y in zip(e, e[1:]))
    values = 0 if degenerate else comb(n + r - 1, n) * (n + r)
    check_values_cap(["tr", str(path), "--json"], values, slack,
                     table_reduction(singleton(e)))


@settings(deadline=None, max_examples=80)
@given(basis_surjections(), basis_surjections(), st.data(), st.integers(-2, 2))
def test_surj_compose_values_cap_boundary(outer, inner, data, slack):
    # one word of len(outer) + len(inner) - 1 values per nondecreasing (k-1)-tuple
    # over 1..len(inner), where slot p occurs k times in the outer word
    p = data.draw(st.integers(1, max(outer)))
    k = outer.count(p)
    values = comb(len(inner) + k - 2, k - 1) * (len(outer) + len(inner) - 1)
    check_values_cap(["surj-compose", json.dumps(list(outer)), str(p),
                      json.dumps(list(inner)), "--json"], values, slack,
                     surj_compose(outer, p, inner))
