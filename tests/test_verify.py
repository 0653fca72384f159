"""The verification harness itself: small smoke runs plus its helpers."""

import json
from itertools import permutations
from math import factorial

import cartan.verify
from cartan import barratt_eccles, cli, surjection
from cartan.barratt_eccles import SWAP2, compose_perm, cup_generator
from cartan.cochains import Cochain, delta
from cartan.f2 import F2Sum
from cartan.verify import (IDENTITIES, VerifyReport, arity_basis, cocycle_dim_pool,
                           run_cartan, run_identities)

# basis elements each identity suite checks through degree 2: a homotopy lemma suite checks
# both arity-2 elements of each degree
LEMMA_TRIALS = dict.fromkeys(("boundary-h1", "boundary-h2", "equiv-h1", "equiv-h2"), 6)
STRUCTURAL_TRIALS = {"aw-ez-identity": 1675, "shih-homotopy": 355, "tr-chain-map": 192}


def test_swap_classes_cover_arity_two():
    # the arity-2 basis is the cup generator and its swap in every degree
    for degree in range(6):
        base = cup_generator(degree)
        swapped = tuple(compose_perm(SWAP2, s) for s in base)
        assert sorted(arity_basis(2, degree)) == sorted([base, swapped])


def test_arity_basis_counts():
    assert len(arity_basis(3, 0)) == 6
    assert len(arity_basis(3, 2)) == 6 * 5 * 5


def test_lemma_suites_small():
    for name, trials in LEMMA_TRIALS.items():
        report = run_identities(name, max_degree=2)
        assert report.ok, report.failures
        assert report.suite == name
        assert report.trials == trials
        assert report.params == {"max_degree": 2}
        assert report.to_dict()["failures"] == []


def test_identity_failures_name_the_identity_and_the_element(monkeypatch):
    default, cap, basis, identities = IDENTITIES["equiv-h1"]
    wrong = ("identity-is-zero", lambda c: c, lambda c: F2Sum())
    monkeypatch.setitem(IDENTITIES, "equiv-h1", (default, cap, basis, identities + (wrong,)))
    report = run_identities("equiv-h1", max_degree=1)
    assert report.trials == 4
    assert report.failures == [
        {"identity": "identity-is-zero", "element": [[1, 2]]},
        {"identity": "identity-is-zero", "element": [[2, 1]]},
        {"identity": "identity-is-zero", "element": [[1, 2], [2, 1]]},
        {"identity": "identity-is-zero", "element": [[2, 1], [1, 2]]},
    ]


def test_structural_suites_small():
    # every IDENTITIES row but the lemmas, so a row added to the table alone is smoke-tested
    # too, with its count pinned once it is in STRUCTURAL_TRIALS; every pin must name a row
    assert STRUCTURAL_TRIALS.keys() <= IDENTITIES.keys()
    for name in sorted(IDENTITIES.keys() - LEMMA_TRIALS.keys()):
        report = run_identities(name, 2)
        assert report.ok, report.failures
        assert report.suite == name
        assert report.trials == STRUCTURAL_TRIALS.get(name, report.trials) > 0


def test_run_cartan_is_reproducible():
    def snap(report):
        doc = report.to_dict()
        doc.pop("elapsed")
        return doc

    one = run_cartan(1, 3, trials=20, seed=5)
    two = run_cartan(1, 3, trials=20, seed=5)
    assert one.ok
    assert snap(one) == snap(two)
    assert one.i == 1 and one.n == 3 and one.seed == 5


def test_run_cartan_vacuous_ambient():
    report = run_cartan(1, 0, trials=5, seed=0)
    assert report.ok and report.trials == 5


def test_run_cartan_pinned_dims():
    report = run_cartan(0, 4, trials=10, seed=2, dims=(0, 0))
    assert report.ok
    assert report.params == {"dims": [0, 0]}


def test_failing_cartan_sweep_records_every_trial(capsys, monkeypatch):
    # a defect that is never zero: the constant cocycles and every seeded trial fail,
    # and each trial's record holds the inputs that reproduce it
    monkeypatch.setattr(cartan.verify, "cartan_defect",
                        lambda i, a, b: Cochain(a.ambient, 0, [(0,)]))
    report = run_cartan(0, 3, trials=2)
    assert not report.ok
    constant, *trials = report.failures
    assert constant == {"trial": "constant", "defect": {"ambient": 3, "dim": 0, "support": [[0]]}}
    assert [f["trial"] for f in trials] == [0, 1]
    for failure in trials:
        assert set(failure) == {"trial", "gamma1", "gamma2", "alpha", "beta", "defect"}
        g1, g2 = (Cochain.from_dict(failure[k]) for k in ("gamma1", "gamma2"))
        assert failure["alpha"] == delta(g1).to_dict()
        assert failure["beta"] == delta(g2).to_dict()
    assert cli.main(["verify", "--i", "0", "--n", "3", "--trials", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report.failures


def test_cocycle_dim_pool():
    assert cocycle_dim_pool(6, 0) == [(0, 0), (0, 1), (1, 0)]
    # nothing fits in a tiny ambient, so every pairing stays eligible
    assert cocycle_dim_pool(1, 0) == [(0, 0)]


def test_report_round_trip_fields():
    report = VerifyReport("demo", [], 0.1234, i=2, n=3, trials=7, seed=9)
    assert report.ok is True
    doc = report.to_dict()
    assert doc["suite"] == "demo"
    assert doc["elapsed"] == 0.123
    assert doc["i"] == 2 and doc["n"] == 3 and doc["trials"] == 7 and doc["seed"] == 9
    assert doc["params"] is None and doc["failures"] is report.failures
    assert set(doc) == set(VerifyReport._fields)


def test_a_sweep_keeps_the_operad_tables_within_their_bounds():
    # both tables are filled whole by their first use; a sweep at degree 2 adds no entry
    for name in IDENTITIES:
        assert run_identities(name, max_degree=2).ok, name
    # row steps: a row and the row below, permutations of one arity r <= TR_MEMO_ARITY, at
    # most r - 1 values in use, and a flag; 2 (r!)^2 (2^r - 1) keys of each arity
    steps = surjection._ROW_STEPS
    for row, below, used, final in steps:
        r = len(row)
        assert r <= surjection.TR_MEMO_ARITY
        assert sorted(row) == sorted(below) == list(range(1, r + 1))
        assert used >> (r + 1) == used & 1 == 0 and bin(used).count("1") <= r - 1
        assert final in (True, False)
    assert len(steps) == sum(2 * factorial(r) ** 2 * (2 ** r - 1)
                             for r in range(1, surjection.TR_MEMO_ARITY + 1)) == 530
    # the cap covers every arity the verify suites reduce
    assert max(cartan.verify.TR_ARITIES) <= surjection.TR_MEMO_ARITY
    # left-multiplication tables: one per permutation of arity <= SIGMA_MEMO_ARITY, one entry
    # per permutation label of that arity
    tables = barratt_eccles._LEFT_TABLES
    assert len(tables) == sum(factorial(r) for r in range(1, barratt_eccles.SIGMA_MEMO_ARITY + 1))
    for sigma, table in tables.items():
        r = len(sigma)
        assert sorted(sigma) == list(range(1, r + 1)) and table.sigma is sigma
        assert sorted(table) == sorted(permutations(range(1, r + 1)))
    assert sum(map(len, tables.values())) == 617
