"""Acceptance gate: one test per primary criterion, each timed against its budget.

Every check here is exact GF(2) arithmetic; the budgets only bound runtime.
"""

import random

from cartan.barratt_eccles import (cartan_homotopy, cup_generator,
                                   diagonal_homotopy, embedding_homotopy)
from cartan.cochains import Cochain, cartan_coboundary, cartan_defect, cup, delta
from cartan.f2 import F2Sum, singleton
from cartan.simplicial import faces_of_dim, is_degenerate
from cartan.surjection import surj_compose, table_reduction
from cartan.verify import (IDENTITIES, random_cochain, run_cartan, run_identities,
                           sweep_inputs)

from oracles import (all_faces, compositions, cup0_value, defect_reference, reduce_table,
                     value, zeta_monomials)

E4 = (1, 2, 3, 4)
P12 = (2, 1, 3, 4)
P23 = (1, 3, 2, 4)
P34 = (1, 2, 4, 3)
P24 = (2, 4, 1, 3)
P12_34 = (2, 1, 4, 3)

ZETA_0_ON_3 = frozenset({
    (((0, 1), (1, 2)), ((1, 2), (2, 3))),
})
ZETA_1_ON_4 = frozenset({
    (((0, 1), (1, 2)), ((1, 2, 4), (2, 3, 4))),
    (((0, 1, 2), (0, 2, 3)), ((2, 3), (3, 4))),
})
ZETA_2_ON_5 = frozenset({
    (((0, 1), (1, 2)), ((1, 2, 3, 4), (2, 3, 4, 5))),
    (((0, 1), (1, 2)), ((1, 2, 4, 5), (2, 3, 4, 5))),
    (((0, 1, 2), (0, 2, 3)), ((2, 3, 5), (3, 4, 5))),
    (((0, 1, 2, 3), (0, 1, 3, 4)), ((3, 4), (4, 5))),
    (((0, 1, 2, 3), (1, 2, 3, 4)), ((3, 4), (4, 5))),
})


def test_golden_witness_values(criterion):
    with criterion("golden witness values (i=0,1,2)", 1.0):
        x0, x1, x2 = (singleton(cup_generator(i)) for i in range(3))

        assert embedding_homotopy(x0) == singleton((P23, E4))
        assert diagonal_homotopy(x0) == F2Sum()
        assert table_reduction(cartan_homotopy(x0)) == singleton((1, 3, 2, 3, 4))

        assert embedding_homotopy(x1) == F2Sum([
            (P23, E4, P12_34), (P23, P24, P12_34)])
        assert diagonal_homotopy(x1) == singleton((E4, P34, P12_34))
        assert table_reduction(cartan_homotopy(x1)) == F2Sum([
            (1, 3, 2, 3, 4, 3), (1, 2, 4, 1, 4, 3)])

        assert embedding_homotopy(x2) == F2Sum([
            (P23, E4, P12_34, E4), (P23, P24, P12_34, E4), (P23, P24, P23, E4)])
        # one term of the diagonal homotopy repeats a label, so it is
        # degenerate and the normalized value keeps the other three
        dropped = (E4, E4, P12, E4)
        assert is_degenerate(dropped)
        assert diagonal_homotopy(x2) == F2Sum([
            (E4, P34, P12_34, P12), (E4, P34, E4, P12), (E4, P12_34, P12, E4)])
        assert table_reduction(cartan_homotopy(x2)) == F2Sum([
            (1, 3, 2, 3, 4, 3, 4), (1, 2, 4, 1, 4, 3, 4),
            (1, 2, 1, 3, 2, 3, 4), (1, 3, 2, 3, 2, 3, 4)])

        assert zeta_monomials(0, 3) == ZETA_0_ON_3
        assert zeta_monomials(1, 4) == ZETA_1_ON_4
        assert zeta_monomials(2, 5) == ZETA_2_ON_5


RAW_ROWS = {
    (1, 1, 4): (1, 1, 2, 1, 4, 3),
    (1, 2, 3): (1, 1, 2, 2, 4, 3),
    (1, 3, 2): (1, 1, 2, 3, 4, 3),
    (1, 4, 1): (1, 1, 2, 3, 4, 4),
    (2, 1, 3): (1, 3, 2, 2, 4, 3),
    (2, 2, 2): (1, 3, 2, 3, 4, 3),
    (2, 3, 1): (1, 3, 2, 3, 4, 4),
    (3, 1, 2): (1, 3, 2, 2, 2, 4),
    (3, 2, 1): (1, 3, 2, 2, 4, 4),
    (4, 1, 1): (1, 3, 2, 4, 4, 4),
}


def test_table_reduction_worked_example(criterion):
    with criterion("table reduction worked example", 1.0):
        e = (P23, E4, P12_34)
        parts = list(compositions(6, 3))
        assert len(parts) == 10
        assert sorted(parts) == sorted(RAW_ROWS)
        for a, want in RAW_ROWS.items():
            assert reduce_table(e, a) == want
        # every row but (2,2,2) repeats an adjacent value, so the sum
        # normalizes to a single term
        assert table_reduction(singleton(e)) == singleton((1, 3, 2, 3, 4, 3))


def test_surjection_composition_example(criterion):
    with criterion("surjection composition example", 1.0):
        got = surj_compose((1, 2, 3, 2, 1), 2, (1, 2, 1))
        assert got == F2Sum([(1, 2, 3, 2, 4, 2, 1),
                             (1, 2, 3, 4, 3, 2, 1),
                             (1, 2, 4, 2, 3, 2, 1)])


# basis elements each identity suite checks at its default degree bound: a homotopy lemma
# suite checks both arity-2 elements of every degree through 8
LEMMA_TRIALS = dict.fromkeys(("boundary-h1", "boundary-h2", "equiv-h1", "equiv-h2"), 18)


def test_homotopy_lemma_suites(criterion):
    with criterion("homotopy lemma suites", 120.0):
        for name, trials in LEMMA_TRIALS.items():
            report = run_identities(name)
            assert report.ok, (name, report.failures[:1])
            assert report.trials == trials
            assert report.params == {"max_degree": 8}


def test_cartan_identity_sweep(criterion):
    with criterion("cartan identity sweep", 600.0):
        for n in range(2, 7):
            for i in range(4):
                report = run_cartan(i, n, trials=100, seed=0)
                assert report.ok, (i, n, report.failures[:1])


def test_cartan_identity_sweep_past_the_goldens(criterion):
    # at n <= 6 the i=3 witness is never nonzero; here every (i, n) cell must meet one
    with criterion("cartan identity sweep at n = 7..9", 60.0):
        for n in range(7, 10):
            for i in range(4):
                report = run_cartan(i, n, trials=15, seed=0)
                assert report.ok, (i, n, report.failures[:1])
                nonzero = 0
                for g1, g2 in sweep_inputs(i, n, 15, 0):
                    a, b = delta(g1), delta(g2)
                    nonzero += not cartan_coboundary(i, a, b).is_zero
                    assert cartan_defect(i, a, b) == defect_reference(i, a, b), (i, n)
                assert nonzero, (i, n)


STRUCTURAL_TRIALS = {"shih-homotopy": 447, "aw-ez-identity": 2950, "tr-chain-map": 4696}


def test_structural_identities(criterion):
    # every IDENTITIES row but the lemmas, so a row added to the table alone is checked too,
    # with its count pinned once it is in STRUCTURAL_TRIALS; every pin must name a row
    assert STRUCTURAL_TRIALS.keys() <= IDENTITIES.keys()
    with criterion("structural identities", 120.0):
        for name in sorted(IDENTITIES.keys() - LEMMA_TRIALS.keys()):
            report = run_identities(name)
            assert report.ok, (name, report.failures[:1])
            assert report.trials == STRUCTURAL_TRIALS.get(name, report.trials) > 0


def test_cup_product_sanity(criterion):
    with criterion("cup-i sanity", 120.0):
        for n in range(5):
            faces = all_faces(n)
            for f in faces:
                a = Cochain(n, len(f) - 1, [f])
                for g in faces:
                    b = Cochain(n, len(g) - 1, [g])
                    got = cup(0, a, b)
                    for h in faces_of_dim(n, a.dim + b.dim):
                        assert value(got, h) == cup0_value(a, b, h)
        rng = random.Random(0)
        for n in range(2, 6):
            for i in range(4):
                for _ in range(8):
                    a = random_cochain(rng, n, rng.randrange(n))
                    b = random_cochain(rng, n, rng.randrange(n))
                    lhs = delta(cup(i, a, b))
                    rhs = cup(i, delta(a), b) + cup(i, a, delta(b))
                    if i > 0:
                        rhs = rhs + cup(i - 1, a, b) + cup(i - 1, b, a)
                    assert lhs == rhs
