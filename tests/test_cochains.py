"""Cochain arithmetic and the surjection action that drives the products."""

import random

import pytest

from cartan.barratt_eccles import (MID_SWAP4, SWAP2, cup_generator, diag_embed,
                                   diagonal_homotopy, embedding_homotopy,
                                   product_of_squares, sigma_act, squared_product)
from cartan.cochains import (Cochain, apply_surjection, cartan_coboundary,
                             cartan_defect, cup, cup_surjections, delta, ones,
                             steenrod_square, witness_surjections)
from cartan.f2 import ZERO, F2Sum, singleton
from cartan.simplicial import faces_of_dim
from cartan.surjection import (is_basis_surjection, surj_act, surj_boundary,
                               table_reduction)
from cartan.verify import random_cochain

from oracles import (all_faces, brute_surjection_value, cup0_value, diagonal_iter,
                     join, restrict, surjection_monomials)


def test_cochain_validation():
    for args in ((2, 1, [(0, 1, 2)]),
                 (2, 1, [(1, 0)]),
                 (2, 1, [(0, 3)]),
                 (-1, 0, []),
                 (2, -1, [()])):
        with pytest.raises(ValueError):
            Cochain(*args)
    # out-of-range dims are fine while the support is empty
    assert Cochain(2, 7, []).is_zero
    assert Cochain(2, -1, []).is_zero


def test_cochain_algebra():
    a = Cochain(2, 1, [(0, 1)])
    b = Cochain(2, 1, [(0, 1), (1, 2)])
    assert a + b == Cochain(2, 1, [(1, 2)])
    assert a.value((0, 1)) == 1 and a.value((1, 2)) == 0
    with pytest.raises(ValueError):
        a + Cochain(2, 0, [(0,)])
    with pytest.raises(ValueError):
        a + Cochain(3, 1, [(0, 1)])


def test_json_round_trip():
    c = Cochain(3, 1, [(1, 3), (0, 1)])
    assert Cochain.from_dict(c.to_dict()) == c
    assert c.to_dict() == {"ambient": 3, "dim": 1, "support": [[0, 1], [1, 3]]}


def test_from_dict_rejects_junk():
    for doc in ([1, 2],
                {"ambient": 2, "dim": 0},
                {"ambient": 2, "dim": 0, "support": [[0]], "extra": 1},
                {"ambient": 2, "dim": "0", "support": []},
                {"ambient": 2, "dim": 0, "support": [0]},
                {"ambient": 2, "dim": 0, "support": [[0], [0]]},
                {"ambient": True, "dim": 0, "support": [[0]]},
                {"ambient": 2, "dim": False, "support": [[0]]},
                {"ambient": 2, "dim": 0, "support": [[True]]},
                {"ambient": 2, "dim": -1, "support": []}):
        with pytest.raises(ValueError):
            Cochain.from_dict(doc)
    with pytest.raises(ValueError):
        Cochain(2, 0, [(False,)])


def test_delta_golden():
    a = Cochain(2, 0, [(1,)])
    assert delta(a) == Cochain(2, 1, [(0, 1), (1, 2)])


def test_delta_squares_to_zero():
    rng = random.Random(1)
    for n in (2, 3, 4):
        for dim in range(n):
            assert delta(delta(random_cochain(rng, n, dim))).is_zero


def test_ones_is_a_cocycle():
    for n in range(5):
        assert delta(ones(n)).is_zero


def test_diagonal_iter_golden():
    got = diagonal_iter(1, (0, 1, 2))
    assert got == F2Sum([((0,), (0, 1, 2)), ((0, 1), (1, 2)), ((0, 1, 2), (2,))])
    with pytest.raises(ValueError):
        diagonal_iter(-1, (0,))


def test_join_golden():
    assert join([(0, 1), (2, 3)]) == (0, 1, 2, 3)
    assert join([(2, 3), (0,)]) == (0, 2, 3)
    assert join([(0, 1), (1, 2)]) is None


def test_apply_surjection_examples():
    a = Cochain(1, 1, [(0, 1)])
    assert apply_surjection((1, 2, 1), (a, a), (0, 1)) == 1
    e0 = Cochain(2, 1, [(0, 1)])
    e1 = Cochain(2, 1, [(1, 2)])
    assert apply_surjection((1, 2), (e0, e1), (0, 1, 2)) == 1
    assert apply_surjection((1, 2), (e1, e0), (0, 1, 2)) == 0


def test_apply_surjection_guards():
    a = Cochain(1, 0, [(0,)])
    with pytest.raises(ValueError):
        apply_surjection((1, 3), (a, a), (0,))
    with pytest.raises(ValueError):
        apply_surjection((1, 2), (a, Cochain(2, 0, [(0,)])), (0,))


SEQS = [(1, 2), (2, 1), (1, 2, 1), (1, 2, 1, 2), (1, 2, 3), (1, 2, 3, 1), (1, 3, 2, 3, 4)]


def test_apply_surjection_matches_the_brute_force():
    rng = random.Random(7)
    for seq in SEQS:
        r = max(seq)
        for n in (2, 3):
            for _ in range(6):
                cochains = tuple(random_cochain(rng, n, rng.randrange(n + 1))
                                 for _ in range(r))
                for f in all_faces(n):
                    assert (apply_surjection(seq, cochains, f)
                            == brute_surjection_value(seq, cochains, f))


def test_symbolic_monomials_evaluate_to_the_action():
    rng = random.Random(3)
    for seq in [(1, 2, 1), (1, 2, 3), (1, 3, 2, 3)]:
        r = max(seq)
        for n in (2, 3):
            cochains = tuple(random_cochain(rng, n, rng.randrange(n + 1))
                             for _ in range(r))
            for f in all_faces(n):
                symbolic = sum(
                    all(c.value(F) for c, F in zip(cochains, mono))
                    for mono in surjection_monomials(seq, f)) % 2
                assert symbolic == apply_surjection(seq, cochains, f)


def test_cup_zero_is_the_classical_product():
    a = Cochain(2, 1, [(0, 1)])
    b = Cochain(2, 1, [(1, 2)])
    assert cup(0, a, b) == Cochain(2, 2, [(0, 1, 2)])
    assert cup(0, b, a).is_zero


def test_cup_zero_matches_the_front_back_oracle():
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(10):
            a = random_cochain(rng, n, rng.randrange(n + 1))
            b = random_cochain(rng, n, rng.randrange(n + 1))
            got = cup(0, a, b)
            for f in faces_of_dim(n, a.dim + b.dim):
                assert got.value(f) == cup0_value(a, b, f)


def test_cup_one_self_on_the_interval():
    a = Cochain(1, 1, [(0, 1)])
    assert cup(1, a, a) == a


def test_cup_surjection_cache():
    assert cup_surjections(0) == ((1, 2),)
    assert cup_surjections(1) == ((1, 2, 1),)
    assert cup_surjections(2) == ((1, 2, 1, 2),)
    for i in range(13):
        assert cup_surjections(i) == (tuple(1 + j % 2 for j in range(i + 2)),)


def test_cup_shape_handling():
    a = Cochain(2, 1, [(0, 1)])
    assert cup(5, a, a).is_zero
    with pytest.raises(ValueError):
        cup(-1, a, a)
    with pytest.raises(ValueError):
        cup(0, a, Cochain(3, 1, [(0, 1)]))


def test_coboundary_derivation_law():
    # delta(a cup_i b) = da cup_i b + a cup_i db + a cup_{i-1} b + b cup_{i-1} a
    rng = random.Random(5)
    for n in (2, 3, 4):
        for i in range(3):
            for _ in range(6):
                a = random_cochain(rng, n, rng.randrange(n))
                b = random_cochain(rng, n, rng.randrange(n))
                lhs = delta(cup(i, a, b))
                rhs = cup(i, delta(a), b) + cup(i, a, delta(b))
                if i > 0:
                    rhs = rhs + cup(i - 1, a, b) + cup(i - 1, b, a)
                assert lhs == rhs


def test_steenrod_square_conventions():
    a = Cochain(2, 1, [(0, 1), (0, 2)])
    assert steenrod_square(1, a) == cup(0, a, a)
    assert steenrod_square(0, a) == cup(1, a, a)
    overflow = steenrod_square(3, a)
    assert overflow.is_zero and overflow.dim == 4


def test_witness_surjection_cache():
    assert witness_surjections(0) == ((1, 3, 2, 3, 4),)
    assert set(witness_surjections(1)) == {(1, 3, 2, 3, 4, 3), (1, 2, 4, 1, 4, 3)}


def test_witness_words_have_the_closed_form_shape():
    for i in range(13):
        words = witness_surjections(i)
        assert len(set(words)) == len(words) == (i + 2) ** 2 // 4
        for s in words:
            assert len(s) == i + 5 and is_basis_surjection(s, 4)


def test_closed_forms_equal_the_table_reduced_homotopies():
    # the paper's construction as the oracle: TR(cartan_homotopy) is the sum of these two
    for i in range(9):
        x = singleton(cup_generator(i))
        assert cup_surjections(i) == tuple(sorted(table_reduction(x)))
        assert witness_surjections(i) == tuple(sorted(table_reduction(embedding_homotopy(x))))
        assert table_reduction(diagonal_homotopy(x)) == ZERO


def test_witness_words_satisfy_the_cartan_relation():
    # d W_i + W_{i-1} + (2 1 4 3) W_{i-1} = TR((2 3) squared product) + TR(product of squares)
    for i in range(9):
        x = singleton(cup_generator(i))
        lhs = surj_boundary(F2Sum(witness_surjections(i)))
        if i:
            prev = witness_surjections(i - 1)
            lhs = lhs + F2Sum(prev) + F2Sum(surj_act(diag_embed(SWAP2), s) for s in prev)
        assert lhs == (table_reduction(sigma_act(MID_SWAP4, squared_product(x)))
                       + table_reduction(product_of_squares(x)))


def test_witness_value_matches_the_printed_monomial():
    rng = random.Random(17)
    for _ in range(10):
        a = delta(random_cochain(rng, 3, 0))
        b = delta(random_cochain(rng, 3, 0))
        z = cartan_coboundary(0, a, b)
        want = (a.value((0, 1)) & a.value((1, 2))
                & b.value((1, 2)) & b.value((2, 3)))
        assert z.value((0, 1, 2, 3)) == want


def test_cartan_defect_zero_for_sampled_cocycles():
    rng = random.Random(9)
    for n in (2, 3, 4):
        for i in range(3):
            for _ in range(4):
                a = delta(random_cochain(rng, n, rng.randrange(max(n - 1, 1))))
                b = delta(random_cochain(rng, n, rng.randrange(max(n - 1, 1))))
                assert cartan_defect(i, a, b).is_zero


def test_cartan_defect_constant_inputs():
    c = ones(3)
    for i in range(4):
        assert cartan_defect(i, c, c).is_zero


def test_cartan_defect_rejects_non_cocycles():
    a = Cochain(2, 1, [(0, 1)])
    with pytest.raises(ValueError):
        cartan_defect(0, a, a)


def test_witness_restriction_naturality():
    # whole-simplex witness restricted to a face == witness on that face
    rng = random.Random(13)
    for i in (0, 1):
        for _ in range(5):
            a = delta(random_cochain(rng, 4, 0))
            b = delta(random_cochain(rng, 4, 0))
            z = cartan_coboundary(i, a, b)
            for verts in faces_of_dim(4, 3):
                assert restrict(z, verts) == cartan_coboundary(
                    i, restrict(a, verts), restrict(b, verts))
