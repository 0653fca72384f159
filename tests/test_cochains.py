"""Cochain arithmetic and the surjection action that drives the products."""

import random
from collections import Counter
from enum import IntEnum

import pytest

import cartan.cochains
from cartan.barratt_eccles import (MID_SWAP4, SWAP2, cup_generator, diag_embed,
                                   diagonal_homotopy, embedding_homotopy,
                                   product_of_squares, sigma_act, squared_product)
from cartan.cli import MAX_WITNESS_INDEX
from cartan.cochains import (Cochain, _act_cochain, _clear_memos, _cut_plans, _operands, _seeds,
                             cartan_coboundary, cartan_defect, cup, cup_surjections, delta, ones,
                             square_surjections, squared_product_surjections, steenrod_square,
                             witness_surjections)
from cartan.f2 import F2Sum, singleton
from cartan.simplicial import faces_of_dim
from cartan.surjection import (is_basis_surjection, surj_act, surj_boundary, surj_compose,
                               table_reduction)
from cartan.verify import random_cochain

from oracles import (act_reference, act_word, all_faces, brute_surjection_value, cup0_value,
                     cup_i_reference, diagonal_iter, join, pullback, squares_reference,
                     surjection_monomials, value)


def test_cochain_validation():
    for args in ((2, 1, [(0, 1, 2)]),
                 (2, 1, [(1, 0)]),
                 (2, 1, [(0, 3)]),
                 (-1, 0, []),
                 (2, -1, [()]),
                 # unhashable vertices: the faces are checked before they are hashed
                 (3, 1, [(0, [1])]),
                 (3, 1, [(0, {"v": 1})]),
                 # ... and before a repeated face is looked for
                 (3, 1, [(0, 1), (0, 1), (0, [1])]),
                 # ambient, dim and vertices are plain ints, not bools, floats or int subclasses
                 (2.5, 0, [(0,)]),
                 (True, 0, [(0,)]),
                 (3, 1.0, [(0, 1)]),
                 (3, 1, [(0, IntEnum("V", "ONE")(1))]),
                 # a support is a set, so a face listed twice is refused
                 (3, 1, [(0, 1), (0, 1)])):
        with pytest.raises(ValueError):
            Cochain(*args)
    # out-of-range dims are fine while the support is empty
    assert Cochain(2, 7, []).is_zero
    assert Cochain(2, -1, []).is_zero


def test_validation_names_the_first_bad_face_in_input_order():
    for support, message in (([[0, "x"], [1, "y"], [2, "z"], [0, "w"]],
                               "face (0, 'x') has non-integer vertices"),
                              ([[0, 1], [2, 1], [0, "x"], [0, 9]],
                               "face (2, 1) is not strictly increasing"),
                              ([[0, 1], [0, 9], [[0], 1]],
                               "face (0, 9) leaves the ambient simplex")):
        with pytest.raises(ValueError) as info:
            Cochain.from_dict({"ambient": 3, "dim": 1, "support": support})
        assert str(info.value) == message


def test_cochain_algebra():
    a = Cochain(2, 1, [(0, 1)])
    b = Cochain(2, 1, [(0, 1), (1, 2)])
    assert a + b == Cochain(2, 1, [(1, 2)])
    assert value(a, (0, 1)) == 1 and value(a, (1, 2)) == 0
    with pytest.raises(ValueError):
        a + Cochain(2, 0, [(0,)])
    with pytest.raises(ValueError):
        a + Cochain(3, 1, [(0, 1)])
    for other in (1, 0, frozenset(a.support)):
        with pytest.raises(TypeError):
            a + other


def test_repr_evaluates_back_and_equal_cochains_hash_alike():
    c = Cochain(3, 1, [(1, 3), (0, 1)])
    assert repr(c) == "Cochain(3, 1, [(0, 1), (1, 3)])"
    assert eval(repr(c), {"Cochain": Cochain}) == c
    twin = Cochain(3, 1, [(0, 1), (1, 3)])
    assert twin is not c and hash(twin) == hash(c) and len({c, twin}) == 1
    assert len({c, Cochain(3, 1, [(0, 1)]), Cochain(4, 1, [(0, 1), (1, 3)])}) == 3


def test_json_round_trip():
    c = Cochain(3, 1, [(1, 3), (0, 1)])
    assert Cochain.from_dict(c.to_dict()) == c
    assert c.to_dict() == {"ambient": 3, "dim": 1, "support": [[0, 1], [1, 3]]}
    # a dim outside 0..ambient, as of an out-of-range product, reads back as the zero cochain
    top = delta(Cochain(2, 2, [(0, 1, 2)]))
    for c in (Cochain(2, -9), Cochain(2, 4), top):
        assert Cochain.from_dict(c.to_dict()) == c
    assert top.to_dict() == {"ambient": 2, "dim": 3, "support": []}


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
                {"ambient": 2, "dim": -1, "support": [[0]]}):
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


def test_word_action_examples():
    a = Cochain(1, 1, [(0, 1)])
    assert value(act_word((1, 2, 1), (a, a), 1), (0, 1)) == 1
    e0 = Cochain(2, 1, [(0, 1)])
    e1 = Cochain(2, 1, [(1, 2)])
    assert value(act_word((1, 2), (e0, e1), 2), (0, 1, 2)) == 1
    assert value(act_word((1, 2), (e1, e0), 2), (0, 1, 2)) == 0


SEQS = [(1, 2), (2, 1), (1, 2, 1), (1, 2, 1, 2), (1, 2, 3), (1, 2, 3, 1), (1, 3, 2, 3, 4)]


def test_word_action_matches_the_brute_force():
    rng = random.Random(7)
    for seq in SEQS:
        r = max(seq)
        for n in (2, 3):
            for _ in range(6):
                cochains = tuple(random_cochain(rng, n, rng.randrange(n + 1))
                                 for _ in range(r))
                for dim in range(n + 1):
                    got = act_word(seq, cochains, dim)
                    for f in faces_of_dim(n, dim):
                        assert value(got, f) == brute_surjection_value(seq, cochains, f)


def test_symbolic_monomials_evaluate_to_the_action():
    rng = random.Random(3)
    for seq in [(1, 2, 1), (1, 2, 3), (1, 3, 2, 3)]:
        r = max(seq)
        for n in (2, 3):
            cochains = tuple(random_cochain(rng, n, rng.randrange(n + 1))
                             for _ in range(r))
            for dim in range(n + 1):
                got = act_word(seq, cochains, dim)
                for f in faces_of_dim(n, dim):
                    symbolic = sum(
                        all(value(c, F) for c, F in zip(cochains, mono))
                        for mono in surjection_monomials(seq, f)) % 2
                    assert symbolic == value(got, f)


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
                assert value(got, f) == cup0_value(a, b, f)


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
    cocycle = delta(Cochain(2, 0, [(0,)]))
    for witness in (cartan_coboundary, cartan_defect):
        with pytest.raises(ValueError, match="witness index must be nonnegative"):
            witness(-1, cocycle, cocycle)


def test_witness_and_defect_reject_different_ambients():
    # the ambient check runs before the returns for a zero operand and for an empty dimension
    a, b = delta(Cochain(3, 0, [(0,)])), delta(Cochain(4, 0, [(1,)]))
    for x, y in ((a, b), (b, a), (a, Cochain(4, 1)), (Cochain(3, 1), b),
                 (Cochain(3, 1), Cochain(4, 1))):
        for i in (0, 1, 50):
            with pytest.raises(ValueError, match="different simplices"):
                cartan_coboundary(i, x, y)
            with pytest.raises(ValueError, match="different simplices"):
                cartan_defect(i, x, y)


def test_cup_out_of_range_builds_no_word():
    # an output dimension outside [0, n] returns before the i + 2 letter word is built and cached
    a = delta(Cochain(2, 0, [(0,)]))
    before = cup_surjections.cache_info().currsize
    assert cup(10**6, a, a) == Cochain(2, 2 - 10**6)
    assert cup(0, a, Cochain(2, 2, [(0, 1, 2)])) == Cochain(2, 3)
    assert cartan_defect(10**6, a, a) == Cochain(2, 4 - 10**6)
    assert cup_surjections.cache_info().currsize == before


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
    # a negative index is zero in dimension dim a + k too, returned before any cut plan
    _clear_memos()
    assert steenrod_square(-1, a) == Cochain(2, 0)
    assert steenrod_square(-2, a) == Cochain(2, -1)
    assert _cut_plans.cache_info().misses == 0
    assert cup(2, a, a) == Cochain(2, 0)


def test_witness_surjection_cache():
    assert witness_surjections(0) == ((1, 3, 2, 3, 4),)
    assert set(witness_surjections(1)) == {(1, 3, 2, 3, 4, 3), (1, 2, 4, 1, 4, 3)}


def test_witness_words_have_the_closed_form_shape():
    for i in range(13):
        words = witness_surjections(i)
        assert len(set(words)) == len(words) == (i + 2) ** 2 // 4
        for s in words:
            assert len(s) == i + 5 and is_basis_surjection(s, 4)


def squared_product_words(i: int) -> F2Sum:
    """(2 3) Q_i, where Q_i puts cup_0 into inputs 2 and then 1 of the cup-i word.

    Q_i is the squared product cup_i o (cup_0, cup_0), built by
    `surj_compose` alone, with no Barratt-Eccles element or table.
    """
    (word,) = cup_surjections(i)
    q = surj_compose(word, 2, (1, 2)).map_basis(lambda s: surj_compose(s, 1, (1, 2)))
    return F2Sum(surj_act(MID_SWAP4, s) for s in q)


def test_closed_forms_equal_the_table_reduced_homotopies():
    # the paper's construction as the oracle: TR(cartan_homotopy) is the sum of these two,
    # and TR of the product of squares is one word per j, for every index the CLI accepts;
    # TR of the squared product is the composite of cup words
    for i in range(MAX_WITNESS_INDEX + 1):
        x = singleton(cup_generator(i))
        assert cup_surjections(i) == tuple(sorted(table_reduction(x)))
        assert witness_surjections(i) == tuple(sorted(table_reduction(embedding_homotopy(x))))
        assert table_reduction(diagonal_homotopy(x)) == F2Sum()
        assert square_surjections(i) == tuple(sorted(table_reduction(product_of_squares(x))))
        assert squared_product_surjections(i) == tuple(sorted(table_reduction(
            sigma_act(MID_SWAP4, squared_product(x)))))


def test_witness_words_satisfy_the_cartan_relation():
    # d W_i + W_{i-1} + (2 1 4 3) W_{i-1} = (2 3) Q_i + the product of squares, far past
    # the index cap and with no Barratt-Eccles element; at i <= 12 both sides are the
    # table reductions of the paper's terms (the test above)
    for i in range(41):
        lhs = surj_boundary(F2Sum(witness_surjections(i)))
        if i:
            prev = witness_surjections(i - 1)
            lhs = lhs + F2Sum(prev) + F2Sum(surj_act(diag_embed(SWAP2), s) for s in prev)
        assert lhs == F2Sum(squared_product_surjections(i)) + F2Sum(square_surjections(i))


def test_squared_product_words_have_the_closed_form():
    # the closed form is the composite of cup words, far past the index cap; no word of
    # it is a product-of-squares word, so the defect's two families never cancel
    for i in range(41):
        words = squared_product_surjections(i)
        assert F2Sum(words) == squared_product_words(i)
        assert len(set(words)) == len(words) == (i + 2) ** 2 // 4
        assert all(len(s) == i + 4 and is_basis_surjection(s, 4) for s in words)
        assert not set(words) & set(square_surjections(i))


def test_squared_product_words_act_as_the_closed_cup_formula():
    # on random non-cocycles, where the term need not vanish: the words on (a, a, b, b)
    # against cup_i(ab, ab) with ab = a cup_0 b, both by the closed formula, which uses
    # no cut plan
    rng = random.Random(23)
    nonzero = 0
    for n in range(2, 8):
        for i in range(5):
            for _ in range(4):
                a = random_cochain(rng, n, rng.randrange(3))
                b = random_cochain(rng, n, rng.randrange(3))
                ab = cup_i_reference(0, a, b)
                want = cup_i_reference(i, ab, ab)
                got = _act_cochain(squared_product_surjections, i, _operands((a, a, b, b)),
                                   2 * a.dim + 2 * b.dim - i)
                assert got == want, (n, i, a, b)
                nonzero += not want.is_zero
    assert nonzero >= 20


def test_product_of_squares_is_the_reduced_paper_term():
    # the words of the reduced product of squares act on (a, a, b, b) as the paper's
    # term, the literal sum over j of (a cup_j a) cup_0 (b cup_{i-j} b)
    rng = random.Random(5)
    for n in range(2, 7):
        for i in range(5):
            for _ in range(3):
                a = random_cochain(rng, n, rng.randrange(3))
                b = random_cochain(rng, n, rng.randrange(3))
                m = 2 * a.dim + 2 * b.dim - i
                assert act_reference(square_surjections(i), (a, a, b, b), n, m) == (
                    squares_reference(i, a, b))


def test_square_words_have_the_closed_form_shape():
    for i in range(13):
        words = square_surjections(i)
        assert len(set(words)) == len(words) == i + 1
        for s in words:
            assert len(s) == i + 4 and is_basis_surjection(s, 4)


def test_cartan_defect_lists_no_words_without_a_face(monkeypatch):
    # a defect dimension outside [0, n] returns before any word is listed: at i = 10^6 the
    # squared product alone would list floor((i+2)^2/4) words
    def no_words(i):
        raise AssertionError("defect words listed")

    monkeypatch.setattr(cartan.cochains, "square_surjections", no_words)
    monkeypatch.setattr(cartan.cochains, "squared_product_surjections", no_words)
    a = delta(Cochain(2, 0, [(0,)]))
    assert cartan_defect(5, a, a) == Cochain(2, -1)
    assert cartan_defect(100, a, a) == Cochain(2, -96)
    assert cartan_defect(10**6, a, a) == Cochain(2, 4 - 10**6)


def test_witness_value_matches_the_printed_monomial():
    rng = random.Random(17)
    for _ in range(10):
        a = delta(random_cochain(rng, 3, 0))
        b = delta(random_cochain(rng, 3, 0))
        z = cartan_coboundary(0, a, b)
        want = (value(a, (0, 1)) & value(a, (1, 2))
                & value(b, (1, 2)) & value(b, (2, 3)))
        assert value(z, (0, 1, 2, 3)) == want


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
    # in either place, before any action is compiled, where the witness and the
    # defect dimensions both lie in the simplex
    a = Cochain(4, 1, [(0, 1)])
    c = delta(Cochain(4, 0, [(1,)]))
    _clear_memos()
    for x, y in ((a, a), (a, c), (c, a)):
        with pytest.raises(ValueError, match="cocycles"):
            cartan_defect(0, x, y)
    assert _cut_plans.cache_info().misses == 0


def test_witness_restriction_naturality():
    # whole-simplex witness restricted to a face == witness on that face
    rng = random.Random(13)
    for i in (0, 1):
        for _ in range(5):
            a = delta(random_cochain(rng, 4, 0))
            b = delta(random_cochain(rng, 4, 0))
            z = cartan_coboundary(i, a, b)
            for verts in faces_of_dim(4, 3):
                assert pullback(verts, z) == cartan_coboundary(
                    i, pullback(verts, a), pullback(verts, b))


def monotone_map(rng: random.Random, n: int, injective: bool) -> tuple[int, ...]:
    """A monotone vertex map f: [m] -> [n], m >= 1, as (f(0), ..., f(m)): the inclusion of a
    face of the n-simplex, or, when not injective, that inclusion after a map that sends
    2 to n + 1 vertices to one vertex of the face."""
    verts = rng.sample(range(n + 1), rng.randint(2, n + 1))
    if not injective:
        verts += [rng.choice(verts)] * rng.randint(1, n)
    return tuple(sorted(verts))


def test_operations_are_natural_for_monotone_maps():
    # op(f*a, f*b) == f*op(a, b) for cup, steenrod_square and cartan_coboundary, and the
    # defect of pulled-back cocycles is zero, along face inclusions and along maps that
    # repeat a vertex, so that pulled-back operands are sparse as well as dense and the
    # action starts roots of both kinds
    rng = random.Random(23)
    nonzero = 0
    kinds = Counter()
    for trial in range(600):
        n = rng.randint(3, 7)
        f = monotone_map(rng, n, trial % 2 == 0)
        a, b = (ones(n) if rng.random() < 0.2 else
                delta(random_cochain(rng, n, rng.randint(0, 2))) for _ in range(2))
        fa, fb = pullback(f, a), pullback(f, b)
        kinds.update("dense" if _seeds(x) is None else "sparse"
                     for x in (fa, fb) if not x.is_zero)
        for i in range(4):
            for got, want in ((cup(i, fa, fb), cup(i, a, b)),
                              (steenrod_square(i, fa), steenrod_square(i, a)),
                              (cartan_coboundary(i, fa, fb), cartan_coboundary(i, a, b))):
                assert got == pullback(f, want), (f, i, a, b)
                nonzero += not got.is_zero
            assert cartan_defect(i, fa, fb).is_zero, (f, i, a, b)
    assert nonzero > 1000 and kinds["sparse"] > 20 and kinds["dense"] > 500, (nonzero, kinds)
