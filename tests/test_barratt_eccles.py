"""Permutation calculus and the arity-4 homotopies built from the two embeddings."""

from functools import partial
from itertools import chain, filterfalse, starmap
from itertools import product as product_of

import pytest

from cartan.barratt_eccles import (ID2, MID_SWAP4, SWAP2, be_compose,
                                   block_compose, cartan_homotopy,
                                   compose_perm, cup_generator, diag_embed,
                                   diagonal_homotopy, embedding_homotopy,
                                   nerve_map, outer_embed, product_of_squares,
                                   sigma_act, squared_product)
from cartan.f2 import F2Sum, hom_boundary, singleton
from cartan.simplicial import aw, boundary, ez, is_degenerate, product, shih
from cartan.verify import arity_basis

from oracles import be_compose_reference, wreath_reference

E4 = (1, 2, 3, 4)
P23 = (1, 3, 2, 4)
P12_34 = (2, 1, 4, 3)
P34 = (1, 2, 4, 3)
P12 = (2, 1, 3, 4)


def test_compose_applies_the_right_factor_first():
    assert compose_perm(P23, P12) == (3, 1, 2, 4)
    # the pin for the whole convention: (23)(13)(24) in cycle notation
    chain = compose_perm(P23, compose_perm((3, 2, 1, 4), (1, 4, 3, 2)))
    assert chain == (2, 4, 1, 3)
    assert compose_perm(SWAP2, SWAP2) == ID2
    assert MID_SWAP4 == P23


def test_block_compose_vectors():
    assert block_compose(SWAP2, ID2, ID2) == (3, 4, 1, 2)
    assert block_compose(ID2, SWAP2, SWAP2) == P12_34


def test_block_compose_is_the_wreath_product():
    s2 = (ID2, SWAP2)
    images = set()
    for sigma, a, b in product_of(s2, s2, s2):
        w = block_compose(sigma, a, b)
        images.add(w)
        assert w == wreath_reference(sigma, a, b)
        # the blocks act inside {1,2} and {3,4}, then sigma moves the blocks
        assert w == compose_perm(outer_embed(sigma), block_compose(ID2, a, b))
        # and the two blocks act independently
        assert block_compose(ID2, a, b) == compose_perm(block_compose(ID2, a, ID2),
                                                        block_compose(ID2, ID2, b))
        # every image keeps the partition {{1,2}, {3,4}}
        assert {w[0], w[1]} in ({1, 2}, {3, 4})
    # S2 wr S2 is the order-8 subgroup of S4 keeping {{1,2}, {3,4}}
    assert len(images) == 8
    for embed in (outer_embed, diag_embed):
        for s, t in product_of(s2, s2):
            assert embed(compose_perm(s, t)) == compose_perm(embed(s), embed(t))


def test_block_compose_refuses_every_argument_off_the_table():
    # length-2 non-permutations, an unhashable list and arity 3, in each argument
    for bad in ((1, 1), (0, 1), [1, 2], (1, 2, 3)):
        for args in ((bad, ID2, ID2), (ID2, bad, ID2), (ID2, ID2, bad)):
            with pytest.raises(ValueError, match="arity-2 permutations only"):
                block_compose(*args)


def test_embeddings():
    assert outer_embed(ID2) == E4
    assert outer_embed(SWAP2) == (3, 4, 1, 2)
    assert diag_embed(ID2) == E4
    assert diag_embed(SWAP2) == P12_34


def test_cup_generator_shape():
    assert cup_generator(0) == (ID2,)
    assert cup_generator(2) == (ID2, SWAP2, ID2)
    with pytest.raises(ValueError):
        cup_generator(-1)


def test_cup_generator_boundary():
    # d(generator_i) = swapped generator_{i-1} + generator_{i-1}
    for i in (1, 2, 3):
        lower = singleton(cup_generator(i - 1))
        want = sigma_act(SWAP2, lower) + lower
        assert boundary(singleton(cup_generator(i))) == want


def test_sigma_act_normalizes():
    c = singleton((ID2, SWAP2))
    assert sigma_act(SWAP2, c) == singleton((SWAP2, ID2))
    with pytest.raises(ValueError):
        sigma_act((1, 2, 3), c)
    # a constant entry map collapses every term
    assert nerve_map(lambda s: E4, singleton((E4, P23))) == F2Sum()


def test_be_compose_identity_slots():
    unit = singleton(cup_generator(0))
    # identities in both slots land the element on its outer embedding
    for i in (0, 1, 2):
        c = singleton(cup_generator(i))
        assert be_compose(cup_generator(i), unit, unit) == nerve_map(outer_embed, c)


def test_be_compose_respects_boundaries():
    # d(e o (a, b)) = (de) o (a, b) + e o (da, b) + e o (a, db)
    e = cup_generator(1)
    a = singleton(cup_generator(1))
    b = singleton((SWAP2,))
    lhs = boundary(be_compose(e, a, b))
    rhs = (boundary(singleton(e)).map_basis(lambda t: be_compose(t, a, b))
           + be_compose(e, boundary(a), b)
           + be_compose(e, a, boundary(b)))
    assert lhs == rhs


def test_be_compose_matches_the_degeneracy_reference():
    nonzero = 0
    for d in range(6):
        for e in arity_basis(2, d):
            for x in chain.from_iterable(arity_basis(2, k) for k in range(3)):
                for y in chain.from_iterable(arity_basis(2, k) for k in range(3)):
                    out = be_compose(e, singleton(x), singleton(y))
                    assert out == be_compose_reference(e, singleton(x), singleton(y)), (e, x, y)
                    nonzero += bool(out)
    # every one of the 432 composites is nonzero, so none of them agrees vacuously
    assert nonzero == 432


def test_block_composed_simplices_stay_nondegenerate():
    # block_compose is injective and shih and ez return nondegenerate simplices, so
    # no block-composed image is degenerate and dropping degenerate ones changes nothing
    unit = cup_generator(0)

    def composed(e, x, y):
        outer = ez(F2Sum([(e, t) for t in ez(singleton((x, y)))]))
        return [tuple([block_compose(s, a, b) for s, (a, b) in z]) for z in outer]

    for d in range(9):
        for e in arity_basis(2, d):
            doubled = singleton(product(e, e))
            diagonal = [tuple(starmap(partial(block_compose, ID2), z)) for z in shih(doubled)]
            cases = [(diagonal_homotopy(singleton(e)), diagonal),
                     (be_compose(e, singleton(unit), singleton(unit)), composed(e, unit, unit))]
            cases += [(be_compose(unit, singleton(x), singleton(y)), composed(unit, x, y))
                      for x, y in aw(doubled)]
            for out, images in cases:
                assert not any(map(is_degenerate, images)), e
                assert out == F2Sum(filterfalse(is_degenerate, images)), e


def test_squared_product_is_the_outer_nerve_map():
    for i in range(4):
        c = singleton(cup_generator(i))
        assert squared_product(c) == nerve_map(outer_embed, c)


def test_product_of_squares_degree_zero():
    assert product_of_squares(singleton(cup_generator(0))) == singleton((E4,))


def test_aw_splits_the_doubled_generator():
    # front j-prefix tensor swap-twisted (i-j)-suffix, no cancellation
    xi = cup_generator(2)
    doubled = singleton(product(xi, xi))
    assert aw(doubled) == F2Sum((xi[:j + 1], xi[j:]) for j in range(3))


def test_homotopy_goldens_small():
    x0, x1 = singleton(cup_generator(0)), singleton(cup_generator(1))
    assert embedding_homotopy(x0) == singleton((P23, E4))
    assert diagonal_homotopy(x0) == F2Sum()
    assert cartan_homotopy(x0) == embedding_homotopy(x0)
    assert embedding_homotopy(x1) == F2Sum([
        (P23, E4, P12_34), (P23, (2, 4, 1, 3), P12_34)])
    assert diagonal_homotopy(x1) == singleton((E4, P34, P12_34))


def test_homotopy_boundaries_small():
    d_h1 = hom_boundary(embedding_homotopy, boundary, boundary)
    d_h2 = hom_boundary(diagonal_homotopy, boundary, boundary)
    for i in range(3):
        c = singleton(cup_generator(i))
        assert d_h1(c) == sigma_act(MID_SWAP4, squared_product(c)) + nerve_map(diag_embed, c)
        assert d_h2(c) == nerve_map(diag_embed, c) + product_of_squares(c)


def test_homotopy_equivariance_small():
    twist = diag_embed(SWAP2)
    for i in range(3):
        c = singleton(cup_generator(i))
        flipped = sigma_act(SWAP2, c)
        assert embedding_homotopy(flipped) == sigma_act(twist, embedding_homotopy(c))
        assert diagonal_homotopy(flipped) == sigma_act(twist, diagonal_homotopy(c))


def test_arity_other_than_two_is_refused():
    e3 = ((1, 2, 3), (2, 1, 3))
    c3 = singleton(e3)
    unit = singleton(cup_generator(0))
    for embed in (outer_embed, diag_embed):
        with pytest.raises(ValueError):
            embed((1, 2, 3))
    with pytest.raises(ValueError):
        block_compose(ID2, ID2, (1, 2, 3))
    with pytest.raises(ValueError):
        be_compose(e3, unit, unit)
    with pytest.raises(ValueError):
        be_compose(cup_generator(1), c3, unit)
    # zero results: the arity is refused before any label reaches block_compose
    with pytest.raises(ValueError):
        be_compose(e3, F2Sum(), singleton((ID2,)))
    with pytest.raises(ValueError):
        diagonal_homotopy(singleton(((1, 2, 3),)))
    for fn in (squared_product, product_of_squares, embedding_homotopy,
               diagonal_homotopy, cartan_homotopy):
        with pytest.raises(ValueError):
            fn(c3)
