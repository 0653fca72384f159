"""Nerve-level simplicial operators and the interval-product equivalences."""

from itertools import product as product_of

import pytest

from cartan.f2 import F2Sum, hom_boundary, singleton
from cartan import simplicial
from cartan.simplicial import (SHUFFLE_MEMO_DEGREE, aw, boundary, degree_simplices, ez,
                               faces_of_dim, is_degenerate, product, shih)
from cartan.verify import arity_basis, product_basis, tensor_basis

from oracles import all_faces, ez_reference, shih_reference, tensor_boundary


def product_cells(na, nb, d):
    for x in degree_simplices(na, d):
        for y in degree_simplices(nb, d):
            z = product(x, y)
            if not is_degenerate(z):
                yield z


def test_degenerate_detection():
    assert is_degenerate((0, 0, 1))
    assert not is_degenerate((0, 1, 2))
    assert is_degenerate(product((0, 0, 1), (2, 2, 3)))
    assert not is_degenerate(product((0, 0, 1), (2, 3, 3)))


def test_product_refuses_factors_of_unequal_degree():
    with pytest.raises(ValueError, match="equal degree"):
        product((0, 1), (0, 1, 2))


def test_boundary_golden():
    assert boundary(singleton((0, 1, 2))) == F2Sum([(1, 2), (0, 2), (0, 1)])
    assert boundary(singleton((0,))) == F2Sum()
    # the two surviving faces of s_0(0,1) coincide and cancel
    assert boundary(singleton((0, 0, 1))) == F2Sum()


def test_boundary_equals_the_filtered_faces_on_every_short_tuple():
    # every label tuple of length 1..6 over 3 labels, degenerate ones included,
    # against every face listed and then filtered
    total, want_total = F2Sum(), F2Sum()
    for length in range(1, 7):
        for x in product_of(range(3), repeat=length):
            faces = [x[:i] + x[i + 1:] for i in range(length)] if length > 1 else []
            want = F2Sum(f for f in faces if not is_degenerate(f))
            assert boundary(singleton(x)) == want, x
            total, want_total = total + singleton(x), want_total + want
    assert boundary(total) == want_total


def test_boundary_squares_to_zero():
    for x in degree_simplices(2, 3):
        assert boundary(boundary(singleton(x))) == F2Sum()


def test_aw_golden_on_the_square():
    z = product((0, 1), (0, 1))
    assert aw(singleton(z)) == F2Sum([((0,), (0, 1)), ((0, 1), (1,))])


def test_aw_drops_degenerate_factors():
    out = aw(singleton(product((0, 1, 1), (0, 0, 1))))
    for x, y in out:
        assert not is_degenerate(x) and not is_degenerate(y)


def test_aw_is_a_chain_map():
    d_aw = hom_boundary(aw, boundary, tensor_boundary)
    for d in range(4):
        for z in product_cells(2, 2, d):
            assert d_aw(singleton(z)) == F2Sum()


def test_ez_goldens():
    got = ez(singleton(((0, 1), (0, 1))))
    assert got == F2Sum([product((0, 1, 1), (0, 0, 1)),
                         product((0, 0, 1), (0, 1, 1))])
    # a vertex on the right only pads itself out
    assert ez(singleton(((0, 1, 2), (5,)))) == singleton(product((0, 1, 2), (5, 5, 5)))
    assert ez(singleton(((4,), (0, 1)))) == singleton(product((4, 4), (0, 1)))


def test_ez_is_a_chain_map():
    d_ez = hom_boundary(ez, tensor_boundary, boundary)
    for x in all_faces(2):
        for y in all_faces(2):
            assert d_ez(singleton((x, y))) == F2Sum()


def test_aw_ez_round_trip():
    for x in all_faces(3):
        for y in all_faces(2):
            t = singleton((x, y))
            assert aw(ez(t)) == t


def test_shih_degree_one_golden():
    z = product((0, 1), (0, 1))
    assert shih(singleton(z)) == singleton(product((0, 0, 1), (0, 1, 1)))


def test_shih_vanishes_on_vertices():
    assert shih(singleton(product((0,), (1,)))) == F2Sum()


def test_shih_homotopy_law():
    # boundary(shih) + shih(boundary) = ez o aw + id
    d_shih = hom_boundary(shih, boundary, boundary)
    for d in range(3):
        for z in product_cells(2, 1, d):
            c = singleton(z)
            assert d_shih(c) == ez(aw(c)) + c


def test_shuffle_walk_matches_the_degeneracy_references():
    # the closed formulas against the maps built one degeneracy at a time,
    # on the structural suites' bases and on the doubled arity-2 elements
    for d in range(5):
        for z in product_basis(d):
            assert shih(singleton(z)) == shih_reference(singleton(z)), z
    for d in range(7):
        for t in tensor_basis(d):
            assert ez(singleton(t)) == ez_reference(singleton(t)), t
    for d in range(11):
        for e in arity_basis(2, d):
            z = singleton(product(e, e))
            assert shih(z) == shih_reference(z), e
            if d <= 7:
                assert ez(singleton((e, e))) == ez_reference(singleton((e, e))), e


def test_ez_on_degenerate_factors_and_past_the_getter_memo():
    # a degenerate factor shuffles into degenerate simplices only
    for t in (((0, 0, 1), (2, 3)), ((0, 1), (2, 2)), ((5,), (1, 1, 2))):
        assert ez(singleton(t)) == ez_reference(singleton(t)) == F2Sum(), t
    assert (2, 1) in simplicial._SHUFFLE_GETTERS
    # p + q = 13 builds its getters per call: the same sum, and nothing kept
    t = (tuple(range(7)), tuple(range(10, 18)))
    assert len(ez(singleton(t))) == 1716
    assert ez(singleton(t)) == ez_reference(singleton(t))
    assert all(p + q <= SHUFFLE_MEMO_DEGREE for p, q in simplicial._SHUFFLE_GETTERS)


def test_face_enumeration():
    assert faces_of_dim(2, -1) == []
    assert faces_of_dim(2, 3) == []
    assert faces_of_dim(2, 0) == [(0,), (1,), (2,)]
    assert faces_of_dim(2, 1) == [(0, 1), (0, 2), (1, 2)]
    assert len(all_faces(3)) == 15
    # degree enumeration includes degenerate chains
    assert degree_simplices(1, 1) == [(0, 0), (0, 1), (1, 1)]
