"""Surjection basis handling, composition, and reduction from permutation tuples."""

import pytest

from cartan.barratt_eccles import sigma_act
from cartan.f2 import F2Sum, ZERO, singleton
from cartan.simplicial import boundary
from cartan.surjection import (compositions, is_basis_surjection,
                               reduce_table, surj_act, surj_boundary,
                               surj_compose, table_reduction)

from oracles import surj_degree


def test_basis_predicate():
    assert is_basis_surjection((1, 2, 1), 2)
    assert not is_basis_surjection((1, 1, 2), 2)
    assert not is_basis_surjection((1, 3, 1), 3)
    assert not is_basis_surjection((1, 2), 3)


def test_degree_is_the_excess():
    assert surj_degree((1, 2)) == 0
    assert surj_degree((1, 2, 1)) == 1
    assert surj_degree((1, 3, 2, 3, 4, 3)) == 2


def test_boundary_golden():
    assert surj_boundary(singleton((1, 2, 1))) == F2Sum([(2, 1), (1, 2)])
    assert surj_boundary(singleton((1, 2))) == ZERO


def test_boundary_squares_to_zero():
    for s in [(1, 2, 1, 2), (1, 2, 3, 2, 1), (1, 3, 2, 3, 4, 3)]:
        assert surj_boundary(surj_boundary(singleton(s))) == ZERO


def test_act_relabels_values():
    assert surj_act((2, 1), (1, 2, 1)) == (2, 1, 2)
    assert surj_act((1, 3, 2), (1, 2, 3)) == (1, 3, 2)
    with pytest.raises(ValueError):
        surj_act((2, 1), (1, 2, 3))


def test_compose_worked_example():
    got = surj_compose((1, 2, 3, 2, 1), 2, (1, 2, 1))
    assert got == F2Sum([(1, 2, 3, 2, 4, 2, 1),
                         (1, 2, 3, 4, 3, 2, 1),
                         (1, 2, 4, 2, 3, 2, 1)])


def test_compose_units():
    for s in [(1, 2), (1, 2, 1), (1, 3, 2, 3, 4, 3)]:
        assert surj_compose(s, 2, (1,)) == singleton(s)
        assert surj_compose((1,), 1, s) == singleton(s)


def test_compose_adds_degrees():
    s2, s1 = (1, 2, 1), (2, 1, 2)
    for p in (1, 2):
        for term in surj_compose(s2, p, s1):
            assert surj_degree(term) == surj_degree(s2) + surj_degree(s1)
            assert max(term) == 3


def test_compositions_enumeration():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert len(list(compositions(6, 3))) == 10


def test_reduce_table_single_row():
    # degree zero: the surjection is the permutation itself
    assert reduce_table(((3, 1, 2),), (3,)) == (3, 1, 2)


def test_reduce_table_frees_the_caesura():
    # the last pick of a non-final row stays available below it
    e = ((1, 2), (2, 1))
    assert reduce_table(e, (1, 2)) == (1, 2, 1)
    assert reduce_table(e, (2, 1)) == (1, 2, 2)


def test_table_reduction_goldens():
    assert table_reduction(singleton(((1, 2),))) == singleton((1, 2))
    assert table_reduction(singleton(((1, 2), (2, 1)))) == singleton((1, 2, 1))
    assert table_reduction(singleton(((1, 3, 2, 4), (1, 2, 3, 4)))) == singleton((1, 3, 2, 3, 4))


def test_table_reduction_worked_example():
    e = ((1, 3, 2, 4), (1, 2, 3, 4), (2, 1, 4, 3))
    assert table_reduction(singleton(e)) == singleton((1, 3, 2, 3, 4, 3))


def test_table_reduction_output_is_normalized():
    for i in range(4):
        base = ((1, 2),) + tuple((2, 1) if k % 2 == 0 else (1, 2) for k in range(i))
        for s in table_reduction(singleton(base)):
            assert is_basis_surjection(s, 2)
            assert surj_degree(s) == i


def test_table_reduction_is_a_chain_map():
    elements = [((1, 2), (2, 1)),
                ((1, 2), (2, 1), (1, 2)),
                ((2, 1, 3), (1, 2, 3)),
                ((3, 1, 2), (1, 3, 2), (2, 3, 1))]
    for e in elements:
        c = singleton(e)
        assert surj_boundary(table_reduction(c)) == table_reduction(boundary(c))


def test_table_reduction_is_equivariant():
    e = ((2, 1, 3), (1, 2, 3))
    c = singleton(e)
    for sigma in [(2, 1, 3), (3, 1, 2), (1, 3, 2)]:
        acted = F2Sum(surj_act(sigma, s) for s in table_reduction(c))
        assert acted == table_reduction(sigma_act(sigma, c))
