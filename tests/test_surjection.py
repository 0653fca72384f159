"""Surjection basis handling, composition, and reduction from permutation tuples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan.barratt_eccles import sigma_act
from cartan.f2 import F2Sum, singleton
from cartan.simplicial import boundary
from cartan.surjection import (is_basis_surjection, surj_act, surj_boundary,
                               surj_compose, table_reduction)
from cartan.verify import arity_basis

from oracles import compositions, reduce_table, surj_degree, table_reduction_reference


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
    assert surj_boundary(singleton((1, 2))) == F2Sum()


def test_boundary_squares_to_zero():
    for s in [(1, 2, 1, 2), (1, 2, 3, 2, 1), (1, 3, 2, 3, 4, 3)]:
        assert surj_boundary(surj_boundary(singleton(s))) == F2Sum()


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


def test_table_reduction_equals_the_naive_reading_on_every_small_element():
    # 18 + 4686 + 13272 basis elements: arity 2 through degree 8, 3 through 4, 4 through 2
    for r, top in ((2, 8), (3, 4), (4, 2)):
        for degree in range(top + 1):
            for e in arity_basis(r, degree):
                assert table_reduction(singleton(e)) == table_reduction_reference(singleton(e))


def test_table_reduction_equals_the_naive_reading_on_random_tables():
    # any table, degenerate ones included; the pruned and the nonempty cases must both occur
    seen = {"pruned": 0, "nonempty": 0}

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 5).flatmap(
        lambda r: st.lists(st.permutations(range(1, r + 1)), min_size=1, max_size=5)))
    def check(rows):
        e = tuple(map(tuple, rows))
        want = table_reduction_reference(singleton(e))
        assert table_reduction(singleton(e)) == want
        r, n = len(e[0]), len(e) - 1
        readings = [reduce_table(e, a) for a in compositions(n + r, n + 1)]
        seen["pruned"] += any(x == y for seq in readings for x, y in zip(seq, seq[1:]))
        seen["nonempty"] += bool(want)

    check()
    assert seen["pruned"] and seen["nonempty"], seen
