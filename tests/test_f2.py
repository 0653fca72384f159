"""Laws of the GF(2) formal-sum container."""

from hypothesis import given
from hypothesis import strategies as st

from cartan.f2 import F2Sum, ZERO, hom_boundary, singleton
from cartan.simplicial import boundary

terms = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8)


@given(terms)
def test_double_insert_cancels(ts):
    # x + x = 0, also when the terms come from a one-shot iterator
    assert F2Sum(ts + ts) == ZERO
    assert F2Sum(iter(ts + ts)) == ZERO
    assert F2Sum(t for t in ts for _ in range(3)) == F2Sum(ts)


@given(terms, terms)
def test_addition_is_symmetric_difference(xs, ys):
    assert set(F2Sum(xs) + F2Sum(ys)) == set(F2Sum(xs)) ^ set(F2Sum(ys))


@given(terms, terms, terms)
def test_addition_is_associative(xs, ys, zs):
    a, b, c = F2Sum(xs), F2Sum(ys), F2Sum(zs)
    assert (a + b) + c == a + (b + c)


@given(terms)
def test_zero_is_the_identity(xs):
    c = F2Sum(xs)
    assert c + ZERO == c
    assert c + c == ZERO


def test_parity_constructor():
    assert F2Sum([(1,), (2,), (1,)]) == singleton((2,))
    assert not F2Sum([(1,), (1,)])
    assert len(F2Sum([(1,), (2,)])) == 2
    assert F2Sum(iter([(1,), (2,), (1,)])) == singleton((2,))
    # a generator that yields (k,) k times: only the odd k survive
    assert F2Sum((k,) for k in range(1, 6) for _ in range(k)) == F2Sum([(1,), (3,), (5,)])


@given(terms)
def test_map_basis_with_singleton_is_identity(xs):
    c = F2Sum(xs)
    assert c.map_basis(singleton) == c


def test_map_basis_cancels_collisions():
    c = F2Sum([(1, 0), (2, 0)])
    # both terms map to the same image, which must cancel
    assert c.map_basis(lambda t: singleton((0, 0))) == ZERO


def test_hom_boundary_of_a_chain_map_vanishes():
    df = hom_boundary(lambda c: c, boundary, boundary)
    assert df(singleton((0, 1, 2))) == ZERO


def test_sorted_terms_and_repr():
    c = F2Sum([(2,), (1,)])
    assert c.sorted_terms() == [(1,), (2,)]
    assert repr(ZERO) == "F2Sum()"
    assert "(1,)" in repr(c)
