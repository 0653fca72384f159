"""Formal sums over the two-element field.

A sum is the frozenset of its basis terms with coefficient 1: `F2Sum`
subclasses `frozenset`, so iteration, length, truth, equality and hash
are those of the set.
Its one arithmetic is `+`, symmetric difference, under which every term
is its own negative; `+` accepts only another `F2Sum`.
A sum is built by passing an iterable of terms to `F2Sum`, which cancels
them in pairs (a term given an odd number of times is kept once); every
builder in the package passes it a generator.
Terms may be any hashable, orderable values (tuples of ints, tuples of
tuples, ...); the order is only used to print and serialize sums
deterministically.  All values are immutable, all operations are pure.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable


class F2Sum(frozenset):
    """A finite formal sum of basis terms with coefficients in GF(2)."""

    __slots__ = ()

    def __new__(cls, terms: Iterable[Hashable] = ()):
        # a frozenset has no repeats, so it is already reduced; __add__ relies on this
        if isinstance(terms, frozenset):
            return super().__new__(cls, terms)
        acc: set = set()
        for t in terms:
            # flip the coefficient of t: 1 + 1 = 0
            if t in acc:
                acc.remove(t)
            else:
                acc.add(t)
        return super().__new__(cls, acc)

    def __add__(self, other: "F2Sum") -> "F2Sum":
        if not isinstance(other, F2Sum):
            return NotImplemented
        return F2Sum(self ^ other)

    def __repr__(self) -> str:
        return f"F2Sum({sorted(self)!r})" if self else "F2Sum()"

    def map_basis(self, f: Callable[[Hashable], Iterable[Hashable]]) -> "F2Sum":
        """Apply a basis-level map (returning any iterable of terms) and cancel in pairs."""
        return F2Sum(u for t in self for u in f(t))


def singleton(term) -> F2Sum:
    """The sum with the single term `term`."""
    return F2Sum((term,))


def hom_boundary(f: Callable[[F2Sum], F2Sum],
                 boundary_dom: Callable[[F2Sum], F2Sum],
                 boundary_cod: Callable[[F2Sum], F2Sum]) -> Callable[[F2Sum], F2Sum]:
    """Boundary of a graded map between chain complexes.

    Returns the map c -> d'(f(c)) + f(d(c)), one degree lower than f.
    A map is a chain map exactly when this vanishes, and a chain
    homotopy between chain maps g and h exactly when this equals g + h.
    """

    def df(c: F2Sum) -> F2Sum:
        return boundary_cod(f(c)) + f(boundary_dom(c))

    return df
