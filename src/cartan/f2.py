"""Formal sums over the two-element field.

A sum is stored as the set of basis terms with coefficient 1, so adding
two sums is symmetric difference and every term is its own negative.
A sum is built by passing an iterable of terms to `F2Sum`, which cancels
them in pairs (a term given an odd number of times is kept once); every
builder in the package passes it a generator.
Terms may be any hashable, orderable values (tuples of ints, tuples of
tuples, ...); the order is only used to print and serialize sums
deterministically.  All values are immutable, all operations are pure.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable


class F2Sum:
    """A finite formal sum of basis terms with coefficients in GF(2)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Hashable] = ()):
        # a frozenset has no repeats, so it is already reduced; __add__ relies on this
        if isinstance(terms, frozenset):
            self._terms = terms
            return
        acc: set = set()
        for t in terms:
            # flip the coefficient of t: 1 + 1 = 0
            if t in acc:
                acc.remove(t)
            else:
                acc.add(t)
        self._terms = frozenset(acc)

    def sorted_terms(self) -> list:
        return sorted(self._terms)

    def __add__(self, other: "F2Sum") -> "F2Sum":
        if not isinstance(other, F2Sum):
            return NotImplemented
        return F2Sum(self._terms ^ other._terms)

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, F2Sum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "F2Sum()"
        return f"F2Sum({self.sorted_terms()!r})"

    def map_basis(self, f: Callable[[Hashable], Iterable[Hashable]]) -> "F2Sum":
        """Apply a basis-level map (returning any iterable of terms) and cancel in pairs."""
        return F2Sum(u for t in self._terms for u in f(t))


ZERO = F2Sum()


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
