"""Simplices, products of simplicial sets, and the classical comparison maps.

Every simplicial set used in this package is a nerve, so a simplex of
degree n is just a tuple of n+1 labels: vertices for the standard
simplex, permutations for the symmetric-group nerves.  The i-th face
deletes the i-th label, and a simplex is degenerate exactly when two
neighbouring labels agree.  This makes the normal form trivial and
reduces the degeneracy-collision test for products to "some position
repeats in both factors at once".

Two different pairings appear:

* a product simplex of X x Y is the zip of its equal-degree factors,
  i.e. a label tuple whose labels are pairs;
* a tensor term of N(X) (x) N(Y) is a plain pair (x, y) of simplices of
  independent degrees.

The chain-level maps `aw` (Alexander-Whitney), `ez` (Eilenberg-Zilber
shuffle map) and `shih` (Shih's explicit homotopy) convert between the
two; `ez` and `shih` are sums of shuffles.  A shuffle of x with y is the
product simplex that walks from (x[0], y[0]) to (x[-1], y[-1]),
advancing exactly one factor by one label at each step.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .f2 import F2Sum


def is_degenerate(x: tuple) -> bool:
    return any(a == b for a, b in zip(x, x[1:]))


def boundary(c: F2Sum) -> F2Sum:
    """Sum of codimension-one faces, degenerate faces dropped."""

    def faces():
        for x in c:
            if len(x) == 1:
                continue
            for i in range(len(x)):
                y = x[:i] + x[i + 1:]
                if not is_degenerate(y):
                    yield y
    return F2Sum(faces())


def product(x: tuple, y: tuple) -> tuple:
    """The product simplex with the given equal-degree factors."""
    if len(x) != len(y):
        raise ValueError("product factors must have equal degree")
    return tuple(zip(x, y))


def factors(z: tuple) -> tuple[tuple, tuple]:
    """Split a product simplex back into its two factors."""
    return tuple(a for a, _ in z), tuple(b for _, b in z)


def aw(c: F2Sum) -> F2Sum:
    """Alexander-Whitney map: front face of one factor tensor back face of the other.

    Sends a product simplex of degree n to the sum over i of
    (first i+1 labels of x) (x) (labels i..n of y), skipping terms where
    either factor is degenerate.
    """

    def splittings():
        for z in c:
            xs, ys = factors(z)
            for i in range(len(z)):
                xt, yt = xs[:i + 1], ys[i:]
                if not (is_degenerate(xt) or is_degenerate(yt)):
                    yield xt, yt
    return F2Sum(splittings())


def _shuffles(x: tuple, y: tuple):
    """Every shuffle of x with y, one per choice of the steps where x advances."""
    p, q = len(x) - 1, len(y) - 1
    for advance in combinations(range(p + q), p):
        i = j = 0
        z = [(x[0], y[0])]
        for step in range(p + q):
            if i < p and advance[i] == step:
                i += 1
            else:
                j += 1
            z.append((x[i], y[j]))
        yield tuple(z)


def ez(t: F2Sum) -> F2Sum:
    """Eilenberg-Zilber shuffle map, a section of `aw`.

    Sends x (x) y to the sum of the nondegenerate shuffles of x with y.
    """
    return F2Sum(z for x, y in t for z in _shuffles(x, y) if not is_degenerate(z))


def shih(c: F2Sum) -> F2Sum:
    """Shih's explicit homotopy between ez o aw and the identity on a product.

    Degree +1 operator given by a closed formula: a product simplex z of
    degree n with factors x and y goes to the sum, over p, q >= 0 with
    p + q < n and m = n - p - q, of the first m labels of z followed by
    each shuffle of x[m-1 .. n-p] with y[n-p .. n], if nondegenerate.
    """

    def terms():
        for z in c:
            n = len(z) - 1
            xs, ys = factors(z)
            for p in range(n):
                for m in range(1, n - p + 1):  # q = n - p - m runs from n - p - 1 down to 0
                    for tail in _shuffles(xs[m - 1:n - p + 1], ys[n - p:]):
                        yield z[:m] + tail
    return F2Sum(w for w in terms() if not is_degenerate(w))


# --- the standard n-simplex ---

def faces_of_dim(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-dimensional faces of the standard n-simplex, sorted."""
    if m < 0 or m > n:
        return []
    return list(combinations(range(n + 1), m + 1))


def degree_simplices(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d simplices of the standard n-simplex, degenerate ones included."""
    return list(combinations_with_replacement(range(n + 1), d + 1))
