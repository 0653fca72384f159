"""Simplices, products of simplicial sets, and the classical comparison maps.

Every simplicial set used in this package is a nerve, so a simplex of
degree n is just a tuple of n+1 labels: vertices for the standard
simplex, permutations for the symmetric-group nerves.  The i-th face
deletes the i-th label, the i-th degeneracy repeats it, and a simplex is
degenerate exactly when two neighbouring labels agree.  This makes the
normal form trivial and reduces the degeneracy-collision test for
products to "some position repeats in both factors at once".

Two different pairings appear:

* a product simplex of X x Y is the zip of its equal-degree factors,
  i.e. a label tuple whose labels are pairs;
* a tensor term of N(X) (x) N(Y) is a plain pair (x, y) of simplices of
  independent degrees.

The chain-level maps `aw` (Alexander-Whitney), `ez` (Eilenberg-Zilber
shuffle map) and `shih` (Shih's explicit homotopy) convert between the
two.  Written composites of face/degeneracy operators apply the
rightmost operator first; an empty operator range is the identity.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .f2 import F2Sum


def degeneracy(x: tuple, i: int) -> tuple:
    """Repeat the i-th label."""
    if not 0 <= i < len(x):
        raise IndexError(f"degeneracy index {i} out of range for degree {len(x) - 1}")
    return x[:i + 1] + x[i:]


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


def ez(t: F2Sum) -> F2Sum:
    """Eilenberg-Zilber shuffle map, a section of `aw`.

    For x of degree p and y of degree q, sums over the ways to choose the
    p positions (out of p+q) where the x coordinate advances; x is
    degenerated at the remaining positions and y at the chosen ones.
    """

    def shuffles():
        for x, y in t:
            p, q = len(x) - 1, len(y) - 1
            for advance in combinations(range(p + q), p):
                chosen = set(advance)
                xs = x
                for i in range(p + q):
                    if i not in chosen:
                        xs = degeneracy(xs, i)
                ys = y
                for i in advance:
                    ys = degeneracy(ys, i)
                z = tuple(zip(xs, ys))
                if not is_degenerate(z):
                    yield z
    return F2Sum(shuffles())


def shih(c: F2Sum) -> F2Sum:
    """Shih's explicit homotopy between ez o aw and the identity on a product.

    Degree +1 operator given by a closed formula: for each (p, q) with
    p >= 0, q >= 0, p + q < n, truncate the factors, insert one pivot
    degeneracy at m - 1 = n - p - q - 1, and distribute the remaining
    degeneracy indices m..p+q+m over the two factors in all ways.
    """

    def terms():
        for z in c:
            n = len(z) - 1
            if n == 0:
                continue
            xs, ys = factors(z)
            for p in range(n):
                for q in range(n - p):
                    m = n - p - q
                    xbase = degeneracy(xs[:n - p + 1], m - 1)
                    ybase = ys[:n - p - q] + ys[n - p:]
                    for vset in combinations(range(p + q + 1), p):
                        taken = set(vset)
                        xpart = xbase
                        for v in vset:
                            xpart = degeneracy(xpart, v + m)
                        ypart = ybase
                        for w in range(p + q + 1):
                            if w not in taken:
                                ypart = degeneracy(ypart, w + m)
                        znew = tuple(zip(xpart, ypart))
                        if not is_degenerate(znew):
                            yield znew
    return F2Sum(terms())


# --- the standard n-simplex ---

def faces_of_dim(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-dimensional faces of the standard n-simplex, sorted."""
    if m < 0 or m > n:
        return []
    return list(combinations(range(n + 1), m + 1))


def degree_simplices(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d simplices of the standard n-simplex, degenerate ones included."""
    return list(combinations_with_replacement(range(n + 1), d + 1))
