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

The per-label work runs in C-level builtins.  The neighbour test is
`map(eq, x, x[1:])`, and a shuffle is `zip(gx(x), gy(y))` for a pair
of `itemgetter`s that pick the labels of each factor along the walk.
The getters of every shuffle of a shape (p, q) are built once and kept
in `_SHUFFLE_GETTERS` when p + q <= SHUFFLE_MEMO_DEGREE, the largest
`--max-degree` of the homotopy suites; a larger shape builds them per
call and keeps nothing.  Measured with `tracemalloc`, the shapes with
p + q = 8 take 0.09 MB (0.18 MB for every shape up to 8, the degree of
the homotopy suites' default and of the benchmark), those with
p + q = 12 take 1.94 MB (3.66 MB up to 12), and p + q = 16 alone would
take 35.6 MB.
"""

from __future__ import annotations

from itertools import (accumulate, chain, combinations, combinations_with_replacement,
                       compress, filterfalse, starmap)
from operator import eq, itemgetter, ne

from .f2 import F2Sum

# largest p + q whose shuffle getters stay in _SHUFFLE_GETTERS
SHUFFLE_MEMO_DEGREE = 12
_SHUFFLE_GETTERS: dict[tuple[int, int], list] = {}


def is_degenerate(x: tuple) -> bool:
    return any(map(eq, x, x[1:]))


def boundary(c: F2Sum) -> F2Sum:
    """Sum of codimension-one faces, degenerate faces dropped.

    A face of a nondegenerate x is degenerate only where deleting label i
    makes x[i - 1] and x[i + 1] neighbours, so only those are tested.  A
    degenerate term has zero normalized boundary: where x[j] == x[j + 1],
    deleting label j or j + 1 gives the same face, so the two cancel, and
    every other face keeps that repeat and is degenerate.
    """
    faces = []
    for x in c:
        if len(x) < 2 or is_degenerate(x):
            continue
        faces += [x[:i] + x[i + 1:] for i in compress(range(1, len(x) - 1), map(ne, x, x[2:]))]
        faces += [x[1:], x[:-1]]
    return F2Sum(faces)


def product(x: tuple, y: tuple) -> tuple:
    """The product simplex with the given equal-degree factors."""
    if len(x) != len(y):
        raise ValueError("product factors must have equal degree")
    return tuple(zip(x, y))


def factors(z: tuple) -> tuple[tuple, tuple]:
    """Split a product simplex back into its two factors."""
    return tuple(zip(*z))


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


def _shuffle_getters(p: int, q: int) -> list:
    """The (x, y) label getters of every shuffle of shape (p, q), p + q >= 1.

    One pair per choice of the steps where x advances: after k steps the
    walk is at x[i], y[k - i], where i counts the x-steps among them.
    """
    getters = _SHUFFLE_GETTERS.get((p, q))
    if getters is None:
        getters = []
        for advance in combinations(range(p + q), p):
            steps = set(advance)
            xi = list(accumulate((s in steps for s in range(p + q)), initial=0))
            getters.append((itemgetter(*xi), itemgetter(*[s - i for s, i in enumerate(xi)])))
        if p + q <= SHUFFLE_MEMO_DEGREE:
            _SHUFFLE_GETTERS[p, q] = getters
    return getters


def _shuffles(x: tuple, y: tuple) -> list:
    """Every shuffle of x with y, one per choice of the steps where x advances."""
    p, q = len(x) - 1, len(y) - 1
    if p + q == 0:  # one label: itemgetter of one index would return it bare
        return [((x[0], y[0]),)]
    return [tuple(zip(gx(x), gy(y))) for gx, gy in _shuffle_getters(p, q)]


def ez(t: F2Sum) -> F2Sum:
    """Eilenberg-Zilber shuffle map, a section of `aw`.

    Sends x (x) y to the sum of the nondegenerate shuffles of x with y.
    """
    return F2Sum(filterfalse(is_degenerate, chain.from_iterable(starmap(_shuffles, t))))


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
                    head = z[:m]
                    yield from [head + tail for tail in _shuffles(xs[m - 1:n - p + 1], ys[n - p:])]
    return F2Sum(filterfalse(is_degenerate, terms()))


# --- the standard n-simplex ---

def faces_of_dim(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-dimensional faces of the standard n-simplex, sorted."""
    if m < 0 or m > n:
        return []
    return list(combinations(range(n + 1), m + 1))


def degree_simplices(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d simplices of the standard n-simplex, degenerate ones included."""
    return list(combinations_with_replacement(range(n + 1), d + 1))
