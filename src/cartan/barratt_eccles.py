"""The Barratt-Eccles operad in chains over GF(2), from arity 2 to arity 4.

A permutation is a one-line tuple (s(1), ..., s(r)) over {1, ..., r};
`compose_perm(s, t)` applies t first, then s.  An arity-2 basis element
of degree n is a tuple of n+1 permutations of two letters with distinct
neighbours, so it alternates the identity and the swap; such tuples are
simplices of the nerve of the chaotic groupoid on the symmetric group,
so the generic machinery from `simplicial` applies unchanged.

The Cartan construction only ever composes arity 2 with arity 2.
Composing an arity-2 element with two arity-2 inputs shuffles the three
into one product simplex with `ez` and sends each label (sigma, (a, b))
to the arity-4 permutation `block_compose(sigma, a, b)`.  On top of that
sit the two explicit degree +1 homotopies combined by `cartan_homotopy`,
whose boundary is the difference between "square the product" and
"multiply the squares" at arity 4.  `block_compose` refuses any
permutation that is not of arity 2 with ValueError, so every arity-4
term built here comes from arity-2 labels; `be_compose` and
`diagonal_homotopy` refuse another arity even where the result is zero.
"""

from __future__ import annotations

from functools import partial
from itertools import filterfalse, permutations, starmap

from .f2 import F2Sum, singleton
from .simplicial import aw, ez, is_degenerate, product, shih

ID2 = (1, 2)
SWAP2 = (2, 1)
MID_SWAP4 = (1, 3, 2, 4)
# block_compose on each of the 8 elements (sigma, a, b) of S2 wr S2
_BLOCKS = {(sigma, a, b): a + (b[0] + 2, b[1] + 2) if sigma == ID2 else (a[0] + 2, a[1] + 2) + b
           for sigma in (ID2, SWAP2) for a in (ID2, SWAP2) for b in (ID2, SWAP2)}


def compose_perm(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Composite permutation: apply t first, then s."""
    if len(s) != len(t):
        raise ValueError("cannot compose permutations of different arity")
    return tuple([s[v - 1] for v in t])


def block_compose(sigma: tuple[int, ...], a: tuple[int, ...],
                  b: tuple[int, ...]) -> tuple[int, ...]:
    """S2 wr S2 -> S4: a acts on the block {1,2}, b on {3,4}, then sigma permutes the blocks.

    The identity sigma gives a + (b + 2); the swap gives (a + 2) + b, so
    e.g. block_compose(SWAP2, ID2, ID2) swaps {1,2} with {3,4}.  Every
    other argument, unhashable ones included, raises ValueError.
    """
    try:
        return _BLOCKS[sigma, a, b]
    except (KeyError, TypeError):  # TypeError: an unhashable argument
        raise ValueError("block_compose takes arity-2 permutations only") from None


def nerve_map(fn, c: F2Sum) -> F2Sum:
    """Entry-wise application of a permutation map, normalized."""
    return F2Sum(filterfalse(is_degenerate, [tuple(map(fn, e)) for e in c]))


class _LeftTable(dict):
    """t -> compose_perm(sigma, t) for every permutation t of sigma's arity.

    A label off the table, one of another arity included, is composed
    by `compose_perm` and not stored.
    """

    __slots__ = ("sigma",)

    def __init__(self, sigma: tuple[int, ...]):
        super().__init__((t, compose_perm(sigma, t))
                         for t in permutations(range(1, len(sigma) + 1)))
        self.sigma = sigma

    def __missing__(self, t):
        return compose_perm(self.sigma, t)


# largest arity whose permutations keep a left-multiplication table in _LEFT_TABLES
SIGMA_MEMO_ARITY = 4
# one table per permutation of arity <= SIGMA_MEMO_ARITY, filled whole by the first action
_LEFT_TABLES: dict[tuple[int, ...], _LeftTable] = {}


def sigma_act(sigma: tuple[int, ...], c: F2Sum) -> F2Sum:
    """Left action of a permutation: compose every entry with sigma.

    A permutation of arity at most SIGMA_MEMO_ARITY reads each label
    from its left-multiplication table, t -> sigma o t; any other sigma,
    a list included, calls `compose_perm` per label.  `_LEFT_TABLES`
    holds the 33 tables, 617 entries and 120 KiB by `sys.getsizeof` over
    every object it holds, filled whole by the first action of the
    process (0.7 ms); a refused label (one of another arity) raises
    ValueError and stores nothing.  Labels are compared by ==, so floats
    equal to a permutation read as that permutation.  In-process
    `operad-identities` rounds ran 3.6% to 8.1% slower with
    `compose_perm` per label (best of 8-10 alternating rounds, seeds
    1-4), and 9.3% to 11.5% slower with each table kept for one call
    only (best of 8, seeds 1-3).
    """
    if not _LEFT_TABLES:
        _LEFT_TABLES.update((p, _LeftTable(p)) for r in range(1, SIGMA_MEMO_ARITY + 1)
                            for p in permutations(range(1, r + 1)))
    try:
        act = _LEFT_TABLES[sigma].__getitem__
    except (KeyError, TypeError):  # TypeError: an unhashable sigma, such as a list
        act = partial(compose_perm, sigma)
    return nerve_map(act, c)


def be_compose(e: tuple, x: F2Sum, y: F2Sum) -> F2Sum:
    """Operadic composition e o (x, y) of an arity-2 element with two arity-2 sums.

    Shuffles x with y, then e with the result, into product simplices
    (ez twice) and block-composes each label (sigma, (a, b)); bilinear in
    x and y.
    """
    if any(len(s[0]) != 2 for s in (e, *x, *y)):
        raise ValueError("be_compose takes arity-2 elements only")

    inner = ez(F2Sum([(a, b) for a in x for b in y]))
    outer = ez(F2Sum([(e, t) for t in inner]))
    # block_compose is injective and ez's simplices are nondegenerate, so every image is too
    return F2Sum([tuple([block_compose(sigma, a, b) for sigma, (a, b) in z]) for z in outer])


def cup_generator(i: int) -> tuple:
    """The arity-2 degree-i element behind the cup-i product: alternating identities and swaps."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(ID2 if j % 2 == 0 else SWAP2 for j in range(i + 1))


def outer_embed(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Arity 2 -> 4: sigma permutes the two blocks {1,2} and {3,4}."""
    return block_compose(sigma, ID2, ID2)


def diag_embed(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Arity 2 -> 4: sigma acts inside both blocks simultaneously."""
    return block_compose(ID2, sigma, sigma)


def squared_product(c: F2Sum) -> F2Sum:
    """Plug the degree-0 generator into both slots of an arity-2 element.

    Equal to the entry-wise `outer_embed`, which is how "square of the
    product" acts at arity 4.
    """
    unit = singleton(cup_generator(0))
    return c.map_basis(lambda e: be_compose(e, unit, unit))


def product_of_squares(c: F2Sum) -> F2Sum:
    """Split the doubled element (e, e) with aw, then recompose both halves.

    This is how "product of the squares" acts at arity 4.
    """
    unit = cup_generator(0)

    def per_basis(e):
        for xf, yb in aw(singleton(product(e, e))):
            yield from be_compose(unit, singleton(xf), singleton(yb))

    return c.map_basis(per_basis)


def embedding_homotopy(c: F2Sum) -> F2Sum:
    """Degree +1 telescope between the twisted outer and the diagonal embeddings.

    Basis formula: sum over 0 <= i <= n of the tuple whose first i+1
    entries run through (2 3) * outer_embed and whose remaining entries
    run through diag_embed, with entry i used twice.
    """

    def per_basis(e):
        twisted = [compose_perm(MID_SWAP4, outer_embed(s)) for s in e]
        diagonal = list(map(diag_embed, e))
        return filterfalse(is_degenerate, [tuple(twisted[:i + 1] + diagonal[i:])
                                           for i in range(len(e))])

    return c.map_basis(per_basis)


def diagonal_homotopy(c: F2Sum) -> F2Sum:
    """Degree +1 correction between the strict diagonal and the aw-based one.

    Feeds the doubled element through `shih` and block-composes each
    resulting pair of factors under the identity outer permutation.
    """

    def per_basis(e):
        if len(e[0]) != 2:
            raise ValueError("diagonal_homotopy takes arity-2 elements only")
        blocks = partial(block_compose, ID2)
        # injective on shih's nondegenerate simplices, so no image is degenerate
        return [tuple(starmap(blocks, z)) for z in shih(singleton(product(e, e)))]

    return c.map_basis(per_basis)


def cartan_homotopy(c: F2Sum) -> F2Sum:
    """Sum of the two homotopies; its boundary compares squared_product
    (twisted by (2 3)) with product_of_squares."""
    return embedding_homotopy(c) + diagonal_homotopy(c)
