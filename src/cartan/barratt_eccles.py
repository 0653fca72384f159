"""The Barratt-Eccles operad in chains over GF(2), and the Cartan homotopies.

A permutation is a one-line tuple (s(1), ..., s(r)) over {1, ..., r};
`compose_perm(s, t)` applies t first, then s.  An arity-r basis element
of degree n is a tuple of n+1 permutations of r letters with distinct
neighbours; such tuples are simplices of the nerve of the chaotic
groupoid on the symmetric group, so the generic machinery from
`simplicial` applies unchanged.

Operadic composition shuffles the inputs into one product simplex with
`ez` (right-associated) and then block-composes the labels.  On top of
that sit the two explicit degree +1 homotopies combined by
`cartan_homotopy`, whose boundary is the difference between "square the
product" and "multiply the squares" at arity 4.
"""

from __future__ import annotations

from itertools import product as iterproduct

from .f2 import F2Sum, singleton
from .simplicial import aw, ez, is_degenerate, product, shih


def identity_perm(r: int) -> tuple[int, ...]:
    return tuple(range(1, r + 1))


def compose_perm(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Composite permutation: apply t first, then s."""
    if len(s) != len(t):
        raise ValueError("cannot compose permutations of different arity")
    return tuple(s[v - 1] for v in t)


def transposition(r: int, a: int, b: int) -> tuple[int, ...]:
    """The transposition (a b) in one-line notation on r letters."""
    if not (1 <= a <= r and 1 <= b <= r) or a == b:
        raise ValueError(f"({a} {b}) is not a transposition on {r} letters")
    out = list(range(1, r + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


ID2 = identity_perm(2)
SWAP2 = transposition(2, 1, 2)
MID_SWAP4 = transposition(4, 2, 3)


def block_compose(sigma: tuple[int, ...], taus) -> tuple[int, ...]:
    """Compose permutations in blocks: sigma permutes the blocks, tau_i acts inside block i.

    Block i (of size len(taus[i])) is sent to the slot sigma(i) counted in
    the output, so e.g. block_compose((2,1), (ID2, ID2)) swaps {1,2} with {3,4}.
    """
    r = len(sigma)
    if r != len(taus):
        raise ValueError("arity mismatch between sigma and the block list")
    sizes = [len(t) for t in taus]
    slot_sizes = [0] * r
    for i in range(r):
        slot_sizes[sigma[i] - 1] = sizes[i]
    out_off = [0] * r
    acc = 0
    for t in range(r):
        out_off[t] = acc
        acc += slot_sizes[t]
    out = [0] * sum(sizes)
    pos = 0
    for i in range(r):
        base = out_off[sigma[i] - 1]
        tau = taus[i]
        for j in range(sizes[i]):
            out[pos + j] = base + tau[j]
        pos += sizes[i]
    return tuple(out)


def sigma_act(sigma: tuple[int, ...], c: F2Sum) -> F2Sum:
    """Left action of a permutation: compose every entry with sigma."""

    def images():
        for e in c:
            if len(sigma) != len(e[0]):
                raise ValueError("arity mismatch between permutation and element")
            t = tuple(compose_perm(sigma, s) for s in e)
            if not is_degenerate(t):
                yield t
    return F2Sum(images())


def nerve_map(fn, c: F2Sum) -> F2Sum:
    """Entry-wise application of a permutation map, normalized."""
    images = (tuple(fn(s) for s in e) for e in c)
    return F2Sum(t for t in images if not is_degenerate(t))


def be_compose(e: tuple, *inputs: F2Sum) -> F2Sum:
    """Operadic composition of a basis element with one sum per input slot.

    Shuffles e with the inputs into product simplices (ez applied
    right-to-left) and block-composes the resulting label tuples;
    multilinear in the input slots.
    """
    r = len(e[0])
    if len(inputs) != r:
        raise ValueError(f"arity {r} element needs {r} inputs, got {len(inputs)}")

    def composites():
        for combo in iterproduct(*(tuple(s) for s in inputs)):
            prod = singleton(combo[-1])
            for x in list(combo[:-1])[::-1] + [e]:
                prod = ez(F2Sum((x, t) for t in prod))
            for z in prod:
                w = tuple(_block_label(lab, r) for lab in z)
                if not is_degenerate(w):
                    yield w
    return F2Sum(composites())


def _block_label(label, r):
    # label is (sigma, (tau_1, (tau_2, ...))) nested to r input labels
    sigma, rest = label
    taus = []
    for _ in range(r - 1):
        t, rest = rest
        taus.append(t)
    taus.append(rest)
    return block_compose(sigma, taus)


def cup_generator(i: int) -> tuple:
    """The arity-2 degree-i element behind the cup-i product: alternating identities and swaps."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(ID2 if j % 2 == 0 else SWAP2 for j in range(i + 1))


def outer_embed(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Arity 2 -> 4: sigma permutes the two blocks {1,2} and {3,4}."""
    return block_compose(sigma, (ID2, ID2))


def diag_embed(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Arity 2 -> 4: sigma acts inside both blocks simultaneously."""
    return block_compose(ID2, (sigma, sigma))


def squared_product(c: F2Sum) -> F2Sum:
    """Plug the degree-0 generator into both slots of an arity-2 element.

    Equal to the entry-wise `outer_embed`, which is how "square of the
    product" acts at arity 4.
    """
    unit = singleton(cup_generator(0))
    return c.map_basis(lambda e: be_compose(e, unit, unit))


def product_of_squares(c: F2Sum) -> F2Sum:
    """Split an arity-2 element diagonally with aw, then recompose both halves.

    This is how "product of the squares" acts at arity 4.
    """
    unit = cup_generator(0)

    def per_basis(e):
        for xf, yb in aw_double(e):
            yield from be_compose(unit, singleton(xf), singleton(yb))

    return c.map_basis(per_basis)


def aw_double(e: tuple) -> F2Sum:
    """Alexander-Whitney splitting of the doubled element (e, e)."""
    return aw(singleton(product(e, e)))


def embedding_homotopy(c: F2Sum) -> F2Sum:
    """Degree +1 telescope between the twisted outer and the diagonal embeddings.

    Basis formula: sum over 0 <= i <= n of the tuple whose first i+1
    entries run through (2 3) * outer_embed and whose remaining entries
    run through diag_embed, with entry i used twice.
    """

    def per_basis(e):
        for i in range(len(e)):
            t = tuple(compose_perm(MID_SWAP4, outer_embed(s)) for s in e[:i + 1]) \
                + tuple(diag_embed(s) for s in e[i:])
            if not is_degenerate(t):
                yield t

    return c.map_basis(per_basis)


def diagonal_homotopy(c: F2Sum) -> F2Sum:
    """Degree +1 correction between the strict diagonal and the aw-based one.

    Feeds the doubled element through `shih` and block-composes each
    resulting pair of factors under the identity outer permutation.
    """

    def per_basis(e):
        for z in shih(singleton(product(e, e))):
            w = tuple(block_compose(ID2, (a, b)) for a, b in z)
            if not is_degenerate(w):
                yield w

    return c.map_basis(per_basis)


def cartan_homotopy(c: F2Sum) -> F2Sum:
    """Sum of the two homotopies; its boundary compares squared_product
    (twisted by (2 3)) with product_of_squares."""
    return embedding_homotopy(c) + diagonal_homotopy(c)
