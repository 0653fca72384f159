"""Slow, direct reimplementations used to cross-check the package.

Everything here is written from the definitions with no sharing of code
paths with the implementation under test: cuts are enumerated one by
one, joins recomputed, values multiplied out.  The one exception is the
reference evaluator `act_reference`: it walks the cached cut plans face
by face and surjection by surjection, without compiling them, so it
shares `_cut_plans`, which the tests check against
`brute_surjection_value` on their own.
"""

from collections import Counter
from itertools import chain, combinations_with_replacement

from cartan.cochains import Cochain, _cut_plans, witness_surjections
from cartan.f2 import F2Sum
from cartan.simplicial import faces_of_dim, is_degenerate


def odd_terms(terms) -> frozenset:
    """The terms that occur an odd number of times, counted one by one.

    The oracles' own parity reduction: an F2Sum built from a frozenset
    keeps it as it is, so no oracle goes through the constructor's loop.
    """
    return frozenset(t for t, k in Counter(terms).items() if k % 2)


def all_faces(n: int) -> list[tuple[int, ...]]:
    """Every nondegenerate face of the standard n-simplex."""
    return list(chain.from_iterable(faces_of_dim(n, m) for m in range(n + 1)))


def tensor_boundary(t: F2Sum) -> F2Sum:
    """Boundary on tensor terms: differentiate each factor in turn."""

    def faces():
        for x, y in t:
            if len(x) > 1:
                for i in range(len(x)):
                    xf = x[:i] + x[i + 1:]
                    if not is_degenerate(xf):
                        yield xf, y
            if len(y) > 1:
                for i in range(len(y)):
                    yf = y[:i] + y[i + 1:]
                    if not is_degenerate(yf):
                        yield x, yf

    return F2Sum(odd_terms(faces()))


def surj_degree(seq: tuple[int, ...]) -> int:
    """Excess of a basis surjection: length minus arity."""
    return len(seq) - max(seq)


def diagonal_iter(k: int, face: tuple[int, ...]) -> F2Sum:
    """All ways to cut a vertex tuple into k+1 consecutive blocks sharing endpoints."""
    if k < 0:
        raise ValueError("need a nonnegative number of cuts")
    m = len(face) - 1
    terms = []
    for cuts in combinations_with_replacement(range(m + 1), k):
        cs = (0,) + cuts + (m,)
        terms.append(tuple(face[cs[t]:cs[t + 1] + 1] for t in range(k + 1)))
    return F2Sum(odd_terms(terms))


def join(faces) -> tuple[int, ...] | None:
    """Union of pairwise disjoint faces, None when any two overlap."""
    seen: set[int] = set()
    total = 0
    for f in faces:
        total += len(f)
        seen.update(f)
    if len(seen) != total:
        return None
    return tuple(sorted(seen))


def surjection_monomials(seq: tuple[int, ...], target: tuple[int, ...]) -> frozenset:
    """Parity-reduced set of per-value face assignments realized by cuts of `target`.

    A member (F_1, ..., F_r) stands for the summand prod_v alpha_v(F_v);
    no dimension constraint is imposed, so this is the expansion for
    formal cochain inputs.  Enumerates every cut directly (no pruning),
    which keeps it an independent cross-check of `apply_surjection`.
    """
    r = max(seq)

    def assignments():
        for blocks in diagonal_iter(len(seq) - 1, target):
            joins = []
            for v in range(1, r + 1):
                g = join([blocks[t] for t, val in enumerate(seq) if val == v])
                if g is None:
                    break
                joins.append(g)
            else:
                yield tuple(joins)

    return odd_terms(assignments())


def brute_surjection_value(seq, cochains, target) -> int:
    """Evaluate the action of `seq` by walking every cut of `target`."""
    r = max(seq)
    m = len(target) - 1
    total = 0
    for cuts in combinations_with_replacement(range(m + 1), len(seq) - 1):
        cs = (0,) + cuts + (m,)
        blocks = [target[cs[t]:cs[t + 1] + 1] for t in range(len(seq))]
        factor = 1
        for v in range(1, r + 1):
            verts = [u for t, b in enumerate(blocks) if seq[t] == v for u in b]
            if len(set(verts)) != len(verts):
                factor = 0
                break
            if cochains[v - 1].value(tuple(sorted(verts))) == 0:
                factor = 0
                break
        total ^= factor
    return total


def plan_walk_value(seq, cochains, target) -> int:
    """Evaluate the action on one face by walking the cut plans, uncompiled."""
    dims = tuple(c.dim for c in cochains)
    total = 0
    for plan in _cut_plans(seq, dims, len(target) - 1):
        for c, positions in zip(cochains, plan):
            if tuple(target[p] for p in positions) not in c.support:
                break
        else:
            total ^= 1
    return total


def act_reference(surjs, cochains, n: int, dim: int) -> Cochain:
    """Sum of the surjections acting on the cochains, one face and one surjection at a time."""
    return Cochain(n, dim, [f for f in faces_of_dim(n, dim)
                            if sum(plan_walk_value(s, cochains, f) for s in surjs) % 2])


def delta_reference(a: Cochain) -> Cochain:
    """Coboundary as the parity of codimension-one subfaces, over every (dim+1)-face."""
    out = []
    for f in faces_of_dim(a.ambient, a.dim + 1):
        cnt = sum(1 for i in range(len(f)) if f[:i] + f[i + 1:] in a.support)
        if cnt % 2:
            out.append(f)
    return Cochain(a.ambient, a.dim + 1, out)


def cup0_value(a: Cochain, b: Cochain, target) -> int:
    """Front-face/back-face formula for the classical cup product."""
    p = a.dim
    if len(target) - 1 != a.dim + b.dim:
        return 0
    return a.value(target[:p + 1]) * b.value(target[p:])


def restrict(c: Cochain, verts) -> Cochain:
    """Pull a cochain back along the inclusion of the subsimplex on `verts`."""
    keep = set(verts)
    index = {v: i for i, v in enumerate(verts)}
    support = [tuple(index[v] for v in f) for f in c.support if keep.issuperset(f)]
    return Cochain(len(verts) - 1, c.dim, support)


def zeta_monomials(i: int, n: int) -> frozenset:
    """Symbolic witness expansion on the top face, for homogeneous inputs.

    Monomials whose two first-slot faces (or two second-slot faces)
    differ in size vanish on homogeneous cochains and are dropped;
    factor order within a slot pair is immaterial, so pairs are sorted;
    the remainder is parity-reduced.
    """

    def monomials():
        for s in witness_surjections(i):
            for mono in surjection_monomials(s, tuple(range(n + 1))):
                if len(mono[0]) != len(mono[1]) or len(mono[2]) != len(mono[3]):
                    continue
                yield tuple(sorted(mono[:2])), tuple(sorted(mono[2:]))

    return odd_terms(monomials())
