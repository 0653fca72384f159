"""Slow, direct reimplementations used to cross-check the package.

Everything here is written from the definitions with no sharing of code
paths with the implementation under test: cuts are enumerated one by
one, joins recomputed, tables read in full for every composition of
the row lengths, values multiplied out.  The one exception is the
reference evaluator `act_reference`: it walks the cached cut plans face
by face and surjection by surjection, without compiling them, so it
shares `_cut_plans`, which the tests check cut by cut against
`brute_cut_plans` and value by value against `brute_surjection_value`.
The defect references are literal sums of whole cup products:
`squares_reference` for the product of squares, and `defect_reference`
for the whole defect, its squared product built as two whole cups.
They share `cup`, which the tests check against `act_reference`, and
check the two arity-4 word families that `cartan_defect` evaluates in
place of every cup.
`cup_i_reference`, the closed cup-i formula, uses neither the cut
plans nor the evaluator.
`pullback` maps each face through a vertex map and reads the support,
with no action and no cut plan.
`ez_reference` and `shih_reference` build every shuffle by applying
degeneracy operators one index at a time, where the package walks its
shuffles directly.  `be_compose_reference` shuffles with
`ez_reference` and composes each label letter by letter with
`wreath_reference`, where the package looks labels up in a table.
Two helpers are not references: `value` reads a cochain on one face,
and `act_word` runs one surjection word as a whole action through the
package's one action entry, `_act_cochain` on the `_operands` bundle,
so the tests can compare it face by face with `brute_surjection_value`.
"""

from collections import Counter
from itertools import chain, combinations, combinations_with_replacement

from cartan.cochains import (Cochain, _act_cochain, _cut_plans, _operands, cartan_coboundary,
                             cup, delta, witness_surjections)
from cartan.f2 import F2Sum
from cartan.simplicial import factors, faces_of_dim, is_degenerate


def odd_terms(terms) -> frozenset:
    """The terms that occur an odd number of times, counted one by one.

    The oracles' own parity reduction: an F2Sum built from a frozenset
    keeps it as it is, so no oracle goes through the constructor's loop.
    """
    return frozenset(t for t, k in Counter(terms).items() if k % 2)


def value(c: Cochain, face) -> int:
    """The value of a cochain on a face: 1 when the face is in its support."""
    return int(tuple(face) in c.support)


def _one_word(seq: tuple[int, ...]) -> tuple:
    return (seq,)


def act_word(seq: tuple[int, ...], cochains, dim: int) -> Cochain:
    """The one word `seq` acting on the cochains, as a whole dim-cochain.

    The word stands in the place of the index, so each word has one
    schedule per shape, as each index of a family does.
    """
    return _act_cochain(_one_word, seq, _operands(cochains), dim)


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


def degeneracy(x: tuple, i: int) -> tuple:
    """Repeat the i-th label."""
    if not 0 <= i < len(x):
        raise IndexError(f"degeneracy index {i} out of range for degree {len(x) - 1}")
    return x[:i + 1] + x[i:]


def ez_reference(t: F2Sum) -> F2Sum:
    """Eilenberg-Zilber shuffle map, each shuffle built from degeneracies.

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
    return F2Sum(odd_terms(shuffles()))


def wreath_reference(sigma: tuple, a: tuple, b: tuple) -> tuple:
    """The element of S2 wr S2 in S4, letter by letter: letter v of block k = (v - 1) // 2
    goes through that block's permutation, (a, b)[k], then to block sigma(k)."""
    return tuple(2 * (sigma[(v - 1) // 2] - 1) + (a, b)[(v - 1) // 2][(v - 1) % 2]
                 for v in (1, 2, 3, 4))


def be_compose_reference(e: tuple, x: F2Sum, y: F2Sum) -> F2Sum:
    """Operadic composition e o (x, y) of arity-2 elements, shuffled by `ez_reference`."""
    inner = ez_reference(F2Sum((a, b) for a in x for b in y))
    labels = (tuple(wreath_reference(sigma, a, b) for sigma, (a, b) in z)
              for z in ez_reference(F2Sum((e, t) for t in inner)))
    return F2Sum(odd_terms(w for w in labels if not is_degenerate(w)))


def shih_reference(c: F2Sum) -> F2Sum:
    """Shih's homotopy, each term built from degeneracies.

    For each (p, q) with p >= 0, q >= 0, p + q < n, truncate the factors,
    insert one pivot degeneracy at m - 1 = n - p - q - 1, and distribute
    the remaining degeneracy indices m..p+q+m over the two factors in all
    ways.
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
    return F2Sum(odd_terms(terms()))


def compositions(total: int, parts: int):
    """Ordered compositions of `total` into `parts` positive summands, lexicographic."""
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts:
            out.append(c - prev)
            prev = c
        out.append(total - prev)
        yield tuple(out)


def reduce_table(perms: tuple, a: tuple[int, ...]) -> tuple[int, ...]:
    """Read one value sequence off the table `perms` with row lengths `a`.

    Row i contributes a_i values, each time the first entry of perms[i]
    not currently used; closing a non-final row releases its last value
    for reuse by later rows.
    """
    used: set[int] = set()
    out: list[int] = []
    last = len(a) - 1
    for i, cnt in enumerate(a):
        row = perms[i]
        for _ in range(cnt):
            v = next(x for x in row if x not in used)
            out.append(v)
            used.add(v)
        if i != last:
            used.discard(out[-1])
    return tuple(out)


def table_reduction_reference(c: F2Sum) -> F2Sum:
    """Table reduction read naively: every composition's full reading, then the basis filter."""

    def readings():
        for e in c:
            r, n = len(e[0]), len(e) - 1
            for a in compositions(n + r, n + 1):
                seq = reduce_table(e, a)
                if len(set(seq)) == r and all(x != y for x, y in zip(seq, seq[1:])):
                    yield seq

    return F2Sum(odd_terms(readings()))


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
    which keeps it an independent cross-check of the action.
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
            if value(cochains[v - 1], tuple(sorted(verts))) == 0:
                factor = 0
                break
        total ^= factor
    return total


def brute_cut_plans(seq, dims, m: int) -> list:
    """Target positions joined under each value, for every cut of an m-face that fits `dims`.

    Walks every choice of cut points in order and keeps a cut when the
    blocks of each value v are disjoint and join to dims[v - 1] + 1
    positions; the independent reference for `_cut_plans`.
    """
    plans = []
    for cuts in combinations_with_replacement(range(m + 1), len(seq) - 1):
        cs = (0,) + cuts + (m,)
        joined = [[] for _ in dims]
        for t, v in enumerate(seq):
            joined[v - 1].extend(range(cs[t], cs[t + 1] + 1))
        if all(len(set(p)) == len(p) == d + 1 for p, d in zip(joined, dims)):
            plans.append(tuple(map(tuple, joined)))
    return plans


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


def cup_i_reference(i: int, a: Cochain, b: Cochain) -> Cochain:
    """Cup-i product by the closed formula of Medina-Mardones, with no cut plans.

    From *New formulas for cup-i products and fast computation of
    Steenrod squares* (2020): on an m-face f, with m = dim a + dim b - i,
    the value is the sum over subsets U of the positions {0..m} with
    |U| = m - i of a(f minus the positions in U0) b(f minus those in U1),
    where U0 holds the u_j (u_1 < u_2 < ..., j counted from 1) with
    u_j + j even and U1 the rest of U.
    """
    m = a.dim + b.dim - i
    out = []
    # no U has a negative size: the sum is empty when i > m
    for f in faces_of_dim(a.ambient, m) if i <= m else ():
        total = 0
        for u in combinations(range(m + 1), m - i):
            u0 = {p for j, p in enumerate(u, 1) if (p + j) % 2 == 0}
            u1 = set(u) - u0
            total ^= (value(a, tuple(v for p, v in enumerate(f) if p not in u0))
                      & value(b, tuple(v for p, v in enumerate(f) if p not in u1)))
        if total:
            out.append(f)
    return Cochain(a.ambient, m, out)


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
    return value(a, target[:p + 1]) * value(b, target[p:])


def pullback(f: tuple[int, ...], c: Cochain) -> Cochain:
    """Pull a cochain on the n-simplex back along the monotone vertex map f: [m] -> [n].

    f is the tuple (f(0), ..., f(m)), so m = len(f) - 1.  A face s of the
    m-simplex is in the support of f*c when (f(s_0), ..., f(s_d)) is in
    the support of c; an image with a repeated vertex is degenerate and
    in no support, so f*c is 0 on it.
    """
    return Cochain(len(f) - 1, c.dim, [s for s in faces_of_dim(len(f) - 1, c.dim)
                                       if tuple(f[v] for v in s) in c.support])


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


def squares_reference(i: int, a: Cochain, b: Cochain) -> Cochain:
    """Sum over j of (a cup_j a) cup_0 (b cup_{i-j} b), each cup built whole."""
    out = Cochain(a.ambient, 2 * a.dim + 2 * b.dim - i)
    for j in range(i + 1):
        out = out + cup(0, cup(j, a, a), cup(i - j, b, b))
    return out


def defect_reference(i: int, a: Cochain, b: Cochain) -> Cochain:
    """The literal defect: delta(witness) + (a cup_0 b) cup_i (a cup_0 b) + the product of
    squares, every product a whole cup."""
    ab = cup(0, a, b)
    return delta(cartan_coboundary(i, a, b)) + cup(i, ab, ab) + squares_reference(i, a, b)
